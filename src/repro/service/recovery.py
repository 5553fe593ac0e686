"""Crash recovery for :class:`repro.service.ArrayStore` directories.

The store's write paths are crash-safe by construction — version files
and the manifest are committed via tempfile + fsync + rename, with a
write-ahead **intent record** bracketing every multi-file operation —
so after a crash the directory is always in one of a small set of
states this module knows how to repair:

* stale ``*.tmp`` / ``*.tmp-<tid>`` files from an interrupted write
  are deleted (their operation never committed);
* a pending intent record is resolved against the manifest (the single
  source of truth): an already-recorded version means the operation
  completed and the intent is simply cleared, an orphan version file
  means it did not and the file is quarantined, a pending delete is
  completed;
* every dataset's chain is walked oldest-first and each container
  opened (header + TOC, which with checksums verifies both); the first
  broken version truncates the chain there — later files are
  quarantined, the manifest tail dropped — and a broken version 0
  quarantines the whole dataset.

Nothing is ever silently discarded: quarantined files move to
``<root>/quarantine/`` for post-mortem, and :class:`RecoveryReport`
records every action taken.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field

from repro.compressor.container import TiledReader

__all__ = ["RecoveryReport", "recover_store"]

#: subdirectory damaged files are moved into (never deleted)
QUARANTINE_DIR = "quarantine"

_TEMP_RE = re.compile(r"(\.tmp$|\.tmp-\d+$)")


@dataclass
class RecoveryReport:
    """Everything one :func:`recover_store` pass did.

    ``clean`` is true when the directory needed no repairs at all.
    """

    removed_temps: list = field(default_factory=list)
    quarantined: list = field(default_factory=list)
    truncated: dict = field(default_factory=dict)  # name -> [old, new]
    dropped: list = field(default_factory=list)
    intent_resolved: str | None = None

    @property
    def clean(self) -> bool:
        return not (
            self.removed_temps
            or self.quarantined
            or self.truncated
            or self.dropped
            or self.intent_resolved
        )

    def to_json(self) -> dict:
        return {
            "clean": self.clean,
            "removed_temps": list(self.removed_temps),
            "quarantined": list(self.quarantined),
            "truncated": {
                name: list(span) for name, span in self.truncated.items()
            },
            "dropped": list(self.dropped),
            "intent_resolved": self.intent_resolved,
        }


def _quarantine(store, filename: str, report: RecoveryReport) -> None:
    """Move one store-relative file into the quarantine directory."""
    src = os.path.join(store.root, filename)
    if not os.path.exists(src):
        return
    qdir = os.path.join(store.root, QUARANTINE_DIR)
    os.makedirs(qdir, exist_ok=True)
    dst = os.path.join(qdir, filename)
    suffix = 0
    while os.path.exists(dst):
        suffix += 1
        dst = os.path.join(qdir, f"{filename}.{suffix}")
    os.replace(src, dst)
    report.quarantined.append(filename)


def _container_intact(path: str, deep: bool) -> bool:
    """Can *path* be opened (and, with *deep*, fully re-checksummed)?"""
    try:
        with TiledReader(path) as reader:
            if deep:
                reader.verify_tiles()
    except (ValueError, OSError):
        return False
    return True


def _resolve_intent(store, report: RecoveryReport) -> None:
    """Apply or roll back the pending intent record, then clear it."""
    path = store._intent_path()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            intent = json.load(fh)
        if not isinstance(intent, dict):
            raise ValueError("not an object")
    except (OSError, ValueError):
        # a torn intent write: the guarded operation never started
        # renaming files, so clearing the record is the whole repair
        os.remove(path)
        report.intent_resolved = "discarded unreadable intent record"
        return
    op = intent.get("op")
    name = intent.get("name")
    datasets = store._manifest["datasets"]
    if op == "put":
        version = int(intent.get("version", 0))
        filename = intent.get("file", "")
        recorded = False
        if name in datasets:
            recorded = any(
                int(snap.get("version", -1)) == version
                and snap.get("file") == filename
                for snap in store._snapshots(datasets[name])
            )
        if recorded:
            report.intent_resolved = (
                f"put of {name!r} v{version} had committed; cleared"
            )
        else:
            # the version file may have been renamed into place before
            # the manifest recorded it — the manifest wins, the orphan
            # is quarantined
            _quarantine(store, filename, report)
            report.intent_resolved = (
                f"rolled back uncommitted put of {name!r} v{version}"
            )
    elif op == "delete":
        if name in datasets:
            store._drop_readers(name)
            del datasets[name]
            store._bump_generation(name)
        for filename in intent.get("files", ()):
            target = os.path.join(store.root, filename)
            if os.path.exists(target):
                os.remove(target)
        report.intent_resolved = f"completed delete of {name!r}"
    else:
        report.intent_resolved = f"discarded unknown intent op {op!r}"
    os.remove(path)


def recover_store(store, deep: bool = False) -> "RecoveryReport":
    """Repair *store*'s directory after a crash; report what was done.

    Safe (and cheap) to run on a healthy store: a clean directory
    yields a report with ``clean == True`` and no side effects.  With
    ``deep=True`` every tile payload of every container is
    re-checksummed, not just headers and TOCs.
    """
    report = RecoveryReport()
    with store._lock:
        # 1. stale temp files: their operations never committed
        for filename in sorted(os.listdir(store.root)):
            if _TEMP_RE.search(filename):
                os.remove(os.path.join(store.root, filename))
                report.removed_temps.append(filename)

        # 2. pending intent record
        if os.path.exists(store._intent_path()):
            _resolve_intent(store, report)

        # 3. chain verification, oldest version first
        datasets = store._manifest["datasets"]
        for name in sorted(datasets):
            entry = datasets[name]
            snapshots = store._snapshots(entry)
            broken_at = None
            for snap in snapshots:
                path = os.path.join(store.root, snap["file"])
                if not _container_intact(path, deep):
                    broken_at = int(snap["version"])
                    break
            if broken_at is None:
                continue
            store._drop_readers(name)
            if broken_at == 0:
                for snap in snapshots:
                    _quarantine(store, snap["file"], report)
                del datasets[name]
                store._bump_generation(name)
                report.dropped.append(name)
                continue
            old_latest = int(entry.get("latest_version", 0))
            for snap in snapshots[broken_at:]:
                _quarantine(store, snap["file"], report)
            entry["snapshots"] = snapshots[:broken_at]
            entry["latest_version"] = broken_at - 1
            entry["total_compressed_bytes"] = sum(
                int(s.get("compressed_bytes", 0))
                for s in entry["snapshots"]
            )
            report.truncated[name] = [old_latest, broken_at - 1]

        if not report.clean:
            store._persist()
    store.cache.invalidate_where(
        lambda key: key[0] in report.dropped or key[0] in report.truncated
    )
    return report
