"""Cross-snapshot plan caching for the adaptive planner.

In-situ compression dumps the same fields snapshot after snapshot;
consecutive snapshots are statistically close, so the expensive part of
adaptive planning — the per-tile model fits and the Lagrangian bound
allocation — can usually be reused wholesale.  :class:`PlannerCache`
keys a previous snapshot's :class:`~repro.compressor.adaptive.
AdaptivePlan` by ``(dataset name, config hash)`` and re-validates it
against the *new* snapshot's vectorized per-tile statistics
(:func:`~repro.core.sampling.batch_tile_stats`): when every tile's
summary stats are within ``drift_tol`` of the fingerprint the plan was
computed on, the cached plan is replayed; otherwise the planner falls
back to a fresh plan and the entry is refreshed.

Reuse is always *safe*: the per-point error bound is enforced by the
compressor under whatever per-tile bound the plan records, so a stale
plan can only cost bitrate/PSNR optimality, never correctness — the
drift guard protects quality, not the bound.

Caches can be purely in-memory (one serving process planning many
snapshots) or file-backed (``path=``, JSON) so separate CLI invocations
share plans; :meth:`PlannerCache.at_path` hands out one shared instance
per resolved path.  Corrupt files and structurally invalid entries are
dropped and counted (``rejected``), never raised to the caller.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading

import numpy as np

from repro.core.sampling import TileStatsBatch

__all__ = [
    "PlannerCache",
    "stats_fingerprint",
    "fingerprint_drift",
    "planner_config_hash",
]

#: Default re-validation tolerance: maximum per-tile summary-stat shift
#: (normalized by the global value range) before a cached plan is
#: considered stale and the planner re-plans from scratch.
DEFAULT_DRIFT_TOL = 0.1

#: Fingerprint schema version — bump when the stat set changes, so old
#: cache files miss cleanly instead of comparing incompatible vectors.
_FINGERPRINT_VERSION = 1

_STAT_KEYS = ("means", "stds", "ranges", "grads")


def stats_fingerprint(stats: TileStatsBatch) -> dict:
    """The compact per-tile stat summary a cached plan is keyed on.

    Gradient energy is square-rooted into value units so every
    component of the fingerprint drifts on the same scale.
    """
    return {
        "version": _FINGERPRINT_VERSION,
        "n_tiles": int(stats.n_tiles),
        "value_range": float(stats.value_range),
        "means": [float(v) for v in stats.means],
        "stds": [float(v) for v in stats.stds],
        "ranges": [float(v) for v in stats.ranges],
        "grads": [float(np.sqrt(v)) for v in stats.grad_energy],
    }


def fingerprint_drift(old: dict, new: dict) -> float:
    """Largest normalized per-tile stat shift between two fingerprints.

    Every component is compared in value units and normalized by the
    larger of the two global value ranges, so the metric is invariant
    under rescaling the field.  Structurally incompatible fingerprints
    drift infinitely (always a miss).
    """
    try:
        if (
            old["version"] != new["version"]
            or old["n_tiles"] != new["n_tiles"]
        ):
            return float("inf")
        scale = max(
            float(old["value_range"]), float(new["value_range"])
        )
        if scale <= 0:
            scale = 1.0
        drift = 0.0
        for key in _STAT_KEYS:
            a = np.asarray(old[key], dtype=np.float64)
            b = np.asarray(new[key], dtype=np.float64)
            if a.shape != b.shape:
                return float("inf")
            if a.size:
                drift = max(
                    drift, float(np.max(np.abs(a - b))) / scale
                )
        return drift
    except (KeyError, TypeError, ValueError):
        return float("inf")


def planner_config_hash(config, planner) -> str:
    """Stable hash of everything that shapes a plan besides the data.

    Two compression runs with the same hash and statistically matching
    snapshots would plan identically, so their plans are
    interchangeable.  Covers the config fields the planner reads plus
    the planner's own search parameters.
    """
    payload = {
        "predictor": config.predictor,
        "mode": config.mode.value,
        "error_bound": float(config.error_bound),
        "quant_radius": int(config.quant_radius),
        "lossless": config.lossless,
        "lorenzo_levels": int(config.lorenzo_levels),
        "regression_block": int(config.regression_block),
        "planner_predictors": list(planner.predictors),
        "sample_rate": float(planner.sample_rate),
        "span": float(planner.span),
        "grid_points": int(planner.grid_points),
        "seed": planner.seed,
        "fit_clusters": planner.fit_clusters,
        "refit_tolerance": float(planner.refit_tolerance),
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


_REQUIRED_ENTRY_KEYS = (
    "config_hash",
    "shape",
    "tile_shape",
    "fingerprint",
    "plan",
)

#: shared file-backed instances, one per resolved path
_path_registry: dict[str, "PlannerCache"] = {}
_registry_lock = threading.Lock()


class PlannerCache:
    """Keyed store of adaptive plans with drift re-validation.

    Thread-safe; counters (``hits`` / ``misses`` / ``drifts`` /
    ``rejected``) account every lookup.  With ``path`` set the cache
    loads existing entries at construction and persists after every
    store — a corrupt or unreadable file is counted as ``rejected`` and
    treated as empty, never raised.
    """

    def __init__(
        self,
        path: str | os.PathLike | None = None,
        drift_tol: float = DEFAULT_DRIFT_TOL,
    ) -> None:
        if drift_tol < 0:
            raise ValueError("drift_tol must be non-negative")
        self.path = os.fspath(path) if path is not None else None
        self.drift_tol = float(drift_tol)
        self._lock = threading.Lock()
        self._entries: dict[str, dict] = {}
        self.hits = 0
        self.misses = 0
        self.drifts = 0
        self.rejected = 0
        if self.path is not None and os.path.exists(self.path):
            self._load()

    @classmethod
    def at_path(cls, path: str | os.PathLike) -> "PlannerCache":
        """The shared file-backed cache for *path* (one per path)."""
        resolved = os.path.abspath(os.fspath(path))
        with _registry_lock:
            cache = _path_registry.get(resolved)
            if cache is None:
                cache = cls(path=resolved)
                _path_registry[resolved] = cache
            return cache

    # -- persistence -------------------------------------------------------

    def _load(self) -> None:
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
            entries = raw["entries"]
            if not isinstance(entries, dict):
                raise TypeError("entries must be a mapping")
        except (OSError, ValueError, KeyError, TypeError):
            self.rejected += 1
            return
        for key, entry in entries.items():
            if self._entry_ok(entry):
                self._entries[str(key)] = entry
            else:
                self.rejected += 1

    def _save_locked(self) -> None:
        if self.path is None:
            return
        tmp = f"{self.path}.tmp.{os.getpid()}"
        payload = {"format": "repro-plan-cache-v1", "entries": self._entries}
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        os.replace(tmp, self.path)

    @staticmethod
    def _entry_ok(entry) -> bool:
        return isinstance(entry, dict) and all(
            key in entry for key in _REQUIRED_ENTRY_KEYS
        )

    # -- lookup / store ----------------------------------------------------

    def fetch(
        self,
        dataset: str,
        config_hash: str,
        shape,
        tile_shape,
        fingerprint: dict,
    ) -> tuple[dict | None, str]:
        """Look up a reusable plan: ``(payload or None, status)``.

        ``status`` is ``"hit"`` (payload returned), ``"drift"`` (an
        entry matched but the new snapshot's stats moved past
        ``drift_tol`` — re-plan and re-store) or ``"miss"`` (no entry,
        mismatched key material, or a corrupt entry that was dropped).
        """
        with self._lock:
            entry = self._entries.get(dataset)
            if entry is None:
                self.misses += 1
                return None, "miss"
            if not self._entry_ok(entry):
                del self._entries[dataset]
                self.rejected += 1
                self.misses += 1
                return None, "miss"
            if (
                entry["config_hash"] != config_hash
                or list(entry["shape"]) != [int(n) for n in shape]
                or list(entry["tile_shape"])
                != [int(t) for t in tile_shape]
            ):
                self.misses += 1
                return None, "miss"
            if fingerprint_drift(entry["fingerprint"], fingerprint) > (
                self.drift_tol
            ):
                self.drifts += 1
                return None, "drift"
            self.hits += 1
            return entry["plan"], "hit"

    def store(
        self,
        dataset: str,
        config_hash: str,
        shape,
        tile_shape,
        fingerprint: dict,
        plan_payload: dict,
    ) -> None:
        """Record (or refresh) the plan for *dataset*."""
        entry = {
            "config_hash": config_hash,
            "shape": [int(n) for n in shape],
            "tile_shape": [int(t) for t in tile_shape],
            "fingerprint": fingerprint,
            "plan": plan_payload,
        }
        with self._lock:
            self._entries[dataset] = entry
            self._save_locked()

    def mark_rejected(self, dataset: str) -> None:
        """Drop a structurally corrupt entry surfaced by the planner."""
        with self._lock:
            self._entries.pop(dataset, None)
            self.rejected += 1
            self._save_locked()

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def counters(self) -> dict:
        """Hit/miss/drift/rejected accounting since construction."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "drifts": self.drifts,
                "rejected": self.rejected,
            }
