"""The ``repro serve`` subprocess the serving operations run against.

The server is a separate process so client and server never share a
GIL; the runner is its one closed-loop client.
"""

from __future__ import annotations

import ctypes
import http.client
import os
import re
import select
import signal
import subprocess
import sys
import time

import repro
from repro.service.client import ArrayClient, ServiceError

__all__ = ["ServerProcess", "peak_rss_mb"]

#: where this process found the package under test; the server gets the same
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

_URL_LINE = re.compile(rb"serving store .* on (http://\S+)")
_PR_SET_PDEATHSIG = 1


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a process in MB (its peak resident set)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def _die_with_parent() -> None:
    """Have the kernel SIGTERM the server if the runner is killed."""
    try:
        ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)
    except (OSError, AttributeError):
        pass


class ServerProcess:
    """``python -m repro serve`` on an ephemeral port, stopped on exit."""

    def __init__(
        self,
        store_dir: str,
        cache_mb: float,
        cpu: int | None = None,
        timeout: float = 30.0,
    ) -> None:
        self.store_dir = store_dir
        self.cache_mb = cache_mb
        self.cpu = cpu
        self.timeout = timeout
        self.url: str | None = None
        self._proc: subprocess.Popen | None = None

    def start(self) -> "ServerProcess":
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC_DIR, env.get("PYTHONPATH")) if p
        )
        # the tile cache picks a shard by hash(key) and keys hold a
        # str: a fixed hash seed makes hit/miss counts repeat exactly
        env["PYTHONHASHSEED"] = "0"
        env["PYTHONUNBUFFERED"] = "1"
        self._proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", self.store_dir,
                "--port", "0",
                "--cache-mb", repr(float(self.cache_mb)),
                "--backend", "serial",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            bufsize=0,
            preexec_fn=_die_with_parent,
        )
        try:
            if self.cpu is not None:
                os.sched_setaffinity(self._proc.pid, {self.cpu})
            self.url = self._await_url()
            self._await_health()
        except BaseException:
            self.stop()
            raise
        return self

    def _await_url(self) -> str:
        deadline = time.monotonic() + self.timeout
        seen = b""
        stdout = self._proc.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.2)
            if ready:
                chunk = stdout.read(4096)
                if not chunk:
                    break  # the server exited before announcing itself
                seen += chunk
                match = _URL_LINE.search(seen)
                if match:
                    return match.group(1).decode()
            elif self._proc.poll() is not None:
                break
        raise RuntimeError(
            "repro serve did not announce its URL within "
            f"{self.timeout:.0f}s; output: {seen.decode(errors='replace')!r}"
        )

    def _await_health(self) -> None:
        client = ArrayClient(self.url, timeout=5.0)
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                if client.healthz().get("status") == "ok":
                    return
            except (OSError, http.client.HTTPException, ServiceError):
                pass  # not listening yet
            if time.monotonic() >= deadline:
                raise RuntimeError("repro serve never became healthy")
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self._proc.pid)

    def stop(self) -> None:
        """SIGTERM (graceful drain), wait, SIGKILL as the last resort."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()
