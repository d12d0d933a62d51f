"""Spawning and stopping the real ``repro serve`` daemon."""

from __future__ import annotations

import json
import os
import selectors
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

from hostproc import cpu_seconds, memory_kb

BOOT_TIMEOUT_S = 90.0
DRAIN_TIMEOUT_S = 60.0


def program_env(root: Path) -> dict[str, str]:
    """The environment every program process runs with."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Daemon:
    """One ``repro serve`` process; ``boot()`` returns its set-up time."""

    def __init__(self, root: Path, work: Path, flags: list[str]):
        self.root = root
        self.work = work
        self.flags = flags
        self.proc: Optional[subprocess.Popen] = None
        self._stderr = None
        self.port = 0

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    def boot(self) -> float:
        """Spawn, then wait for the ``listening`` line (warm state is ready)."""
        self.work.mkdir(parents=True, exist_ok=True)
        self._stderr = open(self.work / "serve.stderr", "wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", *self.flags],
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            cwd=str(self.work),
            env=program_env(self.root),
        )
        line = self._readline(BOOT_TIMEOUT_S)
        while line is not None and b"listening" not in line:
            line = self._readline(BOOT_TIMEOUT_S)
        if line is None:
            self.kill()
            raise RuntimeError(
                "repro serve never printed its listening line; stderr:\n"
                + (self.work / "serve.stderr").read_text(errors="replace")[-2000:]
            )
        elapsed = time.perf_counter() - started
        listening = json.loads(line)["listening"]
        self.port = int(listening["port"])
        return elapsed

    def _readline(self, timeout: float) -> Optional[bytes]:
        assert self.proc is not None and self.proc.stdout is not None
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(timeout):
                return None
        line = self.proc.stdout.readline()
        return line or None

    def cpu_s(self) -> float:
        return cpu_seconds(self.pid)

    def rss_kb(self) -> int:
        return memory_kb(self.pid, "VmRSS")

    def hwm_kb(self) -> int:
        return memory_kb(self.pid, "VmHWM")

    def stop(self) -> float:
        """SIGTERM, wait for the graceful drain; returns the drain time."""
        assert self.proc is not None
        started = time.perf_counter()
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("repro serve did not drain in time")
        finally:
            self._stderr.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"repro serve exited {self.proc.returncode}")
        return time.perf_counter() - started

    def kill(self) -> None:
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
        if self._stderr is not None:
            self._stderr.close()
