"""The load generator: one TCP connection, a sender and a reader thread.

The caller's thread sends; a reader thread timestamps and decodes
every server event as it arrives.  Entries are encoded before any timed
window opens, so sending costs one ``sendall`` per burst.
"""

from __future__ import annotations

import json
import queue
import socket
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable


class StreamConnection:
    def __init__(self, host: str, port: int, timeout: float = 120.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._timeout = timeout
        #: ``(receipt perf_counter, event)`` for every ``verdict``.
        self.verdicts: list[tuple[float, dict]] = []
        #: ``busy`` / ``error`` / other unexpected events, by kind.
        self.refusals: Counter = Counter()
        self._synced: dict[object, float] = {}
        self._synced_cond = threading.Condition()
        self._replies: "queue.Queue[dict]" = queue.Queue()
        self._hello = threading.Event()
        self._closed = False
        self._reader = threading.Thread(target=self._read, name="auditbench-reader", daemon=True)
        self._reader.start()
        if not self._hello.wait(timeout):
            raise RuntimeError("no hello from repro serve")

    def _read(self) -> None:
        stream = self._sock.makefile("rb")
        now = time.perf_counter
        verdicts = self.verdicts
        try:
            for line in stream:
                received = now()
                event = json.loads(line)
                kind = event.get("event")
                if kind == "verdict":
                    verdicts.append((received, event))
                elif kind == "synced":
                    with self._synced_cond:
                        self._synced[event.get("id")] = received
                        self._synced_cond.notify_all()
                elif kind in ("status", "results", "bye"):
                    self._replies.put(event)
                elif kind == "hello":
                    self._hello.set()
                else:
                    self.refusals[kind] += 1
        except OSError:
            if not self._closed:
                raise
        finally:
            with self._synced_cond:
                self._closed = True
                self._synced_cond.notify_all()

    def send(self, data: bytes) -> None:
        self._sock.sendall(data)

    def wait_synced(self, token: object) -> float:
        """Receipt time of the ``synced`` answering barrier *token*."""
        deadline = time.monotonic() + self._timeout
        with self._synced_cond:
            while token not in self._synced:
                left = deadline - time.monotonic()
                if left <= 0 or self._closed:
                    raise RuntimeError(f"no synced for barrier {token!r}")
                self._synced_cond.wait(left)
            return self._synced.pop(token)

    def sync(self, token: object) -> float:
        self.send(sync_line(token))
        return self.wait_synced(token)

    def request(self, op: str) -> dict:
        self.send(json.dumps({"op": op}).encode() + b"\n")
        return self._replies.get(timeout=self._timeout)

    def close(self) -> None:
        try:
            self.request("bye")
        finally:
            self._closed = True
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()
            self._reader.join(timeout=10)


def sync_line(token: object) -> bytes:
    return json.dumps({"op": "sync", "id": token}).encode() + b"\n"


@dataclass(frozen=True)
class Round:
    rate_eps: float
    #: Daemon CPU seconds per entry.
    cpu_s: float


def closed_rounds(
    conn: StreamConnection, blocks: list[list[bytes]], tag: str,
    cpu: Callable[[], float],
) -> list[Round]:
    """Send each block then a barrier, one closed-loop round per block.

    A round ends when its ``synced`` arrives: every verdict of the block
    is back and its WAL records are fsynced.  Each round records its
    rate and the daemon CPU it used per entry (read from *cpu* around it).
    """
    rounds = []
    for number, block in enumerate(blocks):
        token = f"{tag}-{number}"
        payload = b"".join(block) + sync_line(token)
        cpu_before = cpu()
        started = time.perf_counter()
        conn.send(payload)
        finished = conn.wait_synced(token)
        cost = (cpu() - cpu_before) / len(block)
        rounds.append(Round(len(block) / (finished - started), cost))
    return rounds


def open_loop(conn: StreamConnection, lines: list[bytes], rate: float) -> tuple[list[float], list[float]]:
    """Send *lines* on a fixed schedule, whatever the daemon's speed.

    Returns each entry's scheduled send time and how late the generator
    actually handed it to the socket (seconds).
    """
    interval = 1.0 / rate
    start = time.perf_counter() + 0.01
    scheduled = [start + i * interval for i in range(len(lines))]
    lateness: list[float] = []
    now = time.perf_counter
    i, n = 0, len(lines)
    while i < n:
        due = scheduled[i]
        current = now()
        if current < due:
            time.sleep(due - current)
            current = now()
        j = i + 1
        while j < n and scheduled[j] <= current:
            j += 1
        conn.send(b"".join(lines[i:j]))
        lateness.extend(current - scheduled[k] for k in range(i, j))
        i = j
    return scheduled, lateness
