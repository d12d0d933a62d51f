"""Workload definitions and their seeded inputs.

Every workload draws a ``hospital_day`` from
``repro.scenarios.workloads`` with the run's seed.  Sizes, violation
mixes and open-loop rates are fixed here, never derived from the
host's measured speed, so every run does the same work.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.audit.model import LogEntry
from repro.scenarios.workloads import VIOLATION_KINDS, HospitalWorkload, hospital_day
from repro.serve.protocol import encode_message, entry_to_message


@dataclass(frozen=True)
class DaySpec:
    """The ``hospital_day`` parameters of a workload."""

    violation_rate: float
    min_steps: int
    violation_mix: tuple[tuple[str, float], ...]

    def generate(self, n_cases: int, seed: int) -> HospitalWorkload:
        return hospital_day(
            n_cases,
            violation_rate=self.violation_rate,
            seed=seed,
            min_steps=self.min_steps,
            violation_mix=dict(self.violation_mix),
        )


@dataclass(frozen=True)
class StreamSpec:
    """A workload driven through ``repro serve`` over one TCP connection.

    The stream is a seeded base day sent first as the warm-up, then
    copies of it under fresh case ids (``HT-17`` becomes ``HT-17.1``,
    ``HT-17.2``, ...), like further hospitals having the same day.  Every
    copy does the same replay work as the base, so the oracle replays
    the base once, and the timed phases can run long enough to average
    out the host's second-to-second speed changes.
    """

    name: str
    why: str
    day: DaySpec
    #: Compiled replay with a SQLite store and a WAL; otherwise interpreted
    #: replay with neither.
    durable: bool
    base_cases: int
    #: Open-loop arrival rate, about a quarter of the seed commit's capacity.
    rate_eps: int
    #: The traced run's open loop lasts at least this long, so that ten or
    #: more verdicts lie beyond its p99.
    tail_open_s: float
    rounds: int
    round_entries: int
    boots: int

    def serve_flags(self, work: str) -> list[str]:
        flags = ["--scenario", "paper", "--shards", "1", "--port", "0", "--http-port", "0"]
        if self.durable:
            flags += ["--compiled", "--store", f"{work}/serve.db", "--wal-dir", f"{work}/wal"]
        return flags

    def capacity_entries(self) -> int:
        return self.rounds * self.round_entries


_DURABLE_DAY = DaySpec(violation_rate=0.1, min_steps=2, violation_mix=(("mimicry", 1.0),))
_REPLAY_DAY = DaySpec(
    violation_rate=0.3, min_steps=4,
    violation_mix=tuple((kind, 1.0) for kind in VIOLATION_KINDS),
)

WORKLOADS: dict[str, StreamSpec] = {
    spec.name: spec
    for spec in (
        StreamSpec(
            name="stream_durable",
            why="compiled table replay is cheap, so per-entry cost is the "
            "plumbing: wire parse, admission, shard queue, WAL, store writer",
            day=_DURABLE_DAY,
            durable=True,
            base_cases=500,
            rate_eps=2000,
            tail_open_s=6.0,
            rounds=72,
            round_entries=2500,
            boots=5,
        ),
        StreamSpec(
            name="stream_replay",
            why="violation-heavy day served interpreted with no store or WAL: "
            "Algorithm 1 replay and retained case state dominate",
            day=_REPLAY_DAY,
            durable=False,
            base_cases=2000,
            rate_eps=1000,
            tail_open_s=14.0,
            rounds=96,
            round_entries=1250,
            boots=9,
        ),
    )
}


def copy_case(case: str, copy: int) -> str:
    """The case id of *case* in copy *copy* of the base day (0 = the base)."""
    return case if copy == 0 else f"{case}.{copy}"


@dataclass(frozen=True)
class StreamInputs:
    """The base day and the stream built from copies of it."""

    base: list[LogEntry]
    base_lines: list[bytes]

    def lines(self, count: int) -> list[bytes]:
        """The first *count* lines of base, copy 1, copy 2, ... in order."""
        out: list[bytes] = []
        copy = 0
        while len(out) < count:
            if copy == 0:
                out.extend(self.base_lines)
            else:
                for entry, line in zip(self.base, self.base_lines):
                    old = b'"case":"%s"' % entry.case.encode()
                    new = b'"case":"%s"' % copy_case(entry.case, copy).encode()
                    out.append(line.replace(old, new, 1))
            copy += 1
        return out[:count]


def encode_entries(entries: list[LogEntry]) -> list[bytes]:
    """The wire form of each entry, as a log shipper would send it."""
    return [encode_message(entry_to_message(entry)) for entry in entries]


def stream_inputs(spec: StreamSpec, seed: int) -> StreamInputs:
    """The seeded base day, in time order, and its wire form."""
    base = spec.day.generate(spec.base_cases, seed).trail.entries
    return StreamInputs(base, encode_entries(base))
