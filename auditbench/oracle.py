"""The interpreted Algorithm 1 oracle every served output is held to.

An in-process, interpreted :class:`~repro.core.monitor.OnlineMonitor`
replays the exact entry sequence the benchmark sends.  Its per-entry
state transitions are the reference for the daemon's ``verdict``
events, and its per-case ``canonical_digest`` the reference for the
``results`` op.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.audit.model import LogEntry
from repro.core.monitor import OnlineMonitor
from repro.scenarios import process_registry, role_hierarchy
from repro.testing import canonical_digest
from workloads import copy_case


@dataclass(frozen=True)
class RefVerdict:
    """One reference transition: entry *index* moved *case* to *state*."""

    index: int
    case: str
    state: Optional[str]
    previous: Optional[str]
    kinds: tuple[str, ...]


@dataclass
class Reference:
    verdicts: list[RefVerdict]
    digests: dict[str, str]


def reference(entries: Iterable[LogEntry], monitor: Optional[OnlineMonitor] = None) -> Reference:
    """Replay *entries* interpreted; record what the daemon must emit.

    A verdict is due whenever an entry changes its case's state or
    raises an infringement — the daemon's own emission rule.
    """
    if monitor is None:
        monitor = OnlineMonitor(process_registry(), hierarchy=role_hierarchy())
    verdicts: list[RefVerdict] = []
    for index, entry in enumerate(entries):
        case = entry.case
        before = monitor.case_state(case)
        raised = monitor.observe(entry)
        after = monitor.case_state(case)
        if before is not after or raised:
            verdicts.append(
                RefVerdict(
                    index,
                    case,
                    str(after) if after is not None else None,
                    str(before) if before is not None else None,
                    tuple(i.kind.value for i in raised),
                )
            )
    digests = {}
    for case in monitor.cases():
        result = monitor.case_result(case)
        if result is not None:
            digests[case] = canonical_digest(result)
    return Reference(verdicts, digests)


def by_case(ref: list[RefVerdict]) -> dict[str, list[RefVerdict]]:
    grouped: dict[str, list[RefVerdict]] = defaultdict(list)
    for verdict in ref:
        grouped[verdict.case].append(verdict)
    return grouped


#: What one served case must emit: ``(stream index, reference transition)``
#: pairs, in order.
Expected = dict[str, list[tuple[int, RefVerdict]]]


@dataclass
class Attribution:
    """Served verdicts matched, in order per case, to reference transitions."""

    #: ``(stream index of the causing entry, receipt time)`` per match.
    matched: list[tuple[int, float]]
    mismatched: int
    missing: int
    extra: int

    @property
    def failed(self) -> int:
        return self.mismatched + self.missing + self.extra


def attribute(served: list[tuple[float, dict]], expected: Expected) -> Attribution:
    """Match each served ``(receipt time, verdict event)`` to its transition.

    One shard and one connection keep a case's verdicts in entry order,
    so the k-th verdict served for a case answers its k-th expected
    transition.  A verdict whose state, previous state or infringement
    kinds differ is a mismatch; expected transitions never served are
    missing; served verdicts beyond them are extra.
    """
    position: dict[str, int] = defaultdict(int)
    matched: list[tuple[int, float]] = []
    mismatched = extra = 0
    for received, event in served:
        case = event.get("case")
        wanted = expected.get(case, ())
        k = position[case]
        if k >= len(wanted):
            extra += 1
            continue
        position[case] = k + 1
        index, want = wanted[k]
        kinds = tuple(i.get("kind") for i in event.get("infringements", ()))
        if (event.get("state"), event.get("previous"), kinds) != (
            want.state, want.previous, want.kinds
        ):
            mismatched += 1
            continue
        matched.append((index, received))
    missing = sum(len(v) - position[c] for c, v in expected.items())
    return Attribution(matched, mismatched, missing, extra)


def stream_expectations(ref: Reference, base_len: int, sent: int) -> tuple[Expected, dict[str, str]]:
    """What a stream of the base day and its renamed copies must produce.

    *sent* entries went out: the base (copy 0), then copies 1, 2, ...,
    the last possibly cut short.  A copy's transitions are the base's,
    under the copy's case id; its digests are the base's with the case
    token renamed (a digest names its case only inside each entry's
    space-separated ``str``).  Digests are due only for complete copies.
    """
    grouped = by_case(ref.verdicts)
    expected: Expected = {}
    digests: dict[str, str] = {}
    for copy in range(-(-sent // base_len)):
        offset = copy * base_len
        for case, verdicts in grouped.items():
            wanted = [(offset + v.index, v) for v in verdicts if offset + v.index < sent]
            if wanted:
                expected[copy_case(case, copy)] = wanted
        if offset + base_len <= sent:
            for case, digest in ref.digests.items():
                renamed = copy_case(case, copy)
                digests[renamed] = digest.replace(f" {case} ", f" {renamed} ")
    return expected, digests
