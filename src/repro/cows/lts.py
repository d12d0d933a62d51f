"""Labeled transition systems over COWS terms.

An :class:`LTS` wraps a COWS service and exposes its reachable behaviour:
successor computation (with kill priority and canonical state forms),
bounded exhaustive exploration, and bounded trace enumeration.  The trace
enumerator is what the *naive* purpose-control baseline of the paper's
introduction uses — and what Algorithm 1 makes unnecessary.

States handed out by this module are always in canonical form
(:func:`repro.cows.congruence.normalize`), so they can be compared and
hashed directly.

Each :class:`LTS` owns the memos of the semantics it evaluates — the
transitions of every subterm and the canonical form of every term it
normalized.  They live and die with the LTS (and so with the
:class:`~repro.core.weaknext.WeakNextEngine` that owns it): a module-wide
memo would keep every term of a finished compilation alive for the life
of the process.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.cows.congruence import NormalizeMemo, normalize
from repro.cows.labels import CommLabel, Label, is_kill_label
from repro.cows.semantics import TransitionMemo, enabled
from repro.cows.terms import Term

#: Successor edge: observable-or-internal label plus canonical target state.
Edge = tuple[Label, Term]


@dataclass(frozen=True)
class ExplorationResult:
    """The reachable fragment of an LTS, as computed by :meth:`LTS.explore`."""

    initial: Term
    states: frozenset[Term]
    edges: tuple[tuple[Term, Label, Term], ...]
    complete: bool

    @property
    def state_count(self) -> int:
        return len(self.states)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def labels(self) -> frozenset[Label]:
        """Every distinct label occurring on an edge."""
        return frozenset(label for _, label, _ in self.edges)

    def successors_of(self, state: Term) -> list[tuple[Label, Term]]:
        return [(label, t) for s, label, t in self.edges if s == state]


class LTS:
    """The labeled transition system of a (closed) COWS service.

    Only *completed* transitions are followed by default: communications
    and kill signals.  Partial invoke/request labels describe potential
    interactions with an environment; for the closed systems produced by
    the BPMN encoding they never fire on their own.  Pass
    ``closed=False`` to include them (useful for unit-testing the
    semantics of open terms).
    """

    def __init__(self, initial: Term, closed: bool = True):
        self._transitions_memo: TransitionMemo = {}
        self._normalize_memo: NormalizeMemo = {}
        self._initial = self.normalize(initial)
        self._closed = closed
        self._successor_cache: dict[Term, tuple[Edge, ...]] = {}

    @property
    def initial(self) -> Term:
        return self._initial

    def normalize(self, term: Term) -> Term:
        """The canonical form of *term*, through this LTS's memo."""
        return normalize(term, self._normalize_memo)

    def successors(self, state: Term) -> tuple[Edge, ...]:
        """The (label, canonical successor) pairs enabled in *state*.

        *state* must already be canonical — which holds for the initial
        state and for every state this method returns.
        """
        cached = self._successor_cache.get(state)
        if cached is not None:
            return cached
        edges: list[Edge] = []
        seen: set[Edge] = set()
        for label, target in enabled(state, self._transitions_memo):
            if self._closed and not self._is_complete(label):
                continue
            edge = (label, normalize(target, self._normalize_memo))
            if edge not in seen:
                seen.add(edge)
                edges.append(edge)
        result = tuple(edges)
        self._successor_cache[state] = result
        return result

    @staticmethod
    def _is_complete(label: Label) -> bool:
        return isinstance(label, CommLabel) or is_kill_label(label)

    def explore(self, max_states: int = 100_000) -> ExplorationResult:
        """Breadth-first exploration of the reachable state graph.

        Stops after *max_states* distinct states; ``complete`` is False in
        that case (the process may well be infinite-state).
        """
        states: set[Term] = {self._initial}
        edges: list[tuple[Term, Label, Term]] = []
        queue: deque[Term] = deque([self._initial])
        complete = True
        while queue:
            state = queue.popleft()
            for label, target in self.successors(state):
                edges.append((state, label, target))
                if target not in states:
                    if len(states) >= max_states:
                        complete = False
                        continue
                    states.add(target)
                    queue.append(target)
        return ExplorationResult(
            initial=self._initial,
            states=frozenset(states),
            edges=tuple(edges),
            complete=complete,
        )

    def traces(
        self,
        max_length: int,
        max_traces: int | None = None,
        label_filter: Callable[[Label], bool] | None = None,
    ) -> Iterator[tuple[Label, ...]]:
        """Enumerate maximal label sequences of length up to *max_length*.

        A trace is emitted when it reaches a deadlocked state or the
        length bound.  When *label_filter* is given, filtered-out labels
        are traversed but do not appear in the emitted sequences (this is
        how the naive baseline enumerates *observable* traces).

        The enumeration is depth-first and can be exponential — that
        blow-up is precisely what benchmark E8 measures.
        """
        emitted = 0
        seen: set[tuple[Label, ...]] = set()
        stack: list[tuple[Term, tuple[Label, ...], int]] = [(self._initial, (), 0)]
        while stack:
            state, trace, depth = stack.pop()
            successors = self.successors(state)
            if not successors or depth >= max_length:
                if trace not in seen:
                    seen.add(trace)
                    yield trace
                    emitted += 1
                    if max_traces is not None and emitted >= max_traces:
                        return
                continue
            for label, target in successors:
                if label_filter is None or label_filter(label):
                    extended = trace + (label,)
                else:
                    extended = trace
                stack.append((target, extended, depth + 1))

    def reachable_by(self, labels: list[Label]) -> list[Term]:
        """The states reachable by consuming *labels* in order (exactly)."""
        frontier = [self._initial]
        for wanted in labels:
            next_frontier: list[Term] = []
            seen: set[Term] = set()
            for state in frontier:
                for label, target in self.successors(state):
                    if label == wanted and target not in seen:
                        seen.add(target)
                        next_frontier.append(target)
            frontier = next_frontier
            if not frontier:
                break
        return frontier


@dataclass
class TraceStatistics:
    """Simple accounting for trace enumeration experiments (bench E8)."""

    max_length: int
    trace_count: int = 0
    truncated: bool = False
    states_touched: int = 0
    _states: set[Term] = field(default_factory=set, repr=False)


def count_traces(
    lts: LTS,
    max_length: int,
    max_traces: int = 1_000_000,
    label_filter: Callable[[Label], bool] | None = None,
) -> TraceStatistics:
    """Count the (bounded) traces of *lts*, for the naive-baseline bench."""
    stats = TraceStatistics(max_length=max_length)
    for _ in lts.traces(max_length, max_traces=max_traces, label_filter=label_filter):
        stats.trace_count += 1
    if stats.trace_count >= max_traces:
        stats.truncated = True
    return stats
