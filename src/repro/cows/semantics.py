"""Structural operational semantics of COWS.

:func:`transitions` computes, for a COWS term, every labeled transition
``(l, s')`` the structural rules allow.  The rules implemented are the
minimal-COWS rules of Section 3.3 / Appendix A of the paper:

* an invoke ``p.o!<v>`` whose parameters are ground emits an invoke label;
* a request prefix emits a request label and continues with its body;
* a choice offers the transitions of its branches;
* parallel composition interleaves component transitions and synchronizes
  matching invoke/request pairs into communication labels;
* ``kill(k)`` emits the kill signal ``+k``; a kill signal propagating
  through a parallel composition *halts* the sibling components, except
  protected blocks ``{|s|}``; the scope delimiter ``[k]`` turns ``+k``
  into the executed-kill label ``+``;
* a name delimiter ``[n]`` blocks partial (invoke/request) labels that
  mention the private name, while completed communications pass through;
* a variable delimiter ``[x]`` lets a request pattern containing ``x``
  cross (scope opening); the matching communication then applies the
  substitution produced by :func:`repro.cows.labels.match` to the
  requester's residual;
* replication ``*s`` spawns a copy per transition of ``s`` (including
  synchronizations between two fresh copies).

Kill priority — COWS kill activities are eager — is enforced by
:func:`enabled`, which restricts the transition set to kill transitions
whenever one is possible.  The LTS layer always goes through
:func:`enabled`.

Both functions take an optional *memo* dict mapping a term to its
transitions.  Terms are immutable and the rules are a pure function of
the term, so a memo hit is exactly the recomputed result; the parallel
components that did not move in a step are then not re-derived for
every new state.  The memo belongs to the caller (one per
:class:`repro.cows.lts.LTS`), never to this module, so it is freed
with its owner.

Deviations from full COWS (documented in DESIGN.md §3): substitutions are
applied eagerly at synchronization time instead of at the delimiter, and
the best-match communication rule is not implemented.  Both coincide with
full COWS on the terms the BPMN encoding produces.
"""

from __future__ import annotations

from typing import Iterable

from repro.cows.labels import (
    CommLabel,
    InvokeLabel,
    KillDone,
    KillSignal,
    Label,
    RequestLabel,
    is_kill_label,
    match,
)
from repro.cows.names import KillerLabel, Name, Variable
from repro.cows.terms import (
    Choice,
    Invoke,
    Kill,
    Nil,
    Parallel,
    Protect,
    Replicate,
    Request,
    Scope,
    TaskMarker,
    Term,
    parallel,
    substitute,
)

Transition = tuple[Label, Term]

_NIL = Nil()


#: A per-owner transitions memo (see the module docs).
TransitionMemo = dict[Term, tuple[Transition, ...]]


def transitions(
    term: Term, memo: TransitionMemo | None = None
) -> tuple[Transition, ...]:
    """All transitions of *term*, without kill priority applied.

    With *memo*, results (of *term* and of every subterm derived on the
    way) are looked up in and stored into it.
    """
    if memo is None:
        return _transitions(term, None)
    cached = memo.get(term)
    if cached is None:
        cached = _transitions(term, memo)
        memo[term] = cached
    return cached


def _transitions(
    term: Term, memo: TransitionMemo | None
) -> tuple[Transition, ...]:
    if isinstance(term, Nil):
        return ()
    if isinstance(term, Invoke):
        if not term.is_ground:
            return ()
        return ((InvokeLabel(term.endpoint, term.params), _NIL),)  # type: ignore[arg-type]
    if isinstance(term, Request):
        return ((RequestLabel(term.endpoint, term.params), term.continuation),)
    if isinstance(term, Choice):
        result: list[Transition] = []
        for branch in term.branches:
            result.extend(transitions(branch, memo))
        return tuple(result)
    if isinstance(term, Kill):
        return ((KillSignal(term.label), _NIL),)
    if isinstance(term, Protect):
        return tuple(
            (label, Protect(target))
            for label, target in transitions(term.body, memo)
        )
    if isinstance(term, TaskMarker):
        # Transparent: the marker evaporates on the body's first activity.
        return transitions(term.body, memo)
    if isinstance(term, Scope):
        return _scope_transitions(term, memo)
    if isinstance(term, Parallel):
        return _parallel_transitions(term, memo)
    if isinstance(term, Replicate):
        return _replicate_transitions(term, memo)
    raise TypeError(f"not a COWS term: {type(term).__name__}")


def enabled(
    term: Term, memo: TransitionMemo | None = None
) -> tuple[Transition, ...]:
    """The transitions of *term* with COWS kill priority enforced.

    If any kill transition (``+k`` or ``+``) is enabled, only kill
    transitions are returned: kill activities execute eagerly, before any
    communication can take place.  This is what makes the exclusive
    gateway encoding (Fig. 8) behave exclusively.
    """
    all_transitions = transitions(term, memo)
    kills = tuple(t for t in all_transitions if is_kill_label(t[0]))
    if kills:
        return kills
    return all_transitions


def halt(term: Term) -> Term:
    """The halt function of COWS: kill everything except protected blocks."""
    if isinstance(term, Protect):
        return term
    if isinstance(term, Parallel):
        return parallel(*(halt(component) for component in term.components))
    if isinstance(term, Scope):
        return Scope(term.binder, halt(term.body))
    if isinstance(term, TaskMarker):
        # The task is forcibly terminated: the marker dies with it, but
        # protected content inside the continuation survives.
        return halt(term.body)
    # Invoke, Request, Choice, Kill, Replicate, Nil: all killed.
    return _NIL


def _scope_transitions(
    term: Scope, memo: TransitionMemo | None
) -> tuple[Transition, ...]:
    binder = term.binder
    result: list[Transition] = []
    for label, target in transitions(term.body, memo):
        if isinstance(binder, KillerLabel):
            if isinstance(label, KillSignal) and label.label == binder:
                result.append((KillDone(), Scope(binder, target)))
            else:
                result.append((label, Scope(binder, target)))
        elif isinstance(binder, Name):
            if _partial_label_mentions(label, binder):
                continue  # a private name cannot synchronize with the outside
            result.append((label, Scope(binder, target)))
        else:  # Variable binder
            if isinstance(label, RequestLabel) and binder in label.params:
                # Scope opening: the pattern escapes; the communication at
                # the enclosing parallel node will instantiate the binder
                # in the residual, so the delimiter is dropped here.
                result.append((label, target))
            else:
                result.append((label, Scope(binder, target)))
    return tuple(result)


def _partial_label_mentions(label: Label, name: Name) -> bool:
    """Whether an invoke/request label exposes the private name *name*."""
    if isinstance(label, InvokeLabel):
        return label.endpoint.mentions(name) or name in label.values
    if isinstance(label, RequestLabel):
        return label.endpoint.mentions(name) or name in label.params
    return False


def _parallel_transitions(
    term: Parallel, memo: TransitionMemo | None
) -> tuple[Transition, ...]:
    components = term.components
    per_component: list[tuple[Transition, ...]] = [
        transitions(component, memo) for component in components
    ]
    result: list[Transition] = []

    # Interleaving: one component moves, the others stand still — unless
    # the label is an ongoing kill signal, which halts the bystanders.
    for index, component_transitions in enumerate(per_component):
        for label, target in component_transitions:
            if isinstance(label, KillSignal):
                rest = [
                    halt(other) if j != index else target
                    for j, other in enumerate(components)
                ]
                rest[index] = target
                result.append((label, parallel(*rest)))
            else:
                rest = list(components)
                rest[index] = target
                result.append((label, parallel(*rest)))

    # Synchronization: an invoke of one component meets a matching request
    # of another.  A pair whose invoke and request endpoints are disjoint
    # cannot communicate, so it is skipped without changing the order of
    # the communications that remain.
    invokes = [
        {label.endpoint for label, _ in ts if isinstance(label, InvokeLabel)}
        for ts in per_component
    ]
    requests = [
        {label.endpoint for label, _ in ts if isinstance(label, RequestLabel)}
        for ts in per_component
    ]
    for i, transitions_i in enumerate(per_component):
        if not invokes[i]:
            continue
        for j, transitions_j in enumerate(per_component):
            if i == j or invokes[i].isdisjoint(requests[j]):
                continue
            result.extend(
                _communications(transitions_i, transitions_j, components, i, j)
            )
    return tuple(result)


def _communications(
    invoker_transitions: Iterable[Transition],
    requester_transitions: Iterable[Transition],
    components: tuple[Term, ...],
    invoker_index: int,
    requester_index: int,
) -> list[Transition]:
    result: list[Transition] = []
    for invoke_label, invoke_target in invoker_transitions:
        if not isinstance(invoke_label, InvokeLabel):
            continue
        for request_label, request_target in requester_transitions:
            if not isinstance(request_label, RequestLabel):
                continue
            if request_label.endpoint != invoke_label.endpoint:
                continue
            bindings = match(request_label.params, invoke_label.values)
            if bindings is None:
                continue
            rest = list(components)
            rest[invoker_index] = invoke_target
            rest[requester_index] = substitute(request_target, bindings)
            label = CommLabel(invoke_label.endpoint, invoke_label.values)
            result.append((label, parallel(*rest)))
    return result


def _replicate_transitions(
    term: Replicate, memo: TransitionMemo | None
) -> tuple[Transition, ...]:
    body_transitions = transitions(term.body, memo)
    result: list[Transition] = [
        (label, parallel(term, target)) for label, target in body_transitions
    ]
    # Two fresh copies may synchronize with each other in a single step.
    for invoke_label, invoke_target in body_transitions:
        if not isinstance(invoke_label, InvokeLabel):
            continue
        for request_label, request_target in body_transitions:
            if not isinstance(request_label, RequestLabel):
                continue
            if request_label.endpoint != invoke_label.endpoint:
                continue
            bindings = match(request_label.params, invoke_label.values)
            if bindings is None:
                continue
            label = CommLabel(invoke_label.endpoint, invoke_label.values)
            residual = parallel(
                term, invoke_target, substitute(request_target, bindings)
            )
            result.append((label, residual))
    return tuple(result)
