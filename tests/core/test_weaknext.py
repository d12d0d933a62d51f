"""Tests for WeakNext (Definition 7), including the Fig. 5 example shape
and the decidability guard (Proposition 1)."""

import pytest

from repro.bpmn import ProcessBuilder, encode
from repro.core import ErrorEvent, Observables, TaskEvent, WeakNextEngine
from repro.core.configuration import Configuration
from repro.cows import parse
from repro.errors import NotFinitelyObservableError
from repro.scenarios import fig9_process, sequential_process


def engine_for(process):
    encoded = encode(process)
    return WeakNextEngine(Observables.from_encoded(encoded)), encoded


def fig5_like_process():
    """The shape of Fig. 5: one observable directly, two more behind a
    silent (gateway) step — WeakNext must return all three."""
    builder = ProcessBuilder("fig5")
    pool = builder.pool("P")
    pool.start_event("S").exclusive_gateway("G1")
    pool.task("A").exclusive_gateway("G2")
    pool.task("B").task("C")
    pool.end_event("EA").end_event("EB").end_event("EC")
    builder.chain("S", "G1")
    builder.flow("G1", "A").flow("G1", "G2")
    builder.flow("G2", "B").flow("G2", "C")
    builder.chain("A", "EA")
    builder.chain("B", "EB")
    builder.chain("C", "EC")
    return builder.build()


class TestFig5:
    def test_weaknext_collapses_silent_gateway_steps(self):
        engine, encoded = engine_for(fig5_like_process())
        results = engine.weak_next(encoded.term)
        events = {result[0] for result in results}
        assert events == {
            TaskEvent("P", "A"),
            TaskEvent("P", "B"),
            TaskEvent("P", "C"),
        }

    def test_states_behind_observables_not_returned(self):
        # Exactly one observable label: nothing beyond A/B/C is reachable.
        engine, encoded = engine_for(fig5_like_process())
        results = engine.weak_next(encoded.term)
        assert len(results) == 3


class TestExactlyOneObservable:
    def test_sequential_process_reveals_only_first_task(self):
        engine, encoded = engine_for(sequential_process(3))
        events = {r[0] for r in engine.weak_next(encoded.term)}
        assert events == {TaskEvent("Staff", "T1")}

    def test_chaining_reveals_subsequent_tasks(self):
        engine, encoded = engine_for(sequential_process(3))
        (first,) = engine.weak_next(encoded.term)
        events = {r[0] for r in engine.weak_next(first[1])}
        assert events == {TaskEvent("Staff", "T2")}

    def test_finished_process_has_empty_weaknext(self):
        engine, encoded = engine_for(sequential_process(1))
        (first,) = engine.weak_next(encoded.term)
        assert engine.weak_next(first[1]) == ()


class TestActiveTasks:
    def test_task_active_after_its_event(self):
        engine, encoded = engine_for(sequential_process(2))
        (first,) = engine.weak_next(encoded.term)
        event, _, active = first
        assert event == TaskEvent("Staff", "T1")
        assert active == {("Staff", "T1")}

    def test_initial_state_has_no_active_tasks(self):
        from repro.core.weaknext import state_active_tasks

        _, encoded = engine_for(sequential_process(2))
        assert state_active_tasks(encoded.term) == frozenset()

    def test_error_event_leads_to_empty_active_set(self):
        # Fig. 6 / St4: after sys.Err the failing task is no longer active.
        engine, encoded = engine_for(fig9_process())
        (first,) = engine.weak_next(encoded.term)
        results = engine.weak_next(first[1])
        error_results = [r for r in results if isinstance(r[0], ErrorEvent)]
        assert error_results
        for _, _, active in error_results:
            assert active == frozenset()


class TestErrorObservability:
    def test_error_and_success_both_offered(self):
        engine, encoded = engine_for(fig9_process())
        (first,) = engine.weak_next(encoded.term)
        events = {r[0] for r in engine.weak_next(first[1])}
        assert events == {ErrorEvent(), TaskEvent("P", "T2")}


class TestEngineMechanics:
    def test_memoization_returns_same_object(self):
        engine, encoded = engine_for(sequential_process(2))
        assert engine.weak_next(encoded.term) is engine.weak_next(encoded.term)

    def test_cache_size_grows(self):
        engine, encoded = engine_for(sequential_process(2))
        engine.weak_next(encoded.term)
        assert engine.cache_size() == 1

    def test_silent_state_accounting(self):
        engine, encoded = engine_for(fig5_like_process())
        engine.weak_next(encoded.term)
        assert engine.silent_states_explored >= 1


class TestDecidabilityGuard:
    def test_silent_livelock_raises(self):
        # A replicated silent producer: every silent step grows the state,
        # no observable is ever emitted -> not finitely observable.
        term = parse("[n]( *( n.t?<>.(n.t!<> | n.t!<>) ) | n.t!<>)")
        observables = Observables(frozenset({"P"}), frozenset({"T"}))
        engine = WeakNextEngine(observables, max_silent_states=50)
        with pytest.raises(NotFinitelyObservableError) as excinfo:
            engine.weak_next(engine.normalize(term))
        assert excinfo.value.states_explored >= 50

    def test_silent_cycle_terminates_via_state_dedup(self):
        # A silent *cycle* returns to the same canonical state: WeakNext
        # terminates with no results instead of diverging.
        term = parse("[n]( *( n.t?<>. n.t!<> ) | n.t!<>)")
        observables = Observables(frozenset({"P"}), frozenset({"T"}))
        engine = WeakNextEngine(observables, max_silent_states=1000)
        assert engine.weak_next(engine.normalize(term)) == ()


class TestConfigurationHelpers:
    def test_initial_configuration(self):
        engine, encoded = engine_for(sequential_process(2))
        conf = Configuration.initial(engine, encoded.term)
        assert conf.active == frozenset()
        assert len(conf.next) == 1
        assert conf.describe() == "(empty)"

    def test_reached_configuration(self):
        engine, encoded = engine_for(sequential_process(2))
        conf = Configuration.initial(engine, encoded.term)
        reached = Configuration.reached(engine, conf.next[0])
        assert reached.active == {("Staff", "T1")}
        assert reached.describe() == "{Staff.T1}"

    def test_configuration_identity_ignores_next(self):
        engine, encoded = engine_for(sequential_process(2))
        a = Configuration.initial(engine, encoded.term)
        b = Configuration(state=a.state, active=a.active, next=())
        assert a == b
        assert hash(a) == hash(b)


class TestMemoOwnership:
    def test_engines_share_no_semantics_memo(self):
        first, encoded = engine_for(sequential_process(2))
        second, _ = engine_for(sequential_process(2))
        first.weak_next(first.normalize(encoded.term))
        memos = (
            first._lts._transitions_memo,
            first._lts._normalize_memo,
            second._lts._transitions_memo,
            second._lts._normalize_memo,
        )
        assert len({id(memo) for memo in memos}) == 4
        assert first._lts._transitions_memo
        assert not second._lts._transitions_memo
        assert first.weak_next(
            first.normalize(encoded.term)
        ) == second.weak_next(second.normalize(encoded.term))
