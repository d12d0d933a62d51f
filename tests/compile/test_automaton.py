"""Tests for the lazy subset-construction purpose automaton."""

from datetime import datetime, timedelta

import pytest

from repro.audit import LogEntry, Status
from repro.bpmn import encode
from repro.compile import (
    ERR_KEY,
    REJECTED_STATE,
    EntryKeyer,
    PurposeAutomaton,
    compile_automaton,
    fingerprint_encoded,
)
from repro.core import ComplianceChecker
from repro.errors import ArtifactError, AutomatonExplosionError
from repro.obs import MetricsRegistry, Telemetry
from repro.policy.hierarchy import RoleHierarchy
from repro.scenarios import sequential_process
from repro.testing import assert_equivalent_verdicts


def entry(task, minute=0, role="Staff", status=Status.SUCCESS, case="C-1"):
    return LogEntry(
        user="Sam",
        role=role,
        action="work",
        obj=None,
        task=task,
        case=case,
        timestamp=datetime(2010, 1, 1, 9, 0) + timedelta(minutes=minute),
        status=status,
    )


def fresh_checker(n_tasks=2, **kwargs):
    return ComplianceChecker(encode(sequential_process(n_tasks)), **kwargs)


def attach_fresh_automaton(checker, **kwargs):
    automaton = PurposeAutomaton(
        fingerprint=fingerprint_encoded(checker.encoded),
        purpose=checker.purpose,
        roles=checker.encoded.roles,
        **kwargs,
    )
    checker.attach_automaton(automaton)
    return automaton


class TestEntryKeyer:
    def test_failed_entries_share_the_error_key(self):
        keyer = EntryKeyer(["Staff"], None)
        assert keyer.key(entry("T1", status=Status.FAILURE)) == ERR_KEY
        assert keyer.key(entry("T2", status=Status.FAILURE)) == ERR_KEY

    def test_key_separates_tasks(self):
        keyer = EntryKeyer(["Staff"], None)
        assert keyer.key(entry("T1")) != keyer.key(entry("T2"))

    def test_specialized_role_keys_like_its_pool_role(self):
        """A Senior (specializing Staff) drives the same alphabet symbol
        as a Staff entry — absorption and matching are identical."""
        hierarchy = RoleHierarchy()
        hierarchy.add_role("Senior", "Staff")
        keyer = EntryKeyer(["Staff"], hierarchy)
        assert keyer.matched_roles("Senior") == frozenset({"Staff"})
        assert keyer.key(entry("T1", role="Senior")) == keyer.key(
            entry("T1", role="Staff")
        )

    def test_unknown_role_keys_differently(self):
        keyer = EntryKeyer(["Staff"], None)
        assert keyer.matched_roles("Visitor") == frozenset()
        assert keyer.key(entry("T1", role="Visitor")) != keyer.key(
            entry("T1", role="Staff")
        )


class TestLazyConstruction:
    def test_bind_interns_the_initial_state(self):
        checker = fresh_checker()
        automaton = attach_fresh_automaton(checker)
        assert automaton.state_count == 1
        assert automaton.initial() == 0

    def test_states_materialize_on_demand_and_are_reused(self):
        registry = MetricsRegistry()
        tel = Telemetry.create(registry=registry)
        checker = fresh_checker(telemetry=tel)
        automaton = attach_fresh_automaton(checker, telemetry=tel)
        trail = [entry("T1", 0), entry("T2", 1)]

        assert checker.check(trail).compliant
        first_pass_states = automaton.state_count
        assert first_pass_states > 1
        misses = registry.counter("automaton_misses_total").value()
        assert misses >= 2.0

        assert checker.check(trail).compliant  # warm replay
        assert automaton.state_count == first_pass_states
        assert registry.counter("automaton_misses_total").value() == misses
        assert (
            registry.counter("automaton_hits_total").value(tier="memory")
            >= 2.0
        )

    def test_rejection_is_a_sink_not_a_state(self):
        checker = fresh_checker()
        automaton = attach_fresh_automaton(checker)
        transition = automaton.extend(
            automaton.initial(), automaton.entry_key(entry("T2"))
        )
        assert transition.target == REJECTED_STATE
        result = checker.check([entry("T2", 0)])
        assert not result.compliant
        assert result.failed_index == 0

    def test_compiled_verdicts_match_interpreted(self):
        compiled = fresh_checker()
        attach_fresh_automaton(compiled)
        interpreted = fresh_checker()
        for trail in (
            [entry("T1", 0), entry("T2", 1)],
            [entry("T1", 0)],
            [entry("T2", 0)],
            [entry("T1", 0), entry("T1", 1)],
            [entry("T1", 0, status=Status.FAILURE)],
        ):
            assert_equivalent_verdicts(
                interpreted.check(trail), compiled.check(trail)
            )

    def test_classification(self):
        checker = fresh_checker()
        automaton = attach_fresh_automaton(checker)
        session = checker.session()
        session.feed(entry("T1", 0))
        assert session.may_continue
        session.feed(entry("T2", 1))
        assert not session.may_continue
        result = session.result()
        assert result.compliant and not result.may_continue


class TestGuards:
    def test_max_states_raises_explosion(self):
        checker = fresh_checker()
        automaton = attach_fresh_automaton(checker, max_states=1)
        with pytest.raises(AutomatonExplosionError):
            automaton.extend(
                automaton.initial(), automaton.entry_key(entry("T1"))
            )

    def test_explosion_falls_back_to_interpreted(self):
        """A too-small automaton must degrade, not fail: the session
        transparently re-replays through the interpreted engine."""
        checker = fresh_checker()
        attach_fresh_automaton(checker, max_states=1)
        plain = fresh_checker()
        trail = [entry("T1", 0), entry("T2", 1)]
        assert_equivalent_verdicts(plain.check(trail), checker.check(trail))

    def test_dedupe_ablation_is_incompatible(self):
        checker = fresh_checker(dedupe_frontier=False)
        with pytest.raises(ValueError, match="dedupe_frontier"):
            attach_fresh_automaton(checker)


class TestEagerCompile:
    def test_exhaustive_compile_covers_the_alphabet(self):
        """After compile_automaton, replays of in-alphabet trails are
        pure lookups — the miss counter stays frozen."""
        registry = MetricsRegistry()
        tel = Telemetry.create(registry=registry)
        checker = fresh_checker(telemetry=tel)
        automaton = compile_automaton(checker, telemetry=tel)
        assert automaton.state_count >= 3
        assert automaton.transition_count > 0
        misses = registry.counter("automaton_misses_total").value()
        assert checker.check([entry("T1", 0), entry("T2", 1)]).compliant
        assert not checker.check([entry("T2", 0)]).compliant
        assert not checker.check(
            [entry("T1", 0, status=Status.FAILURE)]
        ).compliant
        assert registry.counter("automaton_misses_total").value() == misses

    def test_partial_compile_on_tiny_budget_still_replays(self):
        checker = fresh_checker()
        automaton = compile_automaton(checker, max_states=2)
        assert automaton.state_count <= 2
        plain = fresh_checker()
        trail = [entry("T1", 0), entry("T2", 1)]
        assert_equivalent_verdicts(plain.check(trail), checker.check(trail))


class TestDocumentRoundTrip:
    def test_round_trip_preserves_structure(self):
        checker = fresh_checker()
        automaton = compile_automaton(checker)
        clone = PurposeAutomaton.from_document(automaton.to_document())
        assert clone.tier == "disk"
        assert clone.fingerprint == automaton.fingerprint
        assert clone.purpose == automaton.purpose
        assert clone.state_count == automaton.state_count
        assert clone.transition_count == automaton.transition_count

    def test_materialize_rebuilds_configurations_from_witness_paths(self):
        checker = fresh_checker()
        automaton = compile_automaton(checker)
        clone = PurposeAutomaton.from_document(automaton.to_document())
        host = fresh_checker()
        clone.bind(host.engine, host.initial_configuration)
        target = clone.extend(
            clone.initial(), clone.entry_key(entry("T1"))
        ).target
        configs = clone.materialize(target)
        assert configs
        assert clone.state_active_sets(target) == frozenset(
            conf.active for conf in configs
        )

    def test_binding_a_foreign_process_is_rejected(self):
        checker = fresh_checker()
        automaton = compile_automaton(checker)
        clone = PurposeAutomaton.from_document(automaton.to_document())
        other = fresh_checker(n_tasks=3)
        with pytest.raises(ArtifactError):
            clone.bind(other.engine, other.initial_configuration)

    def test_malformed_document_raises_artifact_error(self):
        with pytest.raises(ArtifactError):
            PurposeAutomaton.from_document({"purpose": "x"})
        with pytest.raises(ArtifactError):
            PurposeAutomaton.from_document(
                {
                    "purpose": "x",
                    "fingerprint": "f",
                    "roles": [],
                    "hierarchy": {},
                    "max_states": 10,
                    "states": [],
                }
            )


#: Compiled output of every shipped scenario purpose, recorded before the
#: COWS semantics were memoized.  State ids, frontier order, transition
#: summaries and table bytes must not move: compiled state identity is
#: part of every persisted artifact and replay digest.
PINNED_SCENARIO_AUTOMATA = {
    ("paper", "clinicaltrial"): (
        "55d76f9b06650b55f4e93aaf261f72b78717c2f1fe92584583c12e2d91418002",
        6,
        36,
        "31cb7a2f4beef8296dcd30f3590ae5cba54279579cb068e330ae82ae27d7b55c",
        "c488d43f38ce536737d1fe350536642616d0844d72e2aff036dbfbe62612a7f5",
    ),
    ("paper", "treatment"): (
        "362acc4d61866f70e8097f7a8ff717190c31b5536ba5eb7dbad781c1b77e252f",
        49,
        2989,
        "a4d9877c5536ba21a308320cd83a310c8670701e00961a250088615fe0e868b0",
        "d57317004642c9c1a387e45eef1bed95ba0e3288b89a6c74f3dfd9a1fd67faa1",
    ),
    ("insurance", "claimhandling"): (
        "906dce2b6cb6887609d3b4a4095731a8a4a3620d4da62a0c51168307509b356b",
        9,
        261,
        "b3b6417618a070a4bb5897d798602096f4888239babe7c324fe150ce96ac8d60",
        "a2a5d92dd9e1ca083f8423ef134326e1c323e65aa79a71ee5266481527603417",
    ),
    ("insurance", "marketing"): (
        "3695a5a5fad04ca5feaadf5ef120bf3f3f4e0178d6452607249334b9a344b670",
        5,
        25,
        "f047cd377c09115f22938d18d6482cdc40926c074ac717fb5dc92482f113aeae",
        "47e46f64e40a1e298183ddb35e4d0d4629de59dad8920cf4fc40a70053030694",
    ),
}


def _scenario(name):
    import repro.scenarios as scenarios

    if name == "paper":
        return scenarios.process_registry(), scenarios.role_hierarchy()
    return scenarios.insurance_registry(), scenarios.insurance_role_hierarchy()


class TestPinnedScenarioOutput:
    def test_every_scenario_purpose_is_pinned(self):
        pinned = {
            (scenario, purpose)
            for scenario in ("paper", "insurance")
            for purpose in _scenario(scenario)[0].purposes()
        }
        assert pinned == set(PINNED_SCENARIO_AUTOMATA)

    @pytest.mark.parametrize(
        "scenario,purpose", sorted(PINNED_SCENARIO_AUTOMATA)
    )
    def test_compiled_output_is_unchanged(self, scenario, purpose, tmp_path):
        import hashlib
        import json

        from repro.compile import compile_table
        from repro.compile.table import save_table

        registry, hierarchy = _scenario(scenario)
        checker = ComplianceChecker(
            registry.encoded_for(purpose), hierarchy=hierarchy
        )
        automaton = compile_automaton(checker)
        document = json.dumps(
            automaton.to_document(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        table = save_table(compile_table(automaton), tmp_path / "t.bin")
        assert (
            automaton.states_digest(),
            automaton.state_count,
            automaton.transition_count,
            hashlib.sha256(document).hexdigest(),
            hashlib.sha256(table.read_bytes()).hexdigest(),
        ) == PINNED_SCENARIO_AUTOMATA[(scenario, purpose)]


class TestMemoScope:
    def test_semantics_memos_die_with_the_checker(self):
        import gc
        import weakref

        from repro.cows import Parallel

        checker = fresh_checker(n_tasks=3)
        automaton = compile_automaton(checker)
        document = automaton.to_document()
        lts = weakref.ref(checker.engine._lts)
        # Raw (not yet normalized) successor terms live only in the memo.
        derived = [
            weakref.ref(target)
            for edges in lts()._transitions_memo.values()
            for _, target in edges
            if isinstance(target, Parallel)
        ]
        assert derived and lts()._normalize_memo
        del checker, automaton
        gc.collect()
        assert lts() is None
        assert all(ref() is None for ref in derived)
        # The saved artifact alone still replays.
        clone = PurposeAutomaton.from_document(document)
        assert clone.state_count > 1
