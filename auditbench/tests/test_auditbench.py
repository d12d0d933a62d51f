"""Self-tests for the benchmark's own pieces.

    python3 -m pytest auditbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from metrics import END_TO_END, PER_LAYER
from oracle import attribute, reference, stream_expectations
from run import result_line
from stats import percentile, samples_beyond, tail_supported
from stream import RunResult
from workloads import WORKLOADS, StreamSpec, copy_case, stream_inputs

from repro.scenarios import process_registry, role_hierarchy
from repro.serve import ServeConfig, ShardRouter
from repro.serve.protocol import decode_message, entry_from_message

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent


def small(name: str, cases: int = 40) -> StreamSpec:
    return dataclasses.replace(WORKLOADS[name], base_cases=cases)


class TestTailRule:
    def test_ten_samples_must_lie_beyond_the_percentile(self):
        assert samples_beyond(1000, 99) == 10
        assert tail_supported(1000, 99)
        assert not tail_supported(999, 99)
        assert tail_supported(20, 50) and not tail_supported(19, 50)

    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 99) == 99
        assert percentile(values, 100) == 100
        assert percentile([7.0], 99) == 7.0


class TestInputs:
    FINGERPRINT = (
        "import sys; sys.path[:0] = [{bench!r}, {src!r}]\n"
        "import dataclasses, hashlib\n"
        "from workloads import WORKLOADS, stream_inputs\n"
        "spec = dataclasses.replace(WORKLOADS['stream_replay'], base_cases=40)\n"
        "print(hashlib.sha256(b''.join(stream_inputs(spec, 7).lines(300))).hexdigest())\n"
    )

    def fingerprint_in_subprocess(self, hash_seed: str) -> str:
        code = self.FINGERPRINT.format(bench=str(BENCH), src=str(ROOT / "src"))
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True).stdout.strip()

    def test_same_seed_gives_byte_identical_inputs(self):
        assert self.fingerprint_in_subprocess("0") == self.fingerprint_in_subprocess("0")
        spec = small("stream_replay")
        first, second = stream_inputs(spec, 7), stream_inputs(spec, 7)
        assert first.lines(300) == second.lines(300)

    def test_different_seeds_give_different_inputs(self):
        spec = small("stream_durable")
        inputs = {b"".join(stream_inputs(spec, seed).base_lines) for seed in (1, 2, 3)}
        assert len(inputs) == 3

    def test_copies_rename_only_the_case(self):
        inputs = stream_inputs(small("stream_durable", 10), 3)
        n = len(inputs.base)
        lines = inputs.lines(3 * n)
        for copy in (1, 2):
            for entry, line in zip(inputs.base, lines[copy * n : (copy + 1) * n]):
                decoded = entry_from_message(decode_message(line))
                assert decoded.case == copy_case(entry.case, copy)
                assert dataclasses.replace(decoded, case=entry.case) == entry


class TestVerdictAttribution:
    """The oracle's expectations, held to a real in-process router pass."""

    @pytest.fixture(scope="class")
    def served(self):
        spec = small("stream_replay", 30)
        inputs = stream_inputs(spec, 11)
        ref = reference(inputs.base)
        n = len(inputs.base)
        sent = 2 * n + n // 2  # the base, one whole copy, half a copy
        events: list[tuple[float, dict]] = []
        router = ShardRouter(process_registry(), hierarchy=role_hierarchy(),
                             config=ServeConfig(shards=1))
        router.start()
        try:
            for index, line in enumerate(inputs.lines(sent)):
                router.submit(entry_from_message(decode_message(line)),
                              lambda event, index=index: events.append((index, event)))
            assert router.wait_idle(timeout=120)
            results = router.results()
        finally:
            router.drain()
        return ref, n, sent, events, results

    def test_every_served_verdict_matches_its_reference_transition(self, served):
        ref, n, sent, events, _ = served
        expected, _ = stream_expectations(ref, n, sent)
        attribution = attribute(events, expected)
        assert attribution.failed == 0
        assert len(attribution.matched) == sum(map(len, expected.values()))
        # The receipt "time" here is the index of the submitted entry, so
        # a correct attribution names the very entry that caused it.
        assert all(index == caused for index, caused in attribution.matched)

    def test_renamed_digests_equal_the_served_ones(self, served):
        ref, n, sent, _, results = served
        _, digests = stream_expectations(ref, n, sent)
        assert len(digests) == 2 * len(ref.digests)  # the half copy is not due
        for case, digest in digests.items():
            assert results[case]["digest"] == digest, case

    def test_wrong_missing_and_extra_verdicts_are_counted(self, served):
        ref, n, sent, events, _ = served
        expected, _ = stream_expectations(ref, n, sent)
        index, first = events[0]
        wrong = (index, {**first, "previous": "completed"})
        bogus = (0, {**first, "case": "HT-999999"})
        # events[-1] is the last verdict of its case: dropping it shifts nothing.
        attribution = attribute([wrong, bogus] + events[1:-1], expected)
        assert (attribution.mismatched, attribution.missing, attribution.extra) == (1, 1, 1)


class TestPrintedMetrics:
    def benchmark(self) -> dict:
        return json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_names_and_units_equal_benchmark_json(self):
        spec = self.benchmark()
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
        assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)

    def test_result_line_carries_every_metric_with_its_unit(self):
        result = RunResult(attempted=3, failed=1,
                           metrics={name: 1.5 for name in END_TO_END})
        line = json.loads(result_line(result, END_TO_END))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is False and line["attempted"] == 3
        assert line["metrics"] == {n: {"value": 1.5, "unit": u} for n, u in END_TO_END.items()}

    def test_refuses_to_run_without_the_program(self, tmp_path):
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
        shutil.copytree(BENCH, tmp_path / BENCH.name,
                        ignore=shutil.ignore_patterns("__pycache__", "tests"))
        proc = subprocess.run(
            [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload",
             "stream_durable", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert proc.stdout == ""
