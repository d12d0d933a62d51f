"""The traced run: a per-layer cost ledger for one workload.

Every figure comes from a span the benchmark records around its own
calls into one module's public functions (nothing inside ``src/`` is
instrumented).  A span carries the number of items it processed, so a
per-item cost is the span's self time divided by its items.  The spans
are kept in memory and written to ``.auditbench_out/`` when the run
ends.  End-to-end numbers never come from this run.

Every in-process layer, including the batch auditor's (store reads,
trail projection, per-case audit, the parallel pool), replays the first
``LEDGER_ENTRIES`` entries of the workload's base day.  Two daemon
passes follow: one plain, one with ``--otlp``, whose CPU
per entry gives ``obs.tracing_overhead``.
"""

from __future__ import annotations

import gc
import shutil
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

from daemon import Daemon, program_env
from hostproc import HostTimes
from loadgen import StreamConnection
from oracle import Reference, reference, stream_expectations
from spans import SpanRecorder
from stats import median, percentile, tail_supported
from stream import RunResult, stream_pass
from workloads import StreamInputs, StreamSpec, copy_case, encode_entries

from repro.audit.model import AuditTrail
from repro.audit.store import AuditStore
from repro.bpmn.encode import encode
from repro.compile import AutomatonCache, compile_automaton, compile_table, warm_checker
from repro.core.auditor import PurposeControlAuditor
from repro.core.compliance import ComplianceChecker
from repro.core.monitor import OnlineMonitor
from repro.core.parallel import audit_cases_parallel
from repro.obs import MetricsRegistry
from repro.scenarios import (
    clinical_trial_process,
    healthcare_treatment_process,
    process_registry,
    role_hierarchy,
)
from repro.serve import ServeConfig, ShardRouter
from repro.serve.protocol import decode_message, encode_message, entry_from_message
from repro.serve.wal import WalWriter
from repro.testing import canonical_digest

#: The prefix of the workload's base day the in-process layers replay.
LEDGER_ENTRIES = 8000
#: The daemon passes: the base as warm-up, then closed rounds of copies.
DAEMON_ROUNDS, DAEMON_ROUND = 8, 1250
RETAINED_ENTRIES = 4000
HANDOFF_ENTRIES = 1500
STORE_BATCH = 256


class Ledger:
    def __init__(self, spec: StreamSpec, root: Path, work: Path):
        self.spec = spec
        self.root = root
        self.work = work
        self.rec = SpanRecorder()
        self.metrics: dict[str, float] = {}
        self.result = RunResult()
        self.registry = process_registry()
        self.hierarchy = role_hierarchy()

    # -- helpers ---------------------------------------------------------
    def per_item_ns(self, name: str, items: int, call) -> float:
        with self.rec.span(name, items=items) as span:
            call()
        return self.rec.per_item(span) * 1e9

    def timed(self, name: str, call, items: int = 0):
        with self.rec.span(name, items=items) as span:
            value = call()
        return value, self.rec.self_time(span)

    # -- start-up layers -------------------------------------------------
    def startup(self) -> None:
        imports = []
        for _ in range(3):
            _, took = self.timed("cli.import", lambda: subprocess.run(
                [sys.executable, "-c", "import repro.cli"], env=program_env(self.root),
                check=True))
            imports.append(took)
        self.metrics["cli.import_s"] = median(imports)
        encodes = []
        for _ in range(3):
            _, took = self.timed("bpmn.encode", lambda: [
                encode(healthcare_treatment_process()), encode(clinical_trial_process())])
            encodes.append(took)
        self.metrics["bpmn.encode_s"] = median(encodes)
        series = MetricsRegistry().histogram("auditbench_probe", "probe").series()
        n = 200_000
        self.metrics["obs.metrics.observe_ns"] = self.per_item_ns(
            "obs.metrics.observe", n, lambda: [series.observe(0.0003) for _ in range(n)])

    # -- the wire --------------------------------------------------------
    def protocol(self, entries, lines) -> None:
        self.metrics["serve.protocol.decode_ns"] = self.per_item_ns(
            "serve.protocol.decode", len(lines),
            lambda: [entry_from_message(decode_message(line)) for line in lines])
        events = [{"event": "verdict", "case": e.case, "state": "open", "previous": None,
                   "purpose": "treatment", "shard": "shard-0", "infringements": []}
                  for e in entries]
        self.metrics["serve.protocol.encode_ns"] = self.per_item_ns(
            "serve.protocol.encode", len(events), lambda: [encode_message(m) for m in events])

    # -- replay tiers ----------------------------------------------------
    def interpreted(self, entries) -> Reference:
        ref, took = self.timed("core.monitor.observe.interpreted",
                               lambda: reference(entries), items=len(entries))
        self.metrics["core.monitor.observe_ns.interpreted"] = took / len(entries) * 1e9
        checkers = {p: ComplianceChecker(self.registry.encoded_for(p), hierarchy=self.hierarchy)
                    for p in self.registry.purposes()}
        calls = [0]
        for checker in checkers.values():
            engine = checker.engine
            original = engine.weak_next

            def counted(state, _original=original):
                calls[0] += 1
                return _original(state)

            engine.weak_next = counted
        sessions = {}

        def feed_all():
            for entry in entries:
                session = sessions.get(entry.case)
                if session is None:
                    purpose = self.registry.purpose_of_case(entry.case)
                    session = sessions[entry.case] = checkers[purpose].interpreted_session()
                session.feed(entry)

        self.metrics["core.compliance.feed_ns"] = self.per_item_ns(
            "core.compliance.feed", len(entries), feed_all)
        self.metrics["core.weaknext.calls_per_entry"] = calls[0] / len(entries)
        self.metrics["core.weaknext.cache_size"] = sum(
            c.engine.cache_size() for c in checkers.values())
        wrong = sum(1 for case, s in sessions.items()
                    if canonical_digest(s.result()) != ref.digests.get(case))
        self.result.check(len(sessions), wrong, "interpreted sessions vs oracle")
        return ref

    def compile(self) -> Path:
        cache_dir = self.work / "automata"
        cache = AutomatonCache(str(cache_dir))
        states = 0
        automaton_s = table_s = 0.0
        for purpose in sorted(self.registry.purposes()):
            checker = ComplianceChecker(self.registry.encoded_for(purpose), hierarchy=self.hierarchy)
            automaton, took = self.timed("compile.automaton", lambda: compile_automaton(checker))
            automaton_s += took
            table, took = self.timed("compile.table", lambda: compile_table(automaton))
            table_s += took
            states += automaton.state_count
            cache.save(automaton)
            cache.save_table(table)
        self.metrics["compile.automaton_s"] = automaton_s
        self.metrics["compile.table_s"] = table_s
        self.metrics["compile.states"] = states
        return cache_dir

    def compiled_tiers(self, entries, ref: Reference, cache_dir: Path) -> None:
        monitor = OnlineMonitor(self.registry, hierarchy=self.hierarchy,
                                automaton_dir=str(cache_dir), table=True)
        monitor.prewarm()
        self.metrics["core.monitor.observe_ns.table"] = self.per_item_ns(
            "core.monitor.observe.table", len(entries),
            lambda: [monitor.observe(e) for e in entries])
        wrong = sum(1 for case in monitor.cases()
                    if canonical_digest(monitor.case_result(case)) != ref.digests.get(case))
        self.result.check(len(monitor.cases()), wrong, "table-tier monitor vs oracle")

        cache = AutomatonCache(str(cache_dir))
        warm = {}
        for purpose in self.registry.purposes():
            checker = ComplianceChecker(self.registry.encoded_for(purpose), hierarchy=self.hierarchy)
            warm[purpose] = (checker, warm_checker(checker, cache=cache, table=True))
        # Walk each case over the dense table, then time the bare steps.
        pairs = []
        position = {}
        for entry in entries:
            purpose = self.registry.purpose_of_case(entry.case)
            automaton = warm[purpose][1]
            table = automaton.table
            sid = position.get(entry.case, automaton.initial())
            if sid < 0:
                continue
            sym = table.entry_symbol(entry.task, entry.role)
            step = table.step(sid, sym)
            pairs.append((table, sid, sym))
            position[entry.case] = step.target if step is not None else -1
        self.metrics["compile.table.step_ns"] = self.per_item_ns(
            "compile.table.step", len(pairs), lambda: [t.step(s, y) for t, s, y in pairs])

        lazy = {}
        for purpose in self.registry.purposes():
            checker = ComplianceChecker(self.registry.encoded_for(purpose), hierarchy=self.hierarchy)
            lazy[purpose] = (checker, warm_checker(checker, cache=None))
        tiers = {"lazy": lazy}
        if self.spec.durable:
            tiers["table"] = warm
        for tier, checkers in tiers.items():
            sessions = {}

            def feed_all():
                for entry in entries:
                    session = sessions.get(entry.case)
                    if session is None:
                        purpose = self.registry.purpose_of_case(entry.case)
                        session = sessions[entry.case] = checkers[purpose][0].session()
                    session.feed(entry)

            took = self.per_item_ns(f"compile.feed.{tier}", len(entries), feed_all)
            if tier == "lazy":
                self.metrics["compile.lazy_states_grown"] = sum(
                    a.state_count for _, a in lazy.values())
            self.metrics["compile.feed_ns"] = took
            wrong = sum(1 for case, s in sessions.items()
                        if canonical_digest(s.result()) != ref.digests.get(case))
            self.result.check(len(sessions), wrong, f"compiled sessions ({tier}) vs oracle")

    def retained(self, entries, cache_dir: Path) -> None:
        """Bytes the monitor keeps per entry once warm (tracemalloc)."""
        if self.spec.durable:
            monitor = OnlineMonitor(self.registry, hierarchy=self.hierarchy,
                                    automaton_dir=str(cache_dir), table=True)
        else:
            monitor = OnlineMonitor(process_registry(), hierarchy=self.hierarchy)
        for entry in entries:
            monitor.observe(entry)
        sample = [replace(e, case=copy_case(e.case, 1)) for e in entries[:RETAINED_ENTRIES]]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with self.rec.span("core.monitor.retained", items=len(sample)):
                for entry in sample:
                    monitor.observe(entry)
            gc.collect()
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        self.metrics["core.monitor.retained_b_per_entry"] = (after - before) / len(sample)

    # -- the router, WAL and store ----------------------------------------
    def router(self, entries, ref: Reference, cache_dir: Path) -> None:
        """The in-process engine, warm: the base day first, then copy 1 timed.

        Queues are sized so ``submit`` never blocks on backpressure: the
        figure is the admission cost itself, not time spent waiting for
        the shard.
        """
        copy = [replace(e, case=copy_case(e.case, 1)) for e in entries]
        handoff = [replace(e, case=copy_case(e.case, 2)) for e in entries[:HANDOFF_ENTRIES]]
        expected, digests = stream_expectations(ref, len(entries), 2 * len(entries))

        def config(**extra):
            extra["queue_capacity"] = 2 * len(entries)
            if self.spec.durable:
                return ServeConfig(shards=1, compiled=True, automaton_dir=str(cache_dir), **extra)
            return ServeConfig(shards=1, **extra)

        def noop(_event):
            pass

        for name, extra in (("serve.core.submit", {}),
                            ("serve.core.submit_wal", {"wal_dir": str(self.work / "router-wal")})):
            router = ShardRouter(self.registry, hierarchy=self.hierarchy, config=config(**extra))
            router.start()
            try:
                for entry in entries:
                    router.submit(entry, noop)
                if not router.wait_idle(timeout=300):
                    raise RuntimeError("in-process router did not go idle")
                depth = 0
                with self.rec.span(f"{name}.pass", items=len(copy)) as whole:
                    with self.rec.span(name, items=len(copy)) as span:
                        for index, entry in enumerate(copy):
                            router.submit(entry, noop)
                            if index % 256 == 0:
                                detail = router.refresh_shard_gauges()
                                depth = max(depth, max(d["queue_depth"] for d in detail.values()))
                    if not router.wait_idle(timeout=300):
                        raise RuntimeError("in-process router did not go idle")
                self.metrics[name + "_ns"] = self.rec.per_item(span) * 1e9
                results = router.results()
                wrong = sum(1 for case, digest in digests.items()
                            if results.get(case, {}).get("digest") != digest)
                self.result.check(len(digests), wrong, f"{name} router vs oracle")
                if extra:
                    continue
                self.metrics["serve.core.router_eps"] = len(copy) / whole.duration
                self.metrics["serve.core.queue_depth_max"] = depth
                self.metrics["serve.core.handoff_us"] = self.handoff(router, entries, handoff, ref)
            finally:
                router.drain()

    def handoff(self, router: ShardRouter, base, sample, ref: Reference) -> float:
        """Submit -> subscriber callback on the idle warm router, minus the
        replay itself (timed on a shadow monitor in the same state)."""
        shadow = OnlineMonitor(process_registry(), hierarchy=self.hierarchy,
                               automaton_dir=str(self.work / "automata") if self.spec.durable else None)
        for entry in base:
            shadow.observe(entry)
        due = {v.index for v in ref.verdicts if v.index < len(sample)}
        spent = []
        with self.rec.span("serve.core.handoff", items=len(due)):
            for index, entry in enumerate(sample):
                started = time.perf_counter()
                shadow.observe(entry)
                observed = time.perf_counter() - started
                if index not in due:
                    router.submit(entry, lambda _e: None)
                    continue
                router.wait_idle(timeout=60)
                fired = threading.Event()
                started = time.perf_counter()
                router.submit(entry, lambda _e: fired.set())
                if not fired.wait(timeout=60):
                    raise RuntimeError("verdict callback never fired")
                spent.append(time.perf_counter() - started - observed)
        return median(spent) * 1e6

    def wal(self, entries) -> None:
        writer = WalWriter(self.work / "wal", "shard-0")
        seq = defaultdict(int)
        commits = []
        round_size = self.spec.round_entries
        try:
            with self.rec.span("serve.wal.append", items=len(entries)) as span:
                for index, entry in enumerate(entries, start=1):
                    seq[entry.case] += 1
                    writer.append(entry, seq[entry.case])
                    if index % round_size == 0:
                        with self.rec.span("serve.wal.commit", items=1) as commit:
                            writer.commit()
                        commits.append(commit.duration)
            with self.rec.span("serve.wal.commit", items=1) as commit:
                writer.commit()
            commits.append(commit.duration)
        finally:
            writer.close()
        self.metrics["serve.wal.append_ns"] = self.rec.per_item(span) * 1e9
        self.metrics["serve.wal.commit_ms"] = median(commits) * 1e3
        size = sum(p.stat().st_size for p in (self.work / "wal").rglob("*") if p.is_file())
        self.metrics["serve.wal.bytes_per_record"] = size / len(entries)

    def store(self, day_entries) -> None:
        path = self.work / "ledger.db"
        with AuditStore(str(path)) as store:
            def write():
                for start in range(0, len(day_entries), STORE_BATCH):
                    store.append_many(day_entries[start : start + STORE_BATCH])

            self.metrics["audit.store.append_many_ns"] = self.per_item_ns(
                "audit.store.append_many", len(day_entries), write)
            self.metrics["audit.store.verify_ns"] = self.per_item_ns(
                "audit.store.verify_integrity", len(day_entries), store.verify_integrity)
            holder = []
            self.metrics["audit.store.query_ns"] = self.per_item_ns(
                "audit.store.query", len(day_entries), lambda: holder.append(store.query()))
        read = holder[0]
        self.result.check(len(day_entries), abs(len(read) - len(day_entries)), "store round trip")

    # -- the batch auditor (what ``repro audit --compiled`` runs) -----------
    def auditor(self, entries, ref: Reference) -> None:
        trail = AuditTrail(entries)
        cases = trail.cases()
        projected, took = self.timed("audit.model.for_case",
                                     lambda: {c: trail.for_case(c) for c in cases}, items=len(cases))
        self.metrics["audit.model.for_case_s"] = took
        auditor = PurposeControlAuditor(self.registry, hierarchy=self.hierarchy, compiled=True)
        results = {}
        with self.rec.span("core.auditor.audit_case", items=len(cases)) as span:
            for case in cases:
                results[case] = auditor.audit_case(case, projected[case])
        self.metrics["core.auditor.audit_case_us"] = self.rec.per_item(span) * 1e6
        wrong = sum(1 for case, r in results.items()
                    if canonical_digest(r.replay) != ref.digests.get(case))
        self.result.check(len(results), wrong, "auditor vs oracle")
        walls = {}
        for workers in (1, 2):
            outcomes, walls[workers] = self.timed(
                f"core.parallel.audit.w{workers}",
                lambda: audit_cases_parallel(self.registry, trail, workers=workers,
                                             hierarchy=self.hierarchy, compiled=True),
                items=len(cases))
            wrong = sum(1 for c in cases if outcomes[c].verdict != results[c].compliant)
            self.result.check(len(cases), wrong, f"parallel w{workers} vs serial auditor")
        self.metrics["core.parallel.audit_s.w1"] = walls[1]
        self.metrics["core.parallel.audit_s.w2"] = walls[2]
        self.metrics["core.parallel.speedup_w2"] = walls[1] / walls[2]

    # -- the daemon --------------------------------------------------------
    def daemon_pass(self, inputs: StreamInputs, ref: Reference, otlp: bool) -> float:
        """Warm-up, closed rounds and, plain, an open tail; returns CPU s/entry."""
        label = "otlp" if otlp else "plain"
        work = self.work / f"daemon-{label}"
        shutil.rmtree(work, ignore_errors=True)
        extra = ["--otlp", str(work / "spans.otlp.jsonl")] if otlp else []
        daemon = Daemon(self.root, work, self.spec.serve_flags(str(work)) + extra)

        def boot() -> Daemon:
            with self.rec.span("serve.boot"):
                daemon.boot()
            return daemon

        with self.rec.span(f"serve.daemon.{label}"):
            _, run = stream_pass(
                inputs, ref, self.result, boot=boot,
                round_entries=DAEMON_ROUND, rounds=DAEMON_ROUNDS,
                open_n=0 if otlp else int(self.spec.rate_eps * self.spec.tail_open_s),
                rate=self.spec.rate_eps,
                after_rounds=(lambda _conn: None) if otlp else self.service,
            )
            with self.rec.span("serve.drain") as drain:
                daemon.stop()
        if otlp:
            return median([r.cpu_s for r in run.rounds])
        self.metrics["serve.service.overhead_us_per_entry"] = (
            1e6 / median([r.rate_eps for r in run.rounds])
            - 1e6 / self.metrics["serve.core.router_eps"])
        tail = run.latencies_ms
        if not tail_supported(len(tail), 99):
            self.result.check(1, 1, f"{len(tail)} open-loop verdicts: p99 unsupported")
        self.metrics["serve.verdict_p50_ms"] = percentile(tail, 50) if tail else 0.0
        self.metrics["serve.verdict_p99_ms"] = percentile(tail, 99) if tail else 0.0
        self.metrics["loadgen.lateness_p99_ms"] = percentile(run.lateness_s, 99) * 1e3
        self.metrics["loadgen.busy_refusals"] = run.busy
        self.metrics["serve.drain_s"] = drain.duration
        return median([r.cpu_s for r in run.rounds])

    def service(self, conn: StreamConnection) -> None:
        """Between the closed rounds and the open tail: store lag, idle sync."""
        self.metrics["serve.durable_lag_ms"] = self.durable_lag(conn)
        idle = []
        for number in range(20):
            started = time.perf_counter()
            conn.sync(f"idle-{number}")
            idle.append(time.perf_counter() - started)
        self.metrics["serve.service.sync_idle_ms"] = median(idle) * 1e3

    def durable_lag(self, conn: StreamConnection) -> float:
        """``synced`` -> the store has written everything received (status poll).

        Without a store nothing is ever written and the lag reads 0.
        """
        started = time.perf_counter()
        while self.spec.durable:
            status = conn.request("status")
            if status["entries_written"] >= status["entries_received"]:
                break
            if time.perf_counter() - started > 30:
                raise RuntimeError("store never caught up with the stream")
            time.sleep(0.002)
        return (time.perf_counter() - started) * 1e3 if self.spec.durable else 0.0


def run_ledger(spec: StreamSpec, seed: int, seconds: float, root: Path, work: Path, out: Path) -> RunResult:
    work.mkdir(parents=True, exist_ok=True)
    ledger = Ledger(spec, root, work)
    host_before = HostTimes.sample()
    with ledger.rec.span("ledger", workload=spec.name, seed=seed):
        entries = spec.day.generate(spec.base_cases, seed).trail.entries[:LEDGER_ENTRIES]
        inputs = StreamInputs(entries, encode_entries(entries))
        ledger.startup()
        ledger.protocol(entries, inputs.base_lines)
        ref = ledger.interpreted(entries)
        cache_dir = ledger.compile()
        ledger.compiled_tiers(entries, ref, cache_dir)
        ledger.retained(entries, cache_dir)
        ledger.router(entries, ref, cache_dir)
        ledger.wal(entries)
        ledger.store(entries)
        ledger.auditor(entries, ref)
        gc.collect()
        gc.freeze()
        plain = ledger.daemon_pass(inputs, ref, otlp=False)
        traced = ledger.daemon_pass(inputs, ref, otlp=True)
        ledger.metrics["obs.tracing_overhead"] = traced / plain - 1.0
    ledger.metrics["host.steal_share"] = HostTimes.sample().steal_share_since(host_before)
    path = out / f"spans-{spec.name}-seed{seed}.json"
    ledger.rec.dump(path)
    ledger.result.metrics = ledger.metrics
    ledger.result.host = {"spans": str(path.relative_to(root)), "spans_recorded": len(ledger.rec.spans)}
    return ledger.result
