"""Every metric the benchmark prints, with its unit.

``BENCHMARK.json`` at the repository root lists the same names and
units; the self-tests hold the two equal.
"""

END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "capacity_eps": "1/s",
    "cpu_us_per_entry": "us",
    "peak_rss_mb": "MB",
    "rss_growth_mb": "MB",
}

PER_LAYER: dict[str, str] = {
    # Open-loop verdict latency, recorded here rather than gated: on a
    # shared 2-core host the p50 moved by more than a quarter between
    # runs of identical code, and the p99 swings between a few ms and a
    # few hundred with whether a full garbage collection of the daemon's
    # heap lands inside the window.
    "serve.verdict_p50_ms": "ms",
    "serve.verdict_p99_ms": "ms",
    "serve.protocol.decode_ns": "ns",
    "serve.protocol.encode_ns": "ns",
    "serve.service.sync_idle_ms": "ms",
    "serve.service.overhead_us_per_entry": "us",
    "serve.core.submit_ns": "ns",
    "serve.core.submit_wal_ns": "ns",
    "serve.core.handoff_us": "us",
    "serve.core.router_eps": "1/s",
    "serve.core.queue_depth_max": "count",
    "serve.wal.append_ns": "ns",
    "serve.wal.commit_ms": "ms",
    "serve.wal.bytes_per_record": "B",
    "audit.store.append_many_ns": "ns",
    "serve.durable_lag_ms": "ms",
    "audit.store.verify_ns": "ns",
    "audit.store.query_ns": "ns",
    "audit.model.for_case_s": "s",
    "core.monitor.observe_ns.table": "ns",
    "core.monitor.observe_ns.interpreted": "ns",
    "core.monitor.retained_b_per_entry": "B",
    "compile.table.step_ns": "ns",
    "compile.feed_ns": "ns",
    "compile.automaton_s": "s",
    "compile.table_s": "s",
    "compile.states": "count",
    "compile.lazy_states_grown": "count",
    "core.compliance.feed_ns": "ns",
    "core.weaknext.calls_per_entry": "count",
    "core.weaknext.cache_size": "count",
    "core.auditor.audit_case_us": "us",
    "core.parallel.audit_s.w1": "s",
    "core.parallel.audit_s.w2": "s",
    "core.parallel.speedup_w2": "x",
    "bpmn.encode_s": "s",
    "cli.import_s": "s",
    "obs.metrics.observe_ns": "ns",
    "obs.tracing_overhead": "share",
    "serve.drain_s": "s",
    "host.steal_share": "share",
    "loadgen.lateness_p99_ms": "ms",
    "loadgen.busy_refusals": "count",
}
