"""The stream workloads: ``repro serve`` driven over TCP, end to end.

Phases, in order, with nothing else running inside a timed one:

1. untimed: generate and encode the base day, replay it through the
   interpreted oracle;
2. boot and stop the daemon ``boots // 2`` times, then boot the one
   that is measured;
3. warm-up: the base day itself, in closed rounds, then RSS;
4. capacity: equal closed-loop rounds of the renamed copies, each ended
   by ``sync``; rate and daemon CPU per entry are medians over rounds;
5. RSS again (growth over the fixed-size capacity phase), then the
   open loop at the workload's fixed rate for ``--seconds``;
6. ``results`` digests and every verdict checked against the oracle;
   the daemon is then killed (its graceful drain is timed by the traced
   run, as ``serve.drain_s``);
7. the remaining boots.  ``setup_s`` is the median over all ``boots``.
"""

from __future__ import annotations

import gc
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from daemon import Daemon
from hostproc import HostTimes
from loadgen import Round, StreamConnection, closed_rounds, open_loop
from oracle import Reference, attribute, reference, stream_expectations
from stats import median, percentile, quartiles, tail_supported
from workloads import StreamInputs, StreamSpec, stream_inputs


@dataclass
class RunResult:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    #: Host-noise readings printed next to the metrics.
    host: dict[str, float] = field(default_factory=dict)

    def check(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{what}: {failed} of {attempted} failed")


def boot(spec: StreamSpec, root: Path, work: Path, number: int) -> tuple[Daemon, float]:
    """Boot daemon *number* in a directory of its own; returns it and its set-up time."""
    boot_dir = work / f"boot{number}"
    shutil.rmtree(boot_dir, ignore_errors=True)
    daemon = Daemon(root, boot_dir, spec.serve_flags(str(boot_dir)))
    try:
        return daemon, daemon.boot()
    except BaseException:
        daemon.kill()
        raise


def boot_and_stop(spec: StreamSpec, root: Path, work: Path, numbers: range) -> list[float]:
    times = []
    for number in numbers:
        daemon, took = boot(spec, root, work, number)
        daemon.stop()
        times.append(took)
    return times


@dataclass
class StreamPass:
    """What one daemon pass measured; its outputs are already checked."""

    rounds: list[Round]
    #: Scheduled send -> receipt of each open-loop verdict (ms).
    latencies_ms: list[float]
    #: How late the generator sent each open-loop entry (s).
    lateness_s: list[float]
    busy: int
    rss_warm_kb: int
    rss_after_kb: int
    hwm_kb: int
    capacity_s: float


def stream_pass(
    inputs: StreamInputs, ref: Reference, result: RunResult, *,
    boot: Callable[[], Daemon], round_entries: int, rounds: int, open_n: int, rate: float,
    after_rounds: Callable[[StreamConnection], None] = lambda _conn: None,
) -> tuple[Daemon, StreamPass]:
    """Warm-up, closed rounds and an open loop on one booted daemon.

    The base day is the warm-up and *rounds* blocks of *round_entries*
    copied entries the capacity phase; *open_n* further entries go out
    at *rate*.  *after_rounds* runs between the two phases.  Every
    verdict, digest and refusal is checked into *result*.  The daemon
    is returned still running: the caller kills or drains it.
    """
    warm_n = len(inputs.base)
    lines = inputs.lines(warm_n + rounds * round_entries + open_n)
    warm = [
        lines[at : min(at + round_entries, warm_n)]
        for at in range(0, warm_n, round_entries)
    ]
    blocks = [
        lines[warm_n + i * round_entries : warm_n + (i + 1) * round_entries]
        for i in range(rounds)
    ]
    open_start = warm_n + rounds * round_entries
    expected, digests = stream_expectations(ref, warm_n, len(lines))
    # The generator's own heap (inputs, oracle) must not be rescanned by
    # the collector while it times the daemon.
    gc.collect()
    gc.freeze()

    daemon = boot()
    try:
        conn = StreamConnection("127.0.0.1", daemon.port)
        closed_rounds(conn, warm, "warm", daemon.cpu_s)
        rss_warm = daemon.rss_kb()
        capacity_started = time.perf_counter()
        measured = closed_rounds(conn, blocks, "round", daemon.cpu_s)
        capacity_s = time.perf_counter() - capacity_started
        rss_after = daemon.rss_kb()
        after_rounds(conn)
        scheduled, lateness = open_loop(conn, lines[open_start:], rate)
        conn.sync("open")
        accepted = conn.request("status")["entries_received"]
        served = conn.request("results")["cases"]
        hwm = daemon.hwm_kb()
        conn.close()
    except BaseException:
        daemon.kill()
        raise

    sent = len(lines)
    result.check(sent, sum(conn.refusals.values()), f"entries refused {dict(conn.refusals)}")
    if accepted != sent:
        result.check(1, 1, f"daemon received {accepted} of {sent}")
    attribution = attribute(conn.verdicts, expected)
    result.check(sum(map(len, expected.values())) + attribution.extra, attribution.failed,
                 f"verdicts (mismatched {attribution.mismatched}, missing "
                 f"{attribution.missing}, extra {attribution.extra})")
    wrong = sum(
        1 for case, digest in digests.items()
        if served.get(case, {}).get("digest") != digest
    )
    result.check(len(digests), wrong, "case digests")

    latencies = [
        (received - scheduled[index - open_start]) * 1e3
        for index, received in attribution.matched
        if index >= open_start
    ]
    return daemon, StreamPass(
        measured, latencies, lateness, conn.refusals.get("busy", 0),
        rss_warm, rss_after, hwm, capacity_s,
    )


def run_stream(spec: StreamSpec, seed: int, seconds: float, root: Path, work: Path) -> RunResult:
    result = RunResult()
    started = time.perf_counter()
    inputs = stream_inputs(spec, seed)
    ref = reference(inputs.base)
    # Half the boots come before the measured daemon and the rest after
    # it, so that ``setup_s`` samples the host across the whole run.
    before = spec.boots // 2
    boots: list[float] = []

    def measured_boot() -> Daemon:
        daemon, took = boot(spec, root, work, before)
        boots.append(took)
        return daemon

    host_before = HostTimes.sample()
    prepared = time.perf_counter()
    boots += boot_and_stop(spec, root, work, range(before))
    daemon, run = stream_pass(
        inputs, ref, result, boot=measured_boot, round_entries=spec.round_entries,
        rounds=spec.rounds, open_n=int(round(spec.rate_eps * seconds)), rate=spec.rate_eps,
    )
    # Everything is read; a graceful drain would only flush and verify
    # the store (timed separately, in the traced run).
    daemon.kill()
    boots += boot_and_stop(spec, root, work, range(before + 1, spec.boots))
    host_after = HostTimes.sample()

    latencies = run.latencies_ms
    rates = [r.rate_eps for r in run.rounds]
    result.metrics = {
        "setup_s": median(boots),
        "capacity_eps": median(rates),
        "cpu_us_per_entry": median([r.cpu_s for r in run.rounds]) * 1e6,
        "peak_rss_mb": run.hwm_kb / 1024,
        "rss_growth_mb": (run.rss_after_kb - run.rss_warm_kb) / 1024,
    }
    result.host = {
        "host.steal_share": host_after.steal_share_since(host_before),
        "loadgen.lateness_p99_ms": percentile(run.lateness_s, 99) * 1e3,
        "loadgen.busy_refusals": run.busy,
        "verdict_samples": len(latencies),
        "verdict_p50_ms": percentile(latencies, 50) if latencies else None,
        "verdict_p99_ms": percentile(latencies, 99) if tail_supported(len(latencies), 99) else None,
        "capacity_rounds_q1_eps": quartiles(rates)[0],
        "capacity_rounds_q3_eps": quartiles(rates)[2],
        "phase.prepare_s": prepared - started,
        "phase.boots_s": sum(boots),
        "phase.capacity_s": run.capacity_s,
        "phase.total_s": time.perf_counter() - started,
    }
    return result
