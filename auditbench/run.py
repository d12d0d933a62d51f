"""Run one benchmark workload and print its metrics.

    python3 auditbench/run.py --workload stream_durable --seed 1 --seconds 5 --trace 0

Run from a checkout of the repository.  ``--trace 0`` prints the
end-to-end metrics of an untraced run; ``--trace 1`` runs the per-layer
ledger instead (spans are written under ``.auditbench_out/``).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"auditbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Input generation must not depend on string hashing order.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.path.insert(0, str(ROOT / "src"))
    # A stopped run still stops the daemons it started (``finally`` blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    from metrics import END_TO_END, PER_LAYER
    from workloads import WORKLOADS

    spec = WORKLOADS.get(args.workload)
    if spec is None:
        print(f"auditbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work = ROOT / ".auditbench_work" / f"{spec.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    # Temporary files of this process and of every program process it
    # starts (the daemon's automaton cache, say) stay inside the checkout.
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = None
    try:
        if args.trace:
            from ledger import run_ledger

            result = run_ledger(spec, args.seed, args.seconds, ROOT, work,
                                ROOT / ".auditbench_out")
            units = PER_LAYER
        else:
            from stream import run_stream

            result = run_stream(spec, args.seed, args.seconds, ROOT, work)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in result.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print("host " + json.dumps(result.host, sort_keys=True))
    print(result_line(result, units))
    return 0


def result_line(result, units: dict[str, str]) -> str:
    """The run's last line: correctness counts and every metric with its unit."""
    return json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": result.metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    })


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
