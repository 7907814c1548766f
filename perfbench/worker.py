"""Run one workload once in this process and print its measurements as JSON.

``perfbench/run.py`` starts one fresh interpreter per repetition so peak
RSS and the process-global state (message-id counter, codec size memo,
frame pool) start cold every time::

    python3 perfbench/worker.py --workload ping-heavy --seed 42 [--traced]

With ``--traced`` the layer boundaries listed in ``perfbench/tracer.py``
are wrapped before the workload is built, and the per-layer figures are
added under ``"layers"``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def measure(workload: str, seed: int, traced: bool) -> dict:
    """Run ``workload`` once; returns host figures and simulated outputs."""
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    outcome = WORKLOADS[workload](seed)
    meter = outcome.meter
    result = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        # seconds at the meter's reference host speed ...
        "setup_s": meter.phases["setup"].scaled_wall_s,
        "steady_s": meter.phases["steady"].scaled_wall_s,
        "wall_s": meter.total("scaled_wall_s"),
        "cpu_s": meter.total("scaled_cpu_s"),
        # ... and as the host clock read them
        "raw": {name: vars(phase) for name, phase in meter.phases.items()},
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "delivered": outcome.delivered,
        "expected": outcome.expected,
        "missing": outcome.missing,
        "latencies_ms": outcome.latencies_ms,
        "pinned": outcome.pinned,
        "violations": outcome.violations,
    }
    if tracer is not None:
        tracer.check_bindings()
        result["layers"] = tracer.report(workload, outcome)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    json.dump(measure(args.workload, args.seed, args.traced), sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
