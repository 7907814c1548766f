"""Host-cost benchmark of the availability-tracking simulator.

Run from the repository root::

    python3 perfbench/run.py --workload entity-churn --seed 42 --seconds 30 --trace 0

The workload is repeated, one fresh interpreter per repetition
(``perfbench/worker.py``), until ``--seconds`` have passed and at least
``MIN_REPETITIONS`` repetitions ran.  Every repetition simulates ``--seed``
and must produce the same simulated outputs; so host figures are medians
over repetitions of the same work, with times in seconds at the reference
host speed of ``perfbench/meter.py``, and the modeled latency figures are
that seed's exact percentiles.  Every repetition must satisfy the
workload's seed-independent invariants; with the default seed it must also
equal ``perfbench/reference.json``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions, requires identical simulated outputs from
the two, and reports the per-layer metrics of ``perfbench/tracer.py`` plus
the tracing overhead.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed``, ``metrics``; the exit code
is 1 when the run is not correct.  Raw per-repetition values are written
to ``perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference.json")
RUNS_DIR = os.path.join(HERE, "runs")

WORKLOADS = ("entity-churn", "ping-heavy", "fabric-scale")
DEFAULT_SEED = 42
#: A repetition that takes longer than this is killed and counted failed.
REPETITION_TIMEOUT_S = 60.0
#: No repetition starts this long after the run began, so that a run on a
#: slow host ends in under a minute (with fewer than ``MIN_REPETITIONS``
#: repetitions if it must).
LAST_START_S = 36.0
#: Untraced repetitions a ``--trace 0`` run makes at the least.
MIN_REPETITIONS = 5
#: Tail percentile: the highest with at least this many samples beyond it.
#: With 10, one seed's ping-heavy tail ranged 90-143 ms over seeds 1-26
#: (quartile spread up to 0.28 over ten seeds); with 50 it stays within 0.07.
TAIL_SAMPLES_BEYOND = 50


def run_worker(workload: str, seed: int, traced: bool) -> dict:
    """One repetition in a fresh interpreter; raises if it did not finish."""
    command = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed)]
    if traced:
        command.append("--traced")
    completed = subprocess.run(
        command, capture_output=True, text=True, timeout=REPETITION_TIMEOUT_S,
        check=False, cwd=ROOT,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"worker exited {completed.returncode}: {completed.stderr.strip()[-2000:]}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with enough samples beyond."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_SAMPLES_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_SAMPLES_BEYOND - 1], 100.0 * (n - TAIL_SAMPLES_BEYOND) / n


class Checker:
    """Accumulates the correctness verdict over a run's repetitions."""

    def __init__(self, workload: str) -> None:
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.pinned: dict | None = None
        with open(REFERENCE, encoding="utf-8") as handle:
            self.reference = json.load(handle)[workload]

    def check(self, rep: dict) -> None:
        pinned = rep["pinned"]
        drift = []
        if self.pinned is None:
            self.pinned = pinned
        elif pinned != self.pinned:
            drift.append("simulated outputs differ between repetitions")
        if rep["seed"] == DEFAULT_SEED and pinned != self.reference:
            drift.append("simulated outputs differ from perfbench/reference.json")
        self.problems.extend(drift + rep["violations"])
        self.attempted += rep["expected"]
        if drift:
            self.failed += rep["expected"]  # a drifted run counts wholly failed
        else:
            self.failed += rep["missing"]

    def crashed(self, error: str) -> None:
        self.problems.append(error)
        self.attempted += 1
        self.failed += 1

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0 and self.attempted > 0


def median_of(reps: list[dict], key: str) -> float:
    return statistics.median(rep[key] for rep in reps)


def end_to_end(reps: list[dict], checker: Checker) -> tuple[dict, list[str]]:
    """The seven end-to-end metrics and the human-readable report lines."""
    rates = [rep["delivered"] / rep["steady_s"] for rep in reps]
    latencies = reps[0]["latencies_ms"]  # the same in every repetition
    tail_ms, tail_pct = tail(latencies)
    share = checker.failed / checker.attempted
    metrics = {
        "traces_per_s": (statistics.median(rates), "1/s"),
        "setup_s": (median_of(reps, "setup_s"), "s"),
        "cpu_s": (median_of(reps, "cpu_s"), "s"),
        "peak_rss_mib": (median_of(reps, "peak_rss_mib"), "MiB"),
        "trace_latency_p50_ms": (statistics.median(latencies), "ms"),
        "trace_latency_tail_ms": (tail_ms, "ms"),
        "delivered_share": (1.0 - share, "ratio"),
    }
    n = len(reps)
    notes = {
        "traces_per_s": f"median of {n} runs of {reps[0]['delivered']} traces",
        "setup_s": f"median of {n} runs",
        "cpu_s": f"median of {n} runs, whole workload",
        "peak_rss_mib": f"median of {n} runs, fresh process each",
        "trace_latency_p50_ms": f"modeled, {len(latencies)} samples",
        "trace_latency_tail_ms": f"modeled, p{tail_pct:.2f} of {len(latencies)} samples "
                                 f"({TAIL_SAMPLES_BEYOND} beyond)",
        "delivered_share": f"failed_share = {share:g} "
                           f"({checker.failed} of {checker.attempted} attempted deliveries "
                           "lost)",
    }
    lines = [f"  {name:<24} {value:>14.6g} {unit:<6} {notes[name]}"
             for name, (value, unit) in metrics.items()]
    return metrics, lines


def per_layer(traced: list[dict], plain: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics: counts from the first traced run, times as medians."""
    first = traced[0]["layers"]
    metrics = {}
    for name, (value, unit) in first["metrics"].items():
        if unit == "s":
            value = statistics.median(rep["layers"]["metrics"][name][0] for rep in traced)
        metrics[name] = (value, unit)
    overhead = 100.0 * (median_of(traced, "wall_s") / median_of(plain, "wall_s") - 1.0)
    metrics["trace.overhead_pct"] = (overhead, "%")
    lines = []
    for name, (value, unit) in metrics.items():
        base = first["bases"].get(name)
        lines.append(f"  {name:<36} {value:>14.6g} {unit:<6}"
                     + (f" base: {base}" if base else ""))
    lines.append(f"  ({len(traced)} traced / {len(plain)} untraced runs; "
                 f"boundaries missed: {first['missed'] or 'none'})")
    return metrics, lines


def save_raw(workload: str, seed: int, trace: int, reps: list[dict]) -> str:
    os.makedirs(RUNS_DIR, exist_ok=True)
    path = os.path.join(RUNS_DIR, f"{workload}-seed{seed}-trace{trace}-{time.time_ns()}.json")
    slim = [{k: v for k, v in rep.items() if k != "latencies_ms"} for rep in reps]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(slim, handle, indent=1, sort_keys=True)
    return os.path.relpath(path, ROOT)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program sources at src/repro; run from a full checkout",
              file=sys.stderr)
        return 2

    checker = Checker(args.workload)
    plain: list[dict] = []
    traced: list[dict] = []
    minimum = 1 if args.trace else MIN_REPETITIONS
    start = time.perf_counter()
    while (len(plain) < minimum or time.perf_counter() - start < args.seconds) and (
        time.perf_counter() - start < LAST_START_S
    ):
        for is_traced in ((False, True) if args.trace else (False,)):
            try:
                rep = run_worker(args.workload, args.seed, is_traced)
            except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
                checker.crashed(f"repetition failed: {exc}")
                continue
            checker.check(rep)
            (traced if is_traced else plain).append(rep)
        if checker.problems:
            break
    elapsed = time.perf_counter() - start

    reps = plain + traced
    metrics: dict = {}
    lines: list[str] = []
    if plain and (traced or not args.trace):
        if args.trace:
            metrics, lines = per_layer(traced, plain)
            if traced[0]["layers"]["missed"]:
                checker.problems.append(
                    f"boundaries not reached: {traced[0]['layers']['missed']}")
        else:
            metrics, lines = end_to_end(plain, checker)
    raw_path = save_raw(args.workload, args.seed, args.trace, reps) if reps else None
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(reps)} runs in {elapsed:.1f} s; raw values in {raw_path}")
    for line in lines:
        print(line)
    for problem in checker.problems:
        print(f"  PROBLEM: {problem}")
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if checker.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
