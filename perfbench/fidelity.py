"""Prove the benchmark's drivers reproduce the package's public scenarios.

Run from the repository root (takes about a minute)::

    python3 perfbench/fidelity.py                      # check only
    python3 perfbench/fidelity.py --write-reference    # then rewrite reference.json

Checks, each against the default seed:

* the fabric-scale driver at 8 brokers / 5 000 entities / 500 events
  matches the committed ``benchmarks/results/scale_seed.json`` and, at the
  benchmark's size, ``run_scale_point``;
* the ping-heavy driver's registry snapshot equals ``run_ping_heavy``'s;
* the entity-churn driver's counters equal ``run_scenario("entity-churn")``
  at the stock and at the benchmark's horizon.

With ``--write-reference`` and every check passed, each driver's simulated
outputs, from a fresh process, become ``perfbench/reference.json``;
``perfbench/run.py`` compares its default-seed repetitions against it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from repro.bench.hotpath import run_ping_heavy as public_ping_heavy  # noqa: E402
from repro.bench.scale import compare_to_seed, run_scale_point  # noqa: E402
from repro.faults.scenarios import SCENARIOS, run_scenario  # noqa: E402

import workloads  # noqa: E402
from run import DEFAULT_SEED, run_worker  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")
SCALE_SEED = os.path.join(ROOT, "benchmarks", "results", "scale_seed.json")


def _scale_as_public(outcome: workloads.Outcome, brokers: int, entities: int,
                     events: int, seed: int) -> dict:
    pinned = {k: v for k, v in outcome.pinned.items() if k != "latency_digest"}
    return {"scenario": "fabric-scale", "brokers": brokers, "entities": entities,
            "events": events, "seed": seed, "federation": True, **pinned}


def check_fabric_scale(seed: int) -> list[str]:
    findings = []
    with open(SCALE_SEED, encoding="utf-8") as handle:
        committed = json.load(handle)
    small = workloads.run_fabric_scale(seed, brokers=8, entities=5_000, events=500)
    findings += [f"fabric-scale 8/5000/500 vs scale_seed.json: {f}" for f in
                 compare_to_seed(_scale_as_public(small, 8, 5_000, 500, seed), committed)]
    sizes = (workloads.SCALE_BROKERS, workloads.SCALE_ENTITIES, workloads.SCALE_EVENTS)
    full = _scale_as_public(workloads.run_fabric_scale(seed), *sizes, seed)
    findings += [f"fabric-scale {'/'.join(map(str, sizes))} vs run_scale_point: {f}"
                 for f in compare_to_seed(full, run_scale_point(*sizes, seed=seed))]
    return findings


def check_ping_heavy(seed: int) -> list[str]:
    driver = workloads.run_ping_heavy(seed).pinned
    public = public_ping_heavy(seed)
    if driver["registry_digest"] != workloads.digest(public):
        drifted = sorted(
            name for name in {*driver["counters"], *public["counters"]}
            if driver["counters"].get(name) != public["counters"].get(name)
        )
        return [f"ping-heavy snapshot differs from run_ping_heavy: counters {drifted}"]
    return []


def check_entity_churn(seed: int) -> list[str]:
    findings = []
    for horizon in (SCENARIOS["entity-churn"][1], workloads.CHURN_HORIZON_MS):
        driver = workloads.run_entity_churn(seed, horizon_ms=horizon).pinned["snapshot"]
        public = run_scenario("entity-churn", seed=seed, duration_ms=horizon)
        if driver != public:
            findings.append(f"entity-churn at {horizon:g} ms differs from run_scenario: "
                            f"{driver} != {public}")
    return findings


def reference_outputs(seed: int) -> dict:
    """Each driver's simulated outputs from a fresh process, as the benchmark runs it.

    Process-global state (the frame pool's first miss, for one) shows in the
    registry, so the reference must not come from a process that ran
    anything before.
    """
    return {name: run_worker(name, seed, traced=False)["pinned"]
            for name in workloads.WORKLOADS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite perfbench/reference.json once the checks pass")
    args = parser.parse_args(argv)
    seed = DEFAULT_SEED
    findings = check_fabric_scale(seed) + check_ping_heavy(seed) + check_entity_churn(seed)
    for finding in findings:
        print(f"FIDELITY: {finding}")
    if findings:
        print(f"{len(findings)} fidelity finding(s)")
        return 1
    print("drivers match the public scenarios")
    if args.write_reference:
        with open(REFERENCE, "w", encoding="utf-8") as handle:
            json.dump(reference_outputs(seed), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {os.path.relpath(REFERENCE, ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
