#!/usr/bin/env python3
"""Perf diffing: measure an optimization with before/after snapshots.

The docs/PERFORMANCE.md evidence loop, end to end: load the committed
"before" snapshot of the co-located ping-heavy scenario (taken before the
token-verification cache and ping coalescing landed), run the same seed
and horizon live on today's code, then diff the two registry snapshots
with `repro.obs.diff` and print the table a perf PR would paste.  The
same table is available from the CLI:

    repro metrics --diff before.json after.json

Run:  python examples/perf_diff.py
"""

import json
import pathlib

from repro.bench.hotpath import run_ping_heavy
from repro.obs import diff_snapshots, render_diff

BEFORE = (
    pathlib.Path(__file__).resolve().parents[1]
    / "benchmarks" / "results" / "token_cache_before.json"
)
SEED = 42
DURATION_MS = 60_000.0  # the horizon the committed "before" side ran


def main() -> None:
    # 1. both sides of the experiment, same seed, same virtual duration
    before = json.loads(BEFORE.read_text())
    print("running ping-heavy scenario (12 co-located entities)...")
    after = run_ping_heavy(seed=SEED, duration_ms=DURATION_MS)

    # 2. the headline numbers a perf PR leads with
    def verify_sum(snapshot):
        hist = snapshot["histograms"].get("crypto.ms.token_verify", {"count": 0})
        return hist.get("count", 0) * hist.get("mean", 0.0)

    v_before, v_after = verify_sum(before), verify_sum(after)
    b_before = before["counters"]["transport.bytes.sent"]
    b_after = after["counters"]["transport.bytes.sent"]
    print()
    print(
        f"token verification cost: {v_before:.1f} -> {v_after:.1f} ms "
        f"({100.0 * (1.0 - v_after / v_before):.1f}% less)"
    )
    print(
        f"wire bytes sent:         {b_before} -> {b_after} "
        f"({100.0 * (1.0 - b_after / b_before):.1f}% less)"
    )
    print(
        "cache hits: "
        f"{after['counters'].get('auth.token.cache.hit', 0)}, "
        "coalesced pings: "
        f"{after['counters'].get('tracker.pings.coalesced', 0)}"
    )

    # 3. the full per-instrument delta table (changed rows only)
    print()
    print("before/after diff table:")
    print(render_diff(diff_snapshots(before, after)))


if __name__ == "__main__":
    main()
