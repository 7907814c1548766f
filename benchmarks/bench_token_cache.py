"""Hot-path before/after benchmark: token cache + ping coalescing.

Runs the ping-heavy co-located scenario (``repro.bench.hotpath``) live
and compares it with the frozen pre-optimization snapshot committed under
``benchmarks/results/`` (no token verification cache, no ping
coalescing).  There is no live switch back to the old code; the "before"
side is evidence, not a mode:

* ``token_cache_before.json`` — the frozen "before" snapshot (read only)
* ``token_cache_after.json`` — the live run, rewritten on every bench run
  and pinned exactly by ``tests/bench/test_ping_heavy_regression.py``;
  diffable any time with
  ``repro metrics --diff token_cache_before.json token_cache_after.json``
* ``token_cache_diff.txt`` — the rendered per-instrument delta table

The assertions encode the acceptance bar from docs/PERFORMANCE.md: the
summed ``crypto.ms.token_verify`` cost must drop by at least 30 % and
``transport.bytes.sent`` must drop measurably, while detection behaviour
stays clean (no false failure verdicts in either run).
"""

from __future__ import annotations

import json
import pathlib

from conftest import run_once

from repro.bench.hotpath import run_ping_heavy
from repro.obs import diff_snapshots, render_diff

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

SEED = 42
DURATION_MS = 60_000.0


def _verify_sum_ms(snapshot: dict) -> float:
    hist = snapshot["histograms"].get("crypto.ms.token_verify", {"count": 0})
    return hist.get("count", 0) * hist.get("mean", 0.0)


def _write_snapshot(name: str, snapshot: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")


def test_token_cache_and_coalescing_pay_off(benchmark, report):
    before = json.loads((RESULTS_DIR / "token_cache_before.json").read_text())
    after = run_once(
        benchmark, run_ping_heavy, seed=SEED, duration_ms=DURATION_MS
    )
    _write_snapshot("token_cache_after", after)

    diff = diff_snapshots(before, after)
    table = render_diff(diff)
    (RESULTS_DIR / "token_cache_diff.txt").write_text(table + "\n")

    verify_before = _verify_sum_ms(before)
    verify_after = _verify_sum_ms(after)
    bytes_before = before["counters"]["transport.bytes.sent"]
    bytes_after = after["counters"]["transport.bytes.sent"]
    hits = after["counters"].get("auth.token.cache.hit", 0)
    coalesced = after["counters"].get("tracker.pings.coalesced", 0)

    report(
        "bench_token_cache",
        "\n".join(
            [
                "hot-path caching & batching (ping-heavy co-located scenario)",
                f"  seed={SEED} duration={DURATION_MS:.0f}ms",
                f"  crypto.ms.token_verify sum: {verify_before:.1f} -> "
                f"{verify_after:.1f} ms "
                f"({100.0 * (1.0 - verify_after / verify_before):.1f}% less)",
                f"  transport.bytes.sent: {bytes_before} -> {bytes_after} "
                f"({100.0 * (1.0 - bytes_after / bytes_before):.1f}% less)",
                f"  auth.token.cache.hit={hits} "
                f"tracker.pings.coalesced={coalesced}",
                "",
                table,
            ]
        ),
    )

    # acceptance bar (ISSUE 5 / docs/PERFORMANCE.md)
    assert verify_after <= 0.70 * verify_before
    assert bytes_after < bytes_before
    assert hits > 0 and coalesced > 0
    # detection semantics: neither run declares a false failure
    for side in (before, after):
        latency = side["histograms"].get(
            "tracker.detection.latency_ms", {"count": 0}
        )
        assert latency.get("count", 0) == 0
