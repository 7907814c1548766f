"""Ping-heavy regression gate: the live run equals its committed snapshot.

``benchmarks/results/token_cache_after.json`` is the full registry
snapshot of the co-located ping-heavy scenario (``run_ping_heavy``) at
seed 42 over its 60 s horizon: token-cache hits, coalesced pings, TDN
discovery-cache traffic and every wire byte.  Any change to that hot
path's behaviour fails here.

The run happens in a fresh interpreter, as the committed file was
written: the wire codec's frame pool is process-global, so a run that
follows other runs in the same process starts with a warm buffer and
reports one more ``frame.pool.hit`` and no ``frame.pool.miss``.

To re-seed after an *intentional* change::

    PYTHONPATH=src python -c "
    import json
    from repro.bench.hotpath import run_ping_heavy
    open('benchmarks/results/token_cache_after.json', 'w').write(
        json.dumps(run_ping_heavy(seed=42), indent=2, sort_keys=True) + '\\n')"
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SEED_FILE = ROOT / "benchmarks" / "results" / "token_cache_after.json"

RUN = (
    "import json\n"
    "from repro.bench.hotpath import run_ping_heavy\n"
    "print(json.dumps(run_ping_heavy(seed=42)))\n"
)


def test_ping_heavy_matches_committed_snapshot():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", RUN],
        capture_output=True, text=True, check=True, env=env, cwd=ROOT,
    )
    live = json.loads(result.stdout)
    committed = json.loads(SEED_FILE.read_text())
    assert live == committed
