"""The benchmark's three fixed workloads, split into set-up and steady phase.

Each driver rebuilds one public scenario of the ``repro`` package step by
step, so the host time before the first ``track()`` (or first publish) can
be told apart from the steady phase that delivers traces:

* ``entity-churn`` -- ``repro.faults.scenarios.run_scenario("entity-churn")``
  on a long horizon, with a sqlite analytics store and an SLO report;
* ``ping-heavy`` -- ``repro.bench.hotpath.run_ping_heavy``;
* ``fabric-scale`` -- ``repro.bench.scale.run_scale_point`` at 16 brokers.

A driver returns a :class:`Outcome`: host timings per phase (a
:class:`meter.Meter`, which cuts each phase into short segments), the
modeled trace latencies, delivery counts, and ``pinned`` -- the simulated outputs the
reference file fixes for the default seed.  ``perfbench/fidelity.py``
proves each driver reproduces the public function it mirrors.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import build_deployment
from repro.analytics import AnalyticsStore, build_report
from repro.bench.hotpath import DEFAULT_ENTITY_COUNT, EDGE_HOST, HOTPATH_PING_POLICY
from repro.bench.scale import SCALE_COUNTERS, entity_topic
from repro.faults.controller import FaultController
from repro.faults.scenarios import (
    CHAOS_COUNTERS,
    ENTITY_BROKER,
    ENTITY_ID,
    TRACKER_BROKER,
    TRACKER_ID,
    build_chaos_deployment,
    scenario_plan,
)
from repro.messaging.broker_network import BrokerNetwork
from repro.messaging.message import Message, reset_message_ids
from repro.messaging.topics import Topic
from repro.sim.engine import Simulator

from meter import Meter

#: Virtual horizon of the long entity-churn run (ms).
CHURN_HORIZON_MS = 3_000_000.0
#: Virtual horizon of the ping-heavy run (ms), as in ``run_ping_heavy``.
PING_HORIZON_MS = 60_000.0
#: End of the registration window every tracing workload runs first (ms).
REGISTRATION_MS = 3_000.0

SCALE_BROKERS = 16
SCALE_ENTITIES = 20_000
SCALE_EVENTS = 5_000

#: Segments the steady phase's virtual horizon is cut into for the meter.
STEADY_SEGMENTS = 30
#: Segments of the 0-3 s registration window.
REGISTRATION_SEGMENTS = 6
#: Simulator steps, subscriptions and publishes per fabric-scale segment.
SCALE_SEGMENT_STEPS = 10_000
SCALE_SEGMENT_CALLS = 1_000


@dataclass
class Outcome:
    """What one workload run measured and produced."""

    #: host time per phase: "setup", "steady" and (some workloads) "finish"
    meter: Meter
    #: traces delivered to tracking subscribers in the steady phase
    delivered: int
    #: trace deliveries the steady phase attempted (traces published)
    expected: int
    #: attempted deliveries known lost (traces still in flight at the
    #: horizon are neither delivered nor lost)
    missing: int
    #: modeled publish -> receipt latencies (virtual ms)
    latencies_ms: list[float]
    #: simulated outputs pinned by the reference for the default seed
    pinned: dict
    #: seed-independent invariants that failed (empty = clean)
    violations: list[str]
    #: the run's metrics registry, read by the traced run's ratios
    registry: Any = field(repr=False, default=None)


def digest(value: Any) -> str:
    """Short stable hash of a JSON-serializable value."""
    rendered = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(rendered.encode()).hexdigest()[:16]


def _per_entity_violations(tracker, entity_ids: list[str]) -> list[str]:
    seen = {trace.entity_id for trace in tracker.received}
    return [f"tracked entity {e} yielded no traces" for e in entity_ids if e not in seen]


GAUGE_PUBLISHED = "trace.published.GUAGE_INTEREST"


def published_traces(monitor) -> int:
    """Traces published for trackers so far (gauge probes are not traces)."""
    return sum(
        count
        for name, count in monitor.counters().items()
        if name.startswith("trace.published.") and name != GAUGE_PUBLISHED
    )


def lost_traces(tracker, monitor, gauges_before: int, expected: int) -> int:
    """Attempted deliveries that are known lost.

    A shortfall of deliveries alone would count traces still in flight at
    the horizon; the tracker's sequence-gap detector alone would count
    reordered arrivals (and gauge probes, which draw from the same
    per-session sequence without being traces).  A trace counts as lost
    only as far as both agree.
    """
    gauges = monitor.count(GAUGE_PUBLISHED) - gauges_before
    gaps = tracker.missed_trace_count - gauges
    return max(0, min(gaps, expected - len(tracker.received)))


def chaos_snapshot(dep, name: str, seed: int, duration_ms: float) -> dict:
    """The snapshot ``run_scenario`` returns, read off a finished deployment."""
    registry = dep.metrics
    recovery = registry.snapshot()["histograms"].get("trace.recovery_ms", {"count": 0})
    recovery_block = {"count": recovery.get("count", 0)}
    if recovery_block["count"]:
        recovery_block.update(
            mean_ms=recovery["mean"], min_ms=recovery["min"], max_ms=recovery["max"]
        )
    return {
        "scenario": name,
        "seed": seed,
        "duration_ms": duration_ms,
        "counters": {n: registry.counter_value(n) for n in CHAOS_COUNTERS},
        "recovery": recovery_block,
        "faults_active_end": registry.gauge_value("faults.active"),
        "journal": {
            "injected": len(dep.journal.records("fault.injected")),
            "reverted": len(dep.journal.records("fault.reverted")),
        },
    }


def run_in_segments(sim, meter: Meter, start_ms: float, until_ms: float,
                    segments: int) -> None:
    """``sim.run(until=until_ms)`` in equal virtual-time segments."""
    step = (until_ms - start_ms) / segments
    for index in range(1, segments + 1):
        sim.run(until=until_ms if index == segments else start_ms + step * index)
        meter.mark()


def run_entity_churn(seed: int, horizon_ms: float = CHURN_HORIZON_MS) -> Outcome:
    """Long entity-churn scenario with a sqlite store and a closing report."""
    name = "entity-churn"
    meter = Meter()
    reset_message_ids()
    dep = build_chaos_deployment(seed)
    store = AnalyticsStore(backend="sqlite")
    dep.attach_analytics(store)
    entity = dep.add_traced_entity(ENTITY_ID)
    tracker = dep.add_tracker(TRACKER_ID)
    tracker.interest_refresh_ms = 0.0
    tracker.connect(TRACKER_BROKER)
    entity.start(ENTITY_BROKER)
    FaultController(dep, scenario_plan(name)).start()
    meter.mark()
    run_in_segments(dep.sim, meter, 0.0, REGISTRATION_MS, REGISTRATION_SEGMENTS)
    published_before = published_traces(dep.monitor)
    gauges_before = dep.monitor.count(GAUGE_PUBLISHED)

    meter.mark("steady")
    tracker.track(ENTITY_ID)
    run_in_segments(dep.sim, meter, REGISTRATION_MS, horizon_ms, STEADY_SEGMENTS)

    meter.mark("finish")
    dep.finalize_analytics(scenario=name, seed=seed, duration_ms=horizon_ms)
    report = build_report(store)
    store.close()
    meter.mark()

    snapshot = chaos_snapshot(dep, name, seed, horizon_ms)
    counters = snapshot["counters"]
    violations = _per_entity_violations(tracker, [ENTITY_ID])
    if counters["trace.recovery.detected"] != counters["trace.recovery.completed"]:
        violations.append(
            f"trace.recovery.detected {counters['trace.recovery.detected']} != "
            f"trace.recovery.completed {counters['trace.recovery.completed']}"
        )
    latencies = tracker.latencies()
    expected = published_traces(dep.monitor) - published_before
    return Outcome(
        meter=meter,
        delivered=len(tracker.received),
        expected=expected,
        missing=lost_traces(tracker, dep.monitor, gauges_before, expected),
        latencies_ms=latencies,
        pinned={
            "snapshot": snapshot,
            "traces": len(tracker.received),
            "latency_digest": digest(latencies),
            "report_digest": digest(report),
            "registry_digest": digest(dep.metrics.snapshot()),
        },
        violations=violations,
        registry=dep.metrics,
    )


def run_ping_heavy(seed: int) -> Outcome:
    """Twelve co-located entities behind b1, one tracker on b3."""
    meter = Meter()
    reset_message_ids()
    dep = build_deployment(
        broker_ids=["b1", "b2", "b3"],
        seed=seed,
        ping_policy=HOTPATH_PING_POLICY,
        codec="json",
    )
    meter.mark()
    entities = []
    for index in range(DEFAULT_ENTITY_COUNT):
        entities.append(dep.add_traced_entity(f"svc-{index:02d}", machine_name=EDGE_HOST))
        meter.mark()
    tracker = dep.add_tracker("watch")
    tracker.connect("b3")
    for entity in entities:
        entity.start("b1")
    meter.mark()
    run_in_segments(dep.sim, meter, 0.0, REGISTRATION_MS, REGISTRATION_SEGMENTS)
    published_before = published_traces(dep.monitor)
    gauges_before = dep.monitor.count(GAUGE_PUBLISHED)

    meter.mark("steady")
    entity_ids = [str(entity.entity_id) for entity in entities]
    for entity_id in entity_ids:
        tracker.track(entity_id)
    run_in_segments(dep.sim, meter, REGISTRATION_MS, PING_HORIZON_MS, STEADY_SEGMENTS)

    snapshot = dep.snapshot()
    latencies = tracker.latencies()
    expected = published_traces(dep.monitor) - published_before
    return Outcome(
        meter=meter,
        delivered=len(tracker.received),
        expected=expected,
        missing=lost_traces(tracker, dep.monitor, gauges_before, expected),
        latencies_ms=latencies,
        pinned={
            "counters": snapshot["counters"],
            "traces": len(tracker.received),
            "latency_digest": digest(latencies),
            "registry_digest": digest(snapshot),
        },
        violations=_per_entity_violations(tracker, entity_ids),
        registry=dep.metrics,
    )


def run_fabric_scale(
    seed: int,
    brokers: int = SCALE_BROKERS,
    entities: int = SCALE_ENTITIES,
    events: int = SCALE_EVENTS,
) -> Outcome:
    """Federated ring: one trace subscription per entity, far-side publishes."""
    meter = Meter()
    reset_message_ids()
    sim = Simulator()
    network = BrokerNetwork(sim, seed=seed, federation=True)
    ids = [f"b{i:03d}" for i in range(brokers)]
    for broker_id in ids:
        network.add_broker(broker_id)
    for i in range(brokers):
        network.connect_brokers(ids[i], ids[(i + 1) % brokers])

    published_at: dict[int, float] = {}
    latencies: list[float] = []

    def on_trace(message: Message) -> None:
        latencies.append(sim.now - published_at[message.body])

    for index in range(entities):
        network.broker(ids[index % brokers]).subscribe_local(entity_topic(index), on_trace)
        if index % SCALE_SEGMENT_CALLS == 0:
            meter.mark()

    meter.mark("steady")
    rng = network.streams.stream("scale.publish")
    offset = brokers // 2
    for event in range(events):
        index = rng.randrange(entities)
        origin = ids[(index + offset) % brokers]
        published_at[event] = sim.now
        network.broker(origin).publish_from_broker(
            Message(topic=Topic(entity_topic(index)), body=event, source=origin)
        )
        if event % SCALE_SEGMENT_CALLS == 0:
            meter.mark()
    steps = 0
    while sim.step():  # what sim.run() does, cut into metered segments
        steps += 1
        if steps % SCALE_SEGMENT_STEPS == 0:
            meter.mark()
    meter.mark("finish")

    metrics = network.monitor.metrics
    pinned = {
        "counters": {name: metrics.counter_value(name) for name in SCALE_COUNTERS},
        "received": len(latencies),
        "control_floods": network.monitor.count("control.floods"),
        "interest_patterns_gauge": metrics.gauge_value("broker.interest.patterns"),
        "fed_patterns_gauge": metrics.gauge_value("fed.interest.patterns"),
        "shards_gauge": metrics.gauge_value("broker.interest.shards"),
        "digest_summaries": sum(
            1 for summary in network.federation.iter_summaries() if not summary.exact
        ),
        "latency_digest": digest(latencies),
    }
    violations = []
    if len(latencies) != events:
        violations.append(f"delivered {len(latencies)} of {events} published events")
    return Outcome(
        meter=meter,
        delivered=len(latencies),
        expected=events,
        missing=events - len(latencies),
        latencies_ms=latencies,
        pinned=pinned,
        violations=violations,
        registry=metrics,
    )


WORKLOADS: dict[str, Callable[[int], Outcome]] = {
    "entity-churn": run_entity_churn,
    "ping-heavy": run_ping_heavy,
    "fabric-scale": run_fabric_scale,
}

