"""Per-layer host-time tracing for the benchmark's traced run.

The tracer wraps the public entry points of each ``repro`` layer (listed in
``_boundaries``) from outside the package: every name binding of a
wrapped function is replaced -- class attributes, module globals and
``from module import name`` re-exports alike -- and a ``gc`` scan then
fails loudly if anything other than a running call still references an
original function, so a missed binding cannot report zero time.

Each call (or, for generator functions, each resumption between two
yields) is a span.  A span's self time is its duration minus the spans
nested inside it; a layer's self time is the sum over its boundaries.
Spans are aggregated as they close instead of being stored, which keeps
the tracer's memory flat on runs with millions of spans.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import time
from dataclasses import dataclass
from typing import Any, Callable

ALL = frozenset({"entity-churn", "ping-heavy", "fabric-scale"})
PROTOCOL = frozenset({"entity-churn", "ping-heavy"})
CHURN = frozenset({"entity-churn"})


def _aes_encrypt_blocks(args: tuple, result: Any) -> int:
    return len(result) // 16 - 1  # the prepended IV is not a processed block


def _aes_decrypt_blocks(args: tuple, result: Any) -> int:
    return len(args[1]) // 16 - 1


def _encoded_bytes(args: tuple, result: Any) -> int:
    return len(result)


def _appended_bytes(args: tuple, result: Any) -> int:
    return result


@dataclass
class Boundary:
    """One wrapped entry point and the workloads that must reach it."""

    layer: str
    target: str  # "module:Qualname"
    expected_on: frozenset
    work: Callable[[tuple, Any], int] | None = None
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work_done: int = 0


def _boundaries() -> list[Boundary]:
    return [
        Boundary("sim", "repro.sim.engine:Simulator.step", ALL),
        Boundary("transport", "repro.transport.link:Link.send", ALL),
        Boundary("wire", "repro.wire.codec:frame_size", ALL),
        Boundary("serialization", "repro.util.serialization:canonical_encode", ALL,
                 _encoded_bytes),
        Boundary("serialization", "repro.util.serialization:canonical_encode_into",
                 ALL, _appended_bytes),
        Boundary("crypto", "repro.crypto.rsa:RSAPrivateKey.sign", PROTOCOL),
        Boundary("crypto", "repro.crypto.rsa:RSAPrivateKey.decrypt", PROTOCOL),
        Boundary("crypto", "repro.crypto.rsa:RSAPublicKey.verify", PROTOCOL),
        Boundary("crypto", "repro.crypto.rsa:RSAPublicKey.encrypt", PROTOCOL),
        Boundary("crypto", "repro.crypto.rsa:generate_rsa_keypair", PROTOCOL),
        Boundary("crypto", "repro.crypto.aes:aes_cbc_encrypt", PROTOCOL,
                 _aes_encrypt_blocks),
        Boundary("crypto", "repro.crypto.aes:aes_cbc_decrypt", PROTOCOL,
                 _aes_decrypt_blocks),
        Boundary("auth", "repro.auth.verification:TokenVerifier.verify", PROTOCOL),
        Boundary("auth", "repro.auth.cache:token_digest", PROTOCOL),
        Boundary("messaging", "repro.messaging.broker:Broker.publish_from_broker", ALL),
        Boundary("messaging", "repro.messaging.broker:Broker.receive_from_client",
                 PROTOCOL),
        Boundary("messaging", "repro.messaging.broker:Broker.receive_from_neighbor",
                 ALL),
        Boundary("messaging", "repro.messaging.broker:Broker.subscribe_local", ALL),
        Boundary("messaging",
                 "repro.messaging.matching:SubscriptionIndex.match_clients", PROTOCOL),
        Boundary("messaging",
                 "repro.messaging.matching:SubscriptionIndex.match_handlers", ALL),
        Boundary("messaging",
                 "repro.messaging.matching:SubscriptionIndex.match_remote", PROTOCOL),
        Boundary("tracing", "repro.tracing.broker_ops:TraceManager.publish_trace",
                 PROTOCOL),
        Boundary("tdn", "repro.tdn.node:TDNCluster.create_topic", PROTOCOL),
        Boundary("tdn", "repro.tdn.node:TDNCluster.discover", PROTOCOL),
        Boundary("analytics", "repro.analytics.store:AnalyticsStore.append", CHURN),
        Boundary("analytics", "repro.analytics.reports:build_report", CHURN),
        Boundary("obs", "repro.obs.registry:MetricsRegistry.counter", ALL),
        Boundary("obs", "repro.obs.registry:MetricsRegistry.gauge", ALL),
        Boundary("obs", "repro.obs.registry:MetricsRegistry.histogram", ALL),
        Boundary("obs", "repro.sim.monitor:Monitor.increment", ALL),
        Boundary("obs", "repro.sim.monitor:Monitor.log", CHURN),
        Boundary("obs", "repro.sim.monitor:Monitor.record", ALL),
    ]


class BindingMissed(RuntimeError):
    """A reference to an unwrapped original survived installation."""


def _resolve(target: str) -> tuple[Any, str, Any]:
    """(owner, attribute name, original function) for ``module:Qualname``."""
    module_name, qualname = target.split(":")
    owner: Any = importlib.import_module(module_name)
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, owner.__dict__[name]


class Tracer:
    """Wraps every boundary of ``_boundaries`` and aggregates its spans."""

    def __init__(self) -> None:
        self.boundaries = _boundaries()
        self._originals: dict[int, Any] = {}
        self._cells: set[int] = set()
        # open spans: [start, time covered by nested spans]
        self._stack: list[list[float]] = []

    # ------------------------------------------------------------- wrapping

    def _wrap(self, fn: Callable, boundary: Boundary) -> Callable:
        stack = self._stack
        clock = time.perf_counter
        work = boundary.work

        def close(span: list[float]) -> None:
            duration = clock() - span[0]
            stack.pop()
            boundary.total_s += duration
            boundary.self_s += duration - span[1]
            if stack:
                stack[-1][1] += duration

        if inspect.isgeneratorfunction(fn):

            def traced_generator(*args, **kwargs):
                boundary.calls += 1
                inner = fn(*args, **kwargs)
                send, thrown = None, None
                while True:
                    span = [clock(), 0.0]
                    stack.append(span)
                    try:
                        if thrown is None:
                            yielded = inner.send(send)
                        else:
                            yielded = inner.throw(thrown)
                    except StopIteration as stop:
                        close(span)
                        return stop.value
                    except BaseException:
                        close(span)
                        raise
                    close(span)
                    try:
                        send, thrown = (yield yielded), None
                    except GeneratorExit:
                        inner.close()
                        raise
                    except BaseException as exc:  # delivered into the inner generator
                        send, thrown = None, exc

            wrapper = traced_generator
        else:

            def traced(*args, **kwargs):
                boundary.calls += 1
                span = [clock(), 0.0]
                stack.append(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(span)
                if work is not None:
                    boundary.work_done += work(args, result)
                return result

            wrapper = traced
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        self._cells.update(id(cell) for cell in wrapper.__closure__ or ())
        return wrapper

    def install(self) -> None:
        """Wrap every boundary, then prove no original binding survives."""
        for boundary in self.boundaries:
            owner, name, original = _resolve(boundary.target)
            wrapper = self._wrap(original, boundary)
            setattr(owner, name, wrapper)
            self._originals[id(original)] = original
            _rebind(original, wrapper)
        self.check_bindings()

    def check_bindings(self) -> None:
        """Raise :class:`BindingMissed` if anything still holds an original."""
        gc.collect()
        holders = []
        for original in self._originals.values():
            for referrer in gc.get_referrers(original):
                if referrer is self._originals or id(referrer) in self._cells:
                    continue
                if inspect.isframe(referrer) or inspect.isgenerator(referrer):
                    continue  # a running call, not a binding
                holders.append(f"{original.__qualname__} held by {type(referrer).__name__}"
                               f" {_describe(referrer)}")
        if holders:
            raise BindingMissed("; ".join(holders))

    # ------------------------------------------------------------- reporting

    def _sum(self, attribute: str, layer: str | None = None,
             suffixes: tuple[str, ...] = ()) -> float:
        return sum(
            getattr(boundary, attribute)
            for boundary in self.boundaries
            if (layer is None or boundary.layer == layer)
            and (not suffixes or boundary.target.endswith(suffixes))
        )

    def coverage(self, workload: str) -> tuple[float, list[str]]:
        """Share of the boundaries meant for ``workload`` it hit, and the misses."""
        expected = [b for b in self.boundaries if workload in b.expected_on]
        missed = [b.target for b in expected if b.calls == 0]
        return (len(expected) - len(missed)) / len(expected), missed

    def report(self, workload: str, outcome: Any) -> dict:
        """Every per-layer metric except ``trace.overhead_pct``.

        Returns ``metrics`` (name -> [value, unit]), ``bases`` (ratio name
        -> the count it is taken over), ``missed`` boundaries and ``raw``
        per-boundary figures.  Ratios over registry counters read the
        workload's own registry.
        """
        counter = outcome.registry.counter_value
        traces = outcome.delivered
        bases: dict[str, str] = {}

        def ratio(name: str, hit: float, base: float, base_name: str) -> float:
            bases[name] = f"{base_name} = {base:g}"
            return hit / base if base else 0.0

        def calls(layer: str, *suffixes: str) -> int:
            return int(self._sum("calls", layer, suffixes))

        def seconds(layer: str, *suffixes: str) -> float:
            return self._sum("total_s", layer, suffixes)

        def work(layer: str, *suffixes: str) -> int:
            return int(self._sum("work_done", layer, suffixes))

        cache_hits = counter("auth.token.cache.hit")
        memo_hits = counter("codec.encode.memo.hit")
        pool_hits = counter("frame.pool.hit")
        tdn_hits = counter("tdn.query.cache.hit")
        pings = counter("tracker.pings.sent")
        forwards = counter("broker.msgs.forwarded_out")
        rsa_ops = (".sign", ".decrypt", ".verify", ".encrypt")
        coverage, missed = self.coverage(workload)
        values = {
            "crypto.aes_blocks": (work("crypto", "aes_cbc_encrypt", "aes_cbc_decrypt"),
                                  "count"),
            "crypto.aes_s": (seconds("crypto", "aes_cbc_encrypt", "aes_cbc_decrypt"), "s"),
            "crypto.rsa_private_ops": (calls("crypto", "RSAPrivateKey.sign",
                                             "RSAPrivateKey.decrypt"), "count"),
            "crypto.rsa_public_ops": (calls("crypto", "RSAPublicKey.verify",
                                            "RSAPublicKey.encrypt"), "count"),
            "crypto.rsa_s": (seconds("crypto", *rsa_ops), "s"),
            "crypto.keygens": (calls("crypto", "generate_rsa_keypair"), "count"),
            "crypto.keygen_s": (seconds("crypto", "generate_rsa_keypair"), "s"),
            "crypto.self_s": (self._sum("self_s", "crypto"), "s"),
            "serialization.encodes": (calls("serialization"), "count"),
            "serialization.bytes": (work("serialization"), "B"),
            "serialization.encodes_per_trace": (
                ratio("serialization.encodes_per_trace", calls("serialization"),
                      traces, "traces delivered"), "ratio"),
            "serialization.self_s": (self._sum("self_s", "serialization"), "s"),
            "auth.token_verifies": (calls("auth", "TokenVerifier.verify"), "count"),
            "auth.cache_hit_ratio": (
                ratio("auth.cache_hit_ratio", cache_hits,
                      cache_hits + counter("auth.token.cache.miss"),
                      "auth.token.cache.hit+miss"), "ratio"),
            "auth.token_digest_s": (seconds("auth", "token_digest"), "s"),
            "auth.self_s": (self._sum("self_s", "auth"), "s"),
            "sim.events": (calls("sim"), "count"),
            "sim.self_s": (self._sum("self_s", "sim"), "s"),
            "messaging.ingress": (counter("broker.msgs.ingress"), "count"),
            "messaging.matches": (calls("messaging", "match_clients", "match_handlers",
                                        "match_remote"), "count"),
            "messaging.forwards_per_delivery": (
                ratio("messaging.forwards_per_delivery", forwards,
                      counter("broker.msgs.delivered"), "broker.msgs.delivered"),
                "ratio"),
            "messaging.fed_false_positive_ratio": (
                ratio("messaging.fed_false_positive_ratio",
                      counter("fed.forwards.false_positive"), forwards,
                      "broker.msgs.forwarded_out"), "ratio"),
            "messaging.subscribe_s": (seconds("messaging", "subscribe_local"), "s"),
            "messaging.self_s": (self._sum("self_s", "messaging"), "s"),
            "transport.sends": (calls("transport"), "count"),
            "transport.self_s": (self._sum("self_s", "transport"), "s"),
            "wire.memo_hit_ratio": (
                ratio("wire.memo_hit_ratio", memo_hits,
                      memo_hits + counter("codec.encode.memo.miss"),
                      "codec.encode.memo.hit+miss"), "ratio"),
            "wire.pool_hit_ratio": (
                ratio("wire.pool_hit_ratio", pool_hits,
                      pool_hits + counter("frame.pool.miss"), "frame.pool.hit+miss"),
                "ratio"),
            "wire.self_s": (self._sum("self_s", "wire"), "s"),
            "tracing.pings_per_trace": (
                ratio("tracing.pings_per_trace", pings, traces, "traces delivered"),
                "ratio"),
            "tracing.coalesce_ratio": (
                ratio("tracing.coalesce_ratio", counter("tracker.pings.coalesced"),
                      pings, "tracker.pings.sent"), "ratio"),
            "tracing.self_s": (self._sum("self_s", "tracing"), "s"),
            "tdn.calls": (calls("tdn"), "count"),
            "tdn.cache_hit_ratio": (
                ratio("tdn.cache_hit_ratio", tdn_hits,
                      tdn_hits + counter("tdn.query.cache.miss"),
                      "tdn.query.cache.hit+miss"), "ratio"),
            "tdn.self_s": (self._sum("self_s", "tdn"), "s"),
            "analytics.appends": (calls("analytics", "AnalyticsStore.append"), "count"),
            "analytics.append_s": (seconds("analytics", "AnalyticsStore.append"), "s"),
            "analytics.report_s": (seconds("analytics", "build_report"), "s"),
            "obs.registry_calls": (calls("obs", "MetricsRegistry.counter",
                                         "MetricsRegistry.gauge",
                                         "MetricsRegistry.histogram"), "count"),
            "obs.monitor_calls": (calls("obs", "Monitor.increment", "Monitor.log",
                                        "Monitor.record"), "count"),
            "obs.self_s": (self._sum("self_s", "obs"), "s"),
            "trace.coverage": (coverage, "ratio"),
        }
        return {
            "metrics": {name: [value, unit] for name, (value, unit) in values.items()},
            "bases": bases,
            "missed": missed,
            "raw": self.raw(),
        }

    def raw(self) -> dict:
        """Per-boundary calls, inclusive and self seconds, work units."""
        return {
            b.target: {
                "layer": b.layer,
                "calls": b.calls,
                "total_s": b.total_s,
                "self_s": b.self_s,
                "work": b.work_done,
            }
            for b in self.boundaries
        }


def _rebind(original: Callable, wrapper: Callable) -> None:
    """Point every module global and class attribute at ``wrapper``.

    Catches ``from module import name`` copies in any loaded module and
    classes a decorator rebuilt (``dataclass(slots=True)``) whose old
    namespace still holds the function.
    """
    for namespace in gc.get_referrers(original):
        if not isinstance(namespace, dict):
            continue
        keys = [key for key, value in namespace.items() if value is original]
        for owner in gc.get_referrers(namespace):
            for key in keys:
                if isinstance(owner, type):
                    setattr(owner, key, wrapper)
                elif inspect.ismodule(owner):
                    namespace[key] = wrapper


def _describe(referrer: Any) -> str:
    if isinstance(referrer, dict):
        for key, value in referrer.items():
            if key == "__name__" and isinstance(value, str):
                return f"namespace of {value}"
        return f"dict with keys {sorted(map(str, referrer))[:5]}"
    return repr(referrer)[:120]
