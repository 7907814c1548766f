"""Tests for the token verification cache (repro.auth.cache).

Unit coverage first — LRU behaviour, validity-window checks, the
hit/miss/evicted counters — then the integration properties ISSUE 5
demands: a cached token is *re*-verified once its validity window closes,
a revoked token stops working even while cached, and a restarted broker
starts with a cold cache.
"""

import pytest

from repro.auth import (
    AuthorizationToken,
    TokenRights,
    TokenVerificationCache,
    TokenVerifier,
    token_digest,
)
from repro.errors import ConfigurationError, TokenError
from repro.obs import MetricsRegistry
from repro.util.serialization import FrozenMap

from tests.auth.test_verification import make_advertisement


def make_token(keypair, second_keypair, rng, valid_until_ms=10_000.0, topic_value=5):
    ad = make_advertisement(keypair, second_keypair, topic_value=topic_value)
    token, _ = AuthorizationToken.create(
        ad, keypair.private, TokenRights.PUBLISH, 0.0, valid_until_ms, rng
    )
    return token


@pytest.fixture
def token(keypair, second_keypair, rng):
    return make_token(keypair, second_keypair, rng)


class _Machine:
    """Just enough of a :class:`~repro.sim.machine.Machine` for verify_charged."""

    def __init__(self, now_ms: float) -> None:
        self.now_ms = now_ms
        self.charges = 0

    def now(self) -> float:
        return self.now_ms

    def charge(self, op):
        self.charges += 1
        return
        yield


def _drive(process):
    """Run a process body whose charges never yield; return its value."""
    try:
        while True:
            next(process)
    except StopIteration as stop:
        return stop.value


class TestCacheUnit:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            TokenVerificationCache(capacity=0)

    def test_store_then_lookup_hits(self, token):
        cache = TokenVerificationCache()
        digest = token_digest(token.to_dict())
        assert cache.lookup(digest, now_ms=0.0) is None
        cache.store(digest, token)
        assert cache.lookup(digest, now_ms=100.0) is token
        assert digest in cache and len(cache) == 1

    def test_expired_entry_is_a_miss_and_is_dropped(self, token):
        cache = TokenVerificationCache()
        digest = token_digest(token.to_dict())
        cache.store(digest, token)
        assert cache.lookup(digest, now_ms=10_500.0) is None
        assert digest not in cache

    def test_skew_tolerance_keeps_borderline_entries_alive(self, token):
        cache = TokenVerificationCache()
        digest = token_digest(token.to_dict())
        cache.store(digest, token)
        assert cache.lookup(digest, 10_050.0, skew_tolerance_ms=100.0) is token

    def test_lru_eviction_order(self, keypair, second_keypair, rng):
        cache = TokenVerificationCache(capacity=2)
        tokens = [
            make_token(keypair, second_keypair, rng, topic_value=i) for i in (1, 2, 3)
        ]
        digests = [token_digest(t.to_dict()) for t in tokens]
        cache.store(digests[0], tokens[0])
        cache.store(digests[1], tokens[1])
        # touch the oldest so the *other* entry becomes LRU
        assert cache.lookup(digests[0], now_ms=0.0) is tokens[0]
        cache.store(digests[2], tokens[2])
        assert digests[0] in cache and digests[2] in cache
        assert digests[1] not in cache

    def test_counters_recorded(self, token):
        metrics = MetricsRegistry()
        cache = TokenVerificationCache(capacity=1, metrics=metrics)
        digest = token_digest(token.to_dict())
        counters = metrics.snapshot()["counters"]
        assert counters["auth.token.cache.hit"] == 0  # materialized zeros
        cache.lookup(digest, now_ms=0.0)  # miss
        cache.store(digest, token)
        cache.lookup(digest, now_ms=0.0)  # hit
        cache.store(b"other-digest-0000000", token)  # evicts
        counters = metrics.snapshot()["counters"]
        assert counters["auth.token.cache.miss"] == 1
        assert counters["auth.token.cache.hit"] == 1
        assert counters["auth.token.cache.evicted"] == 1

    def test_clear_and_discard(self, token):
        cache = TokenVerificationCache()
        digest = token_digest(token.to_dict())
        cache.store(digest, token)
        cache.discard(digest)
        assert len(cache) == 0
        cache.discard(digest)  # absent: no-op
        cache.store(digest, token)
        cache.clear()
        assert digest not in cache


class TestVerifierIntegration:
    def test_revoked_token_rejected_even_while_cached(
        self, second_keypair, token
    ):
        cache = TokenVerificationCache()
        verifier = TokenVerifier({"tdn-0": second_keypair.public}, cache=cache)
        token_dict = token.to_dict()
        digest = token_digest(token_dict)
        cache.store(digest, verifier.verify(token_dict, now_ms=0.0))
        verifier.revoke(token_dict)
        assert verifier.is_revoked(token_dict)
        assert digest not in cache  # revocation purges the cache entry
        with pytest.raises(TokenError):
            verifier.verify(token_dict, now_ms=1.0)

    def test_expiry_forces_reverification(self, second_keypair, token):
        cache = TokenVerificationCache()
        verifier = TokenVerifier({"tdn-0": second_keypair.public}, cache=cache)
        token_dict = token.to_dict()
        digest = token_digest(token_dict)
        cache.store(digest, verifier.verify(token_dict, now_ms=0.0))
        # inside the window the cache answers; past it the entry is purged
        assert cache.lookup(digest, 9_000.0, verifier.skew_tolerance_ms) is not None
        assert cache.lookup(digest, 10_200.0, verifier.skew_tolerance_ms) is None
        assert digest not in cache


class TestFrozenWireForm:
    """The frozen wire form shares one digest without aliasing other tokens."""

    def test_wire_form_is_memoized_and_equals_to_dict(self, token):
        frozen = token.wire_form()
        assert type(frozen) is FrozenMap
        assert token.wire_form() is frozen
        assert frozen == token.to_dict()
        assert token_digest(frozen) == token_digest(token.to_dict())

    def test_forged_plain_copy_is_a_miss_and_rejected(self, second_keypair, token):
        metrics = MetricsRegistry()
        cache = TokenVerificationCache(metrics=metrics)
        verifier = TokenVerifier({"tdn-0": second_keypair.public}, cache=cache)
        machine = _Machine(now_ms=1.0)
        genuine = token.wire_form()
        verified = _drive(verifier.verify_charged(genuine, machine))
        assert verified.valid_until_ms == token.valid_until_ms
        assert _drive(verifier.verify_charged(genuine, machine)) is verified
        assert machine.charges == 1

        forged = dict(genuine)
        forged["valid_until_ms"] = genuine["valid_until_ms"] + 1_000_000
        assert token_digest(forged) != token_digest(genuine)
        with pytest.raises(TokenError):
            _drive(verifier.verify_charged(forged, machine))
        assert machine.charges == 2  # the forgery paid the full check
        counters = metrics.snapshot()["counters"]
        assert counters["auth.token.cache.hit"] == 1
        assert counters["auth.token.cache.miss"] == 2
        assert len(cache) == 1

    def test_revoking_a_plain_copy_refuses_the_frozen_form(self, second_keypair, token):
        cache = TokenVerificationCache()
        verifier = TokenVerifier({"tdn-0": second_keypair.public}, cache=cache)
        genuine = token.wire_form()
        cache.store(token_digest(genuine), verifier.verify(genuine, now_ms=0.0))
        plain = token.to_dict()
        assert type(plain) is dict
        verifier.revoke(plain)
        assert verifier.is_revoked(genuine)
        assert token_digest(genuine) not in cache
        with pytest.raises(TokenError):
            verifier.verify(genuine, now_ms=1.0)
        with pytest.raises(TokenError):
            _drive(verifier.verify_charged(genuine, _Machine(now_ms=1.0)))


class TestDeploymentIntegration:
    def test_restarted_broker_starts_cold(self):
        from repro import build_deployment

        dep = build_deployment(broker_ids=["b1", "b2"], seed=7)
        entity = dep.add_traced_entity("svc")
        tracker = dep.add_tracker("w")
        tracker.connect("b2")
        entity.start("b1")
        dep.sim.run(until=3_000)
        tracker.track("svc")
        dep.sim.run(until=20_000)

        cache = dep.broker_verifiers["b1"].cache
        assert cache is not None and len(cache) > 0
        dep.network.fail_broker("b1")
        dep.restart_broker("b1", neighbors=["b2"])
        assert len(cache) == 0

    def test_every_broker_gets_its_own_verifier(self):
        from repro import build_deployment

        dep = build_deployment(broker_ids=["b1", "b2"], seed=7)
        verifiers = {id(v) for v in dep.broker_verifiers.values()}
        assert len(verifiers) == len(dep.broker_verifiers) == 2
        caches = {id(v.cache) for v in dep.broker_verifiers.values()}
        assert len(caches) == 2
