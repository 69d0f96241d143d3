"""Tests for the API surface: models, ping, REST, rate limiting."""

import threading

import numpy as np
import pytest

from conftest import toy_config
from repro.geo.latlon import LatLon
from repro.api.models import (
    CarView,
    PingReply,
    PriceEstimate,
    TimeEstimate,
    TypeStatus,
)
from repro.api.ping import PingEndpoint
from repro.api.ratelimit import (
    RateLimiter,
    RateLimitExceeded,
    retry_after_hint,
)
from repro.api.rest import RestApi
from repro.marketplace.engine import MarketplaceEngine
from repro.marketplace.types import CarType


@pytest.fixture(scope="module")
def warm_engine():
    engine = MarketplaceEngine(toy_config(jitter_probability=0.3), seed=21)
    engine.run(3600.0)
    return engine


@pytest.fixture(scope="module")
def oracle_twin(warm_engine):
    """``warm_engine``'s same-seed oracle, warmed the same way.  Its
    per-client pings are the definition production rounds are held to:
    on production, ``ping()`` is itself a round of one."""
    engine = MarketplaceEngine(
        toy_config(jitter_probability=0.3), seed=21,
        use_vectorized_step=False,
    )
    engine.run(3600.0)
    assert engine.clock.now == warm_engine.clock.now
    return engine


def _oracle_pings(engine, requests):
    endpoint = PingEndpoint(engine)
    return [
        endpoint.ping(account_id, location, car_types)
        for account_id, location, car_types in requests
    ]


@pytest.fixture(scope="module")
def center(warm_engine):
    return warm_engine.config.region.bounding_box.center


class TestModels:
    def test_carview_roundtrip(self):
        view = CarView(
            car_id="abc",
            location=LatLon(40.75, -73.99),
            path=((1.0, 40.75, -73.99), (6.0, 40.751, -73.99)),
        )
        assert CarView.from_json(view.to_json()) == view

    def test_pingreply_roundtrip(self):
        reply = PingReply(
            timestamp=55.0,
            location=LatLon(40.75, -73.99),
            statuses=(
                TypeStatus(
                    car_type=CarType.UBERX,
                    cars=(CarView("x", LatLon(40.7501, -73.9901)),),
                    ewt_minutes=3.5,
                    surge_multiplier=1.4,
                ),
                TypeStatus(
                    car_type=CarType.UBERT,
                    cars=(),
                    ewt_minutes=None,
                    surge_multiplier=1.0,
                ),
            ),
        )
        restored = PingReply.from_json(reply.to_json())
        assert restored == reply
        assert restored.status_for(CarType.UBERX).surge_multiplier == 1.4
        assert restored.status_for(CarType.UBERBLACK) is None

    def test_price_estimate_roundtrip(self):
        est = PriceEstimate(CarType.UBERX, 1.3, 10.0, 14.0)
        assert PriceEstimate.from_json(est.to_json()) == est

    def test_time_estimate_roundtrip(self):
        est = TimeEstimate(CarType.UBERX, None)
        assert TimeEstimate.from_json(est.to_json()) == est


class TestRateLimiter:
    def test_allows_up_to_limit(self):
        limiter = RateLimiter(limit=3, window_s=100.0)
        for t in (0.0, 1.0, 2.0):
            limiter.check("a", t)
        with pytest.raises(RateLimitExceeded) as exc:
            limiter.check("a", 3.0)
        assert exc.value.retry_after_s == pytest.approx(97.0)

    def test_window_slides(self):
        limiter = RateLimiter(limit=2, window_s=10.0)
        limiter.check("a", 0.0)
        limiter.check("a", 1.0)
        limiter.check("a", 10.5)  # the t=0 request has expired

    def test_accounts_are_independent(self):
        limiter = RateLimiter(limit=1, window_s=100.0)
        limiter.check("a", 0.0)
        limiter.check("b", 0.0)
        with pytest.raises(RateLimitExceeded):
            limiter.check("a", 1.0)

    def test_remaining(self):
        limiter = RateLimiter(limit=5, window_s=100.0)
        assert limiter.remaining("a", 0.0) == 5
        limiter.check("a", 0.0)
        assert limiter.remaining("a", 1.0) == 4
        assert limiter.remaining("a", 200.0) == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            RateLimiter(limit=0)
        with pytest.raises(ValueError):
            RateLimiter(window_s=0.0)

    def test_remaining_prunes_expired_history(self):
        # Regression: `remaining` used to report against stale
        # timestamps `check` had not yet pruned, and idle accounts
        # pinned up to `limit` floats forever.
        limiter = RateLimiter(limit=3, window_s=10.0)
        for t in (0.0, 1.0, 2.0):
            limiter.check("a", t)
        assert limiter.remaining("a", 11.5) == 2  # only t=2 survives
        assert list(limiter._history["a"]) == [2.0]

    def test_remaining_forgets_fully_idle_accounts(self):
        limiter = RateLimiter(limit=2, window_s=10.0)
        limiter.check("a", 0.0)
        assert limiter.remaining("a", 100.0) == 2
        assert "a" not in limiter._history
        # An account never seen stays unknown too.
        assert limiter.remaining("ghost", 0.0) == 2
        assert "ghost" not in limiter._history

    def test_retry_after_hint_rounds_up_and_clamps(self):
        # Truncation (`:.0f`) rendered a sub-second wait as "0 s",
        # inviting an immediate re-hit that is rejected again.  The
        # hint must round *up* and never go negative.
        assert retry_after_hint(0.0) == 0
        assert retry_after_hint(1e-9) == 1
        assert retry_after_hint(0.4) == 1
        assert retry_after_hint(1.0) == 1
        assert retry_after_hint(1.2) == 2
        assert retry_after_hint(-5.0) == 0

    def test_exception_surfaces_rounded_up_hint(self):
        limiter = RateLimiter(limit=1, window_s=0.4)
        limiter.check("a", 0.0)
        with pytest.raises(RateLimitExceeded) as exc:
            limiter.check("a", 0.1)
        assert exc.value.retry_after_s == pytest.approx(0.3)
        assert exc.value.retry_after_hint_s == 1
        assert str(exc.value).endswith("retry after 1s")
        # A clock that ran past the window end still never advertises
        # a negative wait.
        assert RateLimitExceeded("a", -0.5).retry_after_hint_s == 0

    def test_concurrent_hammer_admits_exactly_limit(self):
        # Regression: `check`/`remaining` used to mutate the shared
        # per-account deque with no lock, so concurrent prune/append
        # interleavings could miscount budgets or pop from a deque
        # another thread had just emptied.  Under the lock, a storm of
        # threads on one account admits exactly `limit` requests.
        limit, n_threads, per_thread = 64, 8, 32
        limiter = RateLimiter(limit=limit, window_s=3600.0)
        outcomes = [0] * n_threads
        barrier = threading.Barrier(n_threads)

        def hammer(slot):
            barrier.wait()
            for _ in range(per_thread):
                try:
                    limiter.check("shared", 0.0)
                    outcomes[slot] += 1
                except RateLimitExceeded:
                    pass
                limiter.remaining("shared", 0.0)

        threads = [
            threading.Thread(target=hammer, args=(slot,))
            for slot in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sum(outcomes) == limit
        assert limiter.remaining("shared", 0.0) == 0


class TestPingEndpoint:
    def test_reply_shape(self, warm_engine, center):
        ping = PingEndpoint(warm_engine)
        reply = ping.ping("acct", center)
        assert reply.timestamp == warm_engine.clock.now
        types = {s.car_type for s in reply.statuses}
        assert types == set(warm_engine.config.fleet)

    def test_nearest_eight_cap(self, warm_engine, center):
        ping = PingEndpoint(warm_engine)
        reply = ping.ping("acct", center, [CarType.UBERX])
        status = reply.status_for(CarType.UBERX)
        assert 0 < len(status.cars) <= 8

    def test_cars_have_ids_and_paths(self, warm_engine, center):
        ping = PingEndpoint(warm_engine)
        status = ping.ping("acct", center, [CarType.UBERX]).status_for(
            CarType.UBERX
        )
        for car in status.cars:
            assert car.car_id
            assert len(car.path) >= 1

    def test_type_restriction(self, warm_engine, center):
        ping = PingEndpoint(warm_engine)
        reply = ping.ping("acct", center, [CarType.UBERBLACK])
        assert len(reply.statuses) == 1
        assert reply.statuses[0].car_type is CarType.UBERBLACK

    def test_rejects_bad_k(self, warm_engine):
        with pytest.raises(ValueError):
            PingEndpoint(warm_engine, nearest_k=0)

    def test_never_serves_empty_car_id(self):
        # Regression: a driver whose session token was cleared used to
        # be served as `car_id=""`, collapsing every such car into one
        # colliding identity and corrupting the unique-car supply and
        # death-based demand counts (§3.3).  Tokenless drivers must be
        # excluded from the reply instead.
        engine = MarketplaceEngine(toy_config(), seed=9)
        engine.run(1800.0)
        ping = PingEndpoint(engine)
        center = engine.config.region.bounding_box.center
        served = ping.ping("acct", center, [CarType.UBERX]).status_for(
            CarType.UBERX
        )
        assert len(served.cars) > 1
        # Strip the nearest car's public identity in place.
        victim_token = served.cars[0].car_id
        victim = next(
            d for d in engine.drivers if d.session_token == victim_token
        )
        victim.session_token = None
        after = ping.ping("acct", center, [CarType.UBERX]).status_for(
            CarType.UBERX
        )
        ids = [c.car_id for c in after.cars]
        assert "" not in ids
        assert victim_token not in ids
        assert all(ids)

    def test_jitter_can_diverge_across_accounts(self):
        """With the bug active and surge changing, some account somewhere
        must eventually see a stale value."""
        engine = MarketplaceEngine(
            toy_config(
                jitter_probability=1.0,
                peak_requests_per_hour=420.0,
                pressure_floor=0.04,
            ),
            seed=33,
        )
        engine.run(1800.0)
        ping = PingEndpoint(engine)
        center = engine.config.region.bounding_box.center
        diverged = False
        for _ in range(720):
            engine.run(5.0)
            values = {
                ping.ping(f"acct{i}", center, [CarType.UBERX])
                .status_for(CarType.UBERX).surge_multiplier
                for i in range(6)
            }
            if len(values) > 1:
                diverged = True
                break
        assert diverged, "jitter at p=1.0 never produced divergent views"


class TestServeRound:
    def _requests(self, center):
        return [
            ("acct0", center, None),
            ("acct1", center.offset(250.0, -150.0), [CarType.UBERX]),
            (
                "acct2",
                center.offset(-400.0, 300.0),
                [CarType.UBERX, CarType.UBERBLACK],
            ),
            # Same account twice: the per-round jitter memo must serve
            # the second request exactly like the first.
            ("acct0", center.offset(90.0, 40.0), None),
        ]

    def test_batched_matches_per_client(
        self, warm_engine, oracle_twin, center
    ):
        """The batched round is reply-for-reply identical to N
        independent per-client pings on the same-seed oracle, and so is
        each request served alone as a round of one."""
        endpoint = PingEndpoint(warm_engine)
        requests = self._requests(center)
        expected = _oracle_pings(oracle_twin, requests)
        assert endpoint.serve_round(requests) == expected
        assert [
            endpoint.ping(account_id, location, car_types)
            for account_id, location, car_types in requests
        ] == expected

    def test_empty_round(self, warm_engine):
        assert PingEndpoint(warm_engine).serve_round([]) == []

    def test_scalar_engine_declines_batch_query(self, center):
        # No FleetArray -> no distance matrix to batch over; serve_round
        # must fall back to the per-client path and still answer.
        engine = MarketplaceEngine(
            toy_config(), seed=11, use_vectorized_step=False
        )
        engine.run(600.0)
        lats = np.array([center.lat])
        lons = np.array([center.lon])
        assert engine.round_query(lats, lons, 8) is None
        replies = PingEndpoint(engine).serve_round([("a", center, None)])
        production = MarketplaceEngine(toy_config(), seed=11)
        production.run(600.0)
        assert replies == PingEndpoint(production).serve_round(
            [("a", center, None)]
        )

    def _spy_round_query(self, engine, monkeypatch):
        captured = []
        original = engine.round_query

        def spy(lats, lons, k, car_types=None):
            captured.append(
                None if car_types is None else list(car_types)
            )
            return original(lats, lons, k, car_types)

        monkeypatch.setattr(engine, "round_query", spy)
        return captured

    def test_union_stays_tight_when_all_restrict(
        self, warm_engine, center, monkeypatch
    ):
        captured = self._spy_round_query(warm_engine, monkeypatch)
        endpoint = PingEndpoint(warm_engine)
        endpoint.serve_round(
            [
                ("a", center, [CarType.UBERX]),
                ("b", center.offset(100.0, 50.0), [CarType.UBERX]),
            ]
        )
        assert captured[-1] == [CarType.UBERX]

    def test_mixed_round_unions_none_as_all_types(
        self, warm_engine, oracle_twin, center, monkeypatch
    ):
        # Regression: the union used to be built only when *every*
        # request restricted its types — one `None` in a mixed round
        # silently widened the batch to the whole fleet instead of
        # contributing "all types" to an explicit union.  The observable
        # contract: a mixed round queries exactly the fleet's types and
        # stays reply-for-reply identical to the oracle's per-client
        # pings.
        captured = self._spy_round_query(warm_engine, monkeypatch)
        endpoint = PingEndpoint(warm_engine)
        requests = [
            ("a", center, [CarType.UBERX]),
            ("b", center.offset(-150.0, 200.0), None),
            ("c", center.offset(80.0, -60.0), [CarType.UBERBLACK]),
        ]
        batched = endpoint.serve_round(requests)
        assert set(captured[-1]) == set(warm_engine.config.fleet)
        assert batched == _oracle_pings(oracle_twin, requests)

    def test_round_restricted_to_unfielded_type(
        self, warm_engine, oracle_twin, center, monkeypatch
    ):
        # A request may restrict to a type the fleet doesn't field
        # (UBERT here): the union must not mistake "as many types seen
        # as the fleet has" for "the fleet is covered", and the reply
        # still matches the oracle's per-client ping (an empty status).
        captured = self._spy_round_query(warm_engine, monkeypatch)
        endpoint = PingEndpoint(warm_engine)
        requests = [
            ("a", center, [CarType.UBERT, CarType.UBERX]),
            ("b", center.offset(40.0, 40.0), [CarType.UBERX]),
        ]
        batched = endpoint.serve_round(requests)
        assert captured[-1] == [CarType.UBERT, CarType.UBERX]
        assert batched == _oracle_pings(oracle_twin, requests)


class TestRestApi:
    def test_price_estimates(self, warm_engine, center):
        api = RestApi(warm_engine, RateLimiter(limit=10_000))
        estimates = api.price_estimates(
            "acct", center, center.offset(800.0, 800.0)
        )
        by_type = {e.car_type: e for e in estimates}
        assert CarType.UBERX in by_type
        x = by_type[CarType.UBERX]
        assert 0 < x.low_usd < x.high_usd
        assert x.surge_multiplier >= 1.0

    def test_time_estimates(self, warm_engine, center):
        api = RestApi(warm_engine, RateLimiter(limit=10_000))
        estimates = api.time_estimates("acct", center, [CarType.UBERX])
        assert len(estimates) == 1
        ewt = estimates[0].ewt_seconds
        assert ewt is None or ewt >= 60.0

    def test_rate_limit_enforced(self, warm_engine, center):
        api = RestApi(warm_engine, RateLimiter(limit=2, window_s=3600.0))
        api.surge_multiplier("acct", center)
        api.surge_multiplier("acct", center)
        with pytest.raises(RateLimitExceeded):
            api.surge_multiplier("acct", center)

    def test_api_is_jitter_free(self):
        """The REST stream serves true multipliers even with the bug on."""
        engine = MarketplaceEngine(
            toy_config(jitter_probability=1.0), seed=8
        )
        engine.run(900.0)
        api = RestApi(engine, RateLimiter(limit=10_000))
        center = engine.config.region.bounding_box.center
        for i in range(120):
            engine.run(5.0)
            value = api.surge_multiplier(f"acct{i}", center)
            assert value == engine.true_multiplier(center, CarType.UBERX)
