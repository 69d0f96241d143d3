"""Tests for the demand process: profiles, sampling, elasticity."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import toy_region
from repro.marketplace.rider import (
    DemandModel,
    DiurnalProfile,
    _poisson,
)
from repro.marketplace.types import CarType


def simple_profile() -> DiurnalProfile:
    return DiurnalProfile(
        weekday=((0.0, 0.2), (8.0, 1.0), (20.0, 0.4)),
        weekend=((0.0, 0.5), (14.0, 1.0)),
    )


def make_model(**kwargs) -> DemandModel:
    defaults = dict(
        region=toy_region(),
        profile=simple_profile(),
        peak_requests_per_hour=120.0,
        type_mix={CarType.UBERX: 10.0, CarType.UBERBLACK: 1.0},
    )
    defaults.update(kwargs)
    return DemandModel(**defaults)


class TestDiurnalProfile:
    def test_interpolates_between_points(self):
        p = simple_profile()
        assert p.level(4.0, False) == pytest.approx(0.6)

    def test_exact_control_points(self):
        p = simple_profile()
        assert p.level(8.0, False) == pytest.approx(1.0)
        assert p.level(0.0, False) == pytest.approx(0.2)

    def test_wraps_around_midnight(self):
        p = simple_profile()
        # Between 20.0 (0.4) and 24.0 (= next day's 0.0 at 0.2).
        assert p.level(22.0, False) == pytest.approx(0.3)
        assert p.level(23.99, False) < 0.3

    def test_weekend_uses_weekend_points(self):
        p = simple_profile()
        assert p.level(14.0, True) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiurnalProfile(weekday=((0.0, 1.0),), weekend=((0.0, 1.0),))
        with pytest.raises(ValueError):
            DiurnalProfile(
                weekday=((8.0, 1.0), (0.0, 0.5)),
                weekend=((0.0, 1.0), (12.0, 1.0)),
            )
        with pytest.raises(ValueError):
            DiurnalProfile(
                weekday=((0.0, -0.1), (12.0, 1.0)),
                weekend=((0.0, 1.0), (12.0, 1.0)),
            )

    @given(hour=st.floats(min_value=0.0, max_value=23.999))
    @settings(max_examples=80)
    def test_level_always_nonnegative_and_bounded(self, hour):
        p = simple_profile()
        level = p.level(hour, False)
        assert 0.0 <= level <= 1.0


class TestPoissonSampler:
    def test_zero_lambda(self):
        assert _poisson(0.0, random.Random(0)) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            _poisson(-1.0, random.Random(0))

    def test_small_lambda_mean(self):
        rng = random.Random(42)
        n = 20_000
        total = sum(_poisson(0.3, rng) for _ in range(n))
        assert total / n == pytest.approx(0.3, rel=0.05)

    def test_large_lambda_uses_normal_approx(self):
        rng = random.Random(42)
        samples = [_poisson(400.0, rng) for _ in range(500)]
        mean = sum(samples) / len(samples)
        assert mean == pytest.approx(400.0, rel=0.02)
        assert all(s >= 0 for s in samples)


class TestElasticity:
    def test_no_surge_always_converts(self):
        model = make_model()
        assert model.conversion_probability(1.0, CarType.UBERX) == 1.0

    def test_ubert_immune_to_surge(self):
        model = make_model()
        assert model.conversion_probability(3.0, CarType.UBERT) == 1.0

    def test_exponential_decay(self):
        model = make_model(elasticity=2.0)
        p = model.conversion_probability(1.5, CarType.UBERX)
        assert p == pytest.approx(math.exp(-1.0))

    @given(
        m1=st.floats(min_value=1.0, max_value=3.0),
        m2=st.floats(min_value=1.0, max_value=3.0),
    )
    @settings(max_examples=50)
    def test_conversion_monotone_decreasing(self, m1, m2):
        model = make_model()
        p1 = model.conversion_probability(m1, CarType.UBERX)
        p2 = model.conversion_probability(m2, CarType.UBERX)
        if m1 <= m2:
            assert p1 >= p2


class TestGeneration:
    def test_requests_land_inside_region(self):
        model = make_model()
        rng = random.Random(3)
        region = model.region
        requests = []
        for step in range(600):
            requests.extend(
                model.generate(
                    now=step * 5.0, dt=5.0, hour=8.0, is_weekend=False,
                    rng=rng, multiplier_at=lambda loc, ct: 1.0,
                )
            )
        assert len(requests) > 20
        for request in requests:
            assert region.boundary.contains(request.pickup)
            assert region.boundary.contains(request.dropoff)
            assert request.converted  # no surge -> all convert

    def test_rate_scales_with_profile(self):
        model = make_model()
        rng = random.Random(5)
        count_peak = sum(
            len(model.generate(i * 5.0, 5.0, 8.0, False, rng,
                               lambda loc, ct: 1.0))
            for i in range(500)
        )
        model2 = make_model()
        count_off = sum(
            len(model2.generate(i * 5.0, 5.0, 0.0, False, rng,
                                lambda loc, ct: 1.0))
            for i in range(500)
        )
        assert count_peak > 2.5 * count_off

    def test_surge_suppresses_conversion(self):
        model = make_model(elasticity=3.0, wait_out_fraction=0.0)
        rng = random.Random(7)
        requests = []
        for i in range(800):
            requests.extend(
                model.generate(i * 5.0, 5.0, 8.0, False, rng,
                               lambda loc, ct: 2.0)
            )
        converted = [r for r in requests if r.converted]
        # exp(-3) ~ 5 % conversion expected.
        assert len(converted) < 0.15 * len(requests)

    def test_wait_out_riders_return_after_interval(self):
        model = make_model(elasticity=10.0, wait_out_fraction=1.0)
        rng = random.Random(9)
        # Priced-out riders at t~0 must re-request shortly after t=300.
        for i in range(20):
            model.generate(i * 5.0, 5.0, 8.0, False, rng,
                           lambda loc, ct: 3.0)
        assert model._deferred  # some riders are waiting
        returned = []
        for i in range(60, 80):
            returned.extend(
                model.generate(i * 5.0, 5.0, 8.0, False, rng,
                               lambda loc, ct: 1.0)
            )
        deferred = [r for r in returned if r.deferred_from is not None]
        assert deferred
        for r in deferred:
            assert r.converted  # surge gone, they ride
            assert r.requested_at >= 300.0

    def test_rider_ids_unique(self):
        model = make_model()
        rng = random.Random(11)
        ids = []
        for i in range(200):
            for r in model.generate(i * 5.0, 5.0, 8.0, False, rng,
                                    lambda loc, ct: 1.0):
                ids.append(r.rider_id)
        assert len(ids) == len(set(ids))

    def test_type_mix_ranking(self):
        model = make_model()
        rng = random.Random(13)
        counts = {CarType.UBERX: 0, CarType.UBERBLACK: 0}
        for i in range(3000):
            for r in model.generate(i * 5.0, 5.0, 8.0, False, rng,
                                    lambda loc, ct: 1.0):
                counts[r.car_type] += 1
        assert counts[CarType.UBERX] > 3 * counts[CarType.UBERBLACK]

    def test_validation(self):
        with pytest.raises(ValueError):
            make_model(peak_requests_per_hour=0.0)
        with pytest.raises(ValueError):
            make_model(type_mix={})
        with pytest.raises(ValueError):
            make_model(wait_out_fraction=1.5)
