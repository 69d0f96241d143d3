"""Tests for the §3.4 calibration experiments."""

import pytest

from conftest import toy_config
from repro.marketplace.engine import MarketplaceEngine
from repro.measurement.calibrate import (
    RADIUS_COEFFICIENT,
    check_determinism,
    check_surge_impact,
    visibility_radius,
    visibility_radius_profile,
)
from repro.measurement.fleet import MarketplaceWorld


@pytest.fixture
def quiet_world():
    """A jitter-free world with stable supply."""
    engine = MarketplaceEngine(
        toy_config(jitter_probability=0.0, surge_noise=0.0,
                   pressure_floor=0.5, peak_requests_per_hour=8.0),
        seed=13,
    )
    engine.run(1200.0)
    return MarketplaceWorld(engine)


class TestDeterminism:
    def test_jitter_free_world_is_deterministic(self, quiet_world):
        center = quiet_world.engine.config.region.bounding_box.center
        report = check_determinism(
            quiet_world, center, n_clients=10, rounds=20
        )
        assert report.passed, report.detail
        assert report.rounds == 20

    def test_jittered_world_diverges_where_it_always_did(self):
        # Jitter is drawn per account, so where the check first fails
        # pins the calibration clients' account IDs (cal00, cal01, ...)
        # and their order within a round.
        engine = MarketplaceEngine(
            toy_config(jitter_probability=0.25), seed=7
        )
        engine.run(1200.0)
        center = engine.config.region.bounding_box.center
        report = check_determinism(
            MarketplaceWorld(engine), center, n_clients=20, rounds=20
        )
        assert not report.passed
        assert report.rounds == 11
        assert report.detail.startswith(
            "client 19 diverged from client 0 in round 10: "
        )


class TestSurgeImpact:
    def test_fleet_does_not_induce_surge(self, quiet_world):
        center = quiet_world.engine.config.region.bounding_box.center
        report = check_surge_impact(
            quiet_world, center, n_clients=20, duration_s=600.0
        )
        assert report.passed, report.detail


class TestVisibilityRadius:
    def test_radius_is_plausible(self, quiet_world):
        center = quiet_world.engine.config.region.bounding_box.center
        radius = visibility_radius(quiet_world, center)
        assert radius is not None
        # The toy city is ~1.4 km wide with ~30 cars: the 8th-nearest car
        # should sit a few hundred metres out.
        assert 50.0 <= radius <= 1500.0

    def test_radius_shrinks_with_density(self):
        """More cars on the road -> nearer 8th car -> smaller radius."""
        sparse_engine = MarketplaceEngine(
            toy_config(pressure_floor=0.5), seed=19
        )
        sparse_engine.run(1200.0)
        dense_config = toy_config(pressure_floor=0.5)
        dense_config.fleet[list(dense_config.fleet)[0]] = 400
        dense_engine = MarketplaceEngine(dense_config, seed=19)
        dense_engine.run(1200.0)
        center = sparse_engine.config.region.bounding_box.center
        sparse_r = visibility_radius(MarketplaceWorld(sparse_engine), center)
        dense_r = visibility_radius(MarketplaceWorld(dense_engine), center)
        assert sparse_r is not None and dense_r is not None
        assert dense_r < sparse_r

    def test_coefficient_matches_paper(self):
        assert RADIUS_COEFFICIENT == pytest.approx(0.1768, abs=1e-4)

    def test_profile_collects_samples(self, quiet_world):
        center = quiet_world.engine.config.region.bounding_box.center
        profile = visibility_radius_profile(
            quiet_world, center,
            sample_every_s=1800.0, duration_s=5400.0,
        )
        assert len(profile) == 3
        times = [t for t, _ in profile]
        assert times == sorted(times)
