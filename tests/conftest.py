"""Shared fixtures: a small fast city for unit tests, cached campaigns.

Most analysis tests need a marketplace that surges *often* and runs
*fast*; ``toy_config`` builds a compact city (1.4 km box, four quadrant
areas, small fleet, strained demand) that exercises every code path in
seconds.  Session-scoped campaign logs are computed once and shared.
"""

from __future__ import annotations

import random

import pytest

from repro.geo.latlon import LatLon
from repro.geo.polygon import BoundingBox
from repro.geo.regions import CityRegion, Hotspot, _quad_split
from repro.marketplace.config import CityConfig, DriverBehavior, city_config
from repro.marketplace.engine import MarketplaceEngine
from repro.marketplace.jitter import JitterParams
from repro.marketplace.rider import DiurnalProfile
from repro.marketplace.surge import SurgeParams
from repro.marketplace.types import CarType
from repro.measurement.fleet import Fleet, MarketplaceWorld
from repro.measurement.placement import place_clients
from repro.measurement.records import CampaignLog


def toy_region() -> CityRegion:
    """A ~1.4 km four-area city for fast tests."""
    box = BoundingBox(south=40.700, west=-74.010, north=40.7125,
                      east=-73.9935)
    areas = _quad_split(
        box, LatLon(40.7065, -74.0015),
        names=("sw", "nw", "ne", "se"),
    )
    hotspots = (
        Hotspot("center", LatLon(40.7063, -74.0020), weight=2.0),
        Hotspot("corner", LatLon(40.7100, -73.9970), weight=1.0),
    )
    return CityRegion(
        name="toyville",
        boundary=box.to_polygon(),
        surge_areas=tuple(areas),
        hotspots=hotspots,
        client_radius_m=200.0,
    )


def flat_profile(level: float = 1.0) -> DiurnalProfile:
    """Constant demand/supply level — removes diurnal effects from tests."""
    points = ((0.0, level), (12.0, level))
    return DiurnalProfile(weekday=points, weekend=points)


def toy_config(
    jitter_probability: float = 0.0,
    surge_noise: float = 0.05,
    pressure_floor: float = 0.08,
    peak_requests_per_hour: float = 150.0,
    elasticity: float = 1.8,
    flat: bool = True,
) -> CityConfig:
    """A small strained marketplace that surges frequently."""
    profile = flat_profile(1.0) if flat else None
    return CityConfig(
        region=toy_region(),
        fleet={CarType.UBERX: 70, CarType.UBERBLACK: 12},
        online_fraction=flat_profile(0.4) if flat else flat_profile(0.4),
        demand_profile=profile if profile else flat_profile(1.0),
        peak_requests_per_hour=peak_requests_per_hour,
        type_mix={CarType.UBERX: 20.0, CarType.UBERBLACK: 2.0},
        demand_elasticity=elasticity,
        wait_out_fraction=0.4,
        driver=DriverBehavior(
            speed_mps=5.0,
            mean_session_s=3600.0,
            supply_tau_s=300.0,
            surge_supply_incentive=0.25,
            flock_probability=0.15,
            hotspot_attraction=0.5,
        ),
        surge=SurgeParams(
            gain=2.5,
            pressure_floor=pressure_floor,
            noise_sigma=surge_noise,
            cap=4.0,
        ),
        jitter=JitterParams(probability=jitter_probability),
        start_weekday=0,
    )


@pytest.fixture
def toy_engine() -> MarketplaceEngine:
    return MarketplaceEngine(toy_config(), seed=7)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)


@pytest.fixture(scope="session")
def toy_campaign():
    """A 90-minute UberX campaign on the toy city (computed once).

    Jitter enabled, 5 s pings — rich enough for supply/demand, surge, and
    jitter analyses.
    """
    engine = MarketplaceEngine(toy_config(jitter_probability=0.3), seed=11)
    region = engine.config.region
    fleet = Fleet(
        place_clients(region, radius_m=250.0),
        car_types=[CarType.UBERX],
        ping_interval_s=5.0,
    )
    world = MarketplaceWorld(engine)
    log = fleet.run(world, duration_s=5400.0, city="toyville",
                    warmup_s=1800.0)
    return engine, log


def spec_campaign(spec):
    """*spec*'s campaign set up as ``execute_campaign`` sets it up:
    its log with no rounds yet, and its rounds, measured as they are
    drawn from the returned iterator."""
    config = city_config(spec.city, spec.jitter)
    fleet = Fleet(
        place_clients(config.region, max_clients=spec.max_clients),
        car_types=[CarType.UBERX],
        ping_interval_s=spec.ping_interval_s,
    )
    log = CampaignLog(spec.city, fleet.positions, spec.ping_interval_s)
    rounds = fleet.rounds(
        MarketplaceWorld(MarketplaceEngine(config, seed=spec.seed)),
        duration_s=spec.hours * 3600.0,
        warmup_s=spec.warmup_hours * 3600.0,
    )
    return log, rounds
