"""Differential tests: vectorized fleet stepping == scalar stepping.

``use_vectorized_step`` moves all driver movement into numpy
structure-of-arrays code (:mod:`repro.marketplace.fleet_array`), and
the ``Driver`` objects read their position and path through to the
arrays.  Its contract is *bit-identity*: same seed in, identical
marketplace out — ``IntervalTruth`` streams, trip ledgers, ping
replies, the shared RNG's state, and every field of every ``Driver``
object.  These tests pin that contract:

* randomized-scenario property tests (hypothesis) run the same seed
  through both paths and compare everything;
* unit tests cover the array container itself — row mapping, ring
  buffers, read-through objects, and the nearest-k query against a
  reference scan.

See ``tests/test_rng_draw_order.py`` for the draw-order half of the
contract and ``tests/test_perf_regression.py`` for the tier-1 flag
matrix on a bigger scenario.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import toy_config
from repro.geo.latlon import LatLon
from repro.api.ping import PingEndpoint
from repro.marketplace.driver import PATH_VECTOR_LEN, Driver, DriverState
from repro.marketplace.engine import MarketplaceEngine
from repro.marketplace.fleet_array import (
    EN_ROUTE,
    IDLE,
    OFFLINE,
    ON_TRIP,
    FleetArray,
    smallest_k,
)
from repro.marketplace.types import CarType
from repro.measurement.placement import place_clients


def _run_engine(cfg, seed: int, ticks: int, vectorized: bool,
                ping_every: int = 0):
    """One engine run; returns everything the contract compares."""
    engine = MarketplaceEngine(
        cfg, seed=seed, use_vectorized_step=vectorized
    )
    endpoint = PingEndpoint(engine)
    clients = list(place_clients(cfg.region, max_clients=4))
    replies = []
    for t in range(ticks):
        engine.tick()
        if ping_every and t % ping_every == 0:
            for i, loc in enumerate(clients):
                replies.append(endpoint.ping(f"p{i}", loc))
    return engine, replies


#: Every Driver field the dataclass marks for comparison.
_DRIVER_FIELDS = [f.name for f in dataclasses.fields(Driver) if f.compare]


def assert_drivers_identical(vector, scalar) -> None:
    """Every ``compare=True`` field of every driver agrees.

    ``Driver`` compares by identity, so this spells the comparison out.
    ``path`` is read through ``path_triples()``: an array-attached
    driver's path lives in its fleet's ring, not in the deque.
    """
    assert len(vector) == len(scalar)
    for v, s in zip(vector, scalar):
        for name in _DRIVER_FIELDS:
            if name == "path":
                got, want = v.path_triples(), s.path_triples()
            else:
                got, want = getattr(v, name), getattr(s, name)
            assert got == want, (s.driver_id, name, got, want)


def assert_engines_identical(cfg, seed: int, ticks: int,
                             ping_every: int = 0) -> None:
    scalar, replies_s = _run_engine(cfg, seed, ticks, False, ping_every)
    vector, replies_v = _run_engine(cfg, seed, ticks, True, ping_every)
    assert vector.truth == scalar.truth
    assert vector.completed_trips == scalar.completed_trips
    assert replies_v == replies_s
    assert vector.rng.getstate() == scalar.rng.getstate()
    # Location, state, path, session bookkeeping, trip, earnings: the
    # read-through objects must be indistinguishable from
    # scalar-stepped ones.
    assert_drivers_identical(vector.drivers, scalar.drivers)


# ----------------------------------------------------------------------
# Property tests: randomized scenarios, same seed, both paths.
# ----------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    elasticity=st.floats(min_value=0.5, max_value=3.0),
    peak=st.floats(min_value=60.0, max_value=320.0),
    noise=st.floats(min_value=0.0, max_value=0.2),
    ticks=st.integers(min_value=8, max_value=36),
)
def test_vectorized_matches_scalar_randomized(
    seed, elasticity, peak, noise, ticks
):
    cfg = toy_config(
        elasticity=elasticity,
        peak_requests_per_hour=peak,
        surge_noise=noise,
    )
    assert_engines_identical(cfg, seed, ticks)


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    jitter=st.sampled_from([0.0, 0.3]),
    ticks=st.integers(min_value=10, max_value=30),
)
def test_vectorized_matches_scalar_with_pings(seed, jitter, ticks):
    """Ping replies (car views, EWTs, multipliers) are bit-identical
    even with the jitter bug active."""
    cfg = toy_config(jitter_probability=jitter)
    assert_engines_identical(cfg, seed, ticks, ping_every=3)


def test_long_run_identical_with_flat_demand_off():
    """A longer single-seed soak through the diurnal profile."""
    cfg = toy_config(flat=False)
    assert_engines_identical(cfg, seed=99, ticks=120, ping_every=10)


# ----------------------------------------------------------------------
# FleetArray unit behaviour
# ----------------------------------------------------------------------
def _tiny_fleet(n: int = 5) -> list:
    return [
        Driver(
            driver_id=i + 1,
            car_type=CarType.UBERX if i % 2 == 0 else CarType.UBERBLACK,
            location=LatLon(40.70 + 0.001 * i, -74.00 + 0.001 * i),
            speed_mps=5.0,
        )
        for i in range(n)
    ]


def test_fleet_array_requires_contiguous_ids():
    drivers = _tiny_fleet(3)
    drivers[2].driver_id = 9
    with pytest.raises(ValueError, match="contiguous"):
        FleetArray(drivers)


def test_rows_mirror_initial_state():
    drivers = _tiny_fleet(4)
    fleet = FleetArray(drivers)
    for i, d in enumerate(drivers):
        assert d._fleet is fleet
        assert fleet.lat[i] == d.location.lat
        assert fleet.lon[i] == d.location.lon
    # Each driver reads row driver_id - 1 and no other.
    for r in range(len(drivers)):
        fleet.lat[r] = 41.0 + 0.1 * r
    for d in drivers:
        assert d.location.lat == 41.0 + 0.1 * (d.driver_id - 1)
    # Per-type row sets partition all rows.
    rows = sorted(
        r for arr in fleet.rows_by_type.values() for r in arr.tolist()
    )
    assert rows == list(range(len(drivers)))


def test_ring_buffer_matches_deque_semantics():
    """The ring serves the last PATH_VECTOR_LEN entries, oldest first —
    exactly like the deque: the full window at exactly PATH_VECTOR_LEN
    appends, the oldest entry evicted by the next append."""
    import random

    drivers = _tiny_fleet(1)
    fleet = FleetArray(drivers)
    d = drivers[0]
    d.come_online(0.0, 3600.0, random.Random(1))
    fleet.on_online(d, 0.0)
    import numpy as np

    rows = np.array([0])
    expected = [(0.0, d.location.lat, d.location.lon)]
    for k in range(1, PATH_VECTOR_LEN + 3):
        fleet.lat[0] = 40.70 + 0.0001 * k
        fleet.lon[0] = -74.00 - 0.0001 * k
        fleet._ring_append(rows, float(k))
        expected.append((float(k), 40.70 + 0.0001 * k, -74.00 - 0.0001 * k))
        triples = d.path_triples()
        assert triples == tuple(expected[-PATH_VECTOR_LEN:])
        if k == PATH_VECTOR_LEN - 1:
            # Exactly at capacity: the full window, oldest entry first.
            assert fleet.path_cnt[0] == PATH_VECTOR_LEN
            assert len(triples) == PATH_VECTOR_LEN
            assert triples[0][0] == 0.0
        elif k == PATH_VECTOR_LEN:
            # The next append evicts the oldest entry.
            assert len(triples) == PATH_VECTOR_LEN
            assert triples[0][0] == 1.0


def test_ring_reset_after_wrap_starts_fresh():
    """``on_back_idle`` after the ring has wrapped must restart the
    path vector at exactly one point — the wrapped history may not
    leak through the reset."""
    import random

    import numpy as np

    drivers = _tiny_fleet(1)
    fleet = FleetArray(drivers)
    d = drivers[0]
    d.come_online(0.0, 3600.0, random.Random(7))
    fleet.on_online(d, 0.0)
    rows = np.array([0])
    for k in range(1, PATH_VECTOR_LEN + 4):
        fleet.lat[0] = 40.70 + 0.0001 * k
        fleet._ring_append(rows, float(k))
    assert fleet.path_cnt[0] > PATH_VECTOR_LEN  # ring actually wrapped
    # The real call site: the object resets its deque identity first,
    # then the fleet resets the ring.
    d.come_back_idle(99.0, random.Random(8))
    fleet.on_back_idle(d, 99.0)
    assert fleet.path_cnt[0] == 1
    triples = d.path_triples()
    assert triples == ((99.0, fleet.lat[0], fleet.lon[0]),)
    # And it grows normally from the fresh origin.
    fleet.lat[0] += 0.0005
    fleet._ring_append(rows, 100.0)
    assert len(d.path_triples()) == 2


def test_nearest_rows_matches_reference_scan():
    import random

    drivers = _tiny_fleet(40)
    rng = random.Random(5)
    for d in drivers:
        d.location = LatLon(
            40.70 + rng.random() * 0.01, -74.00 + rng.random() * 0.01
        )
    fleet = FleetArray(drivers)
    for d in drivers:
        d.come_online(0.0, 3600.0, rng)
        fleet.on_online(d, 0.0)
    query = LatLon(40.705, -74.005)
    for car_type in (CarType.UBERX, CarType.UBERBLACK):
        for k in (1, 3, 8, 100):
            got = fleet.nearest_rows(query, car_type, k)
            ref = sorted(
                (
                    (d.location.fast_distance_m(query), d.driver_id - 1)
                    for d in drivers
                    if d.car_type is car_type and d.is_dispatchable
                ),
            )[:k]
            assert got == ref
    assert fleet.nearest_rows(query, CarType.UBERX, 0) == []


def test_nearest_rows_shared_distance_cache_tracks_movement():
    """Nothing is cached between queries: a query after a position
    write sees the new world."""
    drivers = _tiny_fleet(4)
    fleet = FleetArray(drivers)
    import random

    rng = random.Random(2)
    for d in drivers:
        d.come_online(0.0, 3600.0, rng)
        fleet.on_online(d, 0.0)
    query = LatLon(40.7022, -73.9982)
    first = fleet.nearest_rows(query, CarType.UBERX, 1)
    assert first[0][1] == 2  # row 2 starts closest to the query
    # Teleport the other UberX right onto the query point.
    drivers[0].location = LatLon(40.7022, -73.9982)
    second = fleet.nearest_rows(query, CarType.UBERX, 1)
    assert second[0] == (0.0, 0)


def test_nearest_ties_break_by_driver_id_at_the_cut():
    """Equal distances rank by driver id wherever the nearest cars are
    asked for: one car (dispatch, EWT), a k = 3 cut through a three-way
    tie, a batched round, and the oracle's scan."""
    import random

    import numpy as np

    from repro.marketplace.dispatch import Dispatcher

    q = LatLon(40.75, -74.0)
    step = 2.0 ** -7  # every coordinate below is exact in binary
    east = LatLon(q.lat, q.lon + step)
    west = LatLon(q.lat, q.lon - step)
    north = LatLon(q.lat + 2 * step, q.lon)
    south = LatLon(q.lat - 2 * step, q.lon)
    far = LatLon(q.lat + 4 * step, q.lon)
    # Row r is driver r + 1; the UberBLACK on the query point is out of
    # every UberX answer.
    places = [far, north, east, south, west, north, q]
    drivers = [
        Driver(
            driver_id=r + 1,
            car_type=CarType.UBERX if r < 6 else CarType.UBERBLACK,
            location=loc,
            speed_mps=5.0,
        )
        for r, loc in enumerate(places)
    ]
    fleet = FleetArray(drivers)
    rng = random.Random(1)
    for d in drivers:
        d.come_online(0.0, 3600.0, rng)
        fleet.on_online(d, 0.0)
    dist = [d.location.fast_distance_m(q) for d in drivers]
    # The ties are exact, so driver id is all that orders them.
    assert dist[2] == dist[4] < dist[1] == dist[3] == dist[5] < dist[0]

    k1 = fleet.nearest_rows(q, CarType.UBERX, 1)
    k3 = fleet.nearest_rows(q, CarType.UBERX, 3)
    assert k1 == [(dist[2], 2)]
    assert k3 == [(dist[2], 2), (dist[4], 4), (dist[1], 1)]
    batch = fleet.round_nearest(
        np.array([q.lat, q.lat]), np.array([q.lon, q.lon]), 3
    )
    seg = batch.segment(CarType.UBERX)
    assert seg is not None
    assert seg == ([[d for d, _ in k3]] * 2, [[r for _, r in k3]] * 2)
    oracle = Dispatcher()
    for k, rows in ((1, [2]), (3, [2, 4, 1])):
        got = oracle.nearest_idle(drivers, q, CarType.UBERX, k=k)
        assert [d.driver_id - 1 for d in got] == rows


@st.composite
def _selection_case(draw):
    """A rows x width matrix and a k: k covers 1, the width and past
    it, and values drawn from a small pool plant ties (all-equal rows
    included) where free floats would not."""
    import numpy as np

    n = draw(st.integers(0, 16))
    width = draw(st.integers(1, 80))
    k = draw(st.one_of(st.just(1), st.just(width), st.integers(1, 90)))
    free = st.floats(-1e6, 1e6, allow_nan=False)
    pool = draw(st.one_of(st.lists(free, min_size=1, max_size=4), st.none()))
    element = free if pool is None else st.sampled_from(pool)
    values = draw(
        st.lists(element, min_size=n * width, max_size=n * width)
    )
    return np.array(values, dtype=np.float64).reshape(n, width), k


@settings(max_examples=300, deadline=None)
@given(_selection_case())
def test_smallest_k_equals_the_stable_sort(case):
    """The top-k selection both nearest-car kernels use returns what a
    full stable sort keeps: the same columns in (value, column) order,
    ties at the cut included, and whole rows when k reaches the
    width."""
    import numpy as np

    values, k = case
    want = np.argsort(values, axis=1, kind="stable")[:, :k]
    got = smallest_k(values, k)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_attached_driver_reads_through_to_its_row():
    """An attached driver keeps no copy of its position or path: rows
    moved in the arrays show up in ``location`` and ``path_triples()``
    with no sync step, and a ``location`` write lands in the arrays."""
    import random

    import numpy as np

    drivers = _tiny_fleet(2)
    fleet = FleetArray(drivers)
    d = drivers[0]
    assert "_loc" not in d.__dict__
    d.come_online(0.0, 3600.0, random.Random(4))
    fleet.on_online(d, 0.0)
    # Array-side moves, the way the step kernel makes them.
    fleet.lat[0] = 40.7099
    fleet.lon[0] = -74.0001
    assert d.location == LatLon(40.7099, -74.0001)
    fleet._ring_append(np.array([0]), 5.0)
    assert d.path_triples()[-1] == (5.0, 40.7099, -74.0001)
    fleet.lat[0] = 40.7098
    fleet._ring_append(np.array([0]), 10.0)
    assert d.location.lat == 40.7098
    assert d.path_triples()[-1] == (10.0, 40.7098, -74.0001)
    assert len(d.path_triples()) == 3
    # Object-side write lands in the arrays.
    d.location = LatLon(40.701, -74.002)
    assert fleet.lat[0] == 40.701
    assert fleet.lon[0] == -74.002
    assert d.location == LatLon(40.701, -74.002)
    # The other row is untouched.
    assert drivers[1].location == LatLon(40.70 + 0.001, -74.00 + 0.001)


def test_production_driver_state_matches_arrays():
    """Every driver's ``state`` agrees with its row's state code after a
    production run, with no location read in between: the pickup
    arrival's EN_ROUTE→ON_TRIP promotion reaches the object when it
    happens, not when something next reads the driver's position."""
    engine = MarketplaceEngine(toy_config(), seed=3)
    engine.run(1800.0)
    fleet = engine._vec
    code = {
        DriverState.OFFLINE: OFFLINE,
        DriverState.IDLE: IDLE,
        DriverState.EN_ROUTE: EN_ROUTE,
        DriverState.ON_TRIP: ON_TRIP,
    }
    states = [code[d.state] for d in engine.drivers]
    assert states == fleet.state.tolist()
    assert ON_TRIP in states  # a trip is under way, so the check bites


def test_offline_driver_serves_empty_path():
    import random

    drivers = _tiny_fleet(1)
    fleet = FleetArray(drivers)
    d = drivers[0]
    d.come_online(0.0, 100.0, random.Random(3))
    fleet.on_online(d, 0.0)
    d.go_offline()
    fleet.on_offline(d)
    assert d.path_triples() == ()
    assert d.session_token is None


# ----------------------------------------------------------------------
# Coverage floor (see pyproject [tool.coverage.*])
# ----------------------------------------------------------------------
def test_marketplace_coverage_floor_configured():
    """The marketplace and parallel packages carry a >=90 % coverage
    gate.

    The local image does not ship ``coverage``/``pytest-cov``, so the
    gate cannot run inside tier-1 itself; this test keeps the committed
    configuration honest so ``python -m coverage run -m pytest`` (CI
    installs coverage and runs ``make coverage`` on every push)
    enforces the documented floor.
    """
    try:
        import tomllib
    except ModuleNotFoundError:  # pragma: no cover - py<3.11 fallback
        pytest.skip("tomllib unavailable to parse pyproject")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    data = tomllib.loads(pyproject.read_text())
    run_cfg = data["tool"]["coverage"]["run"]
    assert any("marketplace" in s for s in run_cfg["source"])
    assert any("parallel" in s for s in run_cfg["source"])
    assert data["tool"]["coverage"]["report"]["fail_under"] >= 90
