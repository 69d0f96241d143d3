"""§4.2 (text): car-type mix in both cities.

"Both cities exhibit the same rank ordering of Uber types.  UberXs are
most prevalent, followed by UberBLACK, UberSUV, and UberXL ... there are
only 4 cars of these [rare] types on the road on average.  Manhattan
does have a significant number of UberT's" — and an order of magnitude
more taxis than Ubers.
"""

import statistics

import pytest

from _shared import write_table
from repro.marketplace.config import city_config
from repro.marketplace.engine import MarketplaceEngine
from repro.marketplace.types import CarType


def type_counts(city: str, seed: int = 3):
    engine = MarketplaceEngine(city_config(city), seed=seed)
    engine.run(4 * 3600.0)   # settle
    engine.truth.clear()
    engine.run(12 * 3600.0)  # one daytime stretch
    means = {}
    for car_type in engine.config.fleet:
        values = [
            t.online_by_type.get(car_type, 0) for t in engine.truth
        ]
        means[car_type] = statistics.mean(values)
    return means


@pytest.fixture(scope="module")
def counts():
    return {city: type_counts(city) for city in ("manhattan", "sf")}


def test_types_ranking(counts, benchmark):
    benchmark.pedantic(lambda: type_counts("manhattan"), rounds=1,
                       iterations=1)
    lines = ["type         manhattan     sf"]
    for car_type in CarType:
        m = counts["manhattan"].get(car_type)
        s = counts["sf"].get(car_type)
        lines.append(
            f"{car_type.value:12s} "
            f"{'-' if m is None else format(m, '8.1f'):>9s} "
            f"{'-' if s is None else format(s, '8.1f'):>9s}"
        )
    write_table("types_ranking", lines)

    for city in ("manhattan", "sf"):
        c = counts[city]
        # The paper's rank ordering: X >> BLACK > SUV > XL.
        assert c[CarType.UBERX] > c[CarType.UBERBLACK]
        assert c[CarType.UBERBLACK] > c[CarType.UBERSUV]
        assert c[CarType.UBERSUV] > c[CarType.UBERXL]
        # Rare types: a handful of cars on the road.
        assert c[CarType.UBERFAMILY] < 10
    # Manhattan has more luxury cars and a significant UberT pool.
    m, s = counts["manhattan"], counts["sf"]
    assert m[CarType.UBERBLACK] > s[CarType.UBERBLACK]
    assert m[CarType.UBERT] > 20
    assert CarType.UBERT not in s
