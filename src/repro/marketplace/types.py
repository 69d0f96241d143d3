"""Car types and fare schedules.

Uber offers multiple services per city (§2).  The paper's analysis focuses
on UberX (by far the most common), but the measurement apparatus records
every type, and the type mix differs between cities (Manhattan has UberT —
ordinary taxis hailed through the app — which are *not* subject to surge).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict


class CarType(enum.Enum):
    """The Uber product types named in the paper (§2)."""

    UBERX = "uberX"
    UBERXL = "uberXL"
    UBERBLACK = "uberBLACK"
    UBERSUV = "uberSUV"
    UBERT = "uberT"
    UBERFAMILY = "uberFAMILY"
    UBERPOOL = "uberPOOL"
    UBERRUSH = "uberRUSH"
    UBERWAV = "uberWAV"

    @property
    def is_low_cost(self) -> bool:
        """The paper's "low-priced Ubers": X, XL, FAMILY, and POOL (§4.1)."""
        return self in _LOW_COST

    @property
    def surge_eligible(self) -> bool:
        """UberT is an ordinary taxi and never surges (§4.2)."""
        return self is not CarType.UBERT


_LOW_COST = frozenset(
    {CarType.UBERX, CarType.UBERXL, CarType.UBERFAMILY, CarType.UBERPOOL}
)


@dataclass(frozen=True)
class FareSchedule:
    """Fare components for one car type (§2 "Surge Pricing").

    ``base_fare_usd`` is charged at pickup; distance and time accrue per
    mile and per minute; the total is floored at ``minimum_fare_usd`` and
    increased by ``booking_fee_usd``.  The surge multiplier applies to the
    metered portion (base + distance + time), not to the booking fee —
    matching Uber's published fare maths at the time.
    """

    base_fare_usd: float
    per_mile_usd: float
    per_minute_usd: float
    minimum_fare_usd: float
    booking_fee_usd: float = 0.0

    def fare(
        self,
        miles: float,
        minutes: float,
        surge_multiplier: float = 1.0,
    ) -> float:
        """Total fare in USD for a trip under a given surge multiplier."""
        if miles < 0 or minutes < 0:
            raise ValueError("trip distance and duration must be >= 0")
        if surge_multiplier <= 0.0:
            # Algorithmic surge never goes below 1 (the surge engine
            # quantizes into [1, cap]), but driver-set pricing allows
            # sub-base discounts, so fare maths only rejects nonsense.
            raise ValueError("multiplier must be positive")
        metered = (
            self.base_fare_usd
            + self.per_mile_usd * miles
            + self.per_minute_usd * minutes
        )
        metered = max(metered, self.minimum_fare_usd)
        return metered * surge_multiplier + self.booking_fee_usd

    def driver_payout(
        self, miles: float, minutes: float, surge_multiplier: float = 1.0
    ) -> float:
        """Driver's cut: Uber retains 20 % of each fare (§2)."""
        gross = self.fare(miles, minutes, surge_multiplier)
        return (gross - self.booking_fee_usd) * 0.8


#: 2015-era fare schedules (approximate published SF/NYC UberX rates).
FARE_TABLE: Dict[CarType, FareSchedule] = {
    CarType.UBERX: FareSchedule(2.00, 1.30, 0.26, 5.00, booking_fee_usd=1.00),
    CarType.UBERXL: FareSchedule(5.00, 2.15, 0.45, 8.00, booking_fee_usd=1.00),
    CarType.UBERBLACK: FareSchedule(8.00, 3.75, 0.65, 15.00),
    CarType.UBERSUV: FareSchedule(15.00, 4.50, 0.90, 25.00),
    CarType.UBERT: FareSchedule(2.50, 2.00, 0.40, 2.50),
    CarType.UBERFAMILY: FareSchedule(2.00, 1.30, 0.26, 5.00,
                                     booking_fee_usd=3.00),
    CarType.UBERPOOL: FareSchedule(1.50, 1.00, 0.20, 4.00,
                                   booking_fee_usd=1.00),
    CarType.UBERRUSH: FareSchedule(3.00, 2.50, 0.00, 7.00),
    CarType.UBERWAV: FareSchedule(2.00, 1.30, 0.26, 5.00),
}
