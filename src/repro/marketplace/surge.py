"""The surge-pricing engine.

This is the component the paper reverse-engineers; the implementation
encodes exactly the externally observable properties the paper pins down
(§5), so that the audit pipeline can re-derive them blind:

* **Per-area pricing.**  Each hand-drawn surge area carries an independent
  multiplier (§5.3, Figs 18-19).
* **A 5-minute clock.**  Multipliers change once per 5-minute interval,
  and the change lands within a tight ~35-second band at a fixed phase in
  the interval (§5.2, Fig 15).
* **Supply/demand responsiveness.**  The new multiplier is driven by the
  *previous* interval's supply − demand slack and EWT, giving the strong
  Δt = 0 cross-correlations of Figs 20-21.
* **Noise.**  Surge is "extremely noisy" — most surges last a single
  interval (Fig 13).  A stochastic term in the update reproduces this.

The paper's proposed fix — smoothing updates with a weighted moving
average (§5.5 Discussion) — is implemented behind ``smoothing_alpha`` and
exercised by the ablation bench.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: The update period the paper measured (§5.2).
SURGE_INTERVAL_S = 300.0


@dataclass(frozen=True)
class SurgeParams:
    """Tunable constants of the pricing rule.

    The published multiplier for area *a* in interval *i* is::

        pressure = demand / max(supply, 1)            # previous interval
        ewt_term = max(0, ewt - ewt_floor) / ewt_scale
        raw      = 1 + gain * max(0, pressure - pressure_floor)
                     + ewt_weight * ewt_term + noise
        m        = quantize_0.1(clamp(raw, 1, cap))

    followed by optional exponential smoothing against the previous
    multiplier.  ``noise_sigma`` makes marginal surges flicker on and off
    across intervals, matching the measured short durations.
    """

    gain: float = 3.0
    pressure_floor: float = 0.15
    ewt_weight: float = 0.05
    ewt_floor_minutes: float = 4.0
    ewt_scale_minutes: float = 2.0
    noise_sigma: float = 0.12
    #: Share of the stochastic term drawn once per update for the whole
    #: city (areas co-move) vs independently per area.  The paper found
    #: SF's areas "tend to be more correlated than those in Manhattan"
    #: (§6) — SF uses a high value, Manhattan a low one.
    shared_noise_fraction: float = 0.0
    #: Share of the *pressure* term taken from the city-wide aggregate
    #: (total demand over total supply) rather than the area's own —
    #: the other half of SF's co-movement: its demand shocks (last call,
    #: events) hit the whole downtown at once.
    pressure_sharing: float = 0.0
    #: Probability per update that an area simply publishes the shared
    #: city-wide price (one quantized value for all lock-stepped areas)
    #: instead of pricing independently.  Continuous sharing alone
    #: cannot reproduce the paper's SF ("rare for one area ... to have
    #: significantly higher surge than all the others", §6): residual
    #: differences straddle quantization boundaries and the areas
    #: flip-flop by 0.1.  Lock-stepping is exact by construction.
    lockstep_probability: float = 0.0
    cap: float = 5.0
    #: Maximum per-update *increase* of the multiplier.  Decreases are
    #: unconstrained: the operator avoids price shocks on the way up but
    #: drops instantly when pressure clears.  This asymmetry is what the
    #: paper's jitter analysis exposes — the previous interval's value is
    #: usually *lower* (multi-step ramps up, one-step collapses), so the
    #: stale bug lowered prices 74 % of the time in Manhattan (§5.2).
    max_step_up: float = 0.5
    smoothing_alpha: float = 1.0  # 1.0 = no smoothing (measured behaviour)
    update_phase_s: float = 40.0
    update_band_s: float = 35.0
    interval_s: float = SURGE_INTERVAL_S

    def __post_init__(self) -> None:
        if self.cap < 1.0:
            raise ValueError("cap must be at least 1.0")
        if not 0.0 <= self.shared_noise_fraction <= 1.0:
            raise ValueError("shared_noise_fraction must be in [0, 1]")
        if not 0.0 <= self.pressure_sharing <= 1.0:
            raise ValueError("pressure_sharing must be in [0, 1]")
        if not 0.0 <= self.lockstep_probability <= 1.0:
            raise ValueError("lockstep_probability must be in [0, 1]")
        if not 0.0 < self.smoothing_alpha <= 1.0:
            raise ValueError("smoothing_alpha must be in (0, 1]")
        if self.update_phase_s + self.update_band_s >= self.interval_s:
            raise ValueError("update must land within the interval")
        if self.interval_s <= 0:
            raise ValueError("interval must be positive")


def quantize_multiplier(value: float, cap: float = 5.0) -> float:
    """Clamp to [1, cap] and round to the 0.1 steps Uber displays."""
    clamped = min(max(value, 1.0), cap)
    return round(clamped * 10.0) / 10.0


@dataclass
class AreaWindowStats:
    """Per-area accumulator over one 5-minute interval."""

    supply_samples: int = 0
    supply_total: float = 0.0
    demand: float = 0.0
    ewt_samples: int = 0
    ewt_total: float = 0.0

    def observe_supply(self, idle_count: int) -> None:
        self.supply_samples += 1
        self.supply_total += idle_count

    def observe_demand(self, amount: float = 1.0) -> None:
        """Accumulate demand signal (fractional weights allowed —
        priced-out riders register partially, see the engine)."""
        self.demand += amount

    def observe_ewt(self, minutes: float) -> None:
        self.ewt_samples += 1
        self.ewt_total += minutes

    @property
    def mean_supply(self) -> float:
        if self.supply_samples == 0:
            return 0.0
        return self.supply_total / self.supply_samples

    @property
    def mean_ewt(self) -> float:
        if self.ewt_samples == 0:
            return 0.0
        return self.ewt_total / self.ewt_samples


@dataclass(frozen=True)
class SurgeUpdate:
    """One published pricing decision (for ground-truth inspection)."""

    published_at: float
    interval_index: int
    multipliers: Dict[int, float]


class SurgeEngine:
    """Per-area surge pricing on a 5-minute clock.

    A single multiplier per area applies to every surge-eligible car type;
    the paper notes all Uber types "exhibit similar trends" (§4.2), and
    the audit pipeline only ever needs UberX.
    """

    def __init__(
        self,
        area_ids: Sequence[int],
        params: SurgeParams,
        rng: random.Random,
    ) -> None:
        # An empty area list is legal: a region with no surge polygons
        # (e.g. driver-set pricing) simply publishes nothing.
        self.params = params
        self._rng = rng
        self._area_ids = tuple(area_ids)
        self._current: Dict[int, float] = {a: 1.0 for a in area_ids}
        self._previous: Dict[int, float] = dict(self._current)
        self._window: Dict[int, AreaWindowStats] = {
            a: AreaWindowStats() for a in area_ids
        }
        self._last_window: Dict[int, AreaWindowStats] = {
            a: AreaWindowStats() for a in area_ids
        }
        self._published_interval = -1
        self._next_publish_at = self._publish_time_for(0)
        self.updates: List[SurgeUpdate] = []

    # ------------------------------------------------------------------
    def _publish_time_for(self, interval_index: int) -> float:
        """When the multiplier for *interval_index* is published.

        The paper's Fig 15: updates land inside a ~35 s band at a fixed
        phase within each 5-minute interval.
        """
        p = self.params
        jitter = self._rng.uniform(0.0, p.update_band_s)
        return interval_index * p.interval_s + p.update_phase_s + jitter

    # ------------------------------------------------------------------
    # Observation feed (called by the engine every tick)
    # ------------------------------------------------------------------
    def observe_supply(self, area_id: int, idle_count: int) -> None:
        self._window[area_id].observe_supply(idle_count)

    def observe_demand(self, area_id: int, amount: float = 1.0) -> None:
        self._window[area_id].observe_demand(amount)

    def observe_ewt(self, area_id: int, minutes: float) -> None:
        self._window[area_id].observe_ewt(minutes)

    # ------------------------------------------------------------------
    def maybe_update(self, now: float) -> Optional[SurgeUpdate]:
        """Publish new multipliers when the clock says so.

        Must be called at least once per tick; returns the update if one
        was published at this call.
        """
        if now < self._next_publish_at:
            return None
        interval = int(now // self.params.interval_s)
        if not self._area_ids:
            # Nothing to price; keep the publish clock ticking so the
            # schedule stays consistent if areas are ever compared.
            self._published_interval = interval
            self._next_publish_at = self._publish_time_for(interval + 1)
            return None
        self._previous = dict(self._current)
        city_noise = self._rng.gauss(0.0, self.params.noise_sigma)
        city_demand = sum(
            self._window[a].demand for a in self._area_ids
        )
        city_supply = sum(
            self._window[a].mean_supply for a in self._area_ids
        )
        city_pressure = city_demand / max(city_supply, 1.0)
        # The shared city-wide price: what lock-stepped areas publish.
        # Quantized once so they match *exactly* (no per-area rounding).
        city_ewts = [
            self._window[a].mean_ewt
            for a in self._area_ids
            if self._window[a].ewt_samples
        ]
        city_value = self._raw_price(
            pressure=city_pressure,
            mean_ewt=(
                sum(city_ewts) / len(city_ewts) if city_ewts else 0.0
            ),
            noise=city_noise,
            prev=max(self._current.values()),
        )
        new: Dict[int, float] = {}
        for area_id in self._area_ids:
            if self._rng.random() < self.params.lockstep_probability:
                new[area_id] = city_value
                continue
            stats = self._window[area_id]
            new[area_id] = self._price(
                area_id, stats, city_noise, city_pressure
            )
        self._current = new
        self._last_window = self._window
        self._window = {a: AreaWindowStats() for a in self._area_ids}
        self._published_interval = interval
        self._next_publish_at = self._publish_time_for(interval + 1)
        update = SurgeUpdate(
            published_at=now,
            interval_index=interval,
            multipliers=dict(new),
        )
        self.updates.append(update)
        return update

    def _raw_price(
        self, pressure: float, mean_ewt: float, noise: float, prev: float
    ) -> float:
        """Apply the pricing rule to one (pressure, EWT) observation."""
        p = self.params
        ewt_term = max(0.0, mean_ewt - p.ewt_floor_minutes)
        raw = (
            1.0
            + p.gain * max(0.0, pressure - p.pressure_floor)
            + p.ewt_weight * ewt_term / p.ewt_scale_minutes
            + noise
        )
        if p.smoothing_alpha < 1.0:
            raw = p.smoothing_alpha * raw + (1.0 - p.smoothing_alpha) * prev
        if raw > prev + p.max_step_up:
            raw = prev + p.max_step_up
        return quantize_multiplier(raw, p.cap)

    def _price(
        self,
        area_id: int,
        stats: AreaWindowStats,
        city_noise: float = 0.0,
        city_pressure: float = 0.0,
    ) -> float:
        p = self.params
        supply = stats.mean_supply
        own_pressure = stats.demand / max(supply, 1.0)
        w = p.pressure_sharing
        pressure = (1.0 - w) * own_pressure + w * city_pressure
        f = p.shared_noise_fraction
        noise = f * city_noise + (1.0 - f) * self._rng.gauss(
            0.0, p.noise_sigma
        )
        return self._raw_price(
            pressure=pressure,
            mean_ewt=stats.mean_ewt,
            noise=noise,
            prev=self._current[area_id],
        )

    def force_multipliers(self, multipliers: Dict[int, float]) -> None:
        """Override the published multipliers (scenario tool).

        Shifts the current values into the previous slot first, exactly
        like a clock update, so jitter semantics stay coherent.  Used by
        controlled experiments (strategy evaluation, examples, tests) —
        the production path never calls this.
        """
        unknown = set(multipliers) - set(self._area_ids)
        if unknown:
            raise KeyError(f"unknown surge areas: {sorted(unknown)}")
        for value in multipliers.values():
            if value < 1.0 or value > self.params.cap:
                raise ValueError(f"multiplier out of range: {value}")
        self._previous = dict(self._current)
        self._current.update(multipliers)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def multiplier(self, area_id: int) -> float:
        """The currently published multiplier for an area."""
        return self._current[area_id]

    def previous_multiplier(self, area_id: int) -> float:
        """The previous interval's multiplier — what the jitter bug serves."""
        return self._previous[area_id]

    def multipliers(self) -> Dict[int, float]:
        return dict(self._current)

    @property
    def area_ids(self) -> Tuple[int, ...]:
        return self._area_ids
