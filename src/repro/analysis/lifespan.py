"""Car-lifespan analysis (§4.1, Fig 7).

A car "lives" from its first to its last sighting.  Because IDs are
randomized every time a car becomes available, a lifespan measures one
*availability stretch*, ending when the car is booked, signs off, or
leaves — so low-priced, high-demand types (X, XL, FAMILY, POOL) live
much shorter observable lives than luxury types.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.cleaning import CarTrack


def lifespans_by_group(
    tracks: Dict[str, CarTrack],
) -> Tuple[List[float], List[float]]:
    """Lifespans (seconds) split into (low-cost, luxury/other) groups.

    The paper groups X/XL/FAMILY/POOL as "low-priced Ubers" and reports
    ~90 % of them living under a small bound, with the rest living
    longer.
    """
    low_cost: List[float] = []
    other: List[float] = []
    for track in tracks.values():
        target = low_cost if track.car_type.is_low_cost else other
        target.append(track.lifespan_s)
    return low_cost, other
