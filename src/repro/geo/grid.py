"""Measurement-grid construction.

The paper places 43 emulated clients so that circles of the calibrated
visibility radius tile the measurement region (§3.4, Fig 3).  Two packings
are provided:

* :func:`grid_cover` — square packing with spacing ``2r/sqrt(2)`` so the
  circles' inscribed squares tile the plane with no gaps, which is what the
  paper's Fig 3 layouts resemble;
* :func:`hex_grid_cover` — hexagonal packing, the densest circle cover,
  used by the ablation benches to quantify how many clients each scheme
  needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from repro.geo.latlon import LatLon
from repro.geo.polygon import Polygon


@dataclass(frozen=True)
class GridSpec:
    """Parameters of a constructed measurement grid."""

    region: Polygon
    radius_m: float
    spacing_m: float
    points: Tuple[LatLon, ...]


def _cover(
    region: Polygon,
    radius_m: float,
    spacing_m: float,
    row_offset_fraction: float,
    row_spacing_m: float,
    include_margin: bool = True,
) -> GridSpec:
    """Lay a lattice of clients over *region*.

    With ``include_margin`` (the default), lattice points *outside* the
    region are kept whenever their visibility disc still overlaps it —
    this preserves the lattice's full-plane coverage guarantee at the
    region boundary.  Without it, only interior points are kept (the
    paper's economical placement; coverage dips slightly at the edges).
    """
    if radius_m <= 0:
        raise ValueError("radius must be positive")
    box = region.bounding_box
    origin = LatLon(box.south, box.west)
    height = box.height_m()
    width = box.width_m()
    points: List[LatLon] = []
    row = 0
    north = -row_spacing_m if include_margin else 0.0
    east_start_base = -spacing_m if include_margin else 0.0
    while north <= height + row_spacing_m:
        east = east_start_base + (
            (row % 2) * row_offset_fraction * spacing_m
        )
        while east <= width + spacing_m:
            candidate = origin.offset(north_m=north, east_m=east)
            if region.contains(candidate):
                points.append(candidate)
            elif (
                include_margin
                and region.distance_to_boundary_m(candidate) <= radius_m
            ):
                points.append(candidate)
            east += spacing_m
        north += row_spacing_m
        row += 1
    return GridSpec(
        region=region,
        radius_m=radius_m,
        spacing_m=spacing_m,
        points=tuple(points),
    )


def grid_cover(region: Polygon, radius_m: float) -> GridSpec:
    """Square-packed client grid covering *region*.

    Spacing is ``r * sqrt(2)`` so that every point of the plane is within
    *radius_m* of some client (adjacent circles overlap on their inscribed
    squares).
    """
    spacing = radius_m * math.sqrt(2.0)
    return _cover(
        region,
        radius_m,
        spacing_m=spacing,
        row_offset_fraction=0.0,
        row_spacing_m=spacing,
    )


def hex_grid_cover(region: Polygon, radius_m: float) -> GridSpec:
    """Hexagonally packed client grid covering *region*.

    The optimal covering lattice: spacing ``r * sqrt(3)`` within a row,
    rows ``1.5 r`` apart, odd rows offset by half a spacing.
    """
    spacing = radius_m * math.sqrt(3.0)
    return _cover(
        region,
        radius_m,
        spacing_m=spacing,
        row_offset_fraction=0.5,
        row_spacing_m=1.5 * radius_m,
    )


def coverage_fraction(
    spec: GridSpec, samples_per_axis: int = 40
) -> float:
    """Fraction of region sample points within radius of some client.

    A Monte-Carlo-free estimate on a regular lattice of
    ``samples_per_axis**2`` candidate points clipped to the region: the
    tests' coverage oracle for :func:`grid_cover` and
    :func:`hex_grid_cover`.
    """
    box = spec.region.bounding_box
    height = box.height_m()
    width = box.width_m()
    origin = LatLon(box.south, box.west)
    inside = 0
    covered = 0
    for i in range(samples_per_axis):
        for j in range(samples_per_axis):
            p = origin.offset(
                north_m=height * (i + 0.5) / samples_per_axis,
                east_m=width * (j + 0.5) / samples_per_axis,
            )
            if not spec.region.contains(p):
                continue
            inside += 1
            if any(
                p.fast_distance_m(c) <= spec.radius_m for c in spec.points
            ):
                covered += 1
    if inside == 0:
        raise ValueError("no sample points fell inside the region")
    return covered / inside
