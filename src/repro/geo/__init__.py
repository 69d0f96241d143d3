"""Geographic substrate: coordinates, distances, polygons, and grids.

Every other subsystem (the marketplace simulator, the taxi replayer, the
measurement fleet, and the surge-area discovery pipeline) speaks in
latitude/longitude pairs.  This package provides the small amount of
spherical geometry the paper relies on:

* great-circle and fast equirectangular distances (:mod:`repro.geo.latlon`),
* point-in-polygon tests for surge areas, one point at a time or a
  whole batch at once (:mod:`repro.geo.polygon`),
* measurement-grid generation (:mod:`repro.geo.grid`),
* the two city models used throughout the study (:mod:`repro.geo.regions`).
"""

from repro.geo.latlon import (
    EARTH_RADIUS_M,
    WALKING_SPEED_M_PER_MIN,
    LatLon,
    bearing_deg,
    destination,
    equirectangular_m,
    haversine_m,
    walking_minutes,
)
from repro.geo.polygon import BoundingBox, Polygon, PolygonSet
from repro.geo.grid import GridSpec, grid_cover, hex_grid_cover
from repro.geo.regions import (
    CityRegion,
    SurgeAreaDef,
    downtown_sf,
    midtown_manhattan,
)

__all__ = [
    "EARTH_RADIUS_M",
    "WALKING_SPEED_M_PER_MIN",
    "LatLon",
    "bearing_deg",
    "destination",
    "equirectangular_m",
    "haversine_m",
    "walking_minutes",
    "BoundingBox",
    "Polygon",
    "PolygonSet",
    "GridSpec",
    "grid_cover",
    "hex_grid_cover",
    "CityRegion",
    "SurgeAreaDef",
    "downtown_sf",
    "midtown_manhattan",
]
