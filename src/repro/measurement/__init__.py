"""The measurement apparatus (§3) — the paper's methodology, as code.

A *fleet* of emulated app clients (43 in the paper) is placed on a grid
covering the measurement region, each pinging the service every 5 seconds
and logging responses.  The same fleet code measures the marketplace
simulator and the taxi-trace replayer, because both hide behind
:class:`repro.api.ping.PingServer`.

* :mod:`repro.measurement.client` — one emulated Client app;
* :mod:`repro.measurement.fleet` — fleet orchestration and campaign runs;
* :mod:`repro.measurement.records` — the observation log model;
* :mod:`repro.measurement.calibrate` — the §3.4 calibration experiments
  (visibility radius, determinism, surge non-impact);
* :mod:`repro.measurement.placement` — grid placement from the calibrated
  radius.
"""

from repro.measurement.records import (
    CampaignLog,
    ClientSample,
    RoundRecord,
)
from repro.measurement.client import MeasurementClient
from repro.measurement.fleet import (
    Fleet,
    MarketplaceWorld,
    TaxiWorld,
    World,
)
from repro.measurement.placement import place_clients
from repro.measurement.scheduler import ProbePlan, RequestScheduler
from repro.measurement.calibrate import (
    CalibrationReport,
    check_determinism,
    check_surge_impact,
    visibility_radius,
    visibility_radius_profile,
)

__all__ = [
    "CampaignLog",
    "ClientSample",
    "RoundRecord",
    "MeasurementClient",
    "Fleet",
    "MarketplaceWorld",
    "TaxiWorld",
    "World",
    "place_clients",
    "ProbePlan",
    "RequestScheduler",
    "CalibrationReport",
    "check_determinism",
    "check_surge_impact",
    "visibility_radius",
    "visibility_radius_profile",
]
