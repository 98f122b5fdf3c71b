"""Outage probability of a reference link inside a finite wireless network.

A fixed number of interferers is placed uniformly in a convex region (disk
or convex polygon) and every link fades independently with Nakagami-m
statistics. The package computes the spatially averaged outage probability
of a reference receiver anywhere in the region, exactly up to numerical
tolerances, through two independent analytic engines plus a Monte Carlo
simulator and an infinite-network closed-form baseline:

- transform inversion (`outage_mgf`): works for any fading shapes >= 0.5;
- reference-link power series (`outage_rlpg`): integer reference shape,
  typically faster and with closed-form building blocks;
- `simulate_outage`: deterministic, parallel Monte Carlo;
- `outage_ppp_rayleigh`: boundary-free Poisson baseline for comparison.

Geometry enters only through the distance distribution from the receiver to
a uniform point (`distance_profile`), so any convex region works.
"""

from .baselines import outage_ppp_rayleigh
from .channel import (GeneralFadingCdf, NakagamiChannel, general_cdf_eval,
                      general_fading_cdf, nakagami_as_general_cdf)
from .errors import (InvalidParameterError, ModelInconsistencyError,
                     NumericFailure, ScenarioParseError, UnsupportedModelError)
from .geometry import (DistanceProfile, Region, disk_region, distance_profile,
                       make_fig2_region, make_regular_polygon, polygon_region,
                       region_contains)
from .mgf import EulerInversionParams, euler_invert_cdf, outage_mgf
from .montecarlo import McEstimate, simulate_outage
from .rlpg import (outage_disk_center, outage_general_family, outage_rlpg,
                   outage_rlpg_for_counts)
from .scenario import OutageResult, Scenario

__version__ = "0.1.0"

__all__ = [
    "DistanceProfile",
    "EulerInversionParams",
    "GeneralFadingCdf",
    "InvalidParameterError",
    "McEstimate",
    "ModelInconsistencyError",
    "NakagamiChannel",
    "NumericFailure",
    "OutageResult",
    "Region",
    "Scenario",
    "ScenarioParseError",
    "UnsupportedModelError",
    "disk_region",
    "distance_profile",
    "euler_invert_cdf",
    "general_cdf_eval",
    "general_fading_cdf",
    "make_fig2_region",
    "make_regular_polygon",
    "nakagami_as_general_cdf",
    "outage_disk_center",
    "outage_general_family",
    "outage_mgf",
    "outage_ppp_rayleigh",
    "outage_rlpg",
    "outage_rlpg_for_counts",
    "polygon_region",
    "region_contains",
    "simulate_outage",
]
