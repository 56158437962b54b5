"""Invariant-measure spatial averages over confocal caustics of the elliptic
billiard, cross-checked three ways: closed forms, adaptive quadrature, and
time averages / discrete invariants of simulated orbits.
"""
__version__ = "0.1.0"  # the one place it is set: pyproject.toml reads it from here

from .billiard_dynamics import (
    OrbitSample,
    find_caustic_for_period,
    iterate_orbit,
    rotation_number,
    time_average,
)
from .conic_geometry import (
    BilliardTable,
    CausticSpec,
    caustic_axes,
    chord_length,
    curvature23,
    interior_cosine,
    joachimsthal,
    measure_density,
    outer_cosine,
)
from .elliptic_integrals import complete_k, complete_pi
from .errors import DomainError, NumericalError
from .invariant_suite import (
    InvariantReport,
    PeriodicOrbit,
    build_periodic_orbit,
    evaluate_invariants,
)
from .spatial_averages import (
    AverageResult,
    log_geomean_outer,
    mean_cosine,
    mean_curvature23,
    mean_sidelength,
    normalization,
)

__all__ = [
    "AverageResult",
    "BilliardTable",
    "CausticSpec",
    "DomainError",
    "InvariantReport",
    "NumericalError",
    "OrbitSample",
    "PeriodicOrbit",
    "build_periodic_orbit",
    "caustic_axes",
    "chord_length",
    "complete_k",
    "complete_pi",
    "curvature23",
    "evaluate_invariants",
    "find_caustic_for_period",
    "interior_cosine",
    "iterate_orbit",
    "joachimsthal",
    "log_geomean_outer",
    "mean_cosine",
    "mean_curvature23",
    "mean_sidelength",
    "measure_density",
    "normalization",
    "outer_cosine",
    "rotation_number",
    "time_average",
]
