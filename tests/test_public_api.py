"""The package's public surface.

Proves:
   - every name in each module's __all__, and in caustics.__all__, resolves
     (a stale entry breaks `from caustics import *` and any tool that walks
     __all__ with getattr)
   - conic_geometry no longer names rational_coefficients: the cosine's
     closed form writes its coefficients where it uses them
"""
from __future__ import annotations

import caustics
from caustics import billiard_dynamics, conic_geometry, elliptic_integrals
from caustics import invariant_suite, spatial_averages


def test_all_names_resolve():
    for module in (
        caustics,
        billiard_dynamics,
        conic_geometry,
        elliptic_integrals,
        invariant_suite,
        spatial_averages,
    ):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], f"{module.__name__}.__all__ names {missing}"


def test_rational_coefficients_are_gone():
    assert not hasattr(conic_geometry, "rational_coefficients")
