"""Test-session hooks shared by every test module."""
from __future__ import annotations

import caustics.billiard_dynamics as bd
import caustics.spatial_averages as sa

# The routes' value-keyed caches.  Each test starts with them empty, so what it
# counts or patches does not depend on which tests ran before it.
_ROUTE_CACHES = (
    bd._orbit,
    bd._orbit_means,
    bd._caustic_for_period,
    sa._quadrature_averages,
    sa._closed_forms,
)


def pytest_runtest_setup(item):
    # a hook, not an autouse fixture: hypothesis rejects function-scoped
    # fixtures on its tests, and a hook runs once per test, not per example
    for cache in _ROUTE_CACHES:
        cache.cache_clear()
