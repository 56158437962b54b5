"""Span recording around the public functions of each caustics module.

Installed only for the traced run.  Every public function of a layer is
replaced by a recording wrapper in every namespace that binds it, so calls
made through `caustics.X`, `module.X` and names imported with
`from .module import X` are all seen.  The wrappers also count work that is
visible at the call boundary: array sizes passed in, integrand evaluations
requested by the quadrature, objective evaluations requested by the root
solver.  Spans are kept in memory and written out after the run.
"""
from __future__ import annotations

import inspect
from collections import Counter
from time import perf_counter

import numpy as np

import caustics
from caustics import billiard_dynamics as bd
from caustics import cli
from caustics import conic_geometry as cg
from caustics import elliptic_integrals as ei
from caustics import invariant_suite as inv
from caustics import spatial_averages as sa
from caustics.errors import NumericalError

LAYERS = {
    "elliptic_integrals": ei,
    "conic_geometry": cg,
    "spatial_averages": sa,
    "billiard_dynamics": bd,
    "invariant_suite": inv,
    "cli": cli,
}
# Every namespace that binds a layer function by name.
_NAMESPACES = (caustics, ei, cg, sa, bd, inv, cli)
# conic_geometry functions whose third argument is the array of u-values.
_POINTWISE = {
    "caustic_point", "chord_endpoints", "endpoint_coordinates", "chord_length",
    "interior_cosine", "interior_cosine_rational", "outer_cosine",
    "outer_cosine_closed", "measure_density",
}
_AVERAGES = {"mean_sidelength": "closed_form", "mean_cosine": "closed_form",
             "mean_curvature23": "quadrature"}


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


class Tracer:
    """In-memory span store plus the wrappers that feed it.

    A span is (name id, start, end, parent span index, op id); parent is -1
    for a span opened outside any other.  Counters are keyed by metric name.
    """

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._patches: list = []

    def _name_id(self, layer, name):
        self.names.append(f"{layer}.{name}")
        self.layer_of.append(layer)
        return len(self.names) - 1

    def _parent_layer(self):
        return self.layer_of[self.spans[self._stack[-1]][0]] if self._stack else None

    def span(self, layer, name, fn, count=None):
        """Wrap fn so each call records a span; count(args, kwargs) runs first."""
        nid = self._name_id(layer, name)
        spans, stack = self.spans, self._stack

        def recorded(*args, **kwargs):
            if count is not None:
                count(args, kwargs)
            idx = len(spans)
            spans.append((nid, 0.0, 0.0, stack[-1] if stack else -1, self.op))
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (nid, start, end, spans[idx][3], self.op)

        recorded.__wrapped__ = fn
        return recorded

    def _counter(self, layer, name):
        """Per-function counting hook, or None when the call carries no count."""
        c = self.counts
        if layer == "elliptic_integrals":
            def count(args, kwargs):
                c["elliptic_integrals.calls"] += 1
            return count
        if layer == "conic_geometry" and name in _POINTWISE:
            def count(args, kwargs):
                # u-values entering the layer; nested calls inside it re-use them
                if self._parent_layer() != "conic_geometry":
                    c["conic_geometry.points"] += int(np.size(_arg(args, kwargs, 2, "u")))
            return count
        if layer == "spatial_averages" and name in _AVERAGES:
            default = _AVERAGES[name]

            def count(args, kwargs):
                if (_arg(args, kwargs, 2, "method", default) == "closed_form"
                        and self._parent_layer() != "spatial_averages"):
                    c["spatial_averages.closed_form_calls"] += 1
            return count
        if layer == "billiard_dynamics" and name in ("iterate_orbit", "time_average"):
            def count(args, kwargs):
                c["billiard_dynamics.orbit_bounces"] += int(_arg(args, kwargs, 3, "n"))
            return count
        if layer == "invariant_suite" and name == "build_periodic_orbit":
            def count(args, kwargs):
                c["invariant_suite.orbits"] += 1
            return count
        return None

    def _quadrature(self, fn):
        c = self.counts

        def periodic_quadrature(f, *args, **kwargs):
            def integrand(u):
                c["spatial_averages.quadrature_evals"] += 1
                c["spatial_averages.quadrature_nodes"] += int(np.size(u))
                return f(u)

            c["spatial_averages.quadrature_calls"] += 1
            try:
                return fn(integrand, *args, **kwargs)
            except NumericalError:
                c["spatial_averages.quadrature_failures"] += 1
                raise

        return periodic_quadrature

    def _brentq(self, fn):
        c = self.counts

        def brentq(f, *args, **kwargs):
            def objective(x, *fargs):
                c["billiard_dynamics.root_evals"] += 1
                return f(x, *fargs)

            c["billiard_dynamics.root_solves"] += 1
            return fn(objective, *args, **kwargs)

        return brentq

    def install(self):
        """Replace every public layer function, wherever it is bound."""
        replacements = {}
        for layer, module in LAYERS.items():
            names = ["main"] if module is cli else module.__all__
            for name in names:
                fn = getattr(module, name)
                if not inspect.isfunction(fn):
                    continue
                if name == "periodic_quadrature":
                    fn = self._quadrature(fn)
                replacements[id(getattr(module, name))] = self.span(
                    layer, name, fn, self._counter(layer, name))
        # scipy's root finder, as billiard_dynamics binds it
        replacements[id(bd.brentq)] = self._brentq(bd.brentq)
        for ns in _NAMESPACES:
            for attr, value in list(vars(ns).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, value in reversed(self._patches):
            setattr(ns, attr, value)
        self._patches.clear()

    def arrays(self):
        """Spans as arrays: name id, start, end, parent, op, self time."""
        table = np.array(self.spans, dtype=float).reshape(-1, 5)
        nid = table[:, 0].astype(np.int32)
        start, end = table[:, 1], table[:, 2]
        parent = table[:, 3].astype(np.int64)
        op = table[:, 4].astype(np.int64)
        dur = end - start
        covered = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(covered, parent[nested], dur[nested])
        return nid, start, end, parent, op, dur - covered

    def self_seconds(self, op_filter=None):
        """Self time per layer, summed over spans (optionally only some ops)."""
        nid, _, _, _, op, self_s = self.arrays()
        layers = np.array(self.layer_of)[nid] if len(nid) else np.array([], dtype=str)
        keep = np.ones(len(nid), bool) if op_filter is None else op_filter(op)
        return {layer: float(self_s[keep & (layers == layer)].sum()) for layer in LAYERS}

    def save(self, path):
        """Write the spans, times in ns from the first span's start, compressed."""
        nid, start, end, parent, op, self_s = self.arrays()
        t0 = start.min() if len(start) else 0.0
        ns = lambda t: np.round((t - t0) * 1e9).astype(np.int64)  # noqa: E731
        np.savez_compressed(path, names=np.array(self.names), name_id=nid.astype(np.int16),
                            start_ns=ns(start), end_ns=ns(end), parent=parent.astype(np.int32),
                            op=op.astype(np.int32), self_ns=np.round(self_s * 1e9).astype(np.int64))
