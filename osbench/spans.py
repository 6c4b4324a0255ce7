"""Spans around calls into the program's layers, recorded from outside it.

A traced run wraps the public functions named in ``TRACED``. Each call opens a
span holding its name, start, end, parent span, request id and a size (the
points it evaluates, or the knots it returns). Spans stay in memory until the
run ends; the per-layer metrics are derived from them afterwards. A function
is rebound in every module namespace that holds it, so calls made through a
name imported into another module (``revenue.order_stat_cdf``,
``cli.consistent_iid``) are traced too.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

TRACED = {
    "cli": ["main"],
    "dist": ["from_literal", "revenue_curve", "iron", "virtual_values", "is_regular_above_reserve",
             "monopoly_price", "Dist.cdf", "Dist.quantile"],
    "orderstat": ["consistent_iid", "h_inverse", "h_poly", "order_stat_cdf", "poisson_binomial_pmf"],
    "revenue": ["optimal_robust_reserve", "optimal_unknown_n_reserve", "unknown_n_bound",
                "worst_case_revenue_topk", "closed_form_revenue", "mc_expected_revenue"],
    "mech": ["myerson_outcome", "priority_from_uniform", "topk_class"],
    "oracle": ["counterexample_certificate"],
}
LAYERS = tuple(TRACED)
FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

# the positional argument (after self for methods) whose size is the span's size
POINT_ARGS = {"orderstat.h_inverse": 2, "orderstat.h_poly": 2, "orderstat.order_stat_cdf": 2,
              "dist.Dist.quantile": 1}
POINTED = tuple(POINT_ARGS)
REQUEST = "request"


class Tracer:
    """In-memory span store. Not thread-safe: the benchmark is one closed-loop
    client on one thread."""

    def __init__(self):
        self.names = [REQUEST]
        self._ids = {REQUEST: 0}
        self.name = array("i")
        self.parent = array("q")
        self.req = array("q")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.request_id = -1

    def open(self, name_id: int, size: int = 0) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.req.append(self.request_id)
        self.size.append(size)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        pos = POINT_ARGS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            size = int(np.size(args[pos])) if pos is not None and len(args) > pos else 0
            i = tracer.open(nid, size)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if name == "orderstat.consistent_iid":
                tracer.size[i] = int(out.xs.size)  # knots of the consistent i.i.d. law
            return out

        return traced

    def install(self) -> None:
        """Wrap every function in TRACED wherever the package binds it."""
        modules = [m for k, m in sorted(sys.modules.items()) if k == "osauction" or k.startswith("osauction.")]
        for mod, fns in TRACED.items():
            home = sys.modules[f"osauction.{mod}"]
            for fn in fns:
                name = f"{mod}.{fn}"
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    self._undo.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(name, orig))
                    continue
                orig = getattr(home, fn)
                wrapped = self._wrap(name, orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._undo.append((m, attr, orig))
                            setattr(m, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- derived metrics ------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "request": np.frombuffer(self.req, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "size": np.frombuffer(self.size, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self) -> dict[str, float]:
        """Per-function calls, self time and points; per-layer self time; and
        the work ratios named in the benchmark design."""
        a = self.arrays()
        name, parent, size = a["name"], a["parent"], a["size"]
        dur = a["end"] - a["start"]
        child = np.zeros(len(dur))
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        points = np.bincount(name, weights=size, minlength=k)
        ids = {n: self._ids.get(n, -1) for n in (*FUNCTIONS, REQUEST)}

        def at(arr, fn):
            return float(arr[ids[fn]]) if ids[fn] >= 0 else 0.0

        def children(child_fn, parent_fn, weights):
            c, p = ids[child_fn], ids[parent_fn]
            if c < 0 or p < 0:
                return 0.0
            sel = (name == c) & has
            sel[sel] = name[parent[sel]] == p
            return float(weights[sel].sum())

        out: dict[str, float] = {}
        for fn in FUNCTIONS:
            out[f"{fn}.calls"] = at(calls, fn)
            out[f"{fn}.self_s"] = at(self_s, fn)
        for fn in POINTED:
            out[f"{fn}.points"] = at(points, fn)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(out[f"{fn}.self_s"] for fn in FUNCTIONS if fn.startswith(layer + "."))
        out["cli.out_rows"] = at(points, REQUEST)
        out["orderstat.fbar_knots"] = at(points, "orderstat.consistent_iid")
        inverted = at(points, "orderstat.h_inverse")
        ones = np.ones(len(name))
        out["orderstat.h_poly_points_per_inverted_point"] = (
            children("orderstat.h_poly", "orderstat.h_inverse", size) / inverted if inverted else 0.0)
        searches = at(calls, "revenue.optimal_robust_reserve") + at(calls, "revenue.optimal_unknown_n_reserve")
        evals = (children("revenue.closed_form_revenue", "revenue.optimal_robust_reserve", ones)
                 + children("revenue.unknown_n_bound", "revenue.optimal_unknown_n_reserve", ones))
        out["revenue.objective_evals_per_reserve"] = evals / searches if searches else 0.0
        return out
