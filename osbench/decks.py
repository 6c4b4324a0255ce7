"""Request decks for the three workloads, and the check each request must pass.

A deck is one pass over a workload's fixed list of slots. Each slot fixes the
structural sizes of its request (command, mechanism family, n, k, grid); the
workload seed and the pass number choose the free parameters (distribution
literals, reserves, Monte Carlo seeds). Where a slot lists several literals
or distribution families, passes take them in turn. Fixed sizes and families
keep the cost of a deck steady from seed to seed, so runs with different seeds
measure the same work.

Checks, by request kind:

* SPA at k=2 on a uniform, twopoint or table observation: the analytic worst
  case ``r * (1 - u^n) + integral_r (1 - G)``, where ``u`` solves
  ``u^n + n u^(n-1) (1 - u) = G(r-)``, computed here from the literal itself.
  The program discretizes the consistent i.i.d. law, so the tolerance scales
  with ``grid**-2``.
* unknown-n SPA on ``uniform(0, s)``: the paper's reserve 0.519 s and
  guarantee 0.531 s.
* every other ``reserve`` and ``worstcase`` output: the values recorded from
  the seed code in ``reference.json`` (``record.py`` regenerates it). Revenue
  must agree to 1e-9.
* ``invert``: the round-trip residual column, and for exact observations the
  cdf column mapped back through the regularized incomplete beta.
* ``curve``: ironed revenue never below raw revenue, one reserve quantile.
* ``reproduce``: every row passes and matches the paper's reference values.
* Monte Carlo: within 5 standard errors of the exact value, which is the
  paired ``closed_form_revenue`` request for separable mechanisms, and for
  Myerson on a discrete i.i.d. base the enumeration of every profile through
  the per-profile outcome (``revenue.myerson_iid_revenue`` overstates it on
  some ironed bases, so it cannot serve as the reference). A payment of
  probability below about 1/samples may never be drawn, and then the sample
  standard error misses it as well, so ``20 * max_payment / samples`` is
  allowed on top.
* any (config, seed) pair run twice: byte-identical CSV.

A request that raises, or exits with another code than expected, has failed;
one that answers with output failing its check has also given a wrong answer.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import betainc, betaincinv

from osauction import dist, mech, orderstat, revenue

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

REVENUE_TOL = 1e-9  # recorded revenues: the gate for refactors of the separable core
RESERVE_TOL = 1e-6  # a reserve is only defined to the search's bracket width
MC_SIGMAS = 5.0
MC_UNSEEN = 20.0
SPA_TOL_GRID2 = 16.0  # analytic SPA tolerance is this times scale / grid**2
EXACT_FAMILIES = ("uniform", "twopoint", "table")
MYERSON_BASES = 4  # Myerson bases per run, one per pass in turn


@dataclass
class Request:
    """One call into the program: a CLI command, or ``closed_form`` for the
    library's exact revenue on an explicit product."""

    slot: str
    command: str
    config: dict | None = None
    args: tuple = ()
    expect: int = 0
    check: Callable[["Outcome", dict], str | None] | None = None
    sizes: dict = field(default_factory=dict)
    draws: int = 0  # Monte Carlo draws: samples x bidders
    call: Callable[[], float] | None = None  # library requests only

    @property
    def key(self) -> str:
        return json.dumps([self.command, self.config, list(self.args)], sort_keys=True)


@dataclass
class Outcome:
    code: int | None
    out: str
    err: str
    error: str | None  # the traceback, when the call raised
    seconds: float
    value: float | None = None


# -- exact observations ------------------------------------------------------------


class ExactCDF:
    """Piecewise-linear CDF with atoms, built from a uniform, twopoint or table
    literal independently of the program's parser."""

    def __init__(self, lit: dict):
        fam = lit["family"]
        if fam == "uniform":
            xs, fl, fr = [lit["lo"], lit["hi"]], [0.0, 1.0], [0.0, 1.0]
        elif fam == "twopoint":
            xs, fl, fr = [lit["v1"], lit["v2"]], [0.0, lit["p1"]], [lit["p1"], 1.0]
        elif fam == "table":
            knots = sorted(tuple(p) for p in lit.get("knots", []))
            atoms: dict[float, float] = {}
            for v, m in lit.get("atoms", []):
                atoms[float(v)] = atoms.get(float(v), 0.0) + float(m)
            xs = sorted({float(v) for v, _ in knots} | set(atoms))
            kx = [float(v) for v, _ in knots]
            kf = [float(c) for _, c in knots]

            def cont(v):
                return float(np.interp(v, kx, kf, left=0.0, right=kf[-1])) if knots else 0.0

            fl = [cont(x) + sum(m for a, m in atoms.items() if a < x) for x in xs]
            fr = [f + atoms.get(x, 0.0) for f, x in zip(fl, xs)]
            total = fr[-1]
            fl = [f / total for f in fl]
            fr = [f / total for f in fr]
        else:
            raise ValueError(f"no exact CDF for family {fam!r}")
        self.xs = np.asarray(xs, dtype=float)
        self.fl = np.asarray(fl, dtype=float)
        self.fr = np.asarray(fr, dtype=float)

    def _between(self, v: float) -> float:
        i = int(np.searchsorted(self.xs, v, side="right") - 1)
        x0, x1 = self.xs[i], self.xs[i + 1]
        return float(self.fr[i] + (v - x0) / (x1 - x0) * (self.fl[i + 1] - self.fr[i]))

    def cdf(self, v: float) -> float:
        if v < self.xs[0]:
            return 0.0
        if v >= self.xs[-1]:
            return 1.0
        hit = np.nonzero(self.xs == v)[0]
        return float(self.fr[hit[0]]) if hit.size else self._between(v)

    def cdf_left(self, v: float) -> float:
        if v <= self.xs[0]:
            return 0.0
        if v > self.xs[-1]:
            return 1.0
        hit = np.nonzero(self.xs == v)[0]
        return float(self.fl[hit[0]]) if hit.size else self._between(v)

    def tail(self, r: float) -> float:
        """Integral of 1 - F over [r, inf); 1 - F is linear between knots."""
        total = max(self.xs[0] - r, 0.0)
        pts = [max(r, self.xs[0])] + [float(x) for x in self.xs if x > max(r, self.xs[0])]
        for a, b in zip(pts[:-1], pts[1:]):
            total += 0.5 * ((1.0 - self.cdf(a)) + (1.0 - self.cdf_left(b))) * (b - a)
        return total

    @property
    def scale(self) -> float:
        return max(1.0, float(self.xs[-1]))


def spa_worst_case(G: ExactCDF, n: int, r: float) -> float:
    """Worst-case SPA revenue at k=2: the consistent i.i.d. law u solves
    I_u(n-1, 2) = G(r-), and the second-highest value is distributed as G."""
    g = G.cdf_left(r)
    u = 0.0 if g <= 0.0 else 1.0 if g >= 1.0 else float(betaincinv(n - 1, 2, g))
    return r * (1.0 - u**n) + G.tail(r)


def spa_tol(G: ExactCDF, grid: int) -> float:
    return SPA_TOL_GRID2 * G.scale / grid**2


# -- output parsing ------------------------------------------------------------------


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ValueError("empty output")
    return rows[0], rows[1:]


def _one_row(o: Outcome) -> dict:
    header, rows = parse_csv(o.out)
    if len(rows) != 1:
        raise ValueError(f"expected one data row, got {len(rows)}")
    return dict(zip(header, rows[0]))


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


# -- checks ------------------------------------------------------------------------


def load_reference() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


GATED = {"worst_case_revenue": REVENUE_TOL, "expected_revenue": REVENUE_TOL,
         "guarantee": REVENUE_TOL, "reserve": RESERVE_TOL, "z_star": RESERVE_TOL}


def check_recorded(expected: dict):
    def check(o: Outcome, ctx: dict):
        got = _one_row(o)
        if list(got) != expected["header"]:
            return f"header {list(got)} != recorded {expected['header']}"
        for name, want in zip(expected["header"], expected["row"]):
            have = got[name]
            if name in GATED:
                if not _close(float(have), float(want), GATED[name]):
                    return f"{name} {have} != recorded {want}"
            elif have != want:
                return f"{name} {have!r} != recorded {want!r}"
        return None

    return check


def check_spa_reserve(G: ExactCDF, n: int, grid: int):
    """The reported worst case matches the analytic one at the reported
    reserve, and no reserve on a fine scan does better."""
    tol = spa_tol(G, grid)

    def check(o: Outcome, ctx: dict):
        row = _one_row(o)
        r, value = float(row["reserve"]), float(row["worst_case_revenue"])
        ref = spa_worst_case(G, n, r)
        if abs(value - ref) > tol:
            return f"worst case {value} != analytic {ref} (tol {tol:.3g})"
        scan = np.unique(np.concatenate([G.xs, np.linspace(0.0, G.xs[-1], 2001)]))
        best = max(spa_worst_case(G, n, float(x)) for x in scan)
        if ref < best - 3 * tol:
            return f"reserve {r} earns {ref}, a scan finds {best}"
        return None

    return check


def check_spa_worstcase(G: ExactCDF, n: int, r: float, grid: int):
    tol = spa_tol(G, grid)
    ref = spa_worst_case(G, n, r)

    def check(o: Outcome, ctx: dict):
        value = float(_one_row(o)["expected_revenue"])
        if abs(value - ref) > tol:
            return f"worst case {value} != analytic {ref} (tol {tol:.3g})"
        return None

    return check


PAPER_UNIFORM = {"reserve": 0.519, "guarantee": 0.531}
PAPER_TOL = 2e-3


def check_unknown_n_uniform(scale: float):
    def check(o: Outcome, ctx: dict):
        row = _one_row(o)
        for name, ref in PAPER_UNIFORM.items():
            if abs(float(row[name]) - ref * scale) > PAPER_TOL * scale:
                return f"{name} {row[name]} != paper {ref} x {scale}"
        return None

    return check


def check_refused(o: Outcome, ctx: dict):
    return None if o.out == "" else "a refused request wrote output"


def check_invert(n: int, k: int, G: ExactCDF | None):
    def check(o: Outcome, ctx: dict):
        header, rows = parse_csv(o.out)
        if header != ["value", "cdf", "roundtrip_residual"] or len(rows) < 2:
            return f"unexpected invert output: {header}, {len(rows)} rows"
        a = np.array(rows, dtype=float)
        v, f, res = a[:, 0], a[:, 1], a[:, 2]
        if np.any(np.diff(v) < 0) or np.any(np.diff(f) < 0):
            return "value or cdf column decreases"
        if f[0] < 0 or f[-1] > 1:
            return "cdf leaves [0, 1]"
        if res.max() > 1e-9:
            return f"round-trip residual {res.max():.3g}"
        if G is not None:
            back = betainc(n - k + 1, k, f)
            err = np.minimum(abs(back - [G.cdf_left(x) for x in v]), abs(back - [G.cdf(x) for x in v]))
            if err.max() > 1e-9:
                return f"cdf does not map back onto G: {err.max():.3g}"
        return None

    return check


def check_curve(o: Outcome, ctx: dict):
    header, rows = parse_csv(o.out)
    if header != ["quantile", "revenue", "ironed_revenue", "is_reserve_quantile"]:
        return f"unexpected curve header {header}"
    q = np.array([r[0] for r in rows], dtype=float)
    raw = np.array([r[1] for r in rows], dtype=float)
    ironed = np.array([r[2] for r in rows], dtype=float)
    flags = [r[3] for r in rows]
    if q.min() < 0 or q.max() > 1 or np.any(np.diff(q) < 0):
        return "quantiles leave [0, 1] or decrease"
    if np.any(ironed < raw - 1e-9 * max(1.0, raw.max())):
        return "ironed revenue below raw revenue"
    marked = {q[i] for i, f in enumerate(flags) if f == "1"}
    if not set(flags) <= {"0", "1"} or len(marked) != 1:
        return "need one reserve quantile (both sides of a jump share it)"
    return None


# name -> (reference, tolerance); None checks only the row's own verdict
REPRODUCE_REFS = {
    "bernoulli-example": {"bernoulli_guarantee_at_reserve_1": (0.813, 1e-3)},
    "uniform-example": {"uniform_z_star": (0.198, 2e-3), "uniform_reserve": (0.519, 2e-3),
                        "uniform_guarantee": (0.531, 2e-3)},
    "counterexample": {"iid_optimal_revenue": None, "construction_optimal_revenue": None,
                       "second_stat_match": (0.0, 1e-12), "regime_threshold": (0.673, 1e-3),
                       "strict_gap": None},
    "sandwich": {"spa_optimal_lower": (1.104, 1e-9), "iid_optimal_upper": (1.36, 1e-9),
                 "lower_within_half_of_upper": None},
}


def check_reproduce(name: str):
    refs = REPRODUCE_REFS[name]

    def check(o: Outcome, ctx: dict):
        header, rows = parse_csv(o.out)
        if [r[0] for r in rows] != list(refs):
            return f"unexpected checks {[r[0] for r in rows]}"
        for check_name, computed, _, _, status in rows:
            if status != "PASS":
                return f"{check_name} reported {status}"
            ref = refs[check_name]
            if ref is not None and abs(float(computed) - ref[0]) > ref[1]:
                return f"{check_name} {computed} != paper {ref[0]}"
        return None

    return check


def check_exact(pair: str):
    def check(o: Outcome, ctx: dict):
        if o.value is None or not math.isfinite(o.value) or o.value < 0:
            return f"exact revenue {o.value}"
        ctx[pair] = o.value
        return None

    return check


def check_mc(samples: int, seed: int, pay_max: float, pair: str | None = None, exact: float | None = None):
    def check(o: Outcome, ctx: dict):
        row = _one_row(o)
        if int(row["samples"]) != samples or int(row["seed"]) != seed:
            return "samples or seed not echoed"
        ref = ctx.get(pair) if pair is not None else exact
        if ref is None:
            return "no exact value to compare with"
        mean, se = float(row["expected_revenue"]), float(row["mc_stderr"])
        # a payment of probability below about 1/samples may never be drawn, and
        # then the sample stderr misses it too: allow what 20/samples of mass moves
        if abs(mean - ref) > MC_SIGMAS * se + MC_UNSEEN * pay_max / samples:
            return f"MC {mean} +- {se} vs exact {ref}"
        return None

    return check


# -- literal generators ------------------------------------------------------------


def _r(x: float) -> float:
    return round(float(x), 4)


def rand_uniform(rng) -> dict:
    lo = _r(rng.uniform(0.0, 1.0))
    return {"family": "uniform", "lo": lo, "hi": _r(lo + rng.uniform(0.5, 2.0))}


def rand_twopoint(rng) -> dict:
    v1 = _r(rng.uniform(0.5, 1.5))
    return {"family": "twopoint", "v1": v1, "p1": _r(rng.uniform(0.2, 0.8)), "v2": _r(v1 + rng.uniform(0.5, 2.0))}


def rand_table(rng) -> dict:
    """Continuous mass on two segments plus one atom inside the support. The
    masses are fixed so the refined knot count, and the cost, do not vary."""
    x1 = _r(rng.uniform(0.5, 1.5))
    x2 = _r(x1 + rng.uniform(0.5, 1.5))
    return {"family": "table", "knots": [[0.0, 0.0], [x1, _r(rng.uniform(0.3, 0.5))], [x2, 0.8]],
            "atoms": [[_r(0.5 * (x1 + x2)), 0.2]]}


def rand_atom_table(rng, atoms: int) -> dict:
    """A purely atomic base with random masses; many of them need ironing."""
    vs = np.cumsum(rng.uniform(0.5, 1.5, size=atoms))
    ms = rng.uniform(0.5, 1.5, size=atoms)
    ms = ms / ms.sum()
    ms[-1] = 1.0 - ms[:-1].sum()
    return {"family": "table", "atoms": [[_r(v), float(m)] for v, m in zip(vs, ms)]}


def rand_exponential(rng) -> dict:
    return {"family": "exponential", "rate": _r(rng.uniform(0.5, 2.0))}


def rand_beta(rng) -> dict:
    return {"family": "beta", "a": _r(rng.uniform(1.5, 4.0)), "b": _r(rng.uniform(1.5, 4.0))}


def rand_normal(rng) -> dict:
    return {"family": "normal", "mean": _r(rng.uniform(1.0, 2.0)), "sd": _r(rng.uniform(0.2, 0.5))}


CONTINUOUS = [rand_exponential, rand_beta, rand_normal, rand_uniform]


def rand_continuous(rng) -> dict:
    return CONTINUOUS[int(rng.integers(len(CONTINUOUS)))](rng)


EXP = [{"family": "exponential", "rate": r} for r in (0.5, 1.0, 2.0)]
BETA = [{"family": "beta", "a": a, "b": b} for a, b in ((2, 3), (3, 2), (2, 2))]
NORMAL = [{"family": "normal", "mean": m, "sd": s} for m, s in ((1.0, 0.3), (2.0, 0.5), (1.5, 0.4))]
TABLES = [{"family": "table", "knots": [[0, 0], [x, 0.4], [2 * x, 0.8]], "atoms": [[1.5 * x, 0.2]]}
          for x in (1.0, 0.5, 2.0)]


def _pick(rng, options, turn: int):
    """Option ``turn`` (mod their number). Taking them in turn rather than
    drawing them gives a run the same mix of request costs for every seed."""
    opt = options[turn % len(options)]
    return opt(rng) if callable(opt) else opt


# -- workloads: slots ----------------------------------------------------------------
#
# A reserve or worstcase slot is (name, command, fixed config fields, options
# for G). An option is a fixed literal, whose output is recorded in
# reference.json, or a generator of exact literals checked analytically.

DESIGN_SLOTS = [
    # the headline computation at the default grid, one per deck
    ("spa-n2-g4096", "reserve", {"n": 2, "k": 2, "family": "spa", "grid": 4096}, [rand_uniform]),
    ("unknown-uniform-g4096", "reserve", {"n": "unknown", "k": 2, "family": "spa", "grid": 4096}, ["uniform0"]),
    ("unknown-g1024", "reserve", {"n": "unknown", "k": 2, "family": "spa", "grid": 1024}, [EXP[1], BETA[0], NORMAL[0]]),
    ("pp-n6-g1024", "reserve", {"n": 6, "k": 1, "family": "posted_price", "grid": 1024}, [EXP[0], BETA[1], NORMAL[1]]),
    ("multi2-n6-g256", "reserve", {"n": 6, "k": 3, "family": {"type": "multi_unit", "units": 2}, "grid": 256},
     [EXP[1], NORMAL[1], BETA[2]]),
    ("ladder2-n5-g256", "reserve", {"n": 5, "k": 3, "family": {"type": "laddered", "click_rates": [1, 0.5]}, "grid": 256},
     [BETA[2], EXP[2], NORMAL[2]]),
    ("spa-n8-table-g256", "reserve", {"n": 8, "k": 2, "family": "spa", "grid": 256}, [rand_table]),
    ("spa-n4-g1024", "reserve", {"n": 4, "k": 2, "family": "spa", "grid": 1024}, [rand_uniform]),
    ("spa-n3-twopoint-g4096", "reserve", {"n": 3, "k": 2, "family": "spa", "grid": 4096}, [rand_twopoint]),
    ("spa-n5-k3-g256", "reserve", {"n": 5, "k": 3, "family": "spa", "grid": 256}, [EXP[1], NORMAL[2], BETA[0]]),
    ("multi1-n7-table-g256", "reserve", {"n": 7, "k": 2, "family": {"type": "multi_unit", "units": 1}, "grid": 256},
     TABLES),
    ("pp-n3-table-g256", "reserve", {"n": 3, "k": 2, "family": "posted_price", "grid": 256}, TABLES),
    ("ladder3-n8-g256", "reserve",
     {"n": 8, "k": 4, "family": {"type": "laddered", "click_rates": [1, 0.6, 0.3]}, "grid": 256},
     [EXP[1], BETA[0], NORMAL[0]]),
    ("repeat", "spa-n3-twopoint-g4096"),
]

EVALUATE_SLOTS = [
    # large n sets the working set; reserves sit on knots of the refined grid
    ("wc-spa-n100-g4096", "spa-knot", {"n": 100, "k": 2, "grid": 4096}, [rand_uniform]),
    ("wc-spa-n2000-g4096", "spa-knot", {"n": 2000, "k": 2, "grid": 4096}, [rand_uniform]),
    ("wc-spa-n30-g4096", "spa-knot", {"n": 30, "k": 2, "grid": 4096}, [rand_uniform]),
    ("wc-spa-n10-table-g4096", "spa-knot", {"n": 10, "k": 2, "grid": 4096}, [rand_table]),
    ("wc-spa-n2-twopoint", "spa-knot", {"n": 2, "k": 2, "grid": 4096}, [rand_twopoint]),
    ("wc-spa-n20-g4096", "spa-knot", {"n": 20, "k": 2, "grid": 4096}, [rand_uniform]),
    ("wc-spa-n15-table-g4096", "spa-knot", {"n": 15, "k": 2, "grid": 4096}, [rand_table]),
    ("wc-multi2-n50-g4096", "worstcase",
     {"n": 50, "k": 3, "grid": 4096, "mechanism": {"type": "multi_unit", "units": 2, "reserve": 0.5}},
     [EXP[1], BETA[0], NORMAL[0]]),
    ("wc-ladder2-n20-g4096", "worstcase",
     {"n": 20, "k": 3, "grid": 4096, "mechanism": {"type": "laddered", "click_rates": [1, 0.5], "reserve": 0.4}},
     [EXP[2], BETA[1], NORMAL[2]]),
    ("wc-ladder3-n25-g4096", "worstcase",
     {"n": 25, "k": 4, "grid": 4096, "mechanism": {"type": "laddered", "click_rates": [1, 0.6, 0.3], "reserve": 0.3}},
     [EXP[0], BETA[2], NORMAL[1]]),
    ("wc-multi2-n12-table", "worstcase",
     {"n": 12, "k": 3, "grid": 4096, "mechanism": {"type": "multi_unit", "units": 2, "reserve": 0.7}}, TABLES),
    ("wc-pp-n5-g4096", "worstcase",
     {"n": 5, "k": 1, "grid": 4096, "mechanism": {"type": "posted_price", "price": 0.6}}, [EXP[0], NORMAL[2], BETA[2]]),
    ("wc-multi3-n8-g1024", "worstcase",
     {"n": 8, "k": 4, "grid": 1024, "mechanism": {"type": "multi_unit", "units": 3, "reserve": 0.3}},
     [BETA[2], NORMAL[1], EXP[1]]),
    ("wc-myerson", "worstcase", {"n": 4, "k": 3, "grid": 1024, "mechanism": {"type": "myerson"}}, [EXP[1], BETA[0]]),
    ("wc-myerson-base", "worstcase",
     {"n": 3, "k": 2, "grid": 1024, "mechanism": {"type": "myerson", "base": TABLES[0]}}, [NORMAL[0], TABLES[1]]),
    ("invert-uniform", "invert", {"n": 3, "k": 2}, [rand_uniform]),
    ("invert-n6-k3", "invert", {"n": 6, "k": 3, "grid": 1024}, CONTINUOUS),
    ("curve-uniform", "curve", {"n": 4, "k": 2}, [rand_uniform]),
    ("curve-twopoint", "curve", {"n": 5, "k": 3}, [rand_twopoint]),
    ("curve-cont-g1024", "curve", {"n": 3, "k": 2, "grid": 1024}, CONTINUOUS),
    ("curve-cont-n6-k3", "curve", {"n": 6, "k": 3}, CONTINUOUS),
    ("curve-table", "curve", {"n": 5, "k": 2}, [rand_table]),
    ("invert-table", "invert", {"n": 4, "k": 3}, [rand_table]),
    ("reproduce-bernoulli", "reproduce", {}, ["bernoulli-example"]),
    ("reproduce-uniform", "reproduce", {}, ["uniform-example"]),
    ("reproduce-counterexample", "reproduce", {}, ["counterexample"]),
    ("reproduce-sandwich", "reproduce", {}, ["sandwich"]),
    ("repeat", "curve-twopoint"),
]

# (name, mechanism kind, bidders, grid, Monte Carlo samples)
SIMULATE_SLOTS = [
    ("sim-spa-n2", "spa", 2, 1024, 200_000),
    ("sim-pp-n3", "posted_price", 3, 1024, 200_000),
    ("sim-multi2-n5", "multi_unit", 5, 256, 100_000),
    ("sim-ladder2-n4", "laddered", 4, 256, 100_000),
    ("sim-spa-n12", "spa", 12, 256, 50_000),
    ("sim-multi3-n8", "multi_unit", 8, 256, 50_000),
    ("sim-ladder3-n6", "laddered", 6, 256, 50_000),
    ("sim-myerson-lex-n4", "myerson-lexicographic", 4, 0, 200_000),
    ("sim-myerson-uni-n6", "myerson-uniform", 6, 0, 50_000),
    ("sim-myerson-uni-n10", "myerson-uniform", 10, 0, 500),
    ("sim-myerson-lex-n8", "myerson-lexicographic", 8, 0, 100_000),
    ("repeat", "sim-pp-n3"),
]

SLOTS = {"design": DESIGN_SLOTS, "evaluate": EVALUATE_SLOTS, "simulate": SIMULATE_SLOTS}


# -- deck building -------------------------------------------------------------------


def mechanism(spec: dict):
    """A separable mechanism object from its config literal."""
    t, r = spec["type"], spec.get("reserve", 0.0)
    if t == "spa":
        return mech.SPAReserve(r)
    if t == "posted_price":
        return mech.PostedPrice(spec["price"])
    if t == "multi_unit":
        return mech.MultiUnit(spec["units"], r)
    return mech.Laddered(tuple(spec["click_rates"]), r)


def myerson_exact(base_lit: dict, n: int) -> float:
    """Exact revenue of the symmetric Myerson auction on n i.i.d. bidders
    from a discrete base: every profile through the per-profile outcome.
    Bidders are exchangeable, so every fixed priority order, and hence their
    uniform mixture, earns the lexicographic order's revenue."""
    base = dist.from_literal(base_lit)
    total = 0.0
    for combo in itertools.product(base.atoms, repeat=n):
        prof = mech.Profile(tuple(v for v, _ in combo))
        total += math.prod(m for _, m in combo) * mech.myerson_outcome(base, "lexicographic", prof).total_payment
    return total


def check_kind(command: str, cfg: dict) -> str:
    """How a reserve or worstcase output is checked."""
    G, n = cfg["G"], cfg["n"]
    exact = G["family"] in EXACT_FAMILIES
    if command == "reserve":
        if n == "unknown" and G["family"] == "uniform" and G["lo"] == 0:
            return "paper"
        if cfg["family"] == "spa" and cfg["k"] == 2 and n != "unknown" and exact:
            return "analytic"
    elif cfg["mechanism"]["type"] == "myerson":
        return "refused"
    elif cfg["mechanism"]["type"] == "spa" and cfg["k"] == 2 and exact:
        return "analytic"
    return "recorded"


class DeckBuilder:
    """Turns slots into requests. Library calls made here (knot counts for the
    provenance, Myerson references) run before any request is timed."""

    def __init__(self, reference: dict | None = None):
        self.reference = load_reference() if reference is None else reference
        self._myerson: dict[str, float] = {}

    def _knots(self, lit: dict, grid: int) -> int:
        return int(dist.from_literal(lit, grid=grid).xs.size)

    def reserve_or_worstcase(self, name, command, fixed, G) -> Request:
        cfg = {**fixed, "G": G}
        n, k, grid = cfg["n"], cfg["k"], cfg.get("grid", 4096)
        sizes = {"n": n, "k": k, "grid": grid, "knots": self._knots(G, grid)}
        kind = check_kind(command, cfg)
        expect = 0
        if kind == "paper":
            check = check_unknown_n_uniform(G["hi"])
        elif kind == "analytic":
            check = check_spa_reserve(ExactCDF(G), n, grid)
        elif kind == "refused":
            check, expect = check_refused, 3
        else:
            key = Request("", command, cfg).key
            if key not in self.reference:
                raise KeyError(f"no recorded output for {key}; run osbench/record.py")
            check = check_recorded(self.reference[key])
        return Request(name, command, cfg, expect=expect, check=check, sizes=sizes)

    def spa_knot(self, name, fixed, G, rng) -> Request:
        """Worst case of SPA with the reserve on a knot of the refined grid, so
        G(r-) is inverted exactly and only the tail carries grid error."""
        grid = fixed["grid"]
        Gx = ExactCDF(G)
        if G["family"] == "uniform":
            lo, hi = G["lo"], G["hi"]
            r = lo + (int(rng.integers(grid // 8, grid - grid // 8)) / grid) * (hi - lo)
        else:
            r = float(Gx.xs[int(rng.integers(len(Gx.xs)))])
        cfg = {**fixed, "G": G, "mechanism": {"type": "spa", "reserve": r}}
        sizes = {"n": fixed["n"], "k": 2, "grid": grid, "knots": self._knots(G, grid)}
        return Request(name, "worstcase", cfg, check=check_spa_worstcase(Gx, fixed["n"], r, grid), sizes=sizes)

    def design_or_evaluate(self, name, command, fixed, options, rng, turn) -> Request:
        if command == "reproduce":
            which = options[0]
            args = (which, "--q", str([0.7, 0.75, 0.8][int(rng.integers(3))])) if which == "counterexample" else (which,)
            return Request(name, "reproduce", None, args=args, check=check_reproduce(which))
        if options == ["uniform0"]:
            G = {"family": "uniform", "lo": 0, "hi": _r(rng.uniform(0.5, 3.0))}
        else:
            G = _pick(rng, options, turn)
        if command == "spa-knot":
            return self.spa_knot(name, fixed, G, rng)
        if command in ("invert", "curve"):
            cfg = {**fixed, "G": G}
            grid = cfg.get("grid", 4096)
            sizes = {"n": cfg["n"], "k": cfg["k"], "grid": grid, "knots": self._knots(G, grid)}
            if command == "invert":
                exact = ExactCDF(G) if G["family"] in EXACT_FAMILIES else None
                check = check_invert(cfg["n"], cfg["k"], exact)
            else:
                check = check_curve
            return Request(name, command, cfg, check=check, sizes=sizes)
        return self.reserve_or_worstcase(name, command, fixed, G)

    def simulate(self, name, kind, n, grid, samples, rng, run_rng, pass_no) -> list[Request]:
        mc_seed = int(rng.integers(1, 2**31))
        mc_args = ("--seed", str(mc_seed), "--samples", str(samples))
        if kind.startswith("myerson"):
            # a run draws MYERSON_BASES bases (the exact revenue of each enumerates
            # atoms**n profiles) and cycles through them, so the cost of one base's
            # ironing does not set the whole run; each pass draws a new Monte Carlo seed
            atoms = min(4, max(2, int(1024 ** (1 / n))))
            bases = [rand_atom_table(run_rng, atoms) for _ in range(MYERSON_BASES)]
            base = bases[pass_no % MYERSON_BASES]
            cfg = {"product": [base] * n,
                   "mechanism": {"type": "myerson", "base": base, "tiebreak": kind.split("-")[1]}}
            key = json.dumps([base, n])
            if key not in self._myerson:
                self._myerson[key] = myerson_exact(base, n)
            exact = self._myerson[key]
            sizes = {"n": n, "samples": samples, "knots": len(base["atoms"]) * n}
            pay_max = max(v for v, _ in base["atoms"])
            return [Request(name, "simulate", cfg, args=mc_args, check=check_mc(samples, mc_seed, pay_max, exact=exact),
                            sizes=sizes, draws=samples * n)]
        # heterogeneous product: atoms mixed with continuous families
        product = []
        for _ in range(n):
            pick = int(rng.integers(4))
            if pick == 0:
                product.append({"family": "atom", "v": _r(rng.uniform(0.2, 1.5))})
            elif pick == 1:
                product.append(rand_twopoint(rng))
            else:
                product.append(rand_continuous(rng))
        r = _r(rng.uniform(0.2, 1.0))
        if kind == "spa":
            spec = {"type": "spa", "reserve": r}
        elif kind == "posted_price":
            spec = {"type": "posted_price", "price": r}
        elif kind == "multi_unit":
            spec = {"type": "multi_unit", "units": 2 if n < 8 else 3, "reserve": r}
        else:
            spec = {"type": "laddered", "click_rates": [1, 0.5] if n < 6 else [1, 0.6, 0.3], "reserve": r}
        cfg = {"product": product, "mechanism": spec, "grid": grid}
        comps = [dist.from_literal(lit, grid=grid) for lit in product]
        sizes = {"n": n, "grid": grid, "knots": sum(c.xs.size for c in comps), "samples": samples}
        # most one sample can pay: every unit (or click) at the top value
        pay_max = max(c.support_hi for c in comps) * sum(spec.get("click_rates", [spec.get("units", 1)]))
        pair = f"{name}:{mc_seed}"

        def call():
            comps = tuple(dist.from_literal(lit, grid=grid) for lit in product)
            return revenue.closed_form_revenue(mechanism(spec), orderstat.ProductDist(comps))

        exact_req = Request(name + ":exact", "closed_form", cfg, check=check_exact(pair),
                            sizes={**sizes, "samples": 0}, call=call)
        mc_req = Request(name, "simulate", cfg, args=mc_args, check=check_mc(samples, mc_seed, pay_max, pair=pair),
                         sizes=sizes, draws=samples * n)
        return [exact_req, mc_req]

    def deck(self, workload: str, seed: int, pass_no: int, slots=None) -> list[Request]:
        """The requests of one pass, a pure function of (workload, seed, pass)."""
        out: list[Request] = []
        for i, slot in enumerate(SLOTS[workload] if slots is None else slots):
            if slot[0] == "repeat":
                # the same (config, seed) pair again: its CSV must be byte-identical
                prev = [r for r in out if r.slot == slot[1] and r.command != "closed_form"]
                if prev:
                    out.append(replace(prev[-1], slot=slot[1] + ":repeat"))
                continue
            rng = np.random.default_rng([seed, pass_no, i])
            if workload == "simulate":
                out.extend(self.simulate(*slot, rng, np.random.default_rng([seed, i]), pass_no))
            else:
                out.append(self.design_or_evaluate(*slot, rng, pass_no + i))
        return out


def recorded_configs() -> list[tuple[str, dict]]:
    """Every fixed (command, config) whose output reference.json must hold."""
    out = []
    for slots in (DESIGN_SLOTS, EVALUATE_SLOTS):
        for slot in slots:
            if slot[0] == "repeat" or slot[1] not in ("reserve", "worstcase"):
                continue
            name, command, fixed, options = slot
            for G in options:
                if isinstance(G, dict) and check_kind(command, {**fixed, "G": G}) == "recorded":
                    out.append((command, {**fixed, "G": G}))
    return out
