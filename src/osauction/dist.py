"""Value distributions as atoms plus piecewise-linear CDF segments.

The representation is exact: between knots the CDF is linear and atoms are
jumps. One segment table per distribution, memoized on the instance, holds
the segment entering each knot; both CDF sides, the quantile, the revenue
curve, the monopoly price and the virtual values read it in closed form.
Continuous families are discretized onto quantile- and value-spaced knots.

Ironing reads one envelope per distribution, built once and memoized on the
(immutable) instance: the upper concave hull of the revenue curve's knot
points. The revenue curve, the regularity verdict and the ironed virtual
values all come from it, and every atom and ironed segment on one hull edge
takes that edge's slope. Between its knots a continuous segment's revenue
curve is a concave arc above its chord; the envelope of those arcs, which
can iron an atom with the segment above it where the knot hull does not, is
not computed; ``optimal_revenue_bound`` bounds it by hulling in each arc's apex.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

MASS_TOL = 1e-12

# knots a continuous family is discretized onto, and G's CDF mass is
# subdivided into when it is inverted
DEFAULT_GRID = 4096
_MIN_GRID, _MAX_GRID = 16, 2**20


def check_grid(grid: int) -> None:
    """Refuse a grid that is not an integer (a bool is not one), or lies
    outside [16, 2**20], which would collapse a discretization to a few knots
    or exhaust memory."""
    if isinstance(grid, bool) or not isinstance(grid, numbers.Integral):
        raise ValueError(f"grid must be an integer, got {grid!r}")
    if not _MIN_GRID <= grid <= _MAX_GRID:
        raise ValueError(f"grid must lie between {_MIN_GRID} and {_MAX_GRID}, got {grid}")


def _as_readonly(a) -> np.ndarray:
    arr = np.ascontiguousarray(a, dtype=np.float64)
    arr.setflags(write=False)
    return arr


# below this many queries a binary search each costs less than building and
# reading a guide table
_GUIDED_MIN = 2048
# keys a guided search steps past in a query's bucket before it confirms
_STEPS = 2


class _Search:
    """``search(x, side)`` is ``np.searchsorted(keys, x, side)``, index for
    index on every float input, for sorted ``keys`` without NaN.

    A query of fewer than ``_GUIDED_MIN`` entries is searched as it is.
    Against at most 4 keys a larger one counts, per entry, the keys at or
    above it ("left") or above it ("right"); against more keys it reads a
    guide table (Chen & Asau, 1974). Its M buckets, M the power of two in
    (len(keys), 2 len(keys)], split the span of the finite keys, and each
    holds the number of keys in the buckets below it: since the bucket map is
    monotone, that never exceeds the answer of a query in the bucket. The
    guess steps past up to ``_STEPS`` keys of the bucket, and two comparisons
    against ``[-inf, keys, inf, ...]`` confirm that it is the answer; only
    entries left unconfirmed (a crowded bucket, NaN, an infinity) are
    searched. So exactness rests on the confirmation alone. Both are built
    on the first query that reads them: the int32 guide takes no more bytes
    than the keys, and the padded copy as many, so a built table holds about
    twice its keys' bytes.
    """

    def __init__(self, keys: np.ndarray):
        self.keys = keys

    @cached_property
    def _table(self):
        keys, n = self.keys, len(self.keys)
        finite = keys[np.isfinite(keys)]
        m = 1 << n.bit_length()
        lo, span = (finite[0], finite[-1] - finite[0]) if len(finite) else (0.0, 0.0)
        with np.errstate(divide="ignore", over="ignore"):
            scale = m / span if span > 0 else 0.0
        scale = scale if math.isfinite(scale) else 0.0
        padded = np.concatenate([[-np.inf], keys, np.full(_STEPS + 1, np.inf)])
        bucket = (lo, scale, m)
        counts = np.bincount(_bucket(finite, *bucket), minlength=m)
        guide = np.count_nonzero(keys == -np.inf) + np.cumsum(counts) - counts
        return bucket, guide.astype(np.int32), padded[:-1], padded[1:]

    def __call__(self, x: np.ndarray, side: str):
        n = len(self.keys)
        if x.size < _GUIDED_MIN:
            return np.searchsorted(self.keys, x, side)
        if n <= 4:
            # the keys at or above x ("left") or above it, counted in bytes
            count = np.zeros(x.shape, dtype=np.int8)
            for k in self.keys.tolist():
                count += (x <= k) if side == "left" else (x < k)
            return np.subtract(n, count, dtype=np.intp)
        bucket, guide, below, above = self._table
        j = guide[_bucket(x, *bucket)].astype(np.intp)
        for _ in range(_STEPS):
            j += (above[j] < x) if side == "left" else (above[j] <= x)
        if side == "left":
            bad = ~((below[j] < x) & (x <= above[j]))
        else:
            bad = ~((below[j] <= x) & (x < above[j]))
        if bad.any():
            j[bad] = np.searchsorted(self.keys, x[bad], side)
        return j


def _bucket(x: np.ndarray, lo: float, scale: float, m: int) -> np.ndarray:
    """Guide bucket of every entry of ``x``; NaN and values far outside the
    span land in an arbitrary bucket, whose guess the search then rejects."""
    with np.errstate(invalid="ignore", over="ignore"):
        t = x - lo
        t *= scale
        b = t.astype(np.intp)
    return np.clip(b, 0, m - 1, out=b)


# on the segment entering a knot the CDF is lower + (v - left) / width * rise
Segments = namedtuple("Segments", "left width lower rise")


@dataclass(frozen=True)
class Dist:
    """One-dimensional value distribution: mixed atoms + piecewise-linear CDF.

    ``xs`` holds strictly increasing knot values. ``f_left[i]`` is the CDF
    just below ``xs[i]`` and ``f_right[i]`` the (right-continuous) CDF at
    ``xs[i]``; an atom at ``xs[i]`` has mass ``f_right[i] - f_left[i]`` and
    the CDF rises linearly from ``f_right[i]`` to ``f_left[i+1]`` in between.
    Instances are immutable; all operations are pure.
    """

    xs: np.ndarray
    f_left: np.ndarray
    f_right: np.ndarray
    label: str = "table"

    def __post_init__(self):
        xs = _as_readonly(self.xs)
        fl = _as_readonly(self.f_left)
        fr = _as_readonly(self.f_right)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "f_left", fl)
        object.__setattr__(self, "f_right", fr)
        if not (len(xs) == len(fl) == len(fr)) or len(xs) == 0:
            raise ValueError("knot arrays must be non-empty and equally long")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("knot values must be strictly increasing")
        if xs[0] < 0:
            raise ValueError("negative support is not allowed for value distributions")
        if abs(fl[0]) > MASS_TOL or abs(fr[-1] - 1.0) > MASS_TOL:
            raise ValueError("CDF must start at 0 and end at 1")
        if np.any(fr - fl < -MASS_TOL):
            raise ValueError("atom masses must be non-negative")
        if np.any(self.segments.rise < -MASS_TOL):
            raise ValueError("CDF must be non-decreasing between knots")

    # -- basic structure ---------------------------------------------------

    @property
    def support_lo(self) -> float:
        return float(self.xs[0])

    @property
    def support_hi(self) -> float:
        return float(self.xs[-1])

    @property
    def atoms(self) -> list[tuple[float, float]]:
        """(value, mass) pairs of all jump points."""
        mass = self.f_right - self.f_left
        idx = np.nonzero(mass > MASS_TOL)[0]
        return [(float(self.xs[i]), float(mass[i])) for i in idx]

    @property
    def is_discrete(self) -> bool:
        """True when all mass sits in atoms."""
        return bool(np.all(self.segments.rise <= MASS_TOL))

    @cached_property
    def segments(self) -> Segments:
        """Per knot j, the linear CDF segment entering it, read-only; so that
        ``lower + rise == f_left`` everywhere, knot 0 gets width 1 and rise 0."""
        left, lower = np.append(self.xs[0], self.xs[:-1]), np.append(self.f_left[0], self.f_right[:-1])
        width, rise = self.xs - left, self.f_left - lower
        width[0] = 1.0
        return Segments(*map(_as_readonly, (left, width, lower, rise)))

    @cached_property
    def _quantile_search(self) -> _Search:
        """The first knot whose right CDF reaches q; the last one takes every q above."""
        return _Search(self.f_right[:-1])

    # -- CDF / survival / quantile ----------------------------------------

    def _cdf(self, v, side: str):
        """F(v) on the right side, F(v-) on the left (f_left exactly at a knot)."""
        v = np.asarray(v, dtype=np.float64)
        flat = v.reshape(-1)
        left, width, lower, rise = self.segments
        j = np.searchsorted(self.xs, flat, side=side)
        s = np.minimum(j, len(self.xs) - 1)
        with np.errstate(over="ignore", invalid="ignore"):  # v far past the support
            out = lower[s] + (flat - left[s]) / width[s] * rise[s]
        if side == "left":
            np.copyto(out, self.f_left[s], where=self.xs[s] == flat)
        np.copyto(out, 0.0, where=flat < self.xs[0])
        np.copyto(out, 1.0, where=j == len(self.xs))
        return out.reshape(v.shape) if v.ndim else float(out[0])

    def cdf(self, v):
        """Right-continuous CDF, clamped to {0, 1} outside the support."""
        return self._cdf(v, "right")

    def cdf_left(self, v):
        """Left limit F(v-) = Pr(value < v)."""
        return self._cdf(v, "left")

    def survival(self, v):
        """Pr(value > v)."""
        return 1.0 - self.cdf(v)

    def survival_left(self, v):
        """Pr(value >= v)."""
        return 1.0 - self.cdf_left(v)

    def quantile(self, q):
        """Generalized inverse inf{v : F(v) >= q}; q must lie in [0, 1]."""
        q_arr = np.asarray(q, dtype=np.float64)
        if q_arr.size and (q_arr.min() < 0.0 or q_arr.max() > 1.0):
            raise ValueError("quantile argument must lie in [0, 1]")
        flat = q_arr.reshape(-1)
        j, reach = self._locate(flat)
        out = self.xs[j]
        if reach is not None and reach.any():
            np.copyto(out, self._along_segment(flat, j), where=reach)
        return out.reshape(q_arr.shape) if q_arr.ndim else float(out[0])

    def _locate(self, q: np.ndarray):
        """``(j, reach)`` for quantiles ``q`` in [0, 1]: the quantile of q is
        ``xs[j]``, except where ``reach`` holds, the entries the rising segment
        entering knot j attains first (``reach`` is None when no segment
        rises). That is where f_left[j] >= q > lower[j]; the search puts every
        q above f_right[j - 1], which is lower[j], so for j > 0 the second
        condition always holds, and for j = 0 the two never do."""
        j = self._quantile_search(q, "left")
        if not self._rises:
            return j, None
        return j, (self.f_left[j] >= q) & (j > 0)

    @cached_property
    def _rises(self) -> bool:
        return bool(np.any(self.segments.rise > 0))

    def _along_segment(self, q: np.ndarray, j: np.ndarray) -> np.ndarray:
        """The value at which the segment entering knot j reaches quantile q."""
        left, width, lower, rise = self.segments
        with np.errstate(divide="ignore", invalid="ignore"):  # unreached flat segments
            return left[j] + (q - lower[j]) / rise[j] * width[j]

    def describe(self) -> str:
        return self.label


def dist_from_arrays(xs, f_left, f_right, label="table") -> Dist:
    """Build a Dist from raw arrays, clamping rounding noise and trimming
    zero-measure leading/trailing knots."""
    xs = np.asarray(xs, dtype=np.float64)
    fl = np.clip(np.asarray(f_left, dtype=np.float64), 0.0, 1.0)
    fr = np.clip(np.asarray(f_right, dtype=np.float64), 0.0, 1.0)
    fr = np.maximum(fr, fl)
    if len(xs) > 1:
        fl[1:] = np.maximum(fl[1:], fr[:-1])
    fl[0] = 0.0
    fr[-1] = 1.0
    # trim knots that carry no mass at the extremes of the support
    lo = 0
    while lo + 1 < len(xs) and fr[lo] <= MASS_TOL and fl[lo + 1] <= MASS_TOL:
        lo += 1
    hi = len(xs) - 1
    while hi - 1 >= lo and fl[hi] >= 1.0 - MASS_TOL and fr[hi - 1] >= 1.0 - MASS_TOL:
        hi -= 1
    xs, fl, fr = xs[lo : hi + 1].copy(), fl[lo : hi + 1].copy(), fr[lo : hi + 1].copy()
    fl[0] = 0.0
    fr[-1] = 1.0
    return Dist(xs, fl, fr, label=label)


# -- constructors ----------------------------------------------------------


def point_mass(v: float) -> Dist:
    """Degenerate distribution putting all mass at v."""
    return Dist(np.array([v]), np.array([0.0]), np.array([1.0]), label=f"atom({v:g})")


def uniform(lo: float, hi: float) -> Dist:
    if hi <= lo:
        raise ValueError("uniform needs lo < hi")
    return Dist(
        np.array([lo, hi]),
        np.array([0.0, 1.0]),
        np.array([0.0, 1.0]),
        label=f"uniform({lo:g},{hi:g})",
    )


def two_point(v1: float, p1: float, v2: float) -> Dist:
    """Two atoms: v1 with probability p1, v2 with the rest."""
    if not (0.0 < p1 < 1.0) or v2 <= v1:
        raise ValueError("two_point needs v1 < v2 and p1 in (0, 1)")
    return Dist(
        np.array([v1, v2]),
        np.array([0.0, p1]),
        np.array([p1, 1.0]),
        label=f"twopoint({v1:g},{p1:g},{v2:g})",
    )


def from_table(knots: Sequence[tuple[float, float]], atoms: Sequence[tuple[float, float]] = ()) -> Dist:
    """Mixed distribution from continuous CDF knots plus a list of atoms.

    ``knots`` give the cumulative mass of the continuous part, non-decreasing
    from 0 at the lowest knot, at distinct values; a jump in the CDF is an
    atom, whose mass is added at its location.
    """
    knots = sorted(knots)
    kx = np.array([float(v) for v, _ in knots])
    kf = np.array([float(f) for _, f in knots])
    if np.any(np.diff(kx) == 0.0):
        raise ValueError("table knot values must be distinct; a jump in the CDF belongs under 'atoms'")
    if np.any(kf < 0.0) or np.any(np.diff(kf) < 0.0):
        raise ValueError("table knot CDF values must be non-negative and non-decreasing")
    if knots and kf[0] > 0.0:
        raise ValueError("the lowest table knot must have CDF 0; a jump in the CDF belongs under 'atoms'")
    pts = dict.fromkeys(kx.tolist(), 0.0)
    for v, m in atoms:
        if m <= 0:
            raise ValueError("atom masses must be positive")
        pts[float(v)] = pts.get(float(v), 0.0) + float(m)
    if not pts:
        raise ValueError("a table needs knots or atoms")
    xs = np.array(sorted(pts))
    mass = np.array([pts[x] for x in xs])
    cont = np.interp(xs, kx, kf, left=0.0, right=kf[-1]) if knots else np.zeros(len(xs))
    fl = cont + np.concatenate([[0.0], np.cumsum(mass)[:-1]])
    fr = fl + mass
    total = fr[-1]
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"total mass {total} is not 1")
    return dist_from_arrays(xs, fl / total, fr / total)


_FAMILY_TAIL = 1e-8


def _from_family(cdf, ppf, grid: int, label: str, floor: float | None = None, tail: float = _FAMILY_TAIL) -> Dist:
    """Discretize a continuous family, truncating where the tail mass drops
    below ``tail``.

    Knots are the union of a quantile-spaced grid (resolution where the mass
    is) and a value-spaced grid (so no segment spans a wide value range,
    which would bloat the revenue curve near the top of the support); every
    knot carries the exact family CDF, renormalized over the kept window."""
    check_grid(grid)
    half = grid // 2
    qs = np.linspace(tail, 1.0 - tail, half + 1)
    xs_q = np.asarray(ppf(qs), dtype=np.float64)
    lo, hi = float(xs_q[0]), float(xs_q[-1])
    if floor is not None:
        lo = max(lo, floor)
        xs_q = np.maximum(xs_q, floor)
    xs = np.unique(np.concatenate([xs_q, np.linspace(lo, hi, half + 1)]))
    c = np.asarray(cdf(xs), dtype=np.float64)
    if not (hi > lo and c[-1] > c[0]):  # fewer than two knots, or no mass between them
        raise ValueError(f"{label} has no spread to discretize: its kept window is [{lo:g}, {hi:g}]")
    f = (c - c[0]) / (c[-1] - c[0])  # condition on the kept window
    f = np.maximum.accumulate(np.clip(f, 0.0, 1.0))
    f[-1] = 1.0
    return dist_from_arrays(xs, f, f, label=label)


def exponential(rate: float, grid: int = DEFAULT_GRID, tail: float = _FAMILY_TAIL) -> Dist:
    if rate <= 0:
        raise ValueError("rate must be positive")
    return _from_family(
        lambda v: -np.expm1(-rate * v),
        lambda q: -np.log1p(-q) / rate,
        grid,
        label=f"exponential({rate:g})",
        tail=tail,
    )


def beta_dist(a: float, b: float, grid: int = DEFAULT_GRID, tail: float = _FAMILY_TAIL) -> Dist:
    if a <= 0 or b <= 0:
        raise ValueError("beta shape parameters must be positive")
    from scipy.special import betainc, betaincinv

    return _from_family(
        lambda v: betainc(a, b, v),
        lambda q: betaincinv(a, b, q),
        grid,
        label=f"beta({a:g},{b:g})",
        tail=tail,
    )


def normal(mean: float, sd: float, grid: int = DEFAULT_GRID, tail: float = _FAMILY_TAIL) -> Dist:
    """Normal with tails truncated at mass ``tail``, floored at 0 for auction use."""
    if sd <= 0:
        raise ValueError("sd must be positive")
    from scipy.special import ndtr, ndtri

    return _from_family(
        lambda v: ndtr((v - mean) / sd),
        lambda q: ndtri(q) * sd + mean,
        grid,
        label=f"normal({mean:g},{sd:g})",
        floor=0.0,
        tail=tail,
    )


def from_literal(spec, grid: int = DEFAULT_GRID) -> Dist:
    """Parse the distribution literal format used in config files.

    Parameters must be finite numbers (not bools or strings), a table's
    ``knots`` and ``atoms`` lists of number pairs, and ``grid`` between 16 and
    2**20; anything else raises ValueError rather than yielding a degenerate
    distribution.
    """
    if isinstance(spec, Dist):
        return spec
    if not isinstance(spec, dict) or "family" not in spec:
        raise ValueError(f"distribution literal must be a dict with a 'family' key, got {spec!r}")
    check_grid(grid)
    fam = spec["family"]

    def num(name: str) -> float:
        if name not in spec:
            raise ValueError(f"distribution literal {fam!r} is missing parameter {name!r}")
        return _finite(spec[name], f"{fam} parameter {name!r}")

    if fam == "uniform":
        return uniform(num("lo"), num("hi"))
    if fam == "exponential":
        return exponential(num("rate"), grid=grid)
    if fam == "beta":
        return beta_dist(num("a"), num("b"), grid=grid)
    if fam == "normal":
        return normal(num("mean"), num("sd"), grid=grid)
    if fam == "twopoint":
        return two_point(num("v1"), num("p1"), num("v2"))
    if fam == "atom":
        return point_mass(num("v"))
    if fam == "table":

        def pairs(key: str) -> list[tuple[float, float]]:
            rows = spec.get(key, [])
            if not isinstance(rows, (list, tuple)) or any(not isinstance(p, (list, tuple)) or len(p) != 2 for p in rows):
                raise ValueError(f"table {key!r} must be a list of [value, number] pairs")
            return [tuple(_finite(x, f"table {key} entry") for x in p) for p in rows]

        return from_table(pairs("knots"), pairs("atoms"))
    raise ValueError(f"unknown distribution family {fam!r}")


def _finite(x, what: str) -> float:
    """``x`` as a finite float; a bool, a string or any other non-number is
    refused rather than converted."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise ValueError(f"{what} must be a number, got {x!r}")
    try:
        out = float(x)
    except OverflowError:  # an integer past the float range
        out = math.inf
    if not math.isfinite(out):
        raise ValueError(f"{what} must be finite, got {x!r}")
    return out


# -- revenue curves and ironing ---------------------------------------------


@dataclass(frozen=True)
class RevenueCurve:
    """Quantile-domain revenue curve r(q) = q * F^{-1}(1-q).

    ``qs``/``rs`` sample the curve; a repeated quantile encodes the two sides
    of a jump produced by an atom. ``ironed_qs``/``ironed_rs`` are the
    vertices of the upper concave envelope and ``ironed_intervals`` the
    quantile spans where the envelope sits strictly above the curve.
    """

    qs: np.ndarray
    rs: np.ndarray
    ironed_qs: np.ndarray
    ironed_rs: np.ndarray
    ironed_intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        for name in ("qs", "rs", "ironed_qs", "ironed_rs"):
            object.__setattr__(self, name, _as_readonly(getattr(self, name)))

    def ironed_value(self, q):
        return np.interp(q, self.ironed_qs, self.ironed_rs)


def iron(qs, rs) -> RevenueCurve:
    """The revenue curve through the points ``(qs, rs)`` and its upper concave
    envelope: the upper convex hull of the points in any order, where a
    quantile that appears twice (the two sides of a jump) keeps its higher
    point and collinear points are dropped. Read in the order given, a run of
    points more than 1e-12 of the curve's scale below the envelope gives an
    ironing interval reaching to the points on either side of it; touching
    intervals merge.
    """
    order = np.lexsort((rs, qs))
    sq, sr = qs[order], rs[order]
    highest = np.append(sq[1:] != sq[:-1], True)
    # Andrew's monotone chain, the one sequential step
    hq: list[float] = []
    hr: list[float] = []
    for q, r in zip(sq[highest].tolist(), sr[highest].tolist()):
        while len(hq) >= 2 and (hq[-1] - hq[-2]) * (r - hr[-2]) - (hr[-1] - hr[-2]) * (q - hq[-2]) >= 0.0:
            hq.pop()
            hr.pop()
        hq.append(q)
        hr.append(r)
    scale = max(1.0, float(np.max(rs, initial=0.0)))
    below = np.interp(qs, hq, hr) > rs + 1e-12 * scale
    step = np.diff(below.astype(np.int8), prepend=0, append=0)
    lo = qs[np.maximum(np.flatnonzero(step == 1) - 1, 0)]
    hi = qs[np.minimum(np.flatnonzero(step == -1), len(qs) - 1)]
    first = lo > np.append(-np.inf, hi[:-1])
    intervals = tuple(zip(lo[first].tolist(), hi[np.roll(first, -1)].tolist()))
    return RevenueCurve(qs, rs, np.array(hq), np.array(hr), intervals)


def revenue_curve(d: Dist) -> RevenueCurve:
    """The revenue curve r(q) = q * F^{-1}(1-q) at the knots, ironed.

    From the top of the support down, the points are both sides of each
    atom's jump and both ends of each rising continuous segment, priced along
    its linear CDF; a point equal to the one before it is skipped. Between
    its ends a segment makes r a concave quadratic in q, and the envelope is
    that of the knot points, so ironing intervals reflect the knot-level
    shape. Built once per (immutable) instance and memoized on it.
    """
    curve = getattr(d, "_curve_memo", None)
    if curve is None:
        xs, fl, fr = d.xs, d.f_left, d.f_right
        _, width, c_lo, rise = d.segments
        rising = rise > 0
        q_top, q_bot = 1.0 - fl, 1.0 - c_lo
        with np.errstate(divide="ignore", invalid="ignore"):
            price_bot = xs - (q_bot - q_top) * (width / rise)
        atom = 1.0 - fl > 1.0 - fr
        # per knot, from the top down: above its jump, at it, the segment's bottom
        qs = np.column_stack([1.0 - fr, q_top, q_bot])[::-1]
        rs = np.column_stack([(1.0 - fr) * xs, q_top * xs, q_bot * price_bot])[::-1]
        emitted = np.column_stack([atom, atom | rising, rising])[::-1]
        qs, rs = np.append(0.0, qs[emitted]), np.append(0.0, rs[emitted])
        fresh = np.append(True, (qs[1:] != qs[:-1]) | (rs[1:] != rs[:-1]))
        curve = iron(qs[fresh], rs[fresh])
        object.__setattr__(d, "_curve_memo", curve)
    return curve


def optimal_revenue_bound(d: Dist, n: int) -> float:
    """Upper bound on the optimal revenue of n i.i.d. bidders from ``d``: the
    integral of max(R', 0) d[1 - (1 - q)^n] over the concave hull of the knot
    hull and, per rising segment, the point where the tangents at the two ends
    of its revenue arc meet. That hull lies at most width * rise / 4 above the
    arc, so the bound exceeds the optimum by at most n * max(width * rise) / 4,
    and it is exact on a purely atomic ``d``."""
    _, width, _, rise = d.segments
    up = rise > 0
    q0 = 1.0 - d.f_left[up]
    qa = q0 + 0.5 * rise[up]  # the apex sits midway along the arc
    curve = revenue_curve(d)
    qs, rs = np.append(curve.ironed_qs, qa), np.append(curve.ironed_rs, d.xs[up] * qa - 0.5 * q0 * width[up])
    order = np.argsort(qs, kind="stable")  # iron reads its intervals in the order given
    hull = iron(qs[order], rs[order])
    F, slope = 1.0 - hull.ironed_qs, np.diff(hull.ironed_rs) / np.diff(hull.ironed_qs)
    return float(np.maximum(slope, 0.0) @ (F[:-1] ** n - F[1:] ** n))


# -- monopoly price, regularity, virtual values -------------------------------


def monopoly_price(d: Dist) -> tuple[float, float]:
    """Maximizer of p * Pr(value >= p); ties resolved toward smaller price.

    Exact on the representation: candidates are knots, atoms, and the
    interior stationary point of each linear-CDF segment.
    """
    left, width, lower, rise = d.segments
    x_lo, x_hi, c_lo, slope = (a[rise > 0] for a in (left, d.xs, lower, rise / width))
    # stationary point of p * (1 - F(p)) inside each rising segment
    p_star = 0.5 * (x_lo + (1.0 - c_lo) / slope)
    interior = p_star[(x_lo < p_star) & (p_star < x_hi)]
    candidates = np.sort(np.concatenate([d.xs, interior]))
    revenue = candidates * d.survival_left(candidates)
    best = int(np.argmax(revenue))  # the first maximum: the smaller price
    return float(candidates[best]), float(revenue[best])


@dataclass(frozen=True)
class RegularityReport:
    regular_above_reserve: bool
    regular: bool
    monopoly_price: float
    reserve_quantile: float
    violating_intervals: tuple[tuple[float, float], ...]


def is_regular_above_reserve(d: Dist) -> RegularityReport:
    """Check that no ironing interval intersects quantiles below the reserve
    quantile 1 - F(p*-), i.e. the ironed and raw revenue curves agree at all
    prices >= the monopoly price. The curve is the knot-level one, so the
    verdict is about the representation itself."""
    curve = revenue_curve(d)
    p_star, _ = monopoly_price(d)
    q_star = float(d.survival_left(p_star))
    bad = tuple(
        (lo, hi) for lo, hi in curve.ironed_intervals if lo < q_star - 1e-9
    )
    return RegularityReport(
        regular_above_reserve=not bad,
        regular=not curve.ironed_intervals,
        monopoly_price=p_star,
        reserve_quantile=q_star,
        violating_intervals=bad,
    )


@dataclass(frozen=True)
class VirtualValueFn:
    """Ironed virtual value as a piecewise-linear non-decreasing map of value.

    Piece j covers [bp[j], bp[j+1]) rising linearly from phi_lo[j] to
    phi_hi[j]; phi_top is the value at the top of the support. Below the
    support the virtual value is -inf (a bid there never wins); above it the
    map continues as the identity. flat_regions lists the value intervals
    where the map is constant: ironed spans, atoms followed by a zero-mass
    gap, and spans the monotone regularization levels.
    """

    bp: np.ndarray
    phi_lo: np.ndarray
    phi_hi: np.ndarray
    phi_top: float
    support_lo: float
    support_hi: float
    flat_regions: tuple[tuple[float, float], ...]

    def __post_init__(self):
        # a breakpoint or top at -0.0 reads +0.0: a threshold at it adds a
        # zero, which would turn -0.0 into +0.0
        object.__setattr__(self, "bp", np.asarray(self.bp, dtype=np.float64) + 0.0)
        object.__setattr__(self, "support_hi", float(self.support_hi) + 0.0)
        for name in ("bp", "phi_lo", "phi_hi"):
            object.__setattr__(self, name, _as_readonly(getattr(self, name)))
        # per piece: its width, its rise in virtual value, and the rise a
        # threshold divides by. As in ``Dist.segments``, a piece without width
        # gets width 1 and no rise (0 times its rise, so it adds what weight 0
        # adds), and a piece without rise divides by inf: a level inside it
        # maps to its left end
        width = self.bp[1:] - self.bp[:-1]
        with np.errstate(invalid="ignore"):  # a piece at -inf has no rise
            rise = (self.phi_hi - self.phi_lo) * (width > 0)
        width = np.where(width > 0, width, 1.0)
        divisor = np.where(rise > 0, rise, np.inf)
        hi, starts = self.support_hi, self.bp[:-1]
        # eval: one more piece, at and past support_hi, holds phi_top. It
        # starts at support_hi - 1, so a v there has a fraction of +0 or more,
        # never -0.0, and that times its rise of -0.0 adds nothing to phi_top,
        # whatever its sign. The piece holding v counts the inner breakpoints
        # at or below v, and support_hi itself; one below support_hi finds the
        # piece it always did
        keys = np.minimum(self.bp[1:-1], hi)
        object.__setattr__(self, "_piece_search", _Search(np.append(keys, hi) if len(starts) else keys))
        object.__setattr__(self, "_value_pieces", tuple(map(_as_readonly, (
            np.append(starts, hi - 1.0), np.append(width, 1.0), np.append(self.phi_lo, self.phi_top),
            np.append(rise, -0.0),
        ))))
        # thresholds: one more piece past the last level. Its level is
        # phi_top, it has no rise and no width, and it starts at support_hi,
        # which a level up to phi_top maps to
        object.__setattr__(self, "_level_search", _Search(self.phi_hi))
        object.__setattr__(self, "_level_pieces", tuple(map(_as_readonly, (
            np.append(self.phi_lo, self.phi_top), np.append(divisor, np.inf), np.append(starts, hi),
            np.append(width, 0.0),
        ))))

    def eval(self, v):
        """Ironed virtual value at v (vectorized)."""
        v = np.asarray(v, dtype=np.float64)
        x = np.atleast_1d(v)
        left, width, phi_lo, rise = self._value_pieces
        j = self._piece_search(x, "right")
        # phi_lo + clip((x - left) / width, 0, 1) * rise, in place
        out = x - left[j]
        out /= width[j]
        np.clip(out, 0, 1, out=out)
        out *= rise[j]
        out += phi_lo[j]
        if x.size and not (x.min() >= self.support_lo and x.max() <= self.support_hi):
            np.copyto(out, -np.inf, where=~(x >= self.support_lo))  # below the support, or NaN
            np.copyto(out, x, where=x > self.support_hi)
        return out if v.ndim else float(out[0])

    def _invert(self, t, strict: bool):
        """A level at or below the start of its piece maps to the piece's
        left end: there the fraction clips to 0 and adds 0 times the width.
        Past phi_top a level t maps to max(support_hi, t), which is
        support_hi, the start of the piece past the last level, unless t lies
        above it (or both are zeros, whose sign max leaves open). Those
        entries and the ones where the sum is NaN (a level or a piece at an
        infinity) are rare; they are selected exactly."""
        level = np.asarray(t, dtype=np.float64)
        t = np.atleast_1d(level)
        lo, divisor, left, width = self._level_pieces
        j = self._level_search(t, "right" if strict else "left")
        with np.errstate(invalid="ignore"):  # an infinite level at a piece without rise
            # left + clip((t - lo) / divisor, 0, 1) * width, in place
            out = t - lo[j]
            out /= divisor[j]
            np.clip(out, 0, 1, out=out)
            out *= width[j]
            out += left[j]
        past_top = np.greater_equal if strict else np.greater
        above = np.greater if self.support_hi else np.greater_equal

        def beyond(x):
            return past_top(x, self.phi_top) & above(x, self.support_hi)

        if out.size and (np.isnan(out.min()) or beyond(t.max())):
            rare = np.isnan(out) | beyond(t)
            t, j = t[rare], j[rare]
            start, level_lo = left[j], lo[j]
            hit = level_lo > t if strict else level_lo >= t
            with np.errstate(invalid="ignore"):
                inside = np.where(hit, start, start + np.clip((t - level_lo) / divisor[j], 0, 1) * width[j])
            out[rare] = np.where((j == len(self.phi_hi)) & ~hit, np.maximum(self.support_hi, t), inside)
        return out if level.ndim else float(out[0])

    def threshold_weak(self, t):
        """inf{v : phi_bar(v) >= t}."""
        return self._invert(t, strict=False)

    def threshold_strict(self, t):
        """inf{v : phi_bar(v) > t}."""
        return self._invert(t, strict=True)


def virtual_values(d: Dist) -> VirtualValueFn:
    """Ironed virtual values of a distribution, from its revenue curve's
    envelope; memoized on the (immutable) instance.

    Each hull edge's slope is one float, taken by every atom on the edge and
    by every continuous segment in an ironing interval. Elsewhere a segment
    follows the density formula v - (1-F(v))/f(v). An atom is a piece of no
    width unless a zero-mass gap follows it, which it then spans; a gap with
    no atom at its base continues the level below it. The pieces are made
    non-decreasing by a running maximum, split where a segment's raw value
    catches up with it.
    """
    phi = getattr(d, "_phi_memo", None)
    if phi is not None:
        return phi
    curve = revenue_curve(d)
    hq = curve.ironed_qs
    slope = np.diff(curve.ironed_rs) / np.diff(hq)

    def edge_slope(q_lo, q_hi):
        e = np.searchsorted(hq, 0.5 * (q_lo + q_hi), side="right") - 1
        return slope[np.clip(e, 0, len(slope) - 1)]

    xs, fl, fr = d.xs, d.f_left, d.f_right
    atom = fr - fl > MASS_TOL
    phi_atom = edge_slope(1.0 - fr, 1.0 - fl)
    # the continuous segment from knot i to knot i + 1
    x, width, c_lo, rise = (a[1:] for a in d.segments)
    x_hi, rising = xs[1:], rise > 0
    q_top, q_bot = 1.0 - fl[1:], 1.0 - c_lo
    # in an ironing interval: its midpoint lies in the first one not ending below it
    lo, hi = np.reshape(curve.ironed_intervals, (-1, 2)).T
    q_mid = 0.5 * (q_top + q_bot)
    ironed = np.append(lo, np.inf)[np.searchsorted(hi + 1e-15, q_mid)] - 1e-15 <= q_mid
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_f = width / rise
        # the segment's bottom as its quantile -> value map reads it
        v_bot = x_hi - (q_bot - q_top) * inv_f

        def raw(v):
            return v - (1.0 - (c_lo + (v - x) / width * rise)) * inv_f

        seg_lo = np.where(ironed, edge_slope(q_top, q_bot), raw(v_bot))
        seg_hi = np.where(ironed, seg_lo, raw(x_hi))
    segment = rising & (x_hi > v_bot)
    gap = ~rising & ~atom[:-1]
    # per knot below the top: its atom, then its segment or gap, all ending
    # at the next knot; an atom under a segment starts with the segment
    start = np.column_stack([np.where(segment, np.minimum(x, v_bot), x), np.where(segment, v_bot, x)])
    p0 = np.column_stack([phi_atom[:-1], np.where(segment, seg_lo, -np.inf)])
    p1 = np.column_stack([phi_atom[:-1], np.where(segment, seg_hi, -np.inf)])
    v1 = np.column_stack([x_hi, x_hi])
    present = np.column_stack([atom[:-1], segment | gap])
    order = np.argsort(start[present], kind="stable")
    v0, p0, p1, v1 = (a[present][order] for a in (start, p0, p1, v1))

    # running maximum: a piece below the level so far is raised to it, up to
    # where its own value crosses the level
    p1 = np.maximum(p1, p0)
    level = np.maximum.accumulate(np.append(-np.inf, p1))[:-1]
    keep = p0 >= level
    cross = ~keep & (p1 > level)
    with np.errstate(divide="ignore", invalid="ignore"):
        v_cross = np.clip(v0 + (level - p0) / (p1 - p0) * (v1 - v0), v0, v1)
    rows = np.stack([
        np.column_stack([v0, np.where(keep, p0, level), np.where(keep, p1, level)]),
        np.column_stack([v_cross, level, p1]),
    ], axis=1)
    shown = np.column_stack([~cross | (v_cross > v0), cross & (v1 > v_cross)])
    bp, phi_lo, phi_hi = rows[shown].T
    if len(v0):
        bp = np.append(bp, v1[-1])
    else:  # a single point mass
        bp = np.array([d.support_lo])
    phi_top = phi_atom[-1] if atom[-1] else d.support_hi
    phi_top = max(phi_top, p1.max(initial=-np.inf))
    width = np.diff(bp)
    flat = (phi_hi == phi_lo)[width > 0]
    f_lo, f_hi = bp[:-1][width > 0], bp[1:][width > 0]
    first = flat & ~np.append(False, flat[:-1])
    last = flat & ~np.append(flat[1:], False)
    phi = VirtualValueFn(
        bp=bp,
        phi_lo=phi_lo,
        phi_hi=phi_hi,
        phi_top=float(phi_top),
        support_lo=d.support_lo,
        support_hi=d.support_hi,
        flat_regions=tuple(zip(f_lo[first].tolist(), f_hi[last].tolist())),
    )
    object.__setattr__(d, "_phi_memo", phi)
    return phi


# -- geometric averaging ------------------------------------------------------


def geometric_average(d1: Dist, d2: Dist) -> Dist:
    """The distribution whose survival is the geometric mean of the inputs'.

    Evaluated on the union of the two knot grids; replacing a pair of
    independent values by two i.i.d. draws from the result preserves the
    distribution of the pair's minimum.
    """
    xs = np.unique(np.concatenate([d1.xs, d2.xs]))
    s_left = np.sqrt(d1.survival_left(xs) * d2.survival_left(xs))
    s_right = np.sqrt(d1.survival(xs) * d2.survival(xs))
    return dist_from_arrays(xs, 1.0 - s_left, 1.0 - s_right, label="geom_avg")
