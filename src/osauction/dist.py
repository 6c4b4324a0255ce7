"""Value distributions as atoms plus piecewise-linear CDF segments.

The representation is exact: between knots the CDF is linear and atoms are
jumps. One piece table per distribution, built by ``_pieces`` like each
virtual-value map's and memoized on the instance, holds the segment
entering each knot; both CDF sides, the quantile, the revenue curve, the
monopoly price and the virtual values read it in closed form. Continuous
families are discretized onto quantile- and value-spaced knots.

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
from contextlib import contextmanager
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


def _along(x: np.ndarray, j: np.ndarray, start, span, base, rise) -> np.ndarray:
    """``base + clip((x - start) / span, 0, 1) * rise`` at piece ``j`` of
    every entry, computed in place: the one linear formula of the CDF and
    quantile segments and of the virtual-value pieces and thresholds. An
    infinity, a NaN or a piece without span gives what IEEE arithmetic
    gives, silently; callers overwrite those entries."""
    with np.errstate(all="ignore"):
        out = x - start[j]
        out /= span[j]
        np.clip(out, 0, 1, out=out)
        out *= rise[j]
        out += base[j]
    return out


def _pieces(start, end, lo, hi, top, top_level) -> tuple[np.ndarray, ...]:
    """The read-only piece table of a non-decreasing piecewise-linear map:
    per piece from ``start`` to ``end``, rising from ``lo`` to ``hi``, its
    start, width, level, rise and inverse divisor, then a row at ``top`` of
    level ``top_level`` and no width or rise. A piece without width gets
    width 1 and no rise (0 times its rise, so it adds what weight 0 adds);
    one without rise divides by inf: ``_along(t, j, lo, divisor, start,
    width)``, the weak inverse at piece j, maps a level inside it to its start."""
    width = end - start
    with np.errstate(invalid="ignore"):  # a piece at -inf has no rise
        rise = (hi - lo) * (width > 0)
    columns = (start, np.where(width > 0, width, 1.0), lo, rise, np.where(rise > 0, rise, np.inf))
    return tuple(_as_readonly(np.append(c, t)) for c, t in zip(columns, (top, 0.0, top_level, 0.0, np.inf)))


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
        xs = _as_readonly(np.add(self.xs, 0.0))  # a knot at -0.0 reads +0.0, as a piece read gives
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
    def _table(self) -> tuple[np.ndarray, ...]:
        """``_pieces`` of the CDF: per knot the segment entering it, knot 0's
        of width 1 and no rise, then the top knot's atom; row j + 1 leaves knot j."""
        xs, fl, fr = self.xs, self.f_left, self.f_right
        return _pieces(np.append(xs[0], xs[:-1]), xs, np.append(fl[0], fr[:-1]), fl, xs[-1], fr[-1])

    @cached_property
    def segments(self) -> Segments:
        """Per knot j, the linear CDF segment entering it: read-only views of
        the piece table, with ``lower + rise == f_left`` everywhere."""
        return Segments(*(c[:-1] for c in self._table[:4]))

    @cached_property
    def _quantile_search(self) -> _Search:
        """The first knot whose leaving segment reaches q; the last one takes every q above."""
        return _Search(self.f_left[1:])

    # -- CDF / survival / quantile ----------------------------------------

    def _cdf(self, v, side: str):
        """F(v) on the right side, F(v-) on the left (f_left exactly at a knot)."""
        v = np.asarray(v, dtype=np.float64)
        flat = v.reshape(-1)
        j = np.searchsorted(self.xs, flat, side=side)
        s = np.minimum(j, len(self.xs) - 1)
        out = _along(flat, s, *self.segments)
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

    def _cdf_rows(self, v: np.ndarray, at: np.ndarray) -> np.ndarray:
        """``cdf`` at every entry of the 2-d ``v``, row i read off the piece
        that holds ``at[i]``: one search per row instead of per entry. Where
        a row's entries lie in ``[at[i], next knot)``, these are the floats
        ``cdf`` gives."""
        j = np.searchsorted(self.xs, at, side="right")[:, None]
        out = _along(v, np.minimum(j, len(self.xs) - 1), *self.segments)
        np.copyto(out, 0.0, where=j == 0)
        np.copyto(out, 1.0, where=j == len(self.xs))
        return out

    def survival(self, v):
        """Pr(value > v)."""
        return 1.0 - self.cdf(v)

    def survival_left(self, v):
        """Pr(value >= v)."""
        return 1.0 - self.cdf_left(v)

    def quantile(self, q):
        """Generalized inverse inf{v : F(v) >= q}; q must lie in [0, 1]."""
        q_arr = np.asarray(q, dtype=np.float64)
        if q_arr.size and not (q_arr.min() >= 0.0 and q_arr.max() <= 1.0):  # NaN too
            raise ValueError("quantile argument must lie in [0, 1]")
        flat = q_arr.reshape(-1)
        j = self._quantile_search(flat, "left")
        out = self._along_segment(flat, j) if self._rises else self.xs[j]
        return out.reshape(q_arr.shape) if q_arr.ndim else float(out[0])

    def _locate(self, q: np.ndarray):
        """``(j, reach)`` for quantiles ``q`` in [0, 1]: the quantile of q is
        ``xs[j]``, except where ``reach`` holds (None when no segment rises):
        past f_right[j], on the segment leaving knot j."""
        j = self._quantile_search(q, "left")
        return j, (q > self.f_right[j] if self._rises else None)

    @cached_property
    def _rises(self) -> bool:
        return bool(np.any(self.segments.rise > 0))

    def _along_segment(self, q: np.ndarray, j: np.ndarray) -> np.ndarray:
        """The value at which the segment leaving knot j reaches quantile q."""
        start, width, lower, _, divisor = (c[1:] for c in self._table)
        return _along(q, j, lower, divisor, start, width)

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


@contextmanager
def _refusing_overflow(d: Dist):
    """Turn a float overflow inside the block into a ValueError naming ``d``:
    a distribution near the float maximum has no revenue curve to read."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError:
        raise ValueError(f"{d.describe()} lies too close to the float maximum: its revenue curve overflows") from None


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


def _upper_hull(qs: np.ndarray, rs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertices of the upper convex hull of the points ``(qs, rs)``, in any
    order, by increasing quantile: a quantile that appears twice (the two
    sides of a jump) keeps its higher point, and collinear points are
    dropped. The vertices do not depend on the order of the points."""
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
    return np.array(hq), np.array(hr)


def iron(qs, rs) -> RevenueCurve:
    """The revenue curve through the points ``(qs, rs)`` and its upper concave
    envelope, ``_upper_hull`` of the points. Read in the order given, a run
    of points more than 1e-12 of the curve's scale below the envelope gives
    an ironing interval reaching to the points on either side of it;
    touching intervals merge.
    """
    hq, hr = _upper_hull(qs, rs)
    scale = max(1.0, float(np.max(rs, initial=0.0)))
    below = np.interp(qs, hq, hr) > rs + 1e-12 * scale
    step = np.diff(below.astype(np.int8), prepend=0, append=0)
    lo = qs[np.maximum(np.flatnonzero(step == 1) - 1, 0)]
    hi = qs[np.minimum(np.flatnonzero(step == -1), len(qs) - 1)]
    first = lo > np.append(-np.inf, hi[:-1])
    intervals = tuple(zip(lo[first].tolist(), hi[np.roll(first, -1)].tolist()))
    return RevenueCurve(qs, rs, hq, hr, intervals)


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
        with _refusing_overflow(d), np.errstate(divide="ignore", invalid="ignore"):
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
    hq, hr = _upper_hull(qs, rs)
    F, slope = 1.0 - hq, np.diff(hr) / np.diff(hq)
    return float(np.maximum(slope, 0.0) @ (F[:-1] ** n - F[1:] ** n))


# -- monopoly price, regularity, virtual values -------------------------------


def monopoly_price(d: Dist) -> tuple[float, float]:
    """Maximizer of p * Pr(value >= p); ties resolved toward smaller price.

    Exact on the representation: candidates are knots, atoms, and the
    interior stationary point of each linear-CDF segment.
    """
    up = d.segments.rise > 0
    x_lo, width, c_lo, rise = (a[up] for a in d.segments)
    # stationary point of p * (1 - F(p)) inside each rising segment, by the inverse density
    with _refusing_overflow(d):
        p_star = 0.5 * (x_lo + (1.0 - c_lo) * (width / rise))
    interior = p_star[(x_lo < p_star) & (p_star < d.xs[up])]
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
    map continues as the identity.
    """

    bp: np.ndarray
    phi_lo: np.ndarray
    phi_hi: np.ndarray
    phi_top: float
    support_lo: float
    support_hi: float

    def __post_init__(self):
        # a breakpoint or top at -0.0 reads +0.0: a threshold at it adds a
        # zero, which would turn -0.0 into +0.0
        object.__setattr__(self, "bp", np.asarray(self.bp, dtype=np.float64) + 0.0)
        object.__setattr__(self, "support_hi", float(self.support_hi) + 0.0)
        for name in ("bp", "phi_lo", "phi_hi"):
            object.__setattr__(self, name, _as_readonly(getattr(self, name)))
        # the thresholds map a level up to phi_top past the last piece to the
        # top row, at support_hi; ``eval`` reads that row only on a point mass,
        # which has no piece of its own and no value in [support_lo, support_hi)
        table = _pieces(self.bp[:-1], self.bp[1:], self.phi_lo, self.phi_hi, self.support_hi, self.phi_top)
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_piece_search", _Search(self.bp[1:-1]))
        object.__setattr__(self, "_level_search", _Search(self.phi_hi))

    def eval(self, v):
        """Ironed virtual value at v (vectorized)."""
        v = np.asarray(v, dtype=np.float64)
        x = np.atleast_1d(v)
        left, width, phi_lo, rise, _ = self._table
        out = _along(x, self._piece_search(x, "right"), left, width, phi_lo, rise)
        lo, hi = self.support_lo, self.support_hi
        if x.size and not (x.min() >= lo and x.max() < hi):
            np.copyto(out, -np.inf, where=~(x >= lo))  # below the support, or NaN
            np.copyto(out, self.phi_top, where=x == hi)
            np.copyto(out, x, where=x > hi)
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
        left, width, lo, _, divisor = self._table
        j = self._level_search(t, "right" if strict else "left")
        out = _along(t, j, lo, divisor, left, width)
        past_top = np.greater_equal if strict else np.greater
        above = np.greater if self.support_hi else np.greater_equal

        def beyond(x):
            return past_top(x, self.phi_top) & above(x, self.support_hi)

        if out.size and (np.isnan(out.min()) or beyond(t.max())):
            rare = np.isnan(out) | beyond(t)
            t, j = t[rare], j[rare]
            hit = lo[j] > t if strict else lo[j] >= t
            inside = np.where(hit, left[j], out[rare])
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
    with _refusing_overflow(d), np.errstate(divide="ignore", invalid="ignore"):
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
    phi = VirtualValueFn(
        bp=bp,
        phi_lo=phi_lo,
        phi_hi=phi_hi,
        phi_top=float(phi_top),
        support_lo=d.support_lo,
        support_hi=d.support_hi,
    )
    object.__setattr__(d, "_phi_memo", phi)
    return phi
