"""Value distributions as atoms plus piecewise-linear CDF segments.

The representation is exact: between knots the CDF is linear, atoms are jump
discontinuities, and everything downstream (revenue curves, concave
envelopes, virtual values, monopoly prices) is computed in closed form on
that structure. Continuous families are imported by discretizing their exact
CDF onto a union of quantile-spaced and value-spaced knots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

MASS_TOL = 1e-12


def _as_readonly(a) -> np.ndarray:
    arr = np.ascontiguousarray(a, dtype=np.float64)
    arr.setflags(write=False)
    return arr


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
        if len(xs) > 1 and np.any(fl[1:] - fr[:-1] < -MASS_TOL):
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
        cont = self.f_left[1:] - self.f_right[:-1] if len(self.xs) > 1 else np.array([])
        return bool(cont.size == 0 or np.all(cont <= MASS_TOL))

    # -- CDF / survival / quantile ----------------------------------------

    def cdf(self, v):
        """Right-continuous CDF, clamped to {0, 1} outside the support."""
        v = np.asarray(v, dtype=np.float64)
        i = np.searchsorted(self.xs, v, side="right") - 1
        i_c = np.maximum(i, 0)
        x0 = self.xs[i_c]
        f0 = self.f_right[i_c]
        i_next = np.minimum(i_c + 1, len(self.xs) - 1)
        x1 = self.xs[i_next]
        f1 = self.f_left[i_next]
        with np.errstate(invalid="ignore", divide="ignore"):
            t = np.where(x1 > x0, (v - x0) / np.where(x1 > x0, x1 - x0, 1.0), 0.0)
        out = f0 + np.minimum(np.maximum(t, 0.0), 1.0) * (f1 - f0)
        out = np.where(i < 0, 0.0, out)
        out = np.where(v >= self.xs[-1], 1.0, out)
        return out if out.ndim else float(out)

    def cdf_left(self, v):
        """Left limit F(v-) = Pr(value < v)."""
        v = np.asarray(v, dtype=np.float64)
        i = np.searchsorted(self.xs, v, side="left")
        i_c = np.minimum(i, len(self.xs) - 1)
        at_knot = (self.xs[i_c] == v) & (i < len(self.xs))
        out = np.where(at_knot, self.f_left[i_c], self.cdf(v))
        out = np.where(v < self.xs[0], 0.0, out)
        out = np.where(v > self.xs[-1], 1.0, out)
        return out if out.ndim else float(out)

    def survival(self, v):
        """Pr(value > v)."""
        return 1.0 - self.cdf(v)

    def survival_left(self, v):
        """Pr(value >= v)."""
        return 1.0 - self.cdf_left(v)

    def _segments_below(self):
        """Per knot j, the continuous segment entering it: its lower CDF, its
        rise (1 where it has none), its left knot and its width, plus a flag
        for segments that carry mass (None when no segment does). Memoized on
        the (immutable) instance."""
        table = getattr(self, "_segments_memo", None)
        if table is None:
            j = np.arange(len(self.xs))
            jm = np.maximum(j - 1, 0)
            lower, left = self.f_right[jm], self.xs[jm]
            rise = self.f_left - lower
            reachable = (j > 0) & (rise > 0)
            table = (
                lower,
                np.where(rise > 0, rise, 1.0),
                left,
                self.xs - left,
                reachable if reachable.any() else None,
            )
            object.__setattr__(self, "_segments_memo", table)
        return table

    def quantile(self, q):
        """Generalized inverse inf{v : F(v) >= q}; q must lie in [0, 1]."""
        q_arr = np.asarray(q, dtype=np.float64)
        if q_arr.size and (q_arr.min() < 0.0 or q_arr.max() > 1.0):
            raise ValueError("quantile argument must lie in [0, 1]")
        flat = q_arr.reshape(-1)
        lower, rise, left, width, reachable = self._segments_below()
        # first knot whose right CDF reaches q; the last one takes every q above
        j = np.searchsorted(self.f_right[:-1], flat, side="left")
        out = self.xs[j]
        if reachable is not None:
            # the continuous segment entering knot j may attain q earlier
            lo = lower[j]
            reach = reachable[j] & (self.f_left[j] >= flat) & (flat > lo)
            if reach.any():
                np.copyto(out, left[j] + (flat - lo) / rise[j] * width[j], where=reach)
        return out.reshape(q_arr.shape) if q_arr.ndim else float(out[0])

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

    ``knots`` give the cumulative mass of the continuous part at increasing
    values, which must be non-negative and non-decreasing; atom masses are
    added as jumps at their locations.
    """
    pts: dict[float, float] = {}
    knots = sorted(knots)
    kx = np.array([float(v) for v, _ in knots])
    kf = np.array([float(f) for _, f in knots])
    if np.any(kf < 0.0) or np.any(np.diff(kf) < 0.0):
        raise ValueError("table knot CDF values must be non-negative and non-decreasing")
    for v in kx:
        pts.setdefault(float(v), 0.0)
    for v, m in atoms:
        if m <= 0:
            raise ValueError("atom masses must be positive")
        pts[float(v)] = pts.get(float(v), 0.0) + float(m)
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
    half = max(grid // 2, 1)
    qs = np.linspace(tail, 1.0 - tail, half + 1)
    xs_q = np.asarray(ppf(qs), dtype=np.float64)
    lo, hi = float(xs_q[0]), float(xs_q[-1])
    if floor is not None:
        lo = max(lo, floor)
        xs_q = np.maximum(xs_q, floor)
    xs = np.unique(np.concatenate([xs_q, np.linspace(lo, hi, half + 1)]))
    c = np.asarray(cdf(xs), dtype=np.float64)
    f = (c - c[0]) / (c[-1] - c[0])  # condition on the kept window
    f = np.maximum.accumulate(np.clip(f, 0.0, 1.0))
    f[-1] = 1.0
    return dist_from_arrays(xs, f, f, label=label)


def exponential(rate: float, grid: int = 4096, tail: float = _FAMILY_TAIL) -> Dist:
    if rate <= 0:
        raise ValueError("rate must be positive")
    return _from_family(
        lambda v: -np.expm1(-rate * v),
        lambda q: -np.log1p(-q) / rate,
        grid,
        label=f"exponential({rate:g})",
        tail=tail,
    )


def beta_dist(a: float, b: float, grid: int = 4096, tail: float = _FAMILY_TAIL) -> Dist:
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


def normal(mean: float, sd: float, grid: int = 4096, tail: float = _FAMILY_TAIL) -> Dist:
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


_MIN_GRID = 16


def from_literal(spec, grid: int = 4096) -> Dist:
    """Parse the distribution literal format used in config files.

    Parameters must be finite numbers and ``grid`` at least 16;
    anything else raises ValueError rather than yielding a degenerate
    distribution.
    """
    if isinstance(spec, Dist):
        return spec
    if not isinstance(spec, dict) or "family" not in spec:
        raise ValueError(f"distribution literal must be a dict with a 'family' key, got {spec!r}")
    if grid < _MIN_GRID:
        raise ValueError(f"grid must be at least {_MIN_GRID}, got {grid}")
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
        knots, atoms = (
            [tuple(_finite(x, f"table {key} entry") for x in pair) for pair in spec.get(key, [])]
            for key in ("knots", "atoms")
        )
        return from_table(knots, atoms)
    raise ValueError(f"unknown distribution family {fam!r}")


def _finite(x, what: str) -> float:
    try:
        out = float(x)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be a number, got {x!r}") from None
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


def _upper_hull(qs: np.ndarray, rs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # keep the higher point at duplicated quantiles; lower jump sides are
    # never hull vertices
    best: dict[float, float] = {}
    for q, r in zip(qs, rs):
        if q not in best or r > best[q]:
            best[float(q)] = float(r)
    pts = sorted(best.items())
    hull: list[tuple[float, float]] = []
    for q, r in pts:
        while len(hull) >= 2:
            (q1, r1), (q2, r2) = hull[-2], hull[-1]
            if (q2 - q1) * (r - r1) - (r2 - r1) * (q - q1) >= 0.0:
                hull.pop()
            else:
                break
        hull.append((q, r))
    hq = np.array([p[0] for p in hull])
    hr = np.array([p[1] for p in hull])
    return hq, hr


def iron(curve: RevenueCurve) -> RevenueCurve:
    """Replace the revenue curve by its upper concave envelope.

    The envelope is the upper convex hull over all curve knots (both sides of
    each jump); the intervals where it exceeds the curve are recorded.
    """
    hq, hr = _upper_hull(curve.qs, curve.rs)
    env = np.interp(curve.qs, hq, hr)
    scale = max(1.0, float(np.max(curve.rs, initial=0.0)))
    below = env > curve.rs + 1e-12 * scale
    intervals: list[tuple[float, float]] = []
    i = 0
    n = len(curve.qs)
    while i < n:
        if below[i]:
            j = i
            while j + 1 < n and below[j + 1]:
                j += 1
            lo = curve.qs[i - 1] if i > 0 else curve.qs[i]
            hi = curve.qs[j + 1] if j + 1 < n else curve.qs[j]
            if intervals and intervals[-1][1] >= lo:
                intervals[-1] = (intervals[-1][0], float(hi))
            else:
                intervals.append((float(lo), float(hi)))
            i = j + 1
        else:
            i += 1
    return RevenueCurve(curve.qs, curve.rs, hq, hr, tuple(intervals))


def revenue_curve(d: Dist, curve_grid: int = 1024) -> RevenueCurve:
    """Sample r(q) = q * F^{-1}(1-q) at all atom-induced breakpoints (both
    jump sides) plus subdivided continuous segments, then iron.

    Continuous CDF pieces make r a concave quadratic in q; each piece is
    sampled at its endpoints, its interior revenue maximum, and enough
    intermediate quantiles for the envelope to be grid-exact.

    ``curve_grid=0`` samples only the exact knots (no subdivision, no
    interior maxima): segment endpoints lie exactly on the representation's
    curve, so concave regions stay exactly concave and ironing intervals
    reflect the knot-level shape. Structural checks use this mode.
    """
    if d.support_lo < 0:
        raise ValueError("revenue curves need non-negative support")
    qs: list[float] = [0.0]
    rs: list[float] = [0.0]

    def push(q, r):
        if qs and q == qs[-1] and r == rs[-1]:
            return
        qs.append(float(q))
        rs.append(float(r))

    m = len(d.xs)
    for i in range(m - 1, -1, -1):
        x = float(d.xs[i])
        q_a = 1.0 - float(d.f_right[i])  # selling strictly above x
        q_b = 1.0 - float(d.f_left[i])  # selling at price x
        if q_b > q_a:  # atom at x
            push(q_a, q_a * x)
            push(q_b, q_b * x)
        if i > 0:
            c_lo, c_hi = float(d.f_right[i - 1]), float(d.f_left[i])
            if c_hi > c_lo:
                x_lo = float(d.xs[i - 1])
                qa, qb = 1.0 - c_hi, 1.0 - c_lo
                slope = (x - x_lo) / (c_hi - c_lo)

                def price(q):
                    return x - (q - qa) * slope

                if curve_grid > 0:
                    n_sub = max(1, int(math.ceil((qb - qa) * curve_grid)))
                    sub = list(np.linspace(qa, qb, n_sub + 1))
                    # interior revenue maximum of the quadratic q * price(q)
                    q_vertex = 0.5 * (x / slope + qa) if slope > 0 else None
                    if q_vertex is not None and qa < q_vertex < qb:
                        sub = sorted(set(sub) | {q_vertex})
                else:
                    sub = [qa, qb]
                for q in sub:
                    push(q, q * price(q))
    raw = RevenueCurve(np.array(qs), np.array(rs), np.array(qs), np.array(rs), ())
    return iron(raw)


# -- monopoly price, regularity, virtual values -------------------------------


def monopoly_price(d: Dist) -> tuple[float, float]:
    """Maximizer of p * Pr(value >= p); ties resolved toward smaller price.

    Exact on the representation: candidates are knots, atoms, and the
    interior stationary point of each linear-CDF segment.
    """
    x_lo, x_hi = d.xs[:-1], d.xs[1:]
    c_lo, c_hi = d.f_right[:-1], d.f_left[1:]
    rising = c_hi > c_lo
    x_lo, x_hi, c_lo = x_lo[rising], x_hi[rising], c_lo[rising]
    slope = (c_hi[rising] - c_lo) / (x_hi - x_lo)
    # stationary point of p * (1 - F(p)) inside each rising segment
    p_star = 0.5 * (x_lo + (1.0 - c_lo) / slope)
    interior = p_star[(x_lo < p_star) & (p_star < x_hi)]
    candidates = np.sort(np.concatenate([d.xs, interior]))
    revenue = candidates * d.survival_left(candidates)
    best = int(np.argmax(revenue))  # the first maximum: the smaller price
    if revenue[best] > 0.0:
        return float(candidates[best]), float(revenue[best])
    best_p = float(d.xs[0])
    return best_p, best_p * float(d.survival_left(best_p))


@dataclass(frozen=True)
class RegularityReport:
    regular_above_reserve: bool
    regular: bool
    monopoly_price: float
    reserve_quantile: float
    violating_intervals: tuple[tuple[float, float], ...]


def is_regular_above_reserve(d: Dist, curve_grid: int = 0) -> RegularityReport:
    """Check that no ironing interval intersects quantiles below the reserve
    quantile 1 - F(p*-), i.e. the ironed and raw revenue curves agree at all
    prices >= the monopoly price. Uses the exact-knot curve so the verdict
    is about the representation, not about subdivision noise."""
    curve = revenue_curve(d, curve_grid=curve_grid)
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
    pooled to a constant by ironing (atom spans included).
    """

    bp: np.ndarray
    phi_lo: np.ndarray
    phi_hi: np.ndarray
    phi_top: float
    support_lo: float
    support_hi: float
    flat_regions: tuple[tuple[float, float], ...]
    raw_segments: tuple[tuple[float, float, float, float], ...]

    def __post_init__(self):
        for name in ("bp", "phi_lo", "phi_hi"):
            object.__setattr__(self, name, _as_readonly(getattr(self, name)))
        # per piece: its width, and its rise in virtual value; a piece without
        # width gets width 1 and rise 0 * rise, so it adds what weight 0 adds
        width = self.bp[1:] - self.bp[:-1]
        with np.errstate(invalid="ignore"):  # a piece at -inf has no rise
            rise = self.phi_hi - self.phi_lo
            object.__setattr__(
                self, "_pieces", (np.where(width > 0, width, 1.0), np.where(width > 0, rise, 0.0 * rise))
            )

    def eval(self, v):
        """Ironed virtual value at v (vectorized)."""
        v = np.asarray(v, dtype=np.float64)
        if len(self.bp) > 1:
            width, rise = self._pieces
            # the piece holding v counts the inner breakpoints at or below v
            j = np.searchsorted(self.bp[1:-1], v, side="right")
            t = np.clip((v - self.bp[j]) / width[j], 0, 1)
            inside = (v >= self.support_lo) & (v < self.support_hi)
            out = np.where(inside, self.phi_lo[j] + t * rise[j], -np.inf)
        else:
            out = np.full(v.shape, -np.inf)
        np.copyto(out, self.phi_top, where=v == self.support_hi)
        np.copyto(out, v, where=v > self.support_hi)
        return out if out.ndim else float(out)

    def raw(self, v: float):
        """Raw virtual value from the density, or None at atoms and gaps."""
        for v0, v1, p0, p1 in self.raw_segments:
            if v0 <= v < v1 or (v == v1 == self.support_hi):
                t = (v - v0) / (v1 - v0)
                return p0 + t * (p1 - p0)
        return None

    def _invert(self, t, strict: bool):
        t = np.asarray(t, dtype=np.float64)
        side = "right" if strict else "left"
        if len(self.phi_hi):
            j = np.searchsorted(self.phi_hi, t, side=side)
        else:
            j = np.zeros(t.shape, dtype=int)
        out = np.empty(t.shape)
        past = j >= len(self.phi_hi)
        jc = np.clip(j, 0, max(len(self.phi_hi) - 1, 0))
        if len(self.phi_hi):
            lo_hit = self.phi_lo[jc] > t if strict else self.phi_lo[jc] >= t
            rise = self.phi_hi[jc] - self.phi_lo[jc]
            frac = np.where(rise > 0, (t - self.phi_lo[jc]) / np.where(rise > 0, rise, 1.0), 0.0)
            interp = self.bp[jc] + np.clip(frac, 0, 1) * (self.bp[jc + 1] - self.bp[jc])
            out = np.where(lo_hit, self.bp[jc], interp)
        top_hit = self.phi_top > t if strict else self.phi_top >= t
        out = np.where(past, np.where(top_hit, self.support_hi, np.maximum(self.support_hi, t)), out)
        return out if out.ndim else float(out)

    def threshold_weak(self, t):
        """inf{v : phi_bar(v) >= t}."""
        return self._invert(t, strict=False)

    def threshold_strict(self, t):
        """inf{v : phi_bar(v) > t}."""
        return self._invert(t, strict=True)


def virtual_values(d: Dist, curve_grid: int = 0) -> VirtualValueFn:
    """Raw and ironed virtual values of a distribution.

    On continuous segments outside ironing intervals the ironed value equals
    the density formula v - (1-F(v))/f(v) exactly. Inside an ironing interval
    it is the constant slope of the envelope edge; an atom takes the envelope
    chord slope across its quantile span and extends it over the zero-mass
    gap above. Ironing intervals come from the exact-knot curve.
    """
    if d.support_lo < 0:
        raise ValueError("virtual values need non-negative support")
    curve = revenue_curve(d, curve_grid=curve_grid)
    hq, hr = curve.ironed_qs, curve.ironed_rs

    def env(q):
        return float(np.interp(q, hq, hr))

    intervals = curve.ironed_intervals

    def ironed_slope_at(q_lo, q_hi):
        return (env(q_hi) - env(q_lo)) / (q_hi - q_lo)

    def covering_interval(q):
        for lo, hi in intervals:
            if lo - 1e-15 <= q <= hi + 1e-15:
                return lo, hi
        return None

    pieces: list[tuple[float, float, float, float]] = []  # v0, v1, phi0, phi1
    raw_segments: list[tuple[float, float, float, float]] = []
    flats: list[tuple[float, float]] = []

    def add_piece(v0, v1, p0, p1):
        if v1 > v0:
            pieces.append((v0, v1, p0, p1))

    m = len(d.xs)
    phi_top = None
    for i in range(m):
        x = float(d.xs[i])
        mass = float(d.f_right[i] - d.f_left[i])
        if mass > MASS_TOL:
            qa = 1.0 - float(d.f_right[i])
            qb = 1.0 - float(d.f_left[i])
            phi_atom = ironed_slope_at(qa, qb)
            if i == m - 1:
                phi_top = phi_atom
            else:
                add_piece(x, float(d.xs[i + 1]), phi_atom, phi_atom)
                flats.append((x, float(d.xs[i + 1])))
        if i < m - 1:
            c_lo, c_hi = float(d.f_right[i]), float(d.f_left[i + 1])
            x_hi = float(d.xs[i + 1])
            if c_hi > c_lo:
                inv_f = (x_hi - x) / (c_hi - c_lo)

                def raw_phi(v, x=x, c_lo=c_lo, inv_f=inv_f, x_hi=x_hi, c_hi=c_hi):
                    fv = c_lo + (v - x) / (x_hi - x) * (c_hi - c_lo)
                    return v - (1.0 - fv) * inv_f

                raw_segments.append((x, x_hi, raw_phi(x), raw_phi(x_hi)))
                # split the value segment along ironing intervals in q-space
                def v_of_q(q):
                    return x_hi - (q - (1.0 - c_hi)) * inv_f

                q_cuts = {1.0 - c_hi, 1.0 - c_lo}
                for lo, hi in intervals:
                    for q in (lo, hi):
                        if 1.0 - c_hi < q < 1.0 - c_lo:
                            q_cuts.add(q)
                q_sorted = sorted(q_cuts)
                for qa, qb in zip(q_sorted[:-1], q_sorted[1:]):
                    qm = 0.5 * (qa + qb)
                    va, vb = v_of_q(qb), v_of_q(qa)  # descending q -> ascending v
                    cov = covering_interval(qm)
                    if cov is not None:
                        s = ironed_slope_at(*cov)
                        add_piece(va, vb, s, s)
                        flats.append((va, vb))
                    else:
                        add_piece(va, vb, raw_phi(va), raw_phi(vb))
            elif not (d.f_right[i] - d.f_left[i] > MASS_TOL):
                # zero-mass gap with no atom at its base: continue the
                # previous piece's level across the gap
                prev = pieces[-1][3] if pieces else -math.inf
                add_piece(x, x_hi, prev, prev)
    if phi_top is None:
        # continuous at the top: 1 - F = 0 there, so the virtual value is the value
        phi_top = d.support_hi

    pieces.sort(key=lambda p: p[0])
    # Monotone regularization: the discretized density is a staircase, so the
    # raw virtual value can dip slightly at knot seams even where the curve is
    # concave at knot level. Take the running maximum, splitting pieces where
    # the raw value catches back up, and record the clamped spans as flats.
    fixed: list[tuple[float, float, float, float]] = []
    level = -math.inf
    for v0, v1, p0, p1 in pieces:
        p1 = max(p1, p0)
        if p0 >= level:
            fixed.append((v0, v1, p0, p1))
            level = p1
        elif p1 <= level:
            fixed.append((v0, v1, level, level))
            flats.append((v0, v1))
        else:
            v_cross = v0 + (level - p0) / (p1 - p0) * (v1 - v0)
            v_cross = min(max(v_cross, v0), v1)
            if v_cross > v0:
                fixed.append((v0, v_cross, level, level))
                flats.append((v0, v_cross))
            if v1 > v_cross:
                fixed.append((v_cross, v1, level, p1))
            level = p1
    phi_top = max(phi_top, level) if fixed else phi_top

    if fixed:
        bp = np.array([p[0] for p in fixed] + [fixed[-1][1]])
        phi_lo = np.array([p[2] for p in fixed])
        phi_hi = np.array([p[3] for p in fixed])
    else:  # single point mass
        bp = np.array([d.support_lo])
        phi_lo = np.array([])
        phi_hi = np.array([])
    merged_flats: list[tuple[float, float]] = []
    for lo, hi in sorted(flats):
        if merged_flats and lo <= merged_flats[-1][1] + 1e-15:
            merged_flats[-1] = (merged_flats[-1][0], max(hi, merged_flats[-1][1]))
        else:
            merged_flats.append((lo, hi))
    return VirtualValueFn(
        bp=bp,
        phi_lo=phi_lo,
        phi_hi=phi_hi,
        phi_top=float(phi_top),
        support_lo=d.support_lo,
        support_hi=d.support_hi,
        flat_regions=tuple(merged_flats),
        raw_segments=tuple(raw_segments),
    )


# -- geometric averaging ------------------------------------------------------


def merged_grid(*dists: Dist) -> np.ndarray:
    return np.unique(np.concatenate([d.xs for d in dists]))


def geometric_average(d1: Dist, d2: Dist) -> Dist:
    """The distribution whose survival is the geometric mean of the inputs'.

    Evaluated on the union of the two knot grids; replacing a pair of
    independent values by two i.i.d. draws from the result preserves the
    distribution of the pair's minimum.
    """
    xs = merged_grid(d1, d2)
    s_left = np.sqrt(d1.survival_left(xs) * d2.survival_left(xs))
    s_right = np.sqrt(d1.survival(xs) * d2.survival(xs))
    return dist_from_arrays(xs, 1.0 - s_left, 1.0 - s_right, label="geom_avg")
