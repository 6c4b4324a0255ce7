"""Order-statistic machinery for independent (not necessarily identical) bidders.

Centerpiece: the bijection mapping a marginal CDF value u to the CDF of the
k-th largest of n i.i.d. draws, the regularized incomplete beta

    H(n, k, u) = Pr(Bin(n, 1-u) <= k-1) = I_u(n-k+1, k),

its inverse, and the unique i.i.d. distribution consistent with an observed
k-th order statistic. One count kernel gives Pr(v_(i) <= v) for i = 1..m:
H of the common marginal on i.i.d. products (one ``Dist`` repeated, as ``iid``
builds them), a Poisson-binomial recursion cut at row m on heterogeneous ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .dist import DEFAULT_GRID, Dist, check_grid, dist_from_arrays


@dataclass(frozen=True)
class ProductDist:
    """Ordered list of independent value distributions, one per bidder."""

    components: tuple[Dist, ...]

    def __post_init__(self):
        if len(self.components) < 1:
            raise ValueError("need at least one bidder")
        object.__setattr__(self, "components", tuple(self.components))

    @property
    def n(self) -> int:
        return len(self.components)

    @cached_property
    def common(self) -> Dist | None:
        """The marginal all bidders share when every component is one ``Dist``
        object (as ``iid`` builds them), else None; found once per product."""
        first = self.components[0]
        return first if all(c is first for c in self.components) else None

    def merged_knots(self) -> np.ndarray:
        if self.common is not None:
            return self.common.xs
        distinct = {id(c): c for c in self.components}.values()
        return np.unique(np.concatenate([c.xs for c in distinct]))

    def describe(self) -> str:
        labels = [c.describe() for c in self.components]
        if len(set(labels)) == 1:
            return f"{labels[0]}^{self.n}"
        return " x ".join(labels)


def iid(d: Dist, n: int) -> ProductDist:
    return ProductDist(tuple([d] * n))


@dataclass(frozen=True)
class AmbiguitySpec:
    """Observed data: the k-th order statistic of n independent bidders is
    distributed as G. Identifies the ambiguity set of all consistent
    product distributions."""

    n: int
    k: int
    G: Dist

    def __post_init__(self):
        if self.n < 1 or not (1 <= self.k <= self.n):
            raise ValueError("need 1 <= k <= n")


def _check_index(n: int, i: int) -> None:
    if not 1 <= i <= n:
        raise ValueError("order-statistic index out of range")


def h_poly(n: int, k: int, u):
    """CDF mapping for the k-th of n i.i.d. draws: Pr(Bin(n, 1-u) <= k-1),
    the regularized incomplete beta I_u(n-k+1, k). ``betainc`` loses digits
    below about 1e-280; there the log-sum ``_log_betainc`` takes over."""
    from scipy.special import betainc

    _check_index(n, k)
    u = np.asarray(u, dtype=np.float64)
    out = np.asarray(betainc(n - k + 1, k, u))
    deep = (out < _BETAINC_FLOOR) & (u > 0.0)
    if np.any(deep):
        out[deep] = np.exp(_log_betainc(n - k + 1, k, np.log(u[deep])))
    return out if out.ndim else float(out)


_BETAINC_FLOOR = 1e-280


def _log_betainc(a: int, k: int, x: np.ndarray) -> np.ndarray:
    """log I_u(a, k) at u = exp(x), as the log-sum of the binomial terms of
    Pr(Bin(a+k-1, u) >= a), all positive. log C(n, a) is summed term by term,
    because ``betaln`` is off by 1e-12 at (2, 2000)."""
    from scipy.special import logsumexp

    n = a + k - 1
    j = np.arange(a, n + 1)
    i = np.arange(1, min(a, k - 1) + 1)
    # log C(n, j), from log C(n, a) = log C(n, k-1) up by the ratios of neighbours
    log_binom = math.fsum(np.log((n + 1 - i) / i)) + np.concatenate(
        [[0.0], np.cumsum(np.log((n - j[:-1]) / (j[:-1] + 1)))]
    )
    return logsumexp(log_binom + j * x[:, None] + (n - j) * np.log1p(-np.exp(x))[:, None], axis=1)


_DEEP_TAIL = 1e-96


def h_inverse(n: int, k: int, g):
    """Inverse of h_poly; strictly increasing on [0, 1], endpoints exact.
    Entry by entry: each root depends only on its own g, never on the other
    entries of the call, bit for bit (``consistent_iid`` relies on it).

    Deep in the lower tail ``betaincinv`` loses the root: it returns NaN
    below g ~ 1e-108, and wrong values at some smaller g. The leading term
    of I_u(a, k) = u^a / (a B(a, k)) * (1 - a (k-1) / (a+1) * u + ...)
    gives u = (g a B(a, k))^(1/a), exact to 1e-13 where max(k-1, 1) u /
    (a+1) < 1e-13, and used there. Below g = 1e-96 every root is instead
    polished from that leading-term root by ``_polish_deep_root``.
    """
    from scipy.special import betaincinv, betaln

    _check_index(n, k)
    g_arr = np.asarray(g, dtype=np.float64)
    if not np.all((g_arr >= 0.0) & (g_arr <= 1.0)):
        raise ValueError("probability must lie in [0, 1]")
    a = n - k + 1
    with np.errstate(divide="ignore"):
        log_lead = (np.log(g_arr) + math.log(a) + betaln(a, k)) / a
    lead = np.exp(log_lead)
    out = betaincinv(a, k, g_arr)
    out = np.where(np.isnan(out) | (max(k - 1, 1) * lead < 1e-13 * (a + 1)), lead, out)
    deep = (g_arr > 0.0) & (g_arr < _DEEP_TAIL)
    if np.any(deep):
        out[deep] = _polish_deep_root(a, k, g_arr[deep], log_lead[deep])
    return out if out.ndim else float(out)


def _polish_deep_root(a: int, k: int, g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Solve I_u(a, k) = g for u from the log ``x`` of the leading-term root,
    which lies at or below the root, by Newton's method on log I_u in log u.

    That function is increasing and concave, so Newton steps from below stay
    below the root and increase monotonically; a step that leaves the bracket
    anyway (rounding) is replaced by bisection of the bracket in log u.
    log I_u is ``_log_betainc``, accurate where ``betainc`` is not; the root
    moves by its error over a. An entry stops at its own last step, so its
    root does not depend on the batch it is solved in.
    """
    from scipy.special import betaln

    log_g, log_b = np.log(g), betaln(a, k)
    root = x.copy()
    live = np.arange(x.size)  # the entries still stepping
    lo, hi = x, np.zeros(x.shape)  # log u brackets the root
    for _ in range(100):
        u = np.exp(x)
        log_i = _log_betainc(a, k, x)
        f = log_i - log_g
        with np.errstate(over="ignore"):
            # d log I / d log u = u^a (1-u)^(k-1) / (B(a, k) I_u)
            slope = np.exp(a * x + (k - 1) * np.log1p(-u) - log_b - log_i)
            step = x - f / slope
        lo, hi = np.where(f <= 0.0, x, lo), np.where(f > 0.0, x, hi)
        nxt = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
        root[live] = nxt
        going = ~(np.abs(nxt - x) <= 4.0 * np.finfo(float).eps * np.abs(x))
        if not going.any():
            break
        live, x, lo, hi, log_g = live[going], nxt[going], lo[going], hi[going], log_g[going]
    return np.exp(root)


_REFINE_MASS = 1.0 / 64.0


def consistent_iid(spec: AmbiguitySpec, grid: int = DEFAULT_GRID, *, reserve: float = 0.0) -> Dist:
    """The unique distribution F with Phi_k(F^n) = G, exact at and above
    ``reserve``.

    Maps G's CDF through the inverse bijection at every knot of G. Coarse
    continuous segments (a uniform G is a single one) are subdivided so the
    curvature introduced by the inversion is resolved; segments already finer
    than 1/64 of the mass are left alone, keeping every knot an exact
    inversion of an exact knot of G. The two sides of a knot differ only at
    G's atoms, so the right-side levels are inverted once and a left-side
    level only where it differs; since ``h_inverse`` works entry by entry,
    F is bit for bit what inverting both sides in full gives.

    A revenue at reserve r reads F only at and above r. So only the knots
    from the last one strictly below ``reserve`` up are kept and inverted,
    and the mass below lumps into an atom at that knot: past its left side,
    every level kept is the whole law's, bit for bit. The default reserve 0
    lies at or below every support, so it keeps the whole law.
    """
    check_grid(grid)
    if not reserve >= 0.0:  # NaN too
        raise ValueError("reserve must be non-negative")
    G = spec.G
    rise = G.segments.rise[1:]
    n_sub = np.where(rise > _REFINE_MASS, np.ceil(rise * grid), 1).astype(np.int64)
    seg = np.repeat(np.arange(len(rise)), n_sub)  # the G segment of every new knot
    t = (np.arange(len(seg)) - np.repeat(np.cumsum(n_sub) - n_sub, n_sub)) / n_sub[seg]
    xs = np.append(G.xs[seg] + t * (G.xs[seg + 1] - G.xs[seg]), G.xs[-1])
    f = G.f_right[seg] + t * rise[seg]
    fl = np.append(np.where(t == 0.0, G.f_left[seg], f), G.f_left[-1])
    fr = np.append(f, G.f_right[-1])
    cut = max(int(np.searchsorted(xs, reserve)) - 1, 0)  # the last knot strictly below the reserve
    xs, fl, fr = xs[cut:], fl[cut:], fr[cut:]
    ur = h_inverse(spec.n, spec.k, fr)
    ul = ur.copy()
    # F is 0 below the first kept knot, as h_inverse(0) gives where nothing is
    # cut: no second inversion there
    ul[0] = 0.0
    jumps = fl != fr
    jumps[0] = False
    if jumps.any():
        ul[jumps] = h_inverse(spec.n, spec.k, fl[jumps])
    return dist_from_arrays(xs, ul, ur, label=f"iid(k={spec.k},n={spec.n};{G.describe()})")


def poisson_binomial_pmf(x) -> np.ndarray:
    """Exact pmf of a sum of independent Bernoulli(x_j) by convolution.

    ``x`` may carry trailing axes, one sum per column: row t of the result is
    Pr(sum = t) for every column at once.
    """
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError("success probabilities must lie in [0, 1]")
    return _pb_pmf(x)


def _pb_pmf(x: np.ndarray, rows: int | None = None) -> np.ndarray:
    # the first ``rows`` rows only: row t reads rows t and t-1 alone, so they equal the
    # full table's bit for bit (the k-out-of-n recursion of Barlow and Heidtmann, 1984)
    pmf = np.zeros((rows or len(x) + 1,) + x.shape[1:])
    pmf[0] = 1.0
    for j, p in enumerate(x):
        top = min(j + 2, len(pmf))
        pmf[1:top] = pmf[1:top] * (1.0 - p) + pmf[: top - 1] * p
        pmf[0] = pmf[0] * (1.0 - p)
    return pmf


def _order_stat_below(pd: ProductDist, rows: range, v, strict: bool = False) -> np.ndarray:
    """Pr(v_(i) < v) if ``strict`` else Pr(v_(i) <= v), one row per i in
    ``rows`` at every entry of ``v``: at most i-1 of the n values reach
    (exceed) v, counted by H or by one table cut at the last row."""
    F = pd.common
    if F is not None:
        u = F.cdf_left(v) if strict else F.cdf(v)
        return np.stack([h_poly(pd.n, i, u) for i in rows])
    # survivals of valid distributions lie in [0, 1]: no need to re-check
    return _count_below(np.stack([c.survival_left(v) if strict else c.survival(v) for c in pd.components]), rows)


def _count_below(x: np.ndarray, rows: range) -> np.ndarray:
    """Pr(v_(i) <= v), one row per i in ``rows``, from the survivals ``x`` at
    v (one row per bidder): at most i-1 of them exceed v."""
    return np.minimum(np.cumsum(_pb_pmf(x, rows=rows.stop - 1), axis=0)[rows.start - 1 :], 1.0)


def order_stat_cdf(pd: ProductDist, i: int, v):
    """Pr(v_(i) <= v): at most i-1 of the n values strictly exceed v."""
    _check_index(pd.n, i)
    return _order_stat_below(pd, range(i, i + 1), v)[0]


def order_stat_reach(pd: ProductDist, m: int, r: np.ndarray) -> np.ndarray:
    """Pr(v_(i) >= r) for i = 1..m (rows) at every entry of ``r`` (columns)."""
    _check_index(pd.n, m)
    return 1.0 - _order_stat_below(pd, range(1, m + 1), r, strict=True)


# below this relative move of x the antiderivative difference cancels, while
# three-point Gauss-Legendre is exact to rounding
_FLAT_SEGMENT = 1e-3
# survivals a heterogeneous tail evaluates per pass: bidders x nodes x segments
_TAIL_CHUNK = 2**20


@cache
def _gauss(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], exact for
    polynomials of degree below 2 ``points``."""
    rule = np.polynomial.legendre.leggauss(points)
    for a in rule:
        a.setflags(write=False)
    return rule


def _mean_betainc(p: int, q: int, x0: np.ndarray, x1: np.ndarray) -> np.ndarray:
    """Mean of I_x(p, q) over x between x0 and x1, elementwise, through its
    antiderivative x I_x(p, q) - p/(p+q) I_x(p+1, q)."""
    from scipy.special import betainc

    def K(x):
        return x * betainc(p, q, x) - p / (p + q) * betainc(p + 1, q, x)

    out = np.empty(x0.shape)
    flat = np.abs(x1 - x0) <= _FLAT_SEGMENT * np.maximum(x0, x1)
    if flat.any():
        mid, half = 0.5 * (x0[flat] + x1[flat]), 0.5 * (x1[flat] - x0[flat])
        gx, gw = _gauss(3)
        out[flat] = 0.5 * betainc(p, q, mid[:, None] + half[:, None] * gx) @ gw
    if not flat.all():
        x0, x1 = x0[~flat], x1[~flat]
        out[~flat] = (K(x1) - K(x0)) / (x1 - x0)
    return out


class OrderStatTail:
    """Precomputed exact integrals of sum_j w_j Pr(v_(j) > t) over [lo, inf),
    w_j = ``weights[j-1]``.

    Between merged knots every CDF is linear in t. For an i.i.d. product,
    Pr(v_(j) > t) = I_s(j, n-j+1) = 1 - I_F(n-j+1, j) with the common
    survival s = 1 - F, integrated in closed form per j (in the smaller of s
    and F, where the antiderivative cancels least); for a heterogeneous one
    the sum is a polynomial of degree <= n, integrated by exact Gauss-Legendre
    in passes of at most ``_TAIL_CHUNK`` survivals, so its memory does not
    grow with the number of segments.

    Only integrals from ``reserve`` up are read: the merged knots are kept
    from the last one at or below it up. Each segment integrates on its own
    and the suffix sums run from the top, so what is kept is what the whole
    table holds (up to the rounding of the dot products, whose order can
    depend on a segment's place in the array).
    """

    def __init__(self, pd: ProductDist, weights, *, reserve: float = 0.0):
        _check_index(pd.n, len(weights))
        self.pd = pd
        self._w = np.asarray(weights, dtype=np.float64)
        knots = pd.merged_knots()
        self.knots = knots[max(int(np.searchsorted(knots, reserve, side="right")) - 1, 0) :]
        a, b = self.knots[:-1], self.knots[1:]
        self._suffix = np.concatenate([np.cumsum(self._segments(a, b)[::-1])[::-1], [0.0]])

    def _segments(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Integrals over [a, b] for arrays of bounds inside one knot segment each."""
        F = self.pd.common
        if F is None:
            rule = _gauss((self.pd.n + 2) // 2)  # exact for polynomial degree n
            step = max(1, _TAIL_CHUNK // (self.pd.n * len(rule[0])))
            out = np.empty(a.shape)
            for i in range(0, len(a), step):
                out[i : i + step] = self._product_segments(a[i : i + step], b[i : i + step], *rule)
            return out
        n = self.pd.n
        F0, F1 = F.cdf(a), F.cdf_left(b)
        upper = F0 + F1 >= 1.0  # survival below one half
        s0, s1, f0, f1 = 1.0 - F0[upper], 1.0 - F1[upper], F0[~upper], F1[~upper]
        mean = np.zeros(a.shape)
        for j in np.flatnonzero(self._w) + 1:
            mean[upper] += self._w[j - 1] * _mean_betainc(j, n - j + 1, s0, s1)
            mean[~upper] += self._w[j - 1] * (1.0 - _mean_betainc(n - j + 1, j, f0, f1))
        return (b - a) * mean

    def _product_segments(self, a: np.ndarray, b: np.ndarray, gx: np.ndarray, gw: np.ndarray) -> np.ndarray:
        """``_segments`` on a heterogeneous product, by the Gauss-Legendre rule
        ``(gx, gw)``. No component has a knot strictly inside a merged
        segment, so each component's survival at a segment's nodes reads the
        one CDF piece that holds its lower end."""
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        pts = mid[:, None] + half[:, None] * gx[None, :]
        x = np.empty((self.pd.n, pts.size))  # survivals, one row per bidder
        for row, c in zip(x, self.pd.components):
            np.subtract(1.0, c._cdf_rows(pts, a).ravel(), out=row)
        below = _count_below(x, range(1, len(self._w) + 1))
        sf = (self._w @ (1.0 - below)).reshape(pts.shape)
        return (sf * gw[None, :]).sum(axis=1) * half

    def integral_from(self, lo: np.ndarray) -> np.ndarray:
        """Integral of sum_j w_j Pr(v_(j) > t) over [lo, inf) for every entry
        of ``lo`` at or above the reserve."""
        k = self.knots
        start = np.clip(lo, k[0], k[-1])
        nxt = np.minimum(np.searchsorted(k, start, side="right"), len(k) - 1)
        # below every support each order statistic exceeds t surely
        return self._w.sum() * np.maximum(k[0] - lo, 0.0) + self._segments(start, k[nxt]) + self._suffix[nxt]
