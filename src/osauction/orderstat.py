"""Order-statistic machinery for independent (not necessarily identical) bidders.

Centerpiece: the polynomial bijection mapping a marginal CDF value u to the
CDF of the k-th largest of n i.i.d. draws,

    H(n, k, u) = Pr(Bin(n, 1-u) <= k-1),

its inverse, and the unique i.i.d. distribution consistent with an observed
k-th order statistic. Marginals of heterogeneous products go through exact
Poisson-binomial convolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import Dist, dist_from_arrays, point_mass


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

    def merged_knots(self) -> np.ndarray:
        return np.unique(np.concatenate([c.xs for c in self.components]))

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


def h_poly(n: int, k: int, u):
    """CDF mapping for the k-th of n i.i.d. draws: Pr(Bin(n, 1-u) <= k-1).

    Summed from whichever end of the binomial pmf is smaller, so the value
    stays accurate near both endpoints.
    """
    if not 1 <= k <= n:
        raise ValueError("order-statistic index out of range")
    u = np.asarray(u, dtype=np.float64)
    head = np.zeros(u.shape)
    for t in range(k):
        head = head + math.comb(n, t) * (1.0 - u) ** t * u ** (n - t)
    tail = np.zeros(u.shape)
    for t in range(k, n + 1):
        tail = tail + math.comb(n, t) * (1.0 - u) ** t * u ** (n - t)
    out = np.where(u > 0.5, 1.0 - tail, head)
    out = np.clip(out, 0.0, 1.0)
    return out if out.ndim else float(out)


def h_inverse(n: int, k: int, g):
    """Inverse of h_poly via bisection; strictly increasing on [0, 1].

    Bisection (not Newton) because the derivative vanishes at the endpoints
    for some (n, k). Endpoints are returned exactly.
    """
    g_arr = np.asarray(g, dtype=np.float64)
    if np.any(g_arr < 0.0) or np.any(g_arr > 1.0):
        raise ValueError("probability must lie in [0, 1]")
    lo = np.zeros(g_arr.shape)
    hi = np.ones(g_arr.shape)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        below = h_poly(n, k, mid) < g_arr
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    out = 0.5 * (lo + hi)
    out = np.where(g_arr == 0.0, 0.0, out)
    out = np.where(g_arr == 1.0, 1.0, out)
    return out if out.ndim else float(out)


_REFINE_MASS = 1.0 / 64.0


def consistent_iid(spec: AmbiguitySpec, grid: int = 4096) -> Dist:
    """The unique distribution F with Phi_k(F^n) = G.

    Maps G's CDF through the inverse bijection at every knot of G. Coarse
    continuous segments (a uniform G is a single one) are subdivided so the
    curvature introduced by the inversion is resolved; segments already finer
    than 1/64 of the mass are left alone, keeping every knot an exact
    inversion of an exact knot of G.
    """
    G = spec.G
    xs = [float(G.xs[0])]
    fl = [float(G.f_left[0])]
    fr = [float(G.f_right[0])]
    for i in range(len(G.xs) - 1):
        c_lo, c_hi = float(G.f_right[i]), float(G.f_left[i + 1])
        x_lo, x_hi = float(G.xs[i]), float(G.xs[i + 1])
        if c_hi - c_lo > _REFINE_MASS:
            n_sub = max(1, int(math.ceil((c_hi - c_lo) * grid)))
            for j in range(1, n_sub):
                t = j / n_sub
                xs.append(x_lo + t * (x_hi - x_lo))
                f = c_lo + t * (c_hi - c_lo)
                fl.append(f)
                fr.append(f)
        xs.append(x_hi)
        fl.append(c_hi)
        fr.append(float(G.f_right[i + 1]))
    u_left = h_inverse(spec.n, spec.k, np.array(fl))
    u_right = h_inverse(spec.n, spec.k, np.array(fr))
    return dist_from_arrays(
        np.array(xs), u_left, u_right, label=f"iid(k={spec.k},n={spec.n};{G.describe()})"
    )


def poisson_binomial_pmf(x) -> np.ndarray:
    """Exact pmf of a sum of independent Bernoulli(x_j) by convolution.

    ``x`` may carry trailing axes, one sum per column: row t of the result is
    Pr(sum = t) for every column at once.
    """
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError("success probabilities must lie in [0, 1]")
    return _pb_pmf(x)


def _pb_pmf(x: np.ndarray) -> np.ndarray:
    pmf = np.zeros((len(x) + 1,) + x.shape[1:])
    pmf[0] = 1.0
    for j, p in enumerate(x):
        pmf[1 : j + 2] = pmf[1 : j + 2] * (1.0 - p) + pmf[: j + 1] * p
        pmf[0] = pmf[0] * (1.0 - p)
    return pmf


def order_stat_cdf(pd: ProductDist, i: int, v):
    """Pr(v_(i) <= v): at most i-1 of the n values strictly exceed v."""
    n = pd.n
    if not 1 <= i <= n:
        raise ValueError("order-statistic index out of range")
    v = np.asarray(v, dtype=np.float64)
    # survivals of valid distributions lie in [0, 1]: no need to re-check
    surv = np.stack([np.atleast_1d(c.survival(v)) for c in pd.components])
    out = np.clip(_pb_pmf(surv)[:i].sum(axis=0), 0.0, 1.0)
    return out if v.ndim else float(out[0])


def fosd_check(d1: Dist, d2: Dist, tol: float = 1e-12) -> bool:
    """First-order stochastic dominance of d1 over d2: F1 <= F2 everywhere
    on the merged knot grid (both sides of every jump)."""
    xs = np.unique(np.concatenate([d1.xs, d2.xs]))
    ok_right = np.all(d1.cdf(xs) <= d2.cdf(xs) + tol)
    ok_left = np.all(d1.cdf_left(xs) <= d2.cdf_left(xs) + tol)
    return bool(ok_right and ok_left)


def minimal_orderstat_cdf(spec: AmbiguitySpec, i: int, grid: int = 4096) -> Dist:
    """Stochastically minimal i-th order-statistic marginal over the
    ambiguity set: the consistent i.i.d. marginal for i <= k, and a point
    mass at zero for i > k (dummy bidders can absorb every lower slot)."""
    if not 1 <= i <= spec.n:
        raise ValueError("order-statistic index out of range")
    if i > spec.k:
        return point_mass(0.0)
    fbar = consistent_iid(spec, grid=grid)
    fl = h_poly(spec.n, i, fbar.f_left)
    fr = h_poly(spec.n, i, fbar.f_right)
    return dist_from_arrays(
        fbar.xs.copy(), fl, fr, label=f"min_stat(i={i};{spec.G.describe()})"
    )
