"""Brute-force certifiers on small discrete instances.

Everything here recomputes expectations by exhaustive enumeration over
finite product supports (and over all tie-break priority orders where the
mechanism randomizes), independently of the closed forms in the revenue
module. These are the ground truth the analytic code is tested against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import mech as M
from .dist import DEFAULT_GRID, Dist, dist_from_arrays, point_mass, two_point
from .orderstat import (
    AmbiguitySpec, ProductDist, _check_index, consistent_iid, h_inverse, h_poly, poisson_binomial_pmf,
)

OUTCOME_GUARD = 10**6


@dataclass(frozen=True)
class DiscreteInstance:
    """Finite per-bidder supports with probabilities."""

    supports: tuple[tuple[float, ...], ...]
    probs: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if len(self.supports) != len(self.probs) or not self.supports:
            raise ValueError("need matching non-empty supports and probs")
        if len(self.supports) > 8:
            raise ValueError("instances are capped at 8 bidders")
        for p in self.probs:
            if abs(sum(p) - 1.0) > 1e-12:
                raise ValueError("bidder probabilities must sum to 1")
        if self.outcome_count() > OUTCOME_GUARD:
            raise ValueError("outcome count exceeds the enumeration guard")

    @property
    def n(self) -> int:
        return len(self.supports)

    def outcome_count(self) -> int:
        return math.prod(len(s) for s in self.supports)

    @staticmethod
    def from_dists(dists) -> "DiscreteInstance":
        supports, probs = [], []
        for d in dists:
            if not d.is_discrete:
                raise ValueError("exhaustive oracles need purely atomic bidders")
            atoms = d.atoms
            supports.append(tuple(v for v, _ in atoms))
            probs.append(tuple(m for _, m in atoms))
        return DiscreteInstance(tuple(supports), tuple(probs))


def _all_priorities(n: int):
    for perm in itertools.permutations(range(n)):
        rank = [0] * n
        for pos, b in enumerate(perm):
            rank[b] = pos
        yield tuple(rank)


def exhaustive_revenue(mechanism: M.Mechanism, inst: DiscreteInstance) -> float:
    """Exact expected revenue by enumerating the full product support.

    Uniform tie-breaking is resolved by averaging the mechanism over all n!
    priority orders, the mixture it stands for.
    """
    uniform_tb = isinstance(mechanism, M.MyersonIID) and mechanism.tiebreak == "uniform"
    priorities = list(_all_priorities(inst.n)) if uniform_tb else None
    total = 0.0
    for combo in itertools.product(*[range(len(s)) for s in inst.supports]):
        weight = math.prod(inst.probs[j][c] for j, c in enumerate(combo))
        if weight == 0.0:
            continue
        prof = M.Profile(tuple(inst.supports[j][c] for j, c in enumerate(combo)))
        if uniform_tb:
            pay = sum(
                M.myerson_outcome(mechanism.base, "uniform", prof, priority=pr).total_payment
                for pr in priorities
            ) / len(priorities)
        else:
            pay = M.outcome(mechanism, prof).total_payment
        total += weight * pay
    return total


def exhaustive_order_stat_cdf(inst: DiscreteInstance, i: int, v: float) -> float:
    """Pr(v_(i) <= v) by enumeration; certifies the convolution route."""
    total = 0.0
    for combo in itertools.product(*[range(len(s)) for s in inst.supports]):
        weight = math.prod(inst.probs[j][c] for j, c in enumerate(combo))
        vals = sorted(
            (inst.supports[j][c] for j, c in enumerate(combo)), reverse=True
        )
        if vals[i - 1] <= v:
            total += weight
    return total


# -- stochastic dominance of order statistics -----------------------------------


def fosd_check(d1: Dist, d2: Dist, tol: float = 1e-12) -> bool:
    """First-order stochastic dominance of d1 over d2: F1 <= F2 everywhere
    on the merged knot grid (both sides of every jump)."""
    xs = np.unique(np.concatenate([d1.xs, d2.xs]))
    ok_right = np.all(d1.cdf(xs) <= d2.cdf(xs) + tol)
    ok_left = np.all(d1.cdf_left(xs) <= d2.cdf_left(xs) + tol)
    return bool(ok_right and ok_left)


def minimal_orderstat_cdf(spec: AmbiguitySpec, i: int, grid: int = DEFAULT_GRID) -> Dist:
    """Stochastically minimal i-th order-statistic marginal over the
    ambiguity set: the consistent i.i.d. marginal for i <= k, and a point
    mass at zero for i > k (dummy bidders can absorb every lower slot)."""
    _check_index(spec.n, i)
    if i > spec.k:
        return point_mass(0.0)
    fbar = consistent_iid(spec, grid=grid)
    fl = h_poly(spec.n, i, fbar.f_left)
    fr = h_poly(spec.n, i, fbar.f_right)
    return dist_from_arrays(
        fbar.xs.copy(), fl, fr, label=f"min_stat(i={i};{spec.G.describe()})"
    )


# -- feasible-set sampling for two-point observations ---------------------------


def _solve_last_survival(xs_rest: np.ndarray, k: int, g: float) -> float | None:
    """Survival of the last bidder making Pr(#{values above} <= k-1) = g.

    The constraint is linear in the last coordinate: with S the count from
    the fixed bidders, Pr(S + X <= k-1) = Pr(S <= k-1) - x * Pr(S = k-1).
    """
    pmf = poisson_binomial_pmf(xs_rest)
    cdf = float(pmf[: k].sum())
    at = float(pmf[k - 1]) if k - 1 < len(pmf) else 0.0
    if at <= 0.0:
        return None
    x = (cdf - g) / at
    if -1e-12 <= x <= 1.0 + 1e-12:
        return float(min(max(x, 0.0), 1.0))
    return None


def feasible_sampler_pi_k(spec: AmbiguitySpec, trials: int, seed: int) -> list[np.ndarray]:
    """Sample survival vectors of two-point product distributions consistent
    with a two-point observed order statistic.

    The observation must be supported on two points {v_lo, v_hi}; each bidder
    is two-point on the same support and the vector of survival probabilities
    at v_lo must put the k-th order statistic's CDF at G(v_lo). The first
    n-1 survivals are drawn uniformly and the last is solved from the (linear)
    tail constraint; infeasible draws are discarded.
    """
    atoms = spec.G.atoms
    if len(atoms) != 2 or not spec.G.is_discrete:
        raise ValueError("feasible sampling needs a two-point observation")
    g = atoms[0][1]  # CDF at the lower support point
    rng = np.random.Generator(np.random.Philox(key=seed))
    out: list[np.ndarray] = []
    for _ in range(trials):
        rest = rng.random(spec.n - 1)
        x_n = _solve_last_survival(rest, spec.k, g)
        if x_n is None:
            continue
        x = np.concatenate([rest, [x_n]])
        pmf = poisson_binomial_pmf(x)
        if abs(float(pmf[: spec.k].sum()) - g) <= 1e-10:
            out.append(x)
    return out


def product_from_survivals(x, v_lo: float, v_hi: float) -> ProductDist:
    """Two-point bidders on {v_lo, v_hi} with the given survivals at v_lo."""
    comps = []
    for s in np.asarray(x, dtype=float):
        if s <= 1e-12:
            comps.append(point_mass(v_lo))
        elif s >= 1.0 - 1e-12:
            comps.append(point_mass(v_hi))
        else:
            comps.append(two_point(v_lo, 1.0 - s, v_hi))
    return ProductDist(tuple(comps))


def symmetric_optimum_grid_check(n: int, k: int, i: int, g: float, grid_step: float = 0.02):
    """Grid-search certificate that the symmetric survival vector maximizes
    Pr(fewer than i values above) subject to the k-th order-statistic
    constraint.

    Scans all grid points for the first n-1 survivals, solves the last one
    from the linear tail constraint, and compares the grid maximum of the
    objective with the symmetric solution. Returns (grid_max, symmetric).
    """
    if not (i < k <= n <= 5):
        raise ValueError("grid check is desk-scale only: i < k <= n <= 5")
    if grid_step < 1e-2:
        raise ValueError("grid step below 1e-2 is not supported")
    pts = np.arange(0.0, 1.0 + grid_step / 2, grid_step)
    pts = np.minimum(pts, 1.0)
    grids = np.meshgrid(*([pts] * (n - 1)), indexing="ij")
    rest = np.stack([a.ravel() for a in grids], axis=1)  # (m, n-1)
    m = rest.shape[0]
    pmf = poisson_binomial_pmf(rest.T).T  # of the first n-1 coordinates, per grid point
    cdf_k = pmf[:, :k].sum(axis=1)
    at_k = pmf[:, k - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        x_last = np.where(at_k > 0, (cdf_k - g) / np.where(at_k > 0, at_k, 1.0), np.nan)
    feasible = (x_last >= -1e-12) & (x_last <= 1.0 + 1e-12) & (at_k > 0)
    # degenerate: the last coordinate cannot move the constraint but it
    # already holds; any x works, take 0
    degen = (at_k <= 0) & (np.abs(cdf_k - g) <= 1e-12)
    x_last = np.where(degen, 0.0, x_last)
    feasible = feasible | degen
    x_last = np.clip(x_last, 0.0, 1.0)
    cdf_i = pmf[:, :i].sum(axis=1)
    at_i = pmf[:, i - 1] if i - 1 < n else np.zeros(m)
    objective = cdf_i - x_last * at_i
    grid_max = float(np.max(np.where(feasible, objective, -np.inf)))
    u_sym = h_inverse(n, k, g)
    symmetric = float(h_poly(n, i, u_sym))
    return grid_max, symmetric


# -- counterexample to i.i.d. optimism -------------------------------------------


@dataclass(frozen=True)
class CounterexampleReport:
    q: float
    opt_iid: float
    opt_iid_formula: float
    opt_construction: float
    opt_construction_formula: float
    second_stat_max_error: float
    gap: float
    regime_ok: bool
    regime_threshold: float


def pooled_regime_threshold() -> float:
    """Root in (1/2, 1) of 3q^2 - 2q^3 = 3/4: above it the two-active-bidder
    construction keeps every ironed virtual value non-negative. With
    q = y + 1/2 the cubic is y^3 - 3y/4 + 1/8 = 0, and 4 cos^3 t - 3 cos t =
    cos 3t gives its root in (0, 1/2) as y = cos(4 pi / 9)."""
    return 0.5 + math.cos(4 * math.pi / 9)


def counterexample_certificate(q: float) -> CounterexampleReport:
    """Certify that optimal revenue at the consistent i.i.d. distribution
    overstates the worst case over the ambiguity set of the second order
    statistic.

    Builds the two-point base {1 w.p. q, 2 w.p. 1-q} with three i.i.d.
    bidders, and the alternative with two heavier two-point bidders plus a
    dummy at zero. Checks by enumeration that the two products share the
    same second-order-statistic distribution while the alternative's optimal
    revenue 1 + sqrt(1 - 3q^2 + 2q^3) falls strictly below 2 - q^2.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    f_disc = two_point(1.0, q, 2.0)
    iid3 = DiscreteInstance.from_dists([f_disc] * 3)
    opt_iid = exhaustive_revenue(M.MyersonIID(f_disc, "lexicographic"), iid3)

    s = math.sqrt(1.0 - 3.0 * q**2 + 2.0 * q**3)
    heavy = two_point(1.0, 1.0 - s, 2.0)
    alt = DiscreteInstance.from_dists([heavy, heavy, point_mass(0.0)])
    opt_alt = exhaustive_revenue(M.MyersonIID(heavy, "lexicographic"), alt)

    g_low = 3.0 * q**2 - 2.0 * q**3
    err = 0.0
    for v, want in ((1.0, g_low), (2.0, 1.0)):
        err = max(err, abs(exhaustive_order_stat_cdf(iid3, 2, v) - want))
        err = max(err, abs(exhaustive_order_stat_cdf(alt, 2, v) - want))

    return CounterexampleReport(
        q=q,
        opt_iid=opt_iid,
        opt_iid_formula=2.0 - q**2,
        opt_construction=opt_alt,
        opt_construction_formula=1.0 + s,
        second_stat_max_error=err,
        gap=opt_iid - opt_alt,
        regime_ok=3.0 * q**2 - 2.0 * q**3 >= 0.75,
        regime_threshold=pooled_regime_threshold(),
    )


# -- pairwise averaging ------------------------------------------------------------


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


def dominance_bivariate_check(d1: Dist, d2: Dist, d: Dist, tol: float = 1e-12):
    """Check, at every merged-grid pair h >= l, that the original pair puts
    at least as much probability on {max >= h, min >= l} as two i.i.d. draws
    from the geometric average do. Returns (holds, worst_violation)."""
    xs = np.unique(np.concatenate([d1.xs, d2.xs, d.xs]))
    surv = []
    for dd in (d1, d2, d):
        surv.append(np.concatenate([dd.survival_left(xs), dd.survival(xs)]))
    s1, s2, s = surv
    # thresholds ordered by strictness: ">= x" just below "> x" at each knot
    order = np.argsort(np.concatenate([xs, xs]), kind="stable")
    s1, s2, s = s1[order], s2[order], s[order]
    m = len(s1)
    worst = 0.0
    for hi in range(m):  # h index in value order; l runs over lower values
        a1, a2, a = s1[hi], s2[hi], s[hi]
        l1, l2, lv = s1[: hi + 1], s2[: hi + 1], s[: hi + 1]
        lhs = a1 * l2 + a2 * l1 - a1 * a2
        rhs = 2.0 * a * lv - a * a
        worst = max(worst, float(np.max(rhs - lhs, initial=0.0)))
    return worst <= tol, worst


def averaging_convergence_check(pd: ProductDist, sweeps: int = 200) -> float:
    """Run round-robin pairwise geometric averaging of survival functions on
    the merged grid and return the sup-norm distance from the closed-form
    limit (one minus the geometric mean of all survivals)."""
    xs = pd.merged_knots()
    rows_l = np.stack([c.survival_left(xs) for c in pd.components])
    rows_r = np.stack([c.survival(xs) for c in pd.components])
    n = pd.n
    limit_l = np.prod(rows_l, axis=0) ** (1.0 / n)
    limit_r = np.prod(rows_r, axis=0) ** (1.0 / n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for _ in range(sweeps):
        for i, j in pairs:
            for rows in (rows_l, rows_r):
                avg = np.sqrt(rows[i] * rows[j])
                rows[i] = avg
                rows[j] = avg
    err = max(
        float(np.max(np.abs(rows_l - limit_l[None, :]), initial=0.0)),
        float(np.max(np.abs(rows_r - limit_r[None, :]), initial=0.0)),
    )
    return err
