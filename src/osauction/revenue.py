"""Expected revenue: exact closed forms on the piecewise-linear representation,
seeded Monte Carlo, worst cases over the ambiguity set, reserve optimization,
and the bounds that hold uniformly over the number of bidders.

Every separable mechanism goes through one evaluator built from its payment
weights (``mech.separable_form``) and scored at whole arrays of reserves;
Monte Carlo payments come from the same weights, and only Myerson has its
own kernel: one array pass for both tie-breaking rules, which averages
uniform ties exactly over the priority orders instead of drawing one, so it
needs no random draw and works for any number of bidders. Monte Carlo
values are bidder-major, one row per bidder and one column per sample, so
the kernels reduce over contiguous rows; each row is drawn through
``Dist.quantile`` and scored through ``VirtualValueFn.eval``, which read
per-segment tables built once per instance. Samples run in fixed blocks,
each drawing its own slice of one counter-based stream, on every available
CPU, and the payments are reduced in sample order, so an estimate does not
depend on the number of CPUs. The evaluator's order-statistic terms come
from ``orderstat``: Pr(v_(i) >= r) for the top rows at once, and one
``OrderStatTail`` per mechanism for the weighted sum of the exact tail
integrals of Pr(v_(j) > t). The unknown-n guarantee and its root z* take
arrays of reserves, so its reserve search scores every candidate in one
pass too.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import mech as M
from .dist import Dist, RevenueCurve, iron, is_regular_above_reserve, revenue_curve, virtual_values
from .orderstat import (
    AmbiguitySpec,
    OrderStatTail,
    ProductDist,
    consistent_iid,
    iid,
    order_stat_reach,
)


class NotSeparableError(ValueError):
    """Raised when a robust worst-case evaluation is requested for a
    mechanism whose revenue is not separable across top order statistics.
    Evaluating such a mechanism at the consistent i.i.d. point would
    overstate its guarantee."""


@dataclass(frozen=True)
class RevenueReport:
    mechanism: str
    distribution: str
    expected_revenue: float
    method: str  # "closed-form" | "monte-carlo"
    mc_stderr: float | None = None
    samples: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.method == "monte-carlo":
            if self.mc_stderr is None or self.samples is None or self.seed is None:
                raise ValueError("monte-carlo reports need stderr, samples and seed")
        elif self.method == "closed-form":
            if self.mc_stderr is not None or self.samples is not None:
                raise ValueError("closed-form reports carry no sampling fields")
        else:
            raise ValueError(f"unknown method {self.method!r}")

    def as_row(self) -> dict:
        return {
            "mechanism": self.mechanism,
            "distribution": self.distribution,
            "method": self.method,
            "expected_revenue": self.expected_revenue,
            "mc_stderr": self.mc_stderr,
            "samples": self.samples,
            "seed": self.seed,
        }


# -- exact building blocks ----------------------------------------------------


def _separable_revenue(a, b, pd: ProductDist):
    """Expected revenue of the separable payment weights ``(a, b)`` (see
    ``mech.separable_form``) on ``pd``, as a function of an array of reserves:

        r * sum_i a_i Pr(v_(i) >= r) + sum_j b_j * integral_r^inf Pr(v_(j) > t) dt.

    Statistics below the last bidder are 0, so they add nothing at r > 0.
    All tail terms share one ``OrderStatTail``, none when ``b`` is empty.
    """
    a = np.asarray(a[: pd.n], dtype=np.float64)
    w = (0.0,) + tuple(b[: pd.n - 1])  # the weight of v_(j) at index j-1
    tail = OrderStatTail(pd, w) if any(w) else None

    def revenue(rs: np.ndarray) -> np.ndarray:
        total = rs * (a @ order_stat_reach(pd, len(a), rs))
        return total if tail is None else total + tail.integral_from(rs)

    return revenue


def _separable_form(mechanism: M.Mechanism, n: int):
    """``mech.separable_form`` for n bidders, refusing what it does not cover."""
    form = M.separable_form(mechanism)
    if form is None:
        raise NotSeparableError(
            "no closed form: this mechanism's revenue is not separable across "
            "top order statistics"
        )
    if form[0] < 0:
        raise ValueError("reserve must be non-negative")
    if isinstance(mechanism, M.MultiUnit) and mechanism.units >= n:
        raise ValueError("need more bidders than units")
    return form


def closed_form_revenue(mechanism: M.Mechanism, pd: ProductDist) -> float:
    """Exact expected revenue for the separable mechanism families."""
    r, a, b = _separable_form(mechanism, pd.n)
    return float(_separable_revenue(a, b, pd)(np.array([float(r)]))[0])


def _optimal_revenue_bound(d: Dist, n: int) -> float:
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
    hull = iron(RevenueCurve(qs, rs, qs, rs, ()))
    F, slope = 1.0 - hull.ironed_qs, np.diff(hull.ironed_rs) / np.diff(hull.ironed_qs)
    return float(np.maximum(slope, 0.0) @ (F[:-1] ** n - F[1:] ** n))


def myerson_iid_revenue(base: Dist, n: int) -> float:
    """Expected revenue of the symmetric ironed-virtual-value auction on its
    own design distribution, E[(max ironed virtual value)+]: the hull integral
    ``_optimal_revenue_bound``, exact only on a purely atomic base."""
    if not base.is_discrete:
        raise ValueError("exact evaluation needs a purely atomic base")
    return _optimal_revenue_bound(base, n)


# -- Monte Carlo ---------------------------------------------------------------


# samples per Monte Carlo block; a multiple of 4, so every block's first draw
# starts a Philox counter
_MC_BLOCK = 16384


def _uniform_matrix(seed: int, samples: int, width: int, start: int = 0) -> np.ndarray:
    """Rows ``start`` to ``start + samples`` of the seed's draw matrix.

    The generator is counter-based: the draw for sample s and column c is a
    fixed function of (seed, s, c), independent of evaluation order. Each
    counter yields four draws, so ``start * width`` must be a multiple of 4.
    """
    if start * width % 4:
        raise ValueError("the first draw must start a Philox counter")
    bits = np.random.Philox(key=seed)
    bits.advance(start * width // 4)
    return np.random.Generator(bits).random((samples, width))


def _myerson_payments(base: Dist, tiebreak: str, values: np.ndarray) -> np.ndarray:
    """Vectorized total payments of the symmetric Myerson auction on
    bidder-major values (one row per bidder, one column per sample).

    The winner's critical bid depends only on the top ironed level, whether
    it is tied, the highest rival level t* below it and whether a rival at
    t* out-prioritizes the winner. A tied top pays threshold_weak(top); an
    untied winner pays threshold_weak(max(t*, 0)), or max(threshold_weak(0),
    threshold_strict(t*)) when outranked at t*. Lexicographic priority
    outranks when a rival at t* has a smaller index; uniform priority does so
    with probability c/(c+1) for c rivals at t*, and that average is taken
    exactly instead of drawn.
    """
    phi_fn = virtual_values(base)
    phi = phi_fn.eval(values)
    wmax = phi.max(axis=0)
    at_top = phi == wmax
    tied = np.count_nonzero(at_top, axis=0) > 1
    rivals = np.where(at_top, -np.inf, phi)
    t = rivals.max(axis=0)
    at_t = (rivals == t) & np.isfinite(rivals)
    contested = ~tied & np.isfinite(t)  # a rival at t* may outrank the winner
    keep = phi_fn.threshold_weak(np.maximum(np.where(tied, wmax, t), 0.0))
    lose = np.maximum(phi_fn.threshold_weak(0.0), phi_fn.threshold_strict(np.where(contested, t, 0.0)))
    if tiebreak == "lexicographic":
        # outranked: a rival at t* comes before the first bidder at the top
        outranked, top_seen = np.zeros_like(tied), np.zeros_like(tied)
        for at_top_i, at_t_i in zip(at_top, at_t):
            outranked |= at_t_i & ~top_seen
            top_seen |= at_top_i
        pay = np.where(contested & outranked, lose, keep)
    else:
        c = np.where(contested, np.count_nonzero(at_t, axis=0), 0)
        pay = (keep + c * lose) / (c + 1)
    return np.where(wmax >= 0.0, pay, 0.0)


def _mechanism_payments(mechanism: M.Mechanism, values: np.ndarray) -> np.ndarray:
    """Total payment of every sample of bidder-major ``values``."""
    if isinstance(mechanism, M.MyersonIID):
        return _myerson_payments(mechanism.base, mechanism.tiebreak, values)
    n = values.shape[0]
    r, a, b = _separable_form(mechanism, n)
    # r * sum_i a_i 1[v_(i) >= r] is r times the sum of the first c weights,
    # c the number of bidders at or above the reserve
    clearing = np.minimum(np.count_nonzero(values >= r, axis=0), len(a))
    total = r * np.concatenate([[0.0], np.cumsum(a)])[clearing]
    if any(b):
        ascending = np.sort(values, axis=0)  # v_(j) is row n - j
        for j, bj in enumerate(b[: n - 1], start=2):
            if bj:
                total += bj * np.clip(ascending[n - j] - r, 0.0, None)
    return total


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def mc_expected_revenue(
    mechanism: M.Mechanism, pd: ProductDist, samples: int, seed: int
) -> RevenueReport:
    """Monte Carlo revenue estimate, bit-reproducible for a given
    (seed, samples): sample s consumes row s of a Philox counter stream.

    Samples are drawn and priced in blocks of ``_MC_BLOCK``, each from its own
    slice of the stream and on as many threads as there are CPUs to run on;
    numpy releases the GIL in the draws, the searches and the ufuncs. The
    payments land in one array in sample order, so the estimate does not
    depend on the number of threads or the order the blocks finish in.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    n = pd.n
    # refuse, and build the memos the blocks share, before any block runs, so
    # that no two threads build one
    if isinstance(mechanism, M.MyersonIID):
        virtual_values(mechanism.base)
    else:
        _separable_form(mechanism, n)
    for component in pd.components:
        component.segments
    payments = np.empty(samples)

    def block(start: int) -> None:
        out = payments[start : start + _MC_BLOCK]
        # the last column is unused; it keeps the stream's layout, so every
        # value column stays the draw it has always been
        unif = _uniform_matrix(seed, len(out), n + 1, start)
        # bidder-major: row j holds bidder j's draws, then its values
        values = unif[:, :n].T.copy()
        del unif
        for row, component in zip(values, pd.components):
            row[:] = component.quantile(row)
        out[:] = _mechanism_payments(mechanism, values)

    starts = range(0, samples, _MC_BLOCK)
    workers = min(len(starts), _available_cpus())
    if workers == 1:
        for start in starts:
            block(start)
    else:
        # imported here: it is about 10 ms, which a run without Monte Carlo
        # need not pay at start-up
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(block, starts))  # raises what a block raised
    mean = float(payments.mean())
    stderr = float(payments.std(ddof=1) / math.sqrt(samples)) if samples > 1 else float("inf")
    return RevenueReport(
        mechanism=mechanism.describe(),
        distribution=pd.describe(),
        expected_revenue=mean,
        method="monte-carlo",
        mc_stderr=stderr,
        samples=samples,
        seed=seed,
    )


# -- robust evaluation ----------------------------------------------------------


def _worst_case_law(mechanism: M.Mechanism, spec: AmbiguitySpec, grid: int) -> Dist:
    """The law at which ``mechanism``'s worst case over the ambiguity set is
    attained.

    For a mechanism separable across its top k' <= k order statistics that is
    the consistent i.i.d. distribution. Mechanisms outside that class
    (Myerson with ironing) are refused: for k < n their worst case is not at
    the i.i.d. point and evaluating there would overstate the guarantee, and
    at k = n no exact evaluation of it is implemented.
    """
    kc = M.topk_class(mechanism)
    if kc is None and spec.k == spec.n:
        raise NotSeparableError(
            "worst case unavailable: the lowest order statistic is observed, "
            "but this mechanism's revenue is not separable across order "
            "statistics and no exact evaluation of its worst case is implemented"
        )
    if kc is None:
        raise NotSeparableError(
            "worst case unavailable: this mechanism's revenue depends on "
            "order statistics below the observed one, and its minimum is not "
            "attained at the consistent i.i.d. distribution"
        )
    if kc > spec.k:
        raise ValueError(
            f"mechanism needs the top {kc} order statistics but only the "
            f"{spec.k}-th is observed"
        )
    return consistent_iid(spec, grid=grid)


def worst_case_revenue_topk(mechanism: M.Mechanism, spec: AmbiguitySpec, grid: int = 4096) -> float:
    """Worst-case expected revenue over all product distributions consistent
    with the observed k-th order statistic: an exact closed-form evaluation
    at ``_worst_case_law``."""
    return closed_form_revenue(mechanism, iid(_worst_case_law(mechanism, spec, grid), spec.n))


@dataclass(frozen=True)
class ReserveResult:
    reserve: float
    worst_case_revenue: float
    regular_above_reserve: bool
    monopoly_price: float
    optimality_certified: bool


# the reserve searches scan _SCAN steps per zoom, down to a bracket of _PRICE_TOL
_PRICE_TOL = 1e-8
_SCAN = 64


def _maximize(objective, candidates: np.ndarray) -> tuple[float, float]:
    """Maximize a function of the reserve given as ``objective(array) ->
    array``: score every candidate in one pass, then zoom. The first scan
    takes ``_SCAN`` steps across the two candidate steps around the best
    candidate, each later one across the two steps of the previous scan
    around the best point so far. The search stops once the bracket is below
    ``_PRICE_TOL`` or ``_SCAN`` float spacings of the reserve, whichever is
    wider, so it ends at any scale."""
    values = objective(candidates)
    best = int(np.argmax(values))
    r_best, v_best = float(candidates[best]), float(values[best])
    lo = candidates[max(best - 1, 0)]
    hi = candidates[min(best + 1, len(candidates) - 1)]
    stop = max(_PRICE_TOL, _SCAN * np.spacing(hi))
    while hi - lo > stop:
        rs = np.linspace(lo, hi, _SCAN + 1)
        vs = objective(rs)
        j = int(np.argmax(vs))
        if vs[j] > v_best:
            r_best, v_best = float(rs[j]), float(vs[j])
        step = (hi - lo) / _SCAN
        lo, hi = max(lo, r_best - step), min(hi, r_best + step)
    return r_best, v_best


def optimal_robust_reserve(spec: AmbiguitySpec, family: M.Mechanism, grid: int = 4096) -> ReserveResult:
    """Maximize the worst-case revenue of a separable mechanism over its
    reserve (a posted price's price), which replaces ``family``'s own.

    Candidates are the knots of the consistent i.i.d. distribution, all
    scored in one array pass of the separable evaluator, refined by scans
    that zoom in on the best point. Also reports whether the consistent
    i.i.d. distribution is regular above its monopoly reserve: when it is
    (and the family spans the optimal auction's implementation, as the
    second-price family does), the returned reserve is robustly optimal among
    all mechanisms, not merely within the family.
    """
    return _robust_reserve(spec, family, _worst_case_law(family, spec, grid))


def _robust_reserve(spec: AmbiguitySpec, family: M.Mechanism, fbar: Dist) -> ReserveResult:
    """``optimal_robust_reserve`` on the family's worst-case law ``fbar``."""
    _, a, b = M.separable_form(family)
    revenue = _separable_revenue(a, b, iid(fbar, spec.n))
    candidates = np.unique(np.concatenate([[0.0], fbar.xs]))
    r_best, v_best = _maximize(revenue, candidates)
    report = is_regular_above_reserve(fbar)
    certified = report.regular_above_reserve and isinstance(family, M.SPAReserve)
    return ReserveResult(
        reserve=r_best,
        worst_case_revenue=v_best,
        regular_above_reserve=report.regular_above_reserve,
        monopoly_price=report.monopoly_price,
        optimality_certified=bool(certified or (isinstance(family, M.PostedPrice) and spec.k == 1)),
    )


# -- unknown number of bidders ---------------------------------------------------


# bracket width at which z_star's bisection stops
_Z_TOL = 1e-14


def z_star(g):
    """Unique root of z * (1 - ln z) = g on (0, 1] for every entry of ``g``;
    the map is increasing there so plain bisection converges
    unconditionally."""
    g = np.asarray(g, dtype=np.float64)
    if not np.all((g >= 0.0) & (g <= 1.0)):
        raise ValueError("probability must lie in [0, 1]")
    # bracket [lo, lo + w] from [1e-300, 1]; every bracket halves in step, and
    # its end points are dyadic, so lo + w is the exact midpoint
    lo, w = np.full(g.shape, 1e-300), 1.0
    for _ in range(math.ceil(math.log2(1.0 / _Z_TOL))):
        w *= 0.5
        mid = lo + w
        lo = lo + w * (mid * (1.0 - np.log(mid)) < g)
    z = np.where(g == 0.0, 0.0, np.where(g == 1.0, 1.0, lo + 0.5 * w))
    return float(z) if z.ndim == 0 else z


def _survival_tail(G: Dist) -> OrderStatTail:
    # integrals of 1 - G over [price, inf), memoized on the (immutable)
    # distribution instance
    tail = getattr(G, "_tail_memo", None)
    if tail is None:
        tail = OrderStatTail(iid(G, 1), (1.0,))
        object.__setattr__(G, "_tail_memo", tail)
    return tail


def unknown_n_bound(price, G: Dist):
    """Revenue guarantee of a second-price auction with the given reserve
    (scalar or array) that holds for every number of bidders consistent with
    the observed second-order-statistic distribution G:

        price * (1 - z*) + integral of (1 - G) above the price,

    with z* solving z(1 - ln z) = G(price-).
    """
    price = np.asarray(price, dtype=np.float64)
    if np.any(price < 0):
        raise ValueError("price must be non-negative")
    tail = _survival_tail(G).integral_from(np.atleast_1d(price)).reshape(price.shape)
    bound = price * (1.0 - z_star(G.cdf_left(price))) + tail
    return float(bound) if bound.ndim == 0 else bound


@dataclass(frozen=True)
class UnknownNReserve:
    reserve: float
    guarantee: float
    z_star: float


def optimal_unknown_n_reserve(G: Dist) -> UnknownNReserve:
    """Reserve maximizing the any-number-of-bidders guarantee."""

    candidates = np.unique(np.concatenate([[0.0], G.xs]))
    r_best, v_best = _maximize(lambda rs: unknown_n_bound(rs, G), candidates)
    return UnknownNReserve(r_best, v_best, z_star(float(G.cdf_left(r_best))))


# -- sandwich bounds ---------------------------------------------------------------


@dataclass(frozen=True)
class SandwichResult:
    lower: float
    upper: float
    spa_reserve: float
    regular_above_reserve: bool

    @property
    def ratio(self) -> float:
        return self.lower / self.upper if self.upper > 0 else 1.0


def robust_sandwich(spec: AmbiguitySpec, grid: int = 4096) -> SandwichResult:
    """Bracket the robust optimum in closed form: the optimal-reserve
    second-price worst case from below, ``_optimal_revenue_bound`` at the
    consistent i.i.d. distribution from above, exact on atoms and otherwise at
    most n * max(width * rise) / 4 of its segments above the optimum. On an
    atomic distribution the two meet exactly when it is regular above its
    reserve; the lower bound is never worse than half the optimum."""
    if spec.k < 2:
        raise ValueError("sandwich bounds need k >= 2")
    spa = M.SPAReserve(0.0)
    fbar = _worst_case_law(spa, spec, grid)
    res = _robust_reserve(spec, spa, fbar)
    return SandwichResult(
        lower=res.worst_case_revenue,
        upper=_optimal_revenue_bound(fbar, spec.n),
        spa_reserve=res.reserve,
        regular_above_reserve=res.regular_above_reserve,
    )
