"""Expected revenue: exact closed forms on the piecewise-linear representation,
seeded Monte Carlo, worst cases over the ambiguity set, reserve optimization,
and the bounds that hold uniformly over the number of bidders.

Every evaluator is built once per request, then scores whole arrays:
``_separable_revenue`` a separable mechanism's exact revenue at reserves,
``_unknown_n_revenue`` the any-number-of-bidders guarantee at prices, and
``_payment_kernel`` the Monte Carlo payments of a block of samples' values,
from the weights of ``mech.separable_form`` or, for Myerson, from its ironed
virtual values in one array pass for both tie-breaking rules, which averages
uniform ties exactly over the priority orders instead of drawing one, so it
needs no random draw and works for any number of bidders. ``_sampler`` pairs
a kernel with the least it reads per bidder, chosen once per request: for a
separable mechanism without tail weights (a posted price, or any with one
bidder), whether each uniform draw reaches the component's clearing
quantile, the least draw whose value reaches the reserve; for any other,
the values, drawn through ``Dist.quantile``; for Myerson, what one table
per distinct purely atomic component holds at each draw's knot: the rank
of its ironed level among the few the knots take when every component is
such, which the kernel prices from tables per rank, else the level, which
every other component evaluates from its draws' values. Every choice pays
what the values pay, bit for bit. Monte Carlo rows are bidder-major, one row
per bidder and one column per sample, so the kernels reduce over contiguous
rows; a block draws its uniforms straight into that layout, and the rows of
each distinct component are scored by one call per slab, read without a
copy where they are adjacent. The lookups read per-segment tables and
guided searches built once per instance, and both kernels keep only the top
rows they read instead of sorting them all. Samples run in fixed blocks,
each drawing its own stretch of one PCG64 stream, on the calling thread
and a helper thread per further available CPU, which claim the next block
from one counter; the payments are reduced in sample order, so an estimate
does not depend on the number of CPUs. The exact
order-statistic terms come from ``orderstat``: Pr(v_(i) >= r) for the top
rows at once, and one ``OrderStatTail`` per evaluator for the weighted sum of
the exact tail integrals of Pr(v_(j) > t), which ``closed_form_revenue``
builds only from the last merged knot at or below its reserve up.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import mech as M
from .dist import DEFAULT_GRID, Dist, VirtualValueFn, is_regular_above_reserve, optimal_revenue_bound, virtual_values
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


def _separable_revenue(a, b, pd: ProductDist, lowest: float = 0.0):
    """Expected revenue of the separable payment weights ``(a, b)`` of
    ``_separable_form`` for ``pd.n`` bidders on ``pd``, as a function of an
    array of reserves at or above ``lowest``:

        r * sum_i a_i Pr(v_(i) >= r) + sum_j b_j * integral_r^inf Pr(v_(j) > t) dt.

    All tail terms share one ``OrderStatTail``, none when ``b`` is empty,
    which integrates only from ``lowest`` up.
    """
    a = np.asarray(a, dtype=np.float64)
    w = (0.0,) + tuple(b)  # the weight of v_(j) at index j-1
    tail = OrderStatTail(pd, w, reserve=lowest) if any(w) else None

    def revenue(rs: np.ndarray) -> np.ndarray:
        total = rs * (a @ order_stat_reach(pd, len(a), rs))
        return total if tail is None else total + tail.integral_from(rs)

    return revenue


def _separable_form(mechanism: M.Mechanism, n: int):
    """``mech.separable_form`` cut to n bidders, whose statistics past the n-th
    are 0: ``(r, a[:n], b[:n - 1])``. Refuses what it does not cover."""
    form = M.separable_form(mechanism)
    if form is None:
        raise NotSeparableError(
            "no closed form: this mechanism's revenue is not separable across "
            "top order statistics"
        )
    if not 0.0 <= form[0] < math.inf:  # NaN too
        what = "price" if isinstance(mechanism, M.PostedPrice) else "reserve"
        raise ValueError(f"{what} must be non-negative and finite")
    if isinstance(mechanism, M.MultiUnit) and mechanism.units >= n:
        raise ValueError("need more bidders than units")
    r, a, b = form
    return r, a[:n], b[: n - 1]


def closed_form_revenue(mechanism: M.Mechanism, pd: ProductDist) -> float:
    """Exact expected revenue for the separable mechanism families."""
    r, a, b = _separable_form(mechanism, pd.n)
    return float(_separable_revenue(a, b, pd, lowest=r)(np.array([float(r)]))[0])


def myerson_iid_revenue(base: Dist, n: int) -> float:
    """Expected revenue of the symmetric ironed-virtual-value auction on its
    own design distribution, E[(max ironed virtual value)+]: the hull integral
    ``dist.optimal_revenue_bound``, exact only on a purely atomic base."""
    if not base.is_discrete:
        raise ValueError("exact evaluation needs a purely atomic base")
    return optimal_revenue_bound(base, n)


# -- Monte Carlo ---------------------------------------------------------------


# samples per Monte Carlo block, part of the stream's definition: a block
# starting at sample ``start`` reads its n bidders' draws from stream position
# n·start on
_MC_BLOCK = 16384
# values one score call reads at most: its temporaries are a few times that
_MC_SLAB = 4 * _MC_BLOCK


def _block_draws(seeds: np.random.SeedSequence, n: int, start: int, samples: int) -> np.ndarray:
    """The uniforms of the block of ``samples`` samples from ``start`` on,
    bidder-major: bidder c's draw at offset t is the PCG64 stream's draw
    n·start + c·samples + t, one double per 64-bit output."""
    bits = np.random.PCG64(seeds)
    bits.advance(n * start)
    return np.random.Generator(bits).random((n, samples))


def _myerson_kernel(phi_fn: VirtualValueFn, tiebreak: str, levels: np.ndarray | None = None):
    """Vectorized total payments of the symmetric Myerson auction with ironed
    virtual values ``phi_fn``, as a function of what each bidder's draw
    scores as (bidder-major: one row per bidder, one column per sample): its
    ironed level, or, given the sorted distinct ``levels`` every draw can
    take (-inf first), the rank of its level among them.

    The winner's critical bid depends only on the top ironed level, whether
    it is tied, the highest rival level t* below it and whether a rival at
    t* out-prioritizes the winner. A tied top pays threshold_weak(top); an
    untied winner pays threshold_weak(max(t*, 0)), or max(threshold_weak(0),
    threshold_strict(t*)) when outranked at t*. Lexicographic priority
    outranks when a rival at t* has a smaller index; uniform priority does so
    with probability c/(c+1) for c rivals at t*, and that average is taken
    exactly instead of drawn. A sample whose top level is below 0 pays 0.

    Ranks keep the order and equality of the levels, so the kernel compares
    them as it compares levels. What it reads of a level (both prices, that
    it is finite, that it is at least 0) is then read off tables per rank,
    built here from the same elementwise calls on the same levels, so the
    payments are the level path's bit for bit.
    """
    floor = phi_fn.threshold_weak(0.0)

    def prices(t: np.ndarray):
        # lose counts only at a contested level, which is finite; elsewhere
        # uniform ties multiply it by 0, so it is taken at level 0, where it
        # is finite and adds nothing
        finite = np.isfinite(t)
        lose = np.maximum(floor, phi_fn.threshold_strict(np.where(finite, t, 0.0)))
        return phi_fn.threshold_weak(np.maximum(t, 0.0)), lose, finite

    if levels is None:
        bottom, read, wins = -np.inf, prices, lambda t: t >= 0.0
    else:
        bottom, (keep_at, lose_at, finite_at), wins_at = 0.0, prices(levels), levels >= 0.0

        def read(rank: np.ndarray):
            i = rank.astype(np.intp)
            return keep_at[i], lose_at[i], finite_at[i]

        def wins(rank: np.ndarray) -> np.ndarray:
            return wins_at[rank.astype(np.intp)]

    def payments(scores: np.ndarray) -> np.ndarray:
        top = _top_rows(scores, 2)
        wmax = top[0]
        # the second level counting ties: the top itself when it is tied, and
        # t* when it is not
        second = top[1] if len(top) > 1 else np.full_like(wmax, bottom)
        keep, lose, finite = read(second)
        tied = second == wmax
        contested = ~tied & finite  # a rival at t* may outrank the winner
        if tiebreak == "lexicographic":
            # outranked: a rival at t* comes before the first bidder at the top
            outranked, top_seen = np.zeros_like(tied), np.zeros_like(tied)
            for row in scores:
                outranked |= (row == second) & ~top_seen
                top_seen |= row == wmax
            pay = np.where(contested & outranked, lose, keep)
        else:
            c = np.count_nonzero(scores == second, axis=0) * contested
            pay = (keep + c * lose) / (c + 1)
        return np.where(wins(wmax), pay, 0.0)

    return payments


# deepest order statistic the separable kernel keeps by insertion: each row
# costs up to 2 depth - 1 array passes, which up to this depth beat sorting
# every column at every n measured (5 to 500); deeper tails sort
_INSERT_DEPTH = 4


def _top_rows(values: np.ndarray, depth: int) -> list[np.ndarray] | np.ndarray:
    """The ``depth`` largest rows of every column, largest first. Up to
    ``_INSERT_DEPTH`` each row is inserted into the rows kept so far: maximum
    and minimum only pick one of their inputs, so these are the floats a sort
    would put there. Deeper, every column is sorted."""
    if depth > _INSERT_DEPTH:
        return np.sort(values, axis=0)[::-1]
    top: list[np.ndarray] = []
    for v in values:
        for i, kept in enumerate(top):
            top[i] = np.maximum(kept, v)
            if i + 1 < depth:  # what falls below the last kept row is dropped
                v = np.minimum(kept, v)
        if len(top) < depth:
            top.append(v)
    return top


def _payment_kernel(mechanism: M.Mechanism, n: int):
    """Total payment of every sample of bidder-major values of ``n`` bidders,
    as a function of the values. Refuses first, and reads the mechanism's
    payment weights or ironed virtual values once, here."""
    if isinstance(mechanism, M.MyersonIID):
        phi_fn, tiebreak = virtual_values(mechanism.base), mechanism.tiebreak
        payments = _myerson_kernel(phi_fn, tiebreak)
        return lambda values: payments(phi_fn.eval(values))
    r, a, b = _separable_form(mechanism, n)
    # r * sum_i a_i 1[v_(i) >= r] is r times the sum of the first c weights,
    # c the number of bidders at or above the reserve
    cleared = r * np.concatenate([[0.0], np.cumsum(a)])
    tails = [(j, bj) for j, bj in enumerate(b, start=2) if bj]
    depth = max((j for j, _ in tails), default=0)

    def payments(values: np.ndarray) -> np.ndarray:
        total = cleared[np.minimum(np.count_nonzero(values >= r, axis=0), len(a))]
        if tails:
            top = _top_rows(values, depth)  # v_(j) is row j - 1
            for j, bj in tails:
                total += bj * np.clip(top[j - 1] - r, 0.0, None)
        return total

    return payments


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _sampler(mechanism: M.Mechanism, pd: ProductDist):
    """``(score, pay)`` for Monte Carlo blocks on ``pd``: ``score(component,
    q)`` turns one component's uniform draws into the least per bidder that
    ``pay`` reads, and ``pay`` the total payment of every sample from those
    rows. Both are built here, once per request, on the calling thread.

    * A separable mechanism with no tail weight among its first n - 1
      statistics (a posted price; any of them with one bidder) reads only
      whether each value reaches its reserve r. A component's draws score r
      where they reach its clearing quantile (``_clearing_quantile``) and
      -inf elsewhere, which ``_payment_kernel`` counts as it counts values;
      no value is looked up. A component whose ``quantile`` is not monotone
      across r keeps its values.
    * Any other separable mechanism reads values, drawn through
      ``Dist.quantile``.
    * Myerson reads ironed levels, through one table per distinct
      component with no rising segment, whose every draw's quantile is at a
      knot. When every component is such, the table holds the ranks of its
      knots' levels among the tables' sorted distinct levels, which
      ``_myerson_kernel`` prices from tables per rank; otherwise it holds
      the levels ``phi_fn.eval(xs)``, and every other component evaluates
      the levels of its draws' values.
    """
    distinct = {id(c): c for c in pd.components}
    if not isinstance(mechanism, M.MyersonIID):
        pay = _payment_kernel(mechanism, pd.n)  # its refusals first
        r, _, b = _separable_form(mechanism, pd.n)
        if any(b):
            return Dist.quantile, pay
        thetas = {key: _clearing_quantile(c, r) for key, c in distinct.items()}

        def cleared(component: Dist, q: np.ndarray) -> np.ndarray:
            theta = thetas[id(component)]
            if theta is None:
                return component.quantile(q)
            return np.where(q >= theta, r, -np.inf)

        return cleared, pay
    phi_fn, tiebreak = virtual_values(mechanism.base), mechanism.tiebreak
    tables = {key: phi_fn.eval(c.xs) for key, c in distinct.items() if not c._rises}
    levels = None
    if len(tables) == len(distinct):
        levels = np.unique(np.concatenate([[-np.inf], *tables.values()]))
        tables = {key: np.searchsorted(levels, t).astype(np.float64) for key, t in tables.items()}

    def scored(component: Dist, q: np.ndarray) -> np.ndarray:
        table = tables.get(id(component))
        if table is None:
            return phi_fn.eval(component.quantile(q))
        return table[component._quantile_search(q, "left")]

    return scored, _myerson_kernel(phi_fn, tiebreak, levels)


def _clearing_quantile(c: Dist, r: float) -> float | None:
    """The least float q in [0, 1] with ``c.quantile(q) >= r`` (inf when no
    q reaches r), so that a uniform draw's value reaches r exactly when the
    draw reaches it; None when ``c.quantile`` is not monotone across r.

    ``quantile`` is monotone in q inside each piece, and every piece from
    knot j + 1 on reads at least ``xs[j + 1]``. Only the top of a rising
    piece, ``xs[j] + (xs[j + 1] - xs[j])`` in floats, can read above the
    next knot, by an ulp; a price in such an overshoot is refused. Elsewhere
    the draws that reach r are those from the least such float up, found
    from the guess F(r-) by steps that double in ulps, then bisection over
    the floats between: a few scalar ``quantile`` calls.
    """
    xs = c.xs
    if c._rises and np.any((xs[1:] < r) & (r <= xs[:-1] + np.diff(xs))):
        return None
    # floats in [0, 1] order as their bits; adding 0.0 turns -0.0 into +0.0
    bits = np.array([min(max(float(c.cdf_left(r)), 0.0), 1.0) + 0.0, 1.0]).view(np.int64)
    guess, one = int(bits[0]), int(bits[1])

    def reaches(i: int) -> bool:
        return c.quantile(float(np.int64(i).view(np.float64))) >= r

    if not reaches(one):
        return math.inf
    # bracket: the draw at bit pattern lo does not reach r (-1: none below
    # 0.0), the one at hi does
    step = 1
    if reaches(guess):
        lo, hi = guess - 1, guess
        while lo >= 0 and reaches(lo):
            step *= 2
            lo, hi = max(lo - step, -1), lo
    else:
        lo, hi = guess, min(guess + 1, one)
        while not reaches(hi):
            step *= 2
            lo, hi = hi, min(hi + step, one)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reaches(mid):
            hi = mid
        else:
            lo = mid
    return float(np.int64(hi).view(np.float64))


def _component_rows(pd: ProductDist, most: int) -> list[tuple[Dist, slice | np.ndarray]]:
    """Each distinct component of ``pd`` (by identity) with the rows of the
    bidders who draw from it, at most ``most`` rows at a time: a slice where
    they are adjacent (every row of an i.i.d. product), so a block reads them
    as a view instead of gathering a copy."""
    rows: dict[int, tuple[Dist, list[int]]] = {}
    for i, component in enumerate(pd.components):
        rows.setdefault(id(component), (component, []))[1].append(i)
    out = []
    for c, idx in rows.values():
        for i in range(0, len(idx), most):
            chunk = idx[i : i + most]
            adjacent = chunk[-1] - chunk[0] == len(chunk) - 1
            out.append((c, slice(chunk[0], chunk[-1] + 1) if adjacent else np.array(chunk)))
    return out


def _run_blocks(block, starts: range, workers: int) -> None:
    """``block(start)`` for every start, on this thread and ``workers - 1``
    helper threads (none for one worker), each claiming the next start from
    one shared counter. A failure in any block, an interrupt on this thread
    included, stops further claims; once the helpers are joined, the first
    failure is raised."""
    claims = itertools.count()
    failed: list[BaseException] = []

    def claim_blocks() -> None:
        try:
            while not failed and (i := next(claims)) < len(starts):
                block(starts[i])
        except BaseException as e:  # raised below, on the calling thread
            failed.append(e)

    helpers = []
    try:
        for _ in range(workers - 1):
            helpers.append(threading.Thread(target=claim_blocks))
            helpers[-1].start()
    except BaseException as e:  # a helper that would not start
        failed.append(e)
    claim_blocks()
    for helper in helpers:
        while helper.is_alive():  # False for one that never started
            try:
                helper.join()
            except BaseException as e:  # an interrupt while waiting stops the claims too
                failed.append(e)
    if failed:
        raise failed[0]


def _mean_stderr(payments: np.ndarray) -> tuple[float, float]:
    """The mean of the payments and its standard error, inf from one sample.
    The sums of payments near the float maximum overflow where the mean does
    not: only where either comes out non-finite (the stderr of one sample
    stays inf), both are computed again from the payments scaled by the power
    of two that brings the largest below 1, an exact scaling, and scaled back."""

    def stats(x: np.ndarray) -> tuple[float, float]:
        with np.errstate(over="ignore"):
            return float(x.mean()), float(x.std(ddof=1) / math.sqrt(len(x))) if len(x) > 1 else math.inf

    mean, stderr = stats(payments)
    if not (math.isfinite(mean) and math.isfinite(stderr)):
        _, e = np.frexp(np.abs(payments).max())
        mean, stderr = (math.ldexp(s, int(e)) for s in stats(np.ldexp(payments, -e)))
    return mean, stderr


def mc_expected_revenue(
    mechanism: M.Mechanism, pd: ProductDist, samples: int, seed: int
) -> RevenueReport:
    """Monte Carlo revenue estimate, bit-reproducible for a given
    (seed, samples): the draws come from one PCG64 stream seeded by ``seed``.

    Samples are drawn and priced in blocks of ``_MC_BLOCK``, each from its own
    stretch of the stream (see ``_block_draws``; a short last block's draws
    depend on its length). ``_run_blocks`` runs them on this thread and on
    helper threads, one thread per CPU to run on and at most one per block;
    numpy releases the GIL in the draws, the searches and the ufuncs. The
    payments land in one array in sample order, so the estimate does not
    depend on the number of threads or the order the blocks finish in.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    score, pay = _sampler(mechanism, pd)  # on this thread, before any draw
    # one score call per component and slab of at most _MC_SLAB values
    groups = _component_rows(pd, max(1, _MC_SLAB // min(samples, _MC_BLOCK)))
    payments = np.empty(samples)
    seeds = np.random.SeedSequence(seed)

    def block(start: int) -> None:
        out = payments[start : start + _MC_BLOCK]
        # bidder-major: row j holds bidder j's draws, then what pay reads
        rows_read = _block_draws(seeds, pd.n, start, len(out))
        for component, rows in groups:
            rows_read[rows] = score(component, rows_read[rows])
        out[:] = pay(rows_read)

    starts = range(0, samples, _MC_BLOCK)
    _run_blocks(block, starts, min(len(starts), _available_cpus()))
    mean, stderr = _mean_stderr(payments)
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


def _worst_case_reserve(mechanism: M.Mechanism, spec: AmbiguitySpec) -> float:
    """``mechanism``'s reserve, refused before anything is inverted unless its
    worst case over the ambiguity set is attained at the consistent i.i.d.
    distribution, as it is for a mechanism separable across its top k' order
    statistics with min(k', n) <= k (statistics past the n-th are 0). Myerson
    with ironing is refused: for k < n its worst case is not at the i.i.d.
    point and evaluating there would overstate the guarantee, and at k = n no
    exact evaluation of it is implemented."""
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
    if min(kc, spec.n) > spec.k:  # statistics past the n-th are 0
        raise ValueError(
            f"mechanism needs the top {kc} order statistics but only the "
            f"k={spec.k} order statistic is observed"
        )
    return _separable_form(mechanism, spec.n)[0]  # its own refusals


def worst_case_revenue_topk(mechanism: M.Mechanism, spec: AmbiguitySpec, grid: int = DEFAULT_GRID) -> float:
    """Worst-case expected revenue over all product distributions consistent
    with the observed k-th order statistic: an exact closed form at the
    consistent i.i.d. distribution. The revenue at the reserve r reads that
    law only from r up, so G is inverted only from the last knot below r
    (``consistent_iid``'s ``reserve``); it is the whole law's, bit for bit."""
    fbar = consistent_iid(spec, grid=grid, reserve=_worst_case_reserve(mechanism, spec))
    return closed_form_revenue(mechanism, iid(fbar, spec.n))


@dataclass(frozen=True)
class ReserveResult:
    reserve: float
    worst_case_revenue: float
    regular_above_reserve: bool
    monopoly_price: float
    optimality_certified: bool


# the reserve searches scan _SCAN steps per zoom, down to a bracket of _PRICE_TOL
# times the candidate span where that span is below 1
_PRICE_TOL = 1e-8
_SCAN = 64


def _maximize(objective, knots: np.ndarray) -> tuple[float, float]:
    """Maximize a function of the reserve given as ``objective(array) ->
    array``: score every candidate, 0 and the ``knots``, in one pass, then
    zoom. The first scan takes ``_SCAN`` steps across the two candidate steps
    around the best candidate, each later one across the two steps of the
    previous scan around the best point so far. The search stops once the
    bracket is below ``_PRICE_TOL`` times the candidate span (the span taken
    as 1 when it is wider) or ``_SCAN`` float spacings of the reserve,
    whichever is wider, so it ends at any scale and zooms as far on small
    supports as on unit ones."""
    candidates = np.unique(np.concatenate([[0.0], knots]))
    values = objective(candidates)
    best = int(np.argmax(values))
    r_best, v_best = float(candidates[best]), float(values[best])
    lo = candidates[max(best - 1, 0)]
    hi = candidates[min(best + 1, len(candidates) - 1)]
    stop = max(_PRICE_TOL * min(1.0, candidates[-1] - candidates[0]), _SCAN * np.spacing(hi))
    while hi - lo > stop:
        rs = np.linspace(lo, hi, _SCAN + 1)
        vs = objective(rs)
        j = int(np.argmax(vs))
        if vs[j] > v_best:
            r_best, v_best = float(rs[j]), float(vs[j])
        step = (hi - lo) / _SCAN
        lo, hi = max(lo, r_best - step), min(hi, r_best + step)
    return r_best, v_best


def optimal_robust_reserve(spec: AmbiguitySpec, family: M.Mechanism, grid: int = DEFAULT_GRID) -> ReserveResult:
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
    _worst_case_reserve(family, spec)  # refused before the inversion; the search replaces its reserve
    return _robust_reserve(spec, family, consistent_iid(spec, grid=grid))


def _robust_reserve(spec: AmbiguitySpec, family: M.Mechanism, fbar: Dist) -> ReserveResult:
    """``optimal_robust_reserve`` on the family's worst-case law ``fbar``."""
    _, a, b = _separable_form(family, spec.n)
    r_best, v_best = _maximize(_separable_revenue(a, b, iid(fbar, spec.n)), fbar.xs)
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
    # its end points are dyadic, so lo + w is the exact midpoint; a 0-d g
    # steps as numpy scalars, which cost a fraction of 0-d arrays, and an
    # array moves lo in place
    level, lo, w = g[()], np.full(g.shape, 1e-300)[()], 1.0
    for _ in range(math.ceil(math.log2(1.0 / _Z_TOL))):
        w *= 0.5
        mid = lo + w
        below = mid * (1.0 - np.log(mid)) < level
        if g.ndim:
            np.copyto(lo, mid, where=below)
        elif below:
            lo = mid
    z = np.where(g == 0.0, 0.0, np.where(g == 1.0, 1.0, lo + 0.5 * w))
    return float(z) if z.ndim == 0 else z


def _unknown_n_revenue(G: Dist):
    """``unknown_n_bound`` on G as a function of a non-negative price array
    of any shape; every integral of 1 - G reads one ``OrderStatTail``."""
    tail = OrderStatTail(iid(G, 1), (1.0,))

    def bound(price: np.ndarray) -> np.ndarray:
        above = tail.integral_from(np.atleast_1d(price)).reshape(price.shape)
        return price * (1.0 - z_star(G.cdf_left(price))) + above

    return bound


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
    bound = _unknown_n_revenue(G)(price)
    return float(bound) if np.ndim(bound) == 0 else bound


@dataclass(frozen=True)
class UnknownNReserve:
    reserve: float
    guarantee: float
    z_star: float


def optimal_unknown_n_reserve(G: Dist) -> UnknownNReserve:
    """Reserve maximizing the any-number-of-bidders guarantee."""
    r_best, v_best = _maximize(_unknown_n_revenue(G), G.xs)
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


def robust_sandwich(spec: AmbiguitySpec, grid: int = DEFAULT_GRID) -> SandwichResult:
    """Bracket the robust optimum in closed form: the optimal-reserve
    second-price worst case from below, ``dist.optimal_revenue_bound`` at the
    consistent i.i.d. distribution from above, exact on atoms and otherwise at
    most n * max(width * rise) / 4 of its segments above the optimum. On an
    atomic distribution the two meet exactly when it is regular above its
    reserve; the lower bound is never worse than half the optimum."""
    if spec.k < 2:
        raise ValueError("sandwich bounds need k >= 2")
    fbar = consistent_iid(spec, grid=grid)
    res = _robust_reserve(spec, M.SPAReserve(0.0), fbar)
    return SandwichResult(
        lower=res.worst_case_revenue,
        upper=optimal_revenue_bound(fbar, spec.n),
        spa_reserve=res.reserve,
        regular_above_reserve=res.regular_above_reserve,
    )
