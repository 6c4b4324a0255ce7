"""Acceptance suite: one test per exit criterion, each printing a pass line
with its runtime. Run with `pytest tests/test_acceptance.py -v -s`."""

import math
import time

import numpy as np
import pytest

from osauction import cli
from osauction import dist as D
from osauction import mech as M
from osauction import oracle as O
from osauction import orderstat as OS
from osauction import revenue as R

BERN = D.two_point(0.0, 0.5, 1.0)
UNIF = D.uniform(0, 1)
F_DISC = D.two_point(1.0, 0.8, 2.0)


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0


def report(name, timer, limit, detail=""):
    assert timer.seconds < limit, f"{name} took {timer.seconds:.3f}s (limit {limit}s)"
    print(f"{name}: PASS ({timer.seconds * 1e3:.1f} ms) {detail}")


def _best_of(runs, fn):
    """Fastest wall time over a few runs (isolates the computation's cost
    from allocator and cache noise), plus the last result."""
    best = math.inf
    result = None
    for _ in range(runs):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    timer = Timer()
    timer.seconds = best
    return timer, result


def test_c01_bernoulli_guarantee():
    t, bound = _best_of(3, lambda: R.unknown_n_bound(1.0, BERN))
    z = 1.0 - bound  # the root itself, since the tail integral vanishes
    assert z * (1 - math.log(z)) == pytest.approx(0.5, abs=1e-12)
    assert bound == pytest.approx(0.813, abs=1e-3)
    report("criterion 01 bernoulli-guarantee", t, 1e-3, f"1-z* = {bound:.6f}")


def test_c02_uniform_guarantee():
    def solve():
        zs = np.linspace(1e-6, 1.0, 100_001)
        p = zs * (1 - np.log(zs))
        objective = p * (1 - zs) + 0.5 * (1 - p) ** 2
        i = int(np.argmax(objective))
        return float(zs[i]), float(p[i]), float(objective[i])

    t, (z_star, p_star, value) = _best_of(3, solve)
    assert z_star == pytest.approx(0.198, abs=2e-3)
    assert p_star == pytest.approx(0.519, abs=2e-3)
    assert value == pytest.approx(0.531, abs=2e-3)
    report(
        "criterion 02 uniform-guarantee", t, 1e-2,
        f"z*={z_star:.4f} p*={p_star:.4f} value={value:.4f}",
    )
    # the reserve optimizer lands on the same point
    res = R.optimal_unknown_n_reserve(UNIF)
    assert res.reserve == pytest.approx(p_star, abs=1e-3)
    assert res.guarantee == pytest.approx(value, abs=1e-4)


def test_c03_pooled_counterexample():
    with Timer() as t:
        rep = O.counterexample_certificate(0.8)
    assert rep.opt_iid == pytest.approx(1.36, abs=1e-9)
    assert rep.second_stat_max_error <= 1e-12
    assert rep.opt_construction == pytest.approx(
        1 + math.sqrt(1 - 3 * 0.8**2 + 2 * 0.8**3), abs=1e-9
    )
    assert rep.gap > 0.03
    # threshold: independent bisection on the cubic
    lo, hi = 0.5, 1.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if 3 * mid**2 - 2 * mid**3 < 0.75:
            lo = mid
        else:
            hi = mid
    assert rep.regime_threshold == pytest.approx(0.5 * (lo + hi), abs=1e-6)
    report(
        "criterion 03 pooled-counterexample", t, 1.0,
        f"gap={rep.gap:.4f} threshold={rep.regime_threshold:.6f}",
    )


def test_c04_spa_worst_case_suite():
    with Timer() as t:
        checked = 0
        for n in (3, 4):
            for g in (0.25, 0.5, 0.75):
                G = D.two_point(1.0, g, 2.0)
                spec = OS.AmbiguitySpec(n, 2, G)
                fbar = OS.consistent_iid(spec)
                vecs = []
                seed = 1000 * n + int(100 * g)
                while len(vecs) < 200:
                    vecs.extend(O.feasible_sampler_pi_k(spec, 400, seed=seed))
                    seed += 1
                vecs = vecs[:200]
                for p in (0.0, 1.0, 2.0):
                    floor = R.closed_form_revenue(M.SPAReserve(p), OS.iid(fbar, n))
                    for x in vecs:
                        pd = O.product_from_survivals(x, 1.0, 2.0)
                        inst = O.DiscreteInstance.from_dists(pd.components)
                        rev = O.exhaustive_revenue(M.SPAReserve(p), inst)
                        assert rev >= floor - 1e-9
                        checked += 1
    report("criterion 04 spa-worst-case", t, 30.0, f"{checked} feasible checks")


def _perturb_min_preserving(rng, s_bar, n=3, steps=6):
    """Pairwise survival transfers that keep the product (hence the minimum's
    distribution) exactly fixed."""
    surv = np.tile(s_bar, (n, 1))
    m = len(s_bar)
    for _ in range(steps):
        i, j = rng.choice(n, size=2, replace=False)
        tpt = int(rng.integers(0, m - 1))  # survival above the top point stays 0
        upper_i = (surv[i, tpt - 1] if tpt > 0 else 1.0) / surv[i, tpt]
        lower_i = (surv[i, tpt + 1] if tpt + 1 < m else 0.0) / surv[i, tpt]
        upper_j = surv[j, tpt] / (surv[j, tpt + 1] if tpt + 1 < m and surv[j, tpt + 1] > 0 else surv[j, tpt] * 1e-6)
        lower_j = surv[j, tpt] / (surv[j, tpt - 1] if tpt > 0 else 1.0)
        c_hi = min(upper_i, upper_j)
        c_lo = max(lower_i, lower_j, 1e-6)
        if c_hi <= c_lo:
            continue
        c = math.exp(rng.uniform(math.log(c_lo), math.log(c_hi)))
        surv[i, tpt] *= c
        surv[j, tpt] /= c
    return surv


def test_c05_min_statistic_myerson_suite():
    with Timer() as t:
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 100:
            vals = np.sort(rng.uniform(0.2, 3.0, size=3))
            vals += np.arange(3) * 1e-9
            masses = np.maximum(rng.dirichlet(np.ones(3)), 0.05)
            masses /= masses.sum()
            G = D.from_table([], atoms=list(zip(vals, masses)))
            spec = OS.AmbiguitySpec(3, 3, G)
            fbar = OS.consistent_iid(spec)
            mech = M.MyersonIID(fbar, "uniform")
            floor = O.exhaustive_revenue(mech, O.DiscreteInstance.from_dists([fbar] * 3))
            s_bar = np.array([fbar.survival(v) for v in vals])
            for _ in range(5):
                surv = _perturb_min_preserving(rng, s_bar)
                comps = []
                for row in surv:
                    fl = np.concatenate([[0.0], 1 - row[:-1]])
                    fr = 1 - row
                    fr[-1] = 1.0
                    comps.append(D.dist_from_arrays(vals.copy(), fl, fr))
                inst = O.DiscreteInstance.from_dists(comps)
                for v in vals:  # membership in the ambiguity set is exact
                    assert O.exhaustive_order_stat_cdf(inst, 3, v) == pytest.approx(
                        G.cdf(v), abs=1e-9
                    )
                rev = O.exhaustive_revenue(mech, inst)
                assert rev >= floor - 1e-9
                checked += 1
    report("criterion 05 min-statistic-myerson", t, 60.0, f"{checked} perturbed products")


def test_c06_coordinatewise_monotonicity():
    with Timer() as t:
        bases = [
            F_DISC,
            UNIF,
            D.from_table([], atoms=[(0.5, 0.4), (1.0, 0.35), (2.5, 0.25)]),
        ]
        violations = 0
        pairs = 0
        rng = np.random.default_rng(8)
        for base in bases:
            hi = base.support_hi * 1.2
            for _ in range(3400):
                v = rng.uniform(0, hi, size=3)
                w = np.minimum(v + rng.uniform(0, hi / 2, size=3), 1.1 * hi)
                p_lo = M.myerson_outcome(base, "lexicographic", M.Profile(tuple(v))).total_payment
                p_hi = M.myerson_outcome(base, "lexicographic", M.Profile(tuple(w))).total_payment
                violations += p_lo > p_hi
                pairs += 1
    assert violations == 0
    report("criterion 06 payment-monotonicity", t, 5.0, f"{pairs} pairs, 0 violations")


def test_c07_geometric_averaging():
    with Timer() as t:
        rng = np.random.default_rng(9)
        from conftest import random_mixed_dist

        for _ in range(50):
            d1, d2 = random_mixed_dist(rng), random_mixed_dist(rng)
            ok, worst = O.dominance_bivariate_check(d1, d2, D.geometric_average(d1, d2))
            assert ok, worst
        for n in (3, 4, 5, 6):
            comps = tuple(
                D.two_point(0.0, float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.5, 2.0)))
                for _ in range(n)
            )
            err = O.averaging_convergence_check(OS.ProductDist(comps), sweeps=200)
            assert err <= 1e-6
    report("criterion 07 geometric-averaging", t, 10.0, "50 pairs + sweeps for n<=6")


def test_c08_inversion_round_trips():
    with Timer() as t:
        gs = np.linspace(0.0, 1.0, 1001)
        worst = 0.0
        for n in range(1, 11):
            for k in range(1, n + 1):
                err = np.max(np.abs(OS.h_poly(n, k, OS.h_inverse(n, k, gs)) - gs))
                worst = max(worst, float(err))
        assert worst <= 1e-10
        for G in (UNIF, BERN, D.exponential(1.0, grid=256)):
            for n, k in ((3, 1), (3, 2), (3, 3), (5, 2), (10, 4)):
                spec = OS.AmbiguitySpec(n, k, G)
                fbar = OS.consistent_iid(spec, grid=512)
                got = OS.order_stat_cdf(OS.iid(fbar, n), k, fbar.xs)
                assert np.max(np.abs(got - G.cdf(fbar.xs))) <= 1e-10
    report("criterion 08 inversion-round-trips", t, 5.0, f"worst polynomial residual {worst:.2e}")


def test_c09_figure_family_regularity():
    with Timer() as t:
        for G in (D.exponential(1.0), D.beta_dist(2, 2), D.normal(10, 1)):
            for n in (4, 10):
                fbar = OS.consistent_iid(OS.AmbiguitySpec(n, 2, G))
                rep = D.is_regular_above_reserve(fbar)
                assert rep.regular_above_reserve, (G.describe(), n)
                curve = D.revenue_curve(fbar)
                env = np.interp(curve.qs, curve.ironed_qs, curve.ironed_rs)
                above = curve.qs <= rep.reserve_quantile
                assert float(np.max(env[above] - curve.rs[above])) <= 1e-8
        # the uniform observation is regular above the reserve but not regular
        for n in (4, 10):
            fbar_u = OS.consistent_iid(OS.AmbiguitySpec(n, 2, UNIF))
            rep_u = D.is_regular_above_reserve(fbar_u)
            assert rep_u.regular_above_reserve and not rep_u.regular

            # virtual value in CDF coordinates along the inverse construction:
            # h(y) = H(y) - (1 - y) H'(y); its slope changes sign at (n-2)/(n+1)
            def h(y, n=n):
                big_h = OS.h_poly(n, 2, y)
                dh = n * (n - 1) * y ** (n - 2) * (1 - y)
                return big_h - (1 - y) * dh

            def slope_sign(y, d=1e-7):
                return h(y + d) - h(y - d)

            lo, hi = 0.05, 0.95
            assert slope_sign(lo) < 0 < slope_sign(hi)
            while hi - lo > 1e-9:
                mid = 0.5 * (lo + hi)
                if slope_sign(mid) < 0:
                    lo = mid
                else:
                    hi = mid
            assert 0.5 * (lo + hi) == pytest.approx((n - 2) / (n + 1), abs=1e-6)
    report("criterion 09 figure-family-regularity", t, 10.0, "6 family cases + uniform dip")


def test_c10_symmetric_grid_oracle():
    with Timer() as t:
        step = 0.02
        for n, k, i in ((3, 2, 1), (4, 3, 1), (4, 3, 2)):
            for g in (0.25, 0.5, 0.75):
                grid_max, sym = O.symmetric_optimum_grid_check(n, k, i, g, grid_step=step)
                assert sym >= grid_max - 10 * step
    report("criterion 10 symmetric-grid-oracle", t, 60.0, "9 configurations")


def test_c11_sandwich_suite():
    with Timer() as t:
        rng = np.random.default_rng(31)
        from conftest import random_discrete_dist

        equal_cases = 0
        for _ in range(20):
            G = random_discrete_dist(rng)
            sw = R.robust_sandwich(OS.AmbiguitySpec(3, 2, G))
            assert sw.lower <= sw.upper + 1e-12
            assert sw.ratio >= 0.5 - 1e-12
            if sw.regular_above_reserve:
                assert sw.lower == pytest.approx(sw.upper, abs=1e-9)
                equal_cases += 1
    report("criterion 11 sandwich-suite", t, 60.0, f"{equal_cases}/20 met the equality certificate")


def test_c12_monte_carlo_consistency():
    with Timer() as t:
        samples = 10**6
        cases = [
            (M.PostedPrice(0.5), OS.iid(UNIF, 2), 0.375),
            (M.SPAReserve(0.4), OS.iid(UNIF, 3), None),
            (M.MultiUnit(2, 0.2), OS.iid(UNIF, 3), None),
            (M.Laddered((1.0, 0.5), 0.1), OS.iid(UNIF, 4), None),
            (M.SPAReserve(1.0), OS.iid(F_DISC, 3), None),
        ]
        for mech, pd, known in cases:
            want = R.closed_form_revenue(mech, pd) if known is None else known
            rep = R.mc_expected_revenue(mech, pd, samples, seed=17)
            assert abs(rep.expected_revenue - want) <= 4 * rep.mc_stderr
        # the pooled-base fixture: optimal revenue 2 - q^2
        repm = R.mc_expected_revenue(M.MyersonIID(F_DISC), OS.iid(F_DISC, 3), samples, seed=18)
        assert abs(repm.expected_revenue - 1.36) <= 4 * repm.mc_stderr
        again = R.mc_expected_revenue(M.MyersonIID(F_DISC), OS.iid(F_DISC, 3), samples, seed=18)
        assert repm.expected_revenue == again.expected_revenue
    report("criterion 12 monte-carlo-consistency", t, 30.0, "6 closed forms at 1e6 samples")


def test_c12b_cli_byte_determinism(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(
        '{"product": [{"family": "uniform", "lo": 0, "hi": 1},'
        ' {"family": "uniform", "lo": 0, "hi": 1}],'
        ' "mechanism": {"type": "spa", "reserve": 0.3}, "samples": 100000, "seed": 5}'
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    print("criterion 12 cli-byte-determinism: PASS")
