import math

import numpy as np
import pytest

from osauction import dist as D
from osauction import mech as M
from osauction import oracle as O
from osauction import orderstat as OS
from osauction import revenue as R
from conftest import random_mixed_dist

F_DISC = D.two_point(1.0, 0.8, 2.0)


def _pooled_atom_bases(rng, count):
    """Random atomic bases, atoms a value unit apart on average with similar
    masses, kept when their revenue curve's hull holds two atoms on one edge."""
    out = []
    while len(out) < count:
        vs = np.cumsum(rng.uniform(0.5, 1.5, size=5))
        ms = rng.uniform(0.5, 1.5, size=5)
        base = D.from_table([], atoms=list(zip(vs, ms / ms.sum())))
        hull_q = D.revenue_curve(base).ironed_qs
        edge = np.searchsorted(hull_q, 1.0 - 0.5 * (base.f_left + base.f_right)) - 1
        if np.bincount(edge).max() > 1:
            out.append(base)
    return out


class TestExhaustiveRevenue:
    def test_pooled_optimum_exact(self):
        inst = O.DiscreteInstance.from_dists([F_DISC] * 3)
        got = O.exhaustive_revenue(M.MyersonIID(F_DISC, "lexicographic"), inst)
        assert got == pytest.approx(2 - 0.8**2, abs=1e-12)

    def test_spa_pair_hand_sum(self):
        tp = D.two_point(1.0, 0.5, 2.0)
        inst = O.DiscreteInstance.from_dists([tp, tp])
        # outcomes (1,1),(1,2),(2,1) pay 1; (2,2) pays 2
        assert O.exhaustive_revenue(M.SPAReserve(0.0), inst) == pytest.approx(1.25, abs=1e-15)

    def test_posted_price_cross_check(self):
        tp = D.two_point(1.0, 0.5, 2.0)
        inst = O.DiscreteInstance.from_dists([tp, tp])
        for p in (0.5, 1.0, 1.5, 2.0):
            assert O.exhaustive_revenue(M.PostedPrice(p), inst) == pytest.approx(
                R.closed_form_revenue(M.PostedPrice(p), OS.iid(tp, 2)), abs=1e-12
            )

    def test_closed_forms_match_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            comps = [
                D.from_table([], atoms=list(zip(np.sort(rng.uniform(0.1, 2, 3)) + [0, 1e-6, 2e-6], rng.dirichlet(np.ones(3)))))
                for _ in range(3)
            ]
            pd = OS.ProductDist(tuple(comps))
            inst = O.DiscreteInstance.from_dists(comps)
            for mech in (M.PostedPrice(0.8), M.SPAReserve(0.7), M.MultiUnit(2, 0.5), M.Laddered((1.0, 0.4), 0.3)):
                assert O.exhaustive_revenue(mech, inst) == pytest.approx(
                    R.closed_form_revenue(mech, pd), abs=1e-12
                )

    @pytest.mark.parametrize("tiebreak", ["lexicographic", "uniform"])
    def test_myerson_closed_form_matches_enumeration(self, tiebreak):
        # atoms pooled on one hull edge share one virtual value, so every
        # profile's outcome runs the ironed mechanism whose revenue the
        # closed form gives; the first base pools its two middle atoms, and
        # before one slope per edge half of the random ones failed too
        cases = [(4, D.from_table([], atoms=[(0.8632, 0.11485), (1.5546, 0.25288), (2.7518, 0.24785),
                                             (3.2547, 0.13711), (4.5386, 0.24731)]))]
        for base in _pooled_atom_bases(np.random.default_rng(9), 8):
            cases += [(n, base) for n in ((2, 3) if tiebreak == "uniform" else (2, 3, 4))]
        for n, base in cases:
            inst = O.DiscreteInstance.from_dists([base] * n)
            assert O.exhaustive_revenue(M.MyersonIID(base, tiebreak), inst) == pytest.approx(
                R.myerson_iid_revenue(base, n), abs=1e-12
            ), (base.atoms, n)

    def test_guard(self):
        with pytest.raises(ValueError):
            O.DiscreteInstance(
                tuple(tuple(range(40)) for _ in range(5)),
                tuple(tuple([1.0 / 40] * 40) for _ in range(5)),
            )


class TestOrderStatEnumeration:
    def test_matches_convolution(self):
        rng = np.random.default_rng(3)
        comps = [
            D.from_table([], atoms=[(0.5, 0.3), (1.5, 0.7)]),
            D.from_table([], atoms=[(1.0, 0.6), (2.0, 0.4)]),
            D.point_mass(0.8),
        ]
        inst = O.DiscreteInstance.from_dists(comps)
        pd = OS.ProductDist(tuple(comps))
        for i in (1, 2, 3):
            for v in (0.4, 0.8, 1.0, 1.7, 2.5):
                assert O.exhaustive_order_stat_cdf(inst, i, v) == pytest.approx(
                    OS.order_stat_cdf(pd, i, v), abs=1e-12
                )


class TestFeasibleSampler:
    def test_constraints_hold(self):
        spec = OS.AmbiguitySpec(3, 2, D.two_point(0.0, 0.5, 1.0))
        vecs = O.feasible_sampler_pi_k(spec, 200, seed=5)
        assert len(vecs) > 50
        for x in vecs:
            pmf = OS.poisson_binomial_pmf(x)
            assert abs(pmf[:2].sum() - 0.5) <= 1e-10

    def test_symmetric_vector_feasible(self):
        # the solver reproduces the symmetric point when fed its first n-1 coords
        u = OS.h_inverse(3, 2, 0.5)
        x_sym = 1 - u
        got = O._solve_last_survival(np.array([x_sym, x_sym]), 2, 0.5)
        assert got == pytest.approx(x_sym, abs=1e-12)

    def test_degenerate_k_bidder_construction_feasible(self):
        # k active bidders plus dummies at zero survival satisfy the constraint
        g = 0.5
        x1 = 0.6
        x2 = O._solve_last_survival(np.array([x1, 0.0]), 2, g)
        assert x2 is not None
        pmf = OS.poisson_binomial_pmf([x1, 0.0, x2])
        assert abs(pmf[:2].sum() - g) <= 1e-12

    def test_survival_vectors_build_consistent_products(self):
        spec = OS.AmbiguitySpec(4, 2, D.two_point(0.0, 0.25, 2.0))
        for x in O.feasible_sampler_pi_k(spec, 50, seed=9):
            pd = O.product_from_survivals(x, 0.0, 2.0)
            assert OS.order_stat_cdf(pd, 2, 0.0) == pytest.approx(0.25, abs=1e-10)


class TestSymmetricOptimumGridCheck:
    def test_symmetric_dominates_grid(self):
        grid_max, sym = O.symmetric_optimum_grid_check(3, 2, 1, 0.5, grid_step=0.02)
        assert sym == pytest.approx(0.125, abs=1e-12)
        assert sym >= grid_max - 10 * 0.02

    def test_degenerate_masses(self):
        gm0, s0 = O.symmetric_optimum_grid_check(3, 2, 1, 0.0, grid_step=0.05)
        assert s0 == pytest.approx(0.0, abs=1e-12) and gm0 <= s0 + 1e-12
        gm1, s1 = O.symmetric_optimum_grid_check(3, 2, 1, 1.0, grid_step=0.05)
        assert s1 == pytest.approx(1.0, abs=1e-12) and gm1 <= s1 + 1e-12

    def test_scale_guard(self):
        with pytest.raises(ValueError):
            O.symmetric_optimum_grid_check(6, 3, 1, 0.5)
        with pytest.raises(ValueError):
            O.symmetric_optimum_grid_check(3, 2, 1, 0.5, grid_step=1e-3)


class TestCounterexample:
    def test_reference_point(self):
        rep = O.counterexample_certificate(0.8)
        assert rep.opt_iid == pytest.approx(1.36, abs=1e-12)
        assert rep.opt_construction == pytest.approx(1 + math.sqrt(0.104), abs=1e-12)
        assert rep.second_stat_max_error <= 1e-12
        assert rep.gap > 0.03
        assert rep.regime_ok

    def test_lower_weight(self):
        rep = O.counterexample_certificate(0.7)
        assert rep.opt_iid == pytest.approx(rep.opt_iid_formula, abs=1e-12)
        assert rep.opt_construction == pytest.approx(rep.opt_construction_formula, abs=1e-12)
        assert rep.opt_construction < rep.opt_iid
        assert rep.regime_ok  # 3 * 0.49 - 2 * 0.343 = 0.784 >= 0.75

    def test_regime_threshold_location(self):
        t = O.pooled_regime_threshold()
        assert 3 * t**2 - 2 * t**3 == pytest.approx(0.75, abs=1e-9)
        assert t == pytest.approx(0.673, abs=1e-3)
        # the closed form is a root to rounding, and agrees to 1e-12 with the
        # 1e-12 bisection it replaced (0.6736481776665642)
        assert abs(3 * t**2 - 2 * t**3 - 0.75) <= 2e-16
        assert abs(t - 0.6736481776665642) <= 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            O.counterexample_certificate(1.0)


class TestBivariateDominance:
    def test_equal_inputs_equality(self):
        u = D.uniform(0, 1)
        ok, worst = O.dominance_bivariate_check(u, u, D.geometric_average(u, u))
        assert ok and worst <= 1e-12

    def test_bernoulli_pair(self):
        b1 = D.two_point(0.0, 0.8, 1.0)
        b2 = D.two_point(0.0, 0.2, 1.0)
        ok, _ = O.dominance_bivariate_check(b1, b2, D.geometric_average(b1, b2))
        assert ok

    def test_uniform_pair(self):
        u1, u2 = D.uniform(0, 1), D.uniform(0, 2)
        ok, _ = O.dominance_bivariate_check(u1, u2, D.geometric_average(u1, u2))
        assert ok

    def test_random_pairs(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            d1, d2 = random_mixed_dist(rng), random_mixed_dist(rng)
            ok, worst = O.dominance_bivariate_check(d1, d2, D.geometric_average(d1, d2))
            assert ok, worst


class TestAveragingConvergence:
    def test_iid_is_fixed_point(self):
        pd = OS.iid(D.uniform(0, 1), 3)
        assert O.averaging_convergence_check(pd, sweeps=0) == 0.0

    def test_two_bidders_one_sweep(self):
        pd = OS.ProductDist((D.two_point(0.0, 0.3, 1.0), D.two_point(0.0, 0.7, 1.0)))
        assert O.averaging_convergence_check(pd, sweeps=1) <= 1e-15

    def test_four_random_two_points(self):
        rng = np.random.default_rng(23)
        comps = tuple(D.two_point(0.0, float(rng.uniform(0.2, 0.8)), 1.0) for _ in range(4))
        assert O.averaging_convergence_check(OS.ProductDist(comps), sweeps=200) <= 1e-6

    def test_mixed_supports(self):
        comps = (D.uniform(0, 1), D.uniform(0.5, 2.0), D.two_point(0.2, 0.5, 1.5))
        assert O.averaging_convergence_check(OS.ProductDist(comps), sweeps=200) <= 1e-6


@pytest.mark.parametrize("call, says", [
    (lambda: O.DiscreteInstance((), ()), "matching non-empty supports and probs"),
    (lambda: O.DiscreteInstance(((1.0,),), ((0.5,), (0.5,))), "matching non-empty supports and probs"),
    (lambda: O.DiscreteInstance(((1.0,),) * 9, ((1.0,),) * 9), "capped at 8 bidders"),
    (lambda: O.DiscreteInstance(((1.0, 2.0),), ((0.5, 0.4),)), "probabilities must sum to 1"),
    (lambda: O.DiscreteInstance.from_dists([D.uniform(0, 1)]), "purely atomic bidders"),
    (lambda: O.feasible_sampler_pi_k(OS.AmbiguitySpec(3, 2, D.uniform(0, 1)), 10, 1), "two-point observation"),
], ids=["empty", "unmatched", "nine_bidders", "mass_short_of_one", "continuous_bidder", "continuous_observation"])
def test_refusal_names_its_cause(call, says):
    with pytest.raises(ValueError, match=says):
        call()
