import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import betaincinv

from osauction import dist as D
from osauction import mech as M
from osauction import orderstat as OS
from osauction import revenue as R
from conftest import observations, random_discrete_dist, random_mixed_dist, two_pass_consistent_iid

F_DISC = D.two_point(1.0, 0.8, 2.0)
UNIF = D.uniform(0, 1)
BERN = D.two_point(0.0, 0.5, 1.0)
# atoms 1.0 and 1.2 share one ironed level
POOLED = D.from_table([], atoms=[(1.0, 0.7), (1.2, 0.1), (2.0, 0.19), (4.0, 0.01)])


def _mc_oracle(payment_fn, components, samples, seed):
    """Independent Monte Carlo estimate with its own sampling path."""
    rng = np.random.default_rng(seed)
    u = rng.random((samples, len(components)))
    values = np.column_stack([c.quantile(u[:, j]) for j, c in enumerate(components)])
    pays = payment_fn(values)
    return float(pays.mean()), float(pays.std(ddof=1) / math.sqrt(samples))


class TestPostedPriceRevenue:
    def test_zero_price(self):
        assert R.closed_form_revenue(M.PostedPrice(0.0), OS.iid(UNIF, 2)) == 0.0

    def test_two_uniforms_against_mc(self):
        got = R.closed_form_revenue(M.PostedPrice(0.5), OS.iid(UNIF, 2))
        assert got == pytest.approx(0.375, abs=1e-12)
        est, se = _mc_oracle(
            lambda v: 0.5 * (v >= 0.5).any(axis=1), [UNIF, UNIF], 10**6, 20
        )
        assert abs(got - est) <= 4 * se

    def test_constant_across_max_consistent_products(self):
        # any split of the maximum's CDF across bidders leaves the revenue at
        # the monopoly value of the observed maximum distribution
        p_star, want = D.monopoly_price(BERN)
        pairs = [(BERN, D.point_mass(0.0))]
        for a in (0.6, 0.75, 0.9):
            pairs.append((D.two_point(0.0, a, 1.0), D.two_point(0.0, 0.5 / a, 1.0)))
        for f1, f2 in pairs:
            pd = OS.ProductDist((f1, f2))
            assert R.closed_form_revenue(M.PostedPrice(p_star), pd) == pytest.approx(want, abs=1e-10)


class TestSecondPriceRevenue:
    def test_two_uniforms_no_reserve(self):
        got = R.closed_form_revenue(M.SPAReserve(0.0), OS.iid(UNIF, 2))
        assert got == pytest.approx(1.0 / 3.0, abs=1e-12)
        est, se = _mc_oracle(
            lambda v: v.min(axis=1), [UNIF, UNIF], 10**6, 21
        )
        assert abs(got - est) <= 4 * se

    def test_reserve_above_support(self):
        assert R.closed_form_revenue(M.SPAReserve(5.0), OS.iid(UNIF, 2)) == 0.0

    def test_second_term_is_tail_of_observation(self):
        # with the second order statistic observed, the above-reserve part of
        # the revenue is pinned down by the observation alone
        spec = OS.AmbiguitySpec(3, 2, BERN)
        fbar = OS.consistent_iid(spec)
        base = R.closed_form_revenue(M.SPAReserve(0.0), OS.iid(fbar, 3))
        # the integral of 1 - G over [0, inf) is G's mean
        assert base == pytest.approx(0.5, abs=1e-10)


class TestClosedFormsAgainstMC:
    def test_multiunit(self):
        pd = OS.iid(UNIF, 3)
        got = R.closed_form_revenue(M.MultiUnit(2, 0.0), pd)
        assert got == pytest.approx(0.5, abs=1e-12)  # 2 * E[min of 3 uniforms]
        rep = R.mc_expected_revenue(M.MultiUnit(2, 0.0), pd, 10**5, 5)
        assert abs(rep.expected_revenue - got) <= 4 * rep.mc_stderr

    def test_multiunit_with_reserve(self):
        pd = OS.iid(UNIF, 3)
        got = R.closed_form_revenue(M.MultiUnit(2, 0.5), pd)
        rep = R.mc_expected_revenue(M.MultiUnit(2, 0.5), pd, 2 * 10**5, 6)
        assert abs(rep.expected_revenue - got) <= 4 * rep.mc_stderr

    def test_laddered(self):
        pd = OS.iid(UNIF, 4)
        got = R.closed_form_revenue(M.Laddered((1.0, 0.5), 0.3), pd)
        rep = R.mc_expected_revenue(M.Laddered((1.0, 0.5), 0.3), pd, 2 * 10**5, 7)
        assert abs(rep.expected_revenue - got) <= 4 * rep.mc_stderr

    def test_spa_with_atoms(self):
        pd = OS.iid(F_DISC, 3)
        got = R.closed_form_revenue(M.SPAReserve(1.5), pd)
        rep = R.mc_expected_revenue(M.SPAReserve(1.5), pd, 2 * 10**5, 8)
        assert abs(rep.expected_revenue - got) <= 4 * rep.mc_stderr


# the zero-reserve member of each reserve family; the ids are the ones these
# cases have always been reported under
FAMILIES = [M.PostedPrice(0.0), M.SPAReserve(0.0), M.MultiUnit(2), M.Laddered((1.0, 0.6, 0.2))]
FAMILY_IDS = ["posted_price", "spa", "family2", "family3"]


def _at_reserve(mech, r):
    if isinstance(mech, M.PostedPrice):
        return M.PostedPrice(r)
    return dataclasses.replace(mech, reserve=r)


class TestSeparableForm:
    @pytest.mark.parametrize(
        "mech",
        [
            M.PostedPrice(0.5),
            M.SPAReserve(0.5),
            M.MultiUnit(1, 0.5),
            M.MultiUnit(3, 0.25),
            M.Laddered((1.0, 0.5), 0.5),
            M.Laddered((2.0, 1.0, 1.0, 0.5, 0.25, 0.1), 0.5),  # more slots than bidders
        ],
        ids=lambda m: m.describe(),
    )
    def test_mc_payments_match_per_profile_outcomes(self, mech):
        rng = np.random.default_rng(31)
        # half the profiles on a lattice holding the reserve, so values at the
        # reserve and ties between bidders are frequent
        lattice = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0, 1.5], size=(500, 4))
        values = np.vstack([lattice, rng.uniform(0.0, 2.0, size=(500, 4))])
        got = R._payment_kernel(mech, 4)(values.T)  # one row per bidder
        want = [M.outcome(mech, M.Profile(tuple(row))).total_payment for row in values]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), same=st.booleans(),
           where=st.sampled_from(["zero", "knot", "between", "below", "above"]))
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_closed_form_integrates_from_the_reserve(self, seed, n, same, where):
        # the tail kept from the last merged knot at or below r is the whole
        # table's there: each segment integrates on its own and the suffix
        # sums run from the top; only a dot product's rounding, which may
        # depend on a segment's place in the array, can move the last bits
        rng = np.random.default_rng(seed)

        def law():
            pick = int(rng.integers(5))
            if pick < 2:
                return random_mixed_dist(rng, max_knots=8) if pick else random_discrete_dist(rng)
            return [D.exponential(1.5, grid=64), D.normal(1.0, 0.4, grid=64), D.beta_dist(2.0, 3.0, grid=256)][pick - 2]

        pd = OS.iid(law(), n) if same else OS.ProductDist(tuple(law() for _ in range(n)))
        xs = pd.merged_knots()
        i = int(rng.integers(len(xs)))
        r = {"zero": 0.0, "knot": xs[i], "between": xs[i] + rng.uniform(0.0, 1.0) * (xs[min(i + 1, len(xs) - 1)] - xs[i]),
             "below": xs[0] * rng.uniform(0.0, 1.0), "above": xs[-1] + rng.uniform(0.0, 1.0)}[where]
        rates = tuple(np.sort(rng.uniform(0.05, 1.0, int(rng.integers(1, n + 2))))[::-1])
        mechanisms = [M.PostedPrice(r), M.SPAReserve(r), M.Laddered(rates, r)]
        mechanisms += [M.MultiUnit(int(rng.integers(1, n)), r)] if n > 1 else []
        for mechanism in mechanisms:
            _, a, b = R._separable_form(mechanism, n)
            whole = float(R._separable_revenue(a, b, pd)(np.array([float(r)]))[0])
            assert abs(R.closed_form_revenue(mechanism, pd) - whole) <= 4 * np.spacing(whole)

    def test_closed_form_tail_starts_at_the_reserve(self, monkeypatch):
        built = []

        class Recorded(OS.OrderStatTail):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self.knots)

        monkeypatch.setattr(R, "OrderStatTail", Recorded)
        pd = OS.ProductDist((D.beta_dist(2.0, 3.0, grid=256), D.exponential(2.0, grid=64), F_DISC))
        xs = pd.merged_knots()
        for r, first in ((xs[100], 100), (0.5 * (xs[100] + xs[101]), 100), (0.0, 0), (xs[-1] + 1.0, len(xs) - 1)):
            R.closed_form_revenue(M.SPAReserve(float(r)), pd)
            assert built[-1].tobytes() == xs[first:].tobytes()
        # a reserve search scores reserves below the family's own: the whole table
        spec = OS.AmbiguitySpec(3, 2, UNIF)
        R.optimal_robust_reserve(spec, M.SPAReserve(0.7), grid=64)
        assert built[-1].tobytes() == OS.consistent_iid(spec, grid=64).xs.tobytes()

    def test_mc_refuses_units_not_below_bidders(self):
        with pytest.raises(ValueError, match="more bidders than units"):
            R.mc_expected_revenue(M.MultiUnit(2, 0.0), OS.iid(UNIF, 2), 100, 1)

    @pytest.mark.parametrize("family", FAMILIES, ids=FAMILY_IDS)
    @pytest.mark.parametrize("product", ["iid", "heterogeneous"])
    def test_batched_objective_matches_closed_form(self, family, product):
        if product == "iid":
            pd = OS.iid(OS.consistent_iid(OS.AmbiguitySpec(4, 3, UNIF), grid=64), 4)
        else:
            pd = OS.ProductDist((UNIF, F_DISC, D.two_point(0.2, 0.4, 1.5), D.exponential(2.0, grid=64)))
        _, a, b = M.separable_form(family)
        candidates = np.unique(np.concatenate([[0.0], pd.merged_knots()]))
        got = R._separable_revenue(a, b, pd)(candidates)
        want = [R.closed_form_revenue(_at_reserve(family, float(r)), pd) for r in candidates]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("family", FAMILIES, ids=FAMILY_IDS)
    @pytest.mark.parametrize(
        "G",
        [UNIF, D.exponential(1.0, grid=256), BERN, D.from_table([(0.5, 0.0), (1.5, 0.6)], atoms=[(2.0, 0.4)])],
        ids=["uniform", "exponential", "twopoint", "table"],
    )
    def test_iid_closed_form_matches_heterogeneous_path(self, family, G):
        # one Dist object repeated takes the incomplete-beta path; n equal but
        # distinct objects take the Poisson-binomial + Gauss-Legendre one
        for n in (3, 8, 25):
            f = OS.consistent_iid(OS.AmbiguitySpec(n, 2, G), grid=256)
            twins = OS.ProductDist(tuple(D.Dist(f.xs, f.f_left, f.f_right) for _ in range(n)))
            assert twins.common is None
            mid = 0.5 * (f.xs[len(f.xs) // 3] + f.xs[len(f.xs) // 3 + 1])
            for r in (0.0, float(f.xs[len(f.xs) // 2]), float(mid), f.support_hi + 1.0):
                m = _at_reserve(family, r)
                assert R.closed_form_revenue(m, OS.iid(f, n)) == pytest.approx(
                    R.closed_form_revenue(m, twins), rel=0.0, abs=1e-12
                )


PIN_LITERALS = [
    {"family": "uniform", "lo": 0.2, "hi": 1.4},
    {"family": "twopoint", "v1": 0.5, "p1": 0.6, "v2": 1.5},
    {"family": "atom", "v": 0.9},
    {"family": "table", "knots": [[0.0, 0.0], [1.0, 0.45], [2.0, 0.7]], "atoms": [[0.5, 0.1], [2.0, 0.2]]},
]
PIN_BASE = {"family": "table", "knots": [[0.2, 0.0], [1.4, 0.4]], "atoms": [[0.5, 0.2], [0.9, 0.1], [1.5, 0.3]]}


def _pin_product(n):
    return OS.ProductDist(tuple(D.from_literal(PIN_LITERALS[(3 * j) % 4 if n > 4 else j % 4]) for j in range(n)))


def _pin_mechanisms(n):
    base = D.from_literal(PIN_BASE)
    return {
        "posted_price": M.PostedPrice(1.2),
        "spa": M.SPAReserve(0.5),
        "multi_unit": M.MultiUnit(min(2, n - 1), 0.4),
        "laddered": M.Laddered((1.0, 0.6, 0.25), 0.3),
        "myerson_lexicographic": M.MyersonIID(base, "lexicographic"),
        "myerson_uniform": M.MyersonIID(base, "uniform"),
    }


# (n, mechanism) -> (mean, stderr) of 3000 samples with seed 40 + n
PINNED_MC = {
    (2, "posted_price"): ("0x1.2f4f0d844d014p-1", "0x1.66fc8adedb82fp-7"),  # 0.5924 0.0110
    (2, "spa"): ("0x1.4531915b5ef58p-1", "0x1.2b929cfdcdb1cp-8"),  # 0.6351 0.0046
    (2, "multi_unit"): ("0x1.3a4002465346fp-1", "0x1.3c94785c5aef5p-8"),  # 0.6138 0.0048
    (2, "laddered"): ("0x1.2c4693cfe10c1p-1", "0x1.4059f288085a2p-9"),  # 0.5865 0.0024
    (2, "myerson_lexicographic"): ("0x1.573eab367a0f9p-1", "0x1.4b2bbcbb5ba5fp-7"),  # 0.6704 0.0101
    (2, "myerson_uniform"): ("0x1.3d3c36113404fp-1", "0x1.21e09f1034735p-7"),  # 0.6196 0.0088
    (3, "posted_price"): ("0x1.3c36113404ea5p-1", "0x1.66dc5dd19033ap-7"),  # 0.6176 0.0110
    (3, "spa"): ("0x1.af1052de8fe5ep-1", "0x1.019ae46854150p-8"),  # 0.8419 0.0039
    (3, "multi_unit"): ("0x1.26e76f1cf62a7p+0", "0x1.a9a375d2d4cdcp-8"),  # 1.1520 0.0065
    (3, "laddered"): ("0x1.e5d32a32beb08p-1", "0x1.018f8a4774ad9p-8"),  # 0.9489 0.0039
    (3, "myerson_lexicographic"): ("0x1.019652bd3c362p+0", "0x1.120cc0156c3b2p-8"),  # 1.0062 0.0042
    (3, "myerson_uniform"): ("0x1.0a5e353f7ced9p+0", "0x1.9b03bc303b8e2p-9"),  # 1.0405 0.0031
    (5, "posted_price"): ("0x1.cf0d844d013a9p-1", "0x1.3561a31f4e3d3p-7"),  # 0.9044 0.0094
    (5, "spa"): ("0x1.1499589307dc4p+0", "0x1.2b6eab5d53d1ap-8"),  # 1.0805 0.0046
    (5, "multi_unit"): ("0x1.b01e723e8ae7ep+0", "0x1.f95615e048e03p-8"),  # 1.6880 0.0077
    (5, "laddered"): ("0x1.805845250518fp+0", "0x1.ad7b80dabeb0cp-8"),  # 1.5013 0.0066
    (5, "myerson_lexicographic"): ("0x1.319ce075f6fd3p+0", "0x1.66f049493d69cp-8"),  # 1.1938 0.0055
    (5, "myerson_uniform"): ("0x1.28bc4e88b27a0p+0", "0x1.0f28c441e31aap-8"),  # 1.1591 0.0041
    (8, "posted_price"): ("0x1.194af4f0d844cp+0", "0x1.8f1015b4665e3p-8"),  # 1.0988 0.0061
    (8, "spa"): ("0x1.5194f1a764e60p+0", "0x1.669fdedafcd81p-8"),  # 1.3187 0.0055
    (8, "multi_unit"): ("0x1.147e7066a981fp+1", "0x1.1871cd36348eep-7"),  # 2.1601 0.0086
    (8, "laddered"): ("0x1.fa6b812ebe18cp+0", "0x1.ba58ad216e09dp-8"),  # 1.9782 0.0067
    (8, "myerson_lexicographic"): ("0x1.699096c00a3b6p+0", "0x1.57c6bd325d604p-8"),  # 1.4124 0.0052
    (8, "myerson_uniform"): ("0x1.62af0b29918b7p+0", "0x1.395c7c1a7c853p-8"),  # 1.3855 0.0048
    (12, "posted_price"): ("0x1.2a305532617c1p+0", "0x1.e4a3aed3c1963p-9"),  # 1.1648 0.0037
    (12, "spa"): ("0x1.7dcf0eb4dea86p+0", "0x1.4db31d1502023p-8"),  # 1.4914 0.0051
    (12, "multi_unit"): ("0x1.455e755e24d42p+1", "0x1.2f6ecfac35b33p-7"),  # 2.5419 0.0093
    (12, "laddered"): ("0x1.27d4ed83d484fp+1", "0x1.e1303a81c7593p-8"),  # 2.3112 0.0073
    (12, "myerson_lexicographic"): ("0x1.88ac9aabfca3dp+0", "0x1.37a600587d02ep-8"),  # 1.5339 0.0048
    (12, "myerson_uniform"): ("0x1.8613cb217920ep+0", "0x1.2c34120850f6cp-8"),  # 1.5237 0.0046
}


class TestMonteCarlo:
    def test_pooled_optimum_fixture(self):
        # three bidders from the two-point base: optimal revenue 2 - q^2
        rep = R.mc_expected_revenue(M.MyersonIID(F_DISC), OS.iid(F_DISC, 3), 4 * 10**5, 9)
        assert abs(rep.expected_revenue - 1.36) <= 4 * rep.mc_stderr

    def test_seeded_runs_identical(self):
        pd = OS.iid(UNIF, 2)
        a = R.mc_expected_revenue(M.PostedPrice(0.5), pd, 50_000, 13)
        b = R.mc_expected_revenue(M.PostedPrice(0.5), pd, 50_000, 13)
        assert a.expected_revenue == b.expected_revenue
        assert a.mc_stderr == b.mc_stderr

    @pytest.mark.parametrize("tiebreak", ["uniform", "lexicographic"])
    def test_myerson_mc_matches_scalar_path(self, tiebreak):
        pd = OS.iid(F_DISC, 3)
        rep = R.mc_expected_revenue(M.MyersonIID(F_DISC, tiebreak), pd, 2000, 3)
        (unif,) = _reference_draws(3, 3, 2000)
        # uniform ties are averaged exactly: the reference is the mean over
        # all 3! priority orders
        orders = list(itertools.permutations(range(3))) if tiebreak == "uniform" else [(0, 1, 2)]
        pays = {}  # the profiles repeat: two values for three bidders
        total = 0.0
        for s in range(2000):
            vals = tuple(F_DISC.quantile(unif[j, s]) for j in range(3))
            if vals not in pays:
                pays[vals] = np.mean(
                    [M.myerson_outcome(F_DISC, tiebreak, M.Profile(vals), priority=p).total_payment for p in orders]
                )
            total += pays[vals]
        assert rep.expected_revenue == pytest.approx(total / 2000, abs=1e-12)

    @pytest.mark.parametrize("tiebreak", ["uniform", "lexicographic"])
    def test_myerson_payments_match_priority_average(self, tiebreak):
        # heterogeneous atom bidders on one lattice tie often, at the top and
        # below it; 0 lies below the base's support
        rng = np.random.default_rng(41)
        lattice = [0.0, 1.0, 1.1, 1.2, 2.0, 3.0, 4.0]
        bidders = [D.from_table([], atoms=list(zip(lattice, rng.dirichlet(np.ones(7))))) for _ in range(5)]
        u = rng.random((60, 5))
        values = np.column_stack([d.quantile(u[:, j]) for j, d in enumerate(bidders)])
        got = R._payment_kernel(M.MyersonIID(POOLED, tiebreak), 5)(values.T)  # one row per bidder
        orders = list(itertools.permutations(range(5))) if tiebreak == "uniform" else [tuple(range(5))]
        want = [
            np.mean([M.myerson_outcome(POOLED, tiebreak, M.Profile(tuple(row)), priority=p).total_payment
                     for p in orders])
            for row in values
        ]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("key", list(PINNED_MC), ids=lambda k: f"{k[1]}-n{k[0]}")
    def test_seeded_outputs_pinned(self, key):
        # seeded Monte Carlo output is fixed to the bit: the float.hex of mean
        # and stderr; the literals need only arithmetic, so every platform
        # must reproduce them
        n, name = key
        rep = R.mc_expected_revenue(_pin_mechanisms(n)[name], _pin_product(n), 3000, 40 + n)
        assert (rep.expected_revenue.hex(), rep.mc_stderr.hex()) == PINNED_MC[key]

    @pytest.mark.parametrize("n", sorted({n for n, _ in PINNED_MC}))
    def test_pinned_products_against_closed_forms(self, n):
        # the pinned runs estimate the exact revenue of their heterogeneous
        # products whatever the stream; bidders that shared draws would not
        pd = _pin_product(n)
        for name, mechanism in _pin_mechanisms(n).items():
            if not isinstance(mechanism, M.MyersonIID):
                rep = R.mc_expected_revenue(mechanism, pd, 3000, 40 + n)
                exact = R.closed_form_revenue(mechanism, pd)
                assert abs(rep.expected_revenue - exact) <= 4 * rep.mc_stderr, name

    @pytest.mark.parametrize("case", ["myerson-uniform-n3", "spa-uniform-n2", "spa-exponential-n2"])
    def test_payment_sums_past_the_float_maximum(self, case):
        # the sums of these payments overflow although their mean and stderr
        # do not; scaling every value by 2**-1000 is exact, so the same draws
        # from the scaled law, scaled back, are the reference
        def law(e):
            if case.startswith("spa-exponential"):
                return D.exponential(math.ldexp(1e-300, -e))
            return D.uniform(math.ldexp(1e300, e), math.ldexp(1e305, e))

        def estimate(e):
            d = law(e)
            mechanism = M.MyersonIID(d) if case.startswith("myerson") else M.SPAReserve(0.0)
            rep = R.mc_expected_revenue(mechanism, OS.iid(d, int(case[-1])), 5000, 3)
            return math.ldexp(rep.expected_revenue, -e), math.ldexp(rep.mc_stderr, -e)

        got, want = estimate(0), estimate(-1000)
        assert all(math.isfinite(x) for x in got)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", [10, 200])
    def test_uniform_tiebreak_at_any_n(self, n):
        # bidders are exchangeable, so uniform ties earn the closed-form
        # (lexicographic) revenue
        rep = R.mc_expected_revenue(M.MyersonIID(POOLED, "uniform"), OS.iid(POOLED, n), 20_000, 12)
        assert abs(rep.expected_revenue - R.myerson_iid_revenue(POOLED, n)) <= 4 * rep.mc_stderr

    def test_report_field_validation(self):
        with pytest.raises(ValueError):
            R.RevenueReport("m", "d", 1.0, "monte-carlo")
        with pytest.raises(ValueError):
            R.RevenueReport("m", "d", 1.0, "closed-form", mc_stderr=0.1)


def _moved(d, scale, shift):
    """``d`` with every value scaled, then shifted."""
    return D.Dist(d.xs * scale + shift, d.f_left, d.f_right)


@given(seed=st.integers(0, 2**32 - 1), discrete_base=st.booleans(), n=st.integers(1, 7))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_level_scorer_matches_values(seed, discrete_base, n):
    # components unlike the base, some entirely below or above its support,
    # and bidders sharing a component; uniforms on their CDF knots included
    rng = np.random.default_rng(seed)
    base = random_discrete_dist(rng) if discrete_base else random_mixed_dist(rng)
    pool = [base, random_discrete_dist(rng), random_mixed_dist(rng), random_mixed_dist(rng, atoms=False),
            _moved(random_mixed_dist(rng), 0.5 * base.support_lo / 3.0, 0.0),
            _moved(random_discrete_dist(rng), 1.0, base.support_hi)]
    pd = OS.ProductDist(tuple(pool[int(rng.integers(len(pool)))] for _ in range(n)))
    q = rng.random((n, 600))
    for i, c in enumerate(pd.components):
        q[i, :2 * len(c.xs)] = np.concatenate([c.f_left, c.f_right])
    values = np.array([c.quantile(row) for c, row in zip(pd.components, q)])
    phi_fn, phi_eval = D.virtual_values(base), D.VirtualValueFn.eval
    for tiebreak in ("lexicographic", "uniform"):
        score, pay = R._sampler(M.MyersonIID(base, tiebreak), pd)
        # only a component with a rising segment evaluates its draws' levels:
        # an atomic one reads its table, in a mixed product too
        evaluated = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(D.VirtualValueFn, "eval", lambda self, v: evaluated.append(np.size(v)) or phi_eval(self, v))
            scores = np.array([score(c, row) for c, row in zip(pd.components, q)])
        assert evaluated == [q.shape[1] for c in pd.components if c._rises]
        if any(c._rises for c in pd.components):  # levels; ranks on purely atomic products
            assert scores.tobytes() == phi_fn.eval(values).tobytes()
        assert score(pd.components[0], q[:1]).tobytes() == scores[:1].tobytes()  # a slab of rows
        want = R._payment_kernel(M.MyersonIID(base, tiebreak), n)(values)
        assert pay(scores).tobytes() == want.tobytes()


# atoms at 1 and 2 of mass 1/2 each: the revenue curve is flat from the first
# to the second, so the atom at 1 takes level 0
ZERO_LEVEL = D.from_table([], atoms=[(1.0, 0.5), (2.0, 0.5)])


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 7))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_rank_scorer_pays_what_levels_pay(seed, n):
    # purely atomic products: ironed bases whose atoms share a level, one with
    # a level-0 atom, components on the base's lattice, wholly below its
    # support (level -inf), on its top and above it; draws at every knot
    rng = np.random.default_rng(seed)
    lattice = [0.5, 1.0, 1.2, 2.0, 4.0]

    def on_lattice():
        return D.from_table([], atoms=list(zip(lattice, rng.dirichlet(np.ones(len(lattice))))))

    base = [POOLED, F_DISC, ZERO_LEVEL, random_discrete_dist(rng), on_lattice()][int(rng.integers(5))]
    pool = [base, on_lattice(), random_discrete_dist(rng), D.point_mass(base.support_hi),
            _moved(random_discrete_dist(rng), 0.3 * base.support_lo / 3.0, 0.0),
            _moved(random_discrete_dist(rng), 1.0, base.support_hi)]
    pd = OS.ProductDist(tuple(pool[int(rng.integers(len(pool)))] for _ in range(n)))
    q = rng.random((n, 600))
    for i, c in enumerate(pd.components):
        edges = np.concatenate([c.f_left, c.f_right])
        q[i, : 3 * len(edges)] = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    values = np.array([c.quantile(row) for c, row in zip(pd.components, q)])
    for tiebreak in ("lexicographic", "uniform"):
        score, pay = R._sampler(M.MyersonIID(base, tiebreak), pd)
        ranks = np.array([score(c, row) for c, row in zip(pd.components, q)])
        assert np.array_equal(ranks, np.floor(ranks)) and ranks.min() >= 0.0
        # every row of the first bidder's component in one slab
        rows = [i for i, c in enumerate(pd.components) if c is pd.components[0]]
        assert score(pd.components[0], q[rows]).tobytes() == ranks[rows].tobytes()
        want = R._payment_kernel(M.MyersonIID(base, tiebreak), n)(values)
        assert pay(ranks).tobytes() == want.tobytes()


@pytest.mark.parametrize("tiebreak", ["lexicographic", "uniform"])
@pytest.mark.parametrize("n", [1, 2, 3, 6])
@pytest.mark.parametrize("base", [POOLED, ZERO_LEVEL, D.from_literal(PIN_BASE)], ids=["pooled", "zero", "mixed"])
def test_rank_kernel_pays_what_levels_pay(base, n, tiebreak):
    # levels tied at the top and below it, -inf, and a signed zero pair,
    # which ranks read as one level
    phi_fn = D.virtual_values(base)
    rng = np.random.default_rng(n)
    pick = np.concatenate([[-np.inf, -0.0, 0.0, -1.0, 3.0 * base.support_hi], phi_fn.eval(base.xs)])
    levels = rng.choice(pick, (n, 4000))
    table = np.unique(np.concatenate([[-np.inf], pick]))
    ranks = np.searchsorted(table, levels).astype(np.float64)
    got = R._myerson_kernel(phi_fn, tiebreak, table)(ranks)
    assert got.tobytes() == R._myerson_kernel(phi_fn, tiebreak)(levels).tobytes()


def _reference_draws(seed, n, samples):
    """Each block's bidder-major uniforms, read in order from one PCG64
    stream: ``(n, len)`` per block, without advancing it."""
    g = np.random.Generator(np.random.PCG64(seed))
    return [g.random((n, min(R._MC_BLOCK, samples - start))) for start in range(0, samples, R._MC_BLOCK)]


def _single_matrix_mc(mechanism, pd, samples, seed):
    """Monte Carlo on one draw matrix for all samples, its blocks read from
    the stream in order, priced in one call."""
    values = np.concatenate(_reference_draws(seed, pd.n, samples), axis=1)
    for row, component in zip(values, pd.components):
        row[:] = component.quantile(row)
    payments = R._payment_kernel(mechanism, pd.n)(values)
    stderr = float(payments.std(ddof=1) / math.sqrt(samples)) if samples > 1 else float("inf")
    return float(payments.mean()), stderr


BLOCK_MECHANISMS = {
    "posted_price": M.PostedPrice(0.9),
    "spa": M.SPAReserve(0.5),
    "multi_unit": M.MultiUnit(2, 0.4),
    "laddered": M.Laddered((1.0, 0.6, 0.25), 0.3),
    "myerson_lexicographic": M.MyersonIID(D.from_literal(PIN_BASE), "lexicographic"),
    "myerson_uniform": M.MyersonIID(D.from_literal(PIN_BASE), "uniform"),
}


class TestMonteCarloBlocks:
    BLOCK = R._MC_BLOCK

    @pytest.mark.parametrize("name", list(BLOCK_MECHANISMS))
    @pytest.mark.parametrize("n", [3, 4])  # n draws per sample: odd, then even
    @pytest.mark.parametrize("samples", [1, BLOCK - 1, BLOCK + 1, 2 * BLOCK + 5])
    def test_same_bits_for_any_worker_count(self, monkeypatch, name, n, samples):
        comps = [D.from_literal(PIN_LITERALS[j % 4]) for j in range(n - 1)] + [D.exponential(1.0, grid=64)]
        pd = OS.ProductDist(tuple(comps))
        mech = BLOCK_MECHANISMS[name]
        want = _single_matrix_mc(mech, pd, samples, 23)
        for workers in (1, 2, 3, 8):
            monkeypatch.setattr(R, "_available_cpus", lambda: workers)
            rep = R.mc_expected_revenue(mech, pd, samples, 23)
            assert (rep.expected_revenue, rep.mc_stderr) == want

    def test_many_threads_on_cold_memos(self, monkeypatch):
        # more threads than CPUs on fresh distributions, switching threads
        # often: the memos are built once, before any block runs
        def fresh():
            pd = OS.ProductDist((D.from_literal(PIN_BASE), D.from_literal(PIN_LITERALS[0]), D.from_literal(PIN_BASE)))
            return M.MyersonIID(D.from_literal(PIN_BASE), "uniform"), pd

        samples = 5 * self.BLOCK + 3
        want = _single_matrix_mc(*fresh(), samples, 8)
        mech, pd = fresh()
        monkeypatch.setattr(R, "_available_cpus", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rep = R.mc_expected_revenue(mech, pd, samples, 8)
        finally:
            sys.setswitchinterval(interval)
        assert (rep.expected_revenue, rep.mc_stderr) == want

    @pytest.mark.parametrize("name", ["posted_price", "laddered", "myerson_uniform"])
    def test_shared_components_drawn_in_slabs(self, name):
        # each distinct component draws its rows, adjacent or interleaved, in
        # slabs of at most _MC_SLAB values
        a, b = D.from_literal(PIN_LITERALS[0]), D.exponential(1.0, grid=64)
        samples = 1000
        rows = R._MC_SLAB // samples
        pd = OS.ProductDist((b,) * (rows + 5) + tuple(a if j % 3 else b for j in range(2 * rows)))
        mech = BLOCK_MECHANISMS[name]
        rep = R.mc_expected_revenue(mech, pd, samples, 3)
        assert (rep.expected_revenue, rep.mc_stderr) == _single_matrix_mc(mech, pd, samples, 3)

    @pytest.mark.parametrize("name", ["myerson_lexicographic", "myerson_uniform"])
    def test_atomic_components_ranked_in_slabs(self, name):
        # purely atomic components score ranks, in slabs as levels would be
        a, b = D.from_literal(PIN_LITERALS[1]), D.from_literal(PIN_LITERALS[2])
        samples = 1000
        rows = R._MC_SLAB // samples
        pd = OS.ProductDist((b,) * (rows + 5) + tuple(a if j % 3 else b for j in range(2 * rows)))
        mech = BLOCK_MECHANISMS[name]
        rep = R.mc_expected_revenue(mech, pd, samples, 3)
        assert (rep.expected_revenue, rep.mc_stderr) == _single_matrix_mc(mech, pd, samples, 3)

    @pytest.mark.parametrize("n", [1, 3, 4, 12, 40])
    def test_block_rows_are_the_reference_block(self, n):
        # each block advances its own generator to its first draw; its rows
        # are the block the in-order reference reads there: the first and a
        # later block, full and short
        seeds = np.random.SeedSequence(9)
        for samples in (7, 2 * self.BLOCK + 7):
            want = _reference_draws(9, n, samples)
            for b, start in enumerate(range(0, samples, self.BLOCK)):
                got = R._block_draws(seeds, n, start, len(want[b][0]))
                assert got.shape == want[b].shape and got.tobytes() == want[b].tobytes()

    def test_adjacent_rows_are_slices(self):
        # an i.i.d. product's rows are slices, read as views; the rows of a
        # component that other components interleave are gathered
        a, b = D.from_literal(PIN_LITERALS[0]), D.from_literal(PIN_LITERALS[1])
        assert [rows for _, rows in R._component_rows(OS.iid(a, 10), 4)] == [slice(0, 4), slice(4, 8), slice(8, 10)]
        (c0, rows0), (c1, rows1) = R._component_rows(OS.ProductDist((a, b, a, a)), 4)
        assert c0 is a and rows0.tolist() == [0, 2, 3]
        assert c1 is b and rows1 == slice(1, 2)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_error_in_a_block_reaches_the_caller(self, monkeypatch, workers):
        kernel = R._payment_kernel

        def fail_on_short_block(mechanism, n):
            pay = kernel(mechanism, n)

            def payments(values):
                if values.shape[1] < self.BLOCK:
                    raise RuntimeError("block failed")
                return pay(values)

            return payments

        monkeypatch.setattr(R, "_available_cpus", lambda: workers)
        monkeypatch.setattr(R, "_payment_kernel", fail_on_short_block)
        with pytest.raises(RuntimeError, match="block failed"):
            R.mc_expected_revenue(M.SPAReserve(0.5), OS.iid(UNIF, 3), 2 * self.BLOCK + 5, 1)

    def test_refusals_come_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(R, "_block_draws", None)  # a draw would fail with TypeError
        with pytest.raises(ValueError, match="more bidders than units"):
            R.mc_expected_revenue(M.MultiUnit(3, 0.0), OS.iid(UNIF, 3), 100, 1)


class Interrupt(BaseException):
    """Stands for KeyboardInterrupt: not an Exception."""


class TestBlockThreads:
    """The calling thread and its helpers claim blocks from one counter; a
    failure on either reaches the caller, and no helper outlives the call."""

    BLOCKS = 16
    WAIT = 30.0  # seconds a block waits for another thread's block, at most

    def run(self, monkeypatch, workers, began, on_caller=None, on_helper=None):
        """``mc_expected_revenue`` on BLOCKS blocks and ``workers`` threads,
        with ``on_caller`` or ``on_helper`` called before each block's draws
        on that side; ``began`` collects the start of every block drawn."""
        caller, draws = threading.current_thread(), R._block_draws

        def block_draws(seeds, n, start, samples):
            began.append(start)
            hook = on_caller if threading.current_thread() is caller else on_helper
            if hook is not None:
                hook()
            return draws(seeds, n, start, samples)

        monkeypatch.setattr(R, "_available_cpus", lambda: workers)
        monkeypatch.setattr(R, "_block_draws", block_draws)
        before = threading.active_count()
        try:
            return R.mc_expected_revenue(M.SPAReserve(0.5), OS.iid(UNIF, 2), self.BLOCKS * R._MC_BLOCK, 4)
        finally:
            assert threading.active_count() == before  # every helper joined, on success or failure

    @pytest.mark.parametrize("workers", [2, 3])
    def test_every_block_runs_once(self, monkeypatch, workers):
        began = []
        rep = self.run(monkeypatch, workers, began)
        assert sorted(began) == list(range(0, self.BLOCKS * R._MC_BLOCK, R._MC_BLOCK))
        want = _single_matrix_mc(M.SPAReserve(0.5), OS.iid(UNIF, 2), self.BLOCKS * R._MC_BLOCK, 4)
        assert (rep.expected_revenue, rep.mc_stderr) == want

    @pytest.mark.parametrize("workers", [2, 3])
    def test_error_on_a_helper_reaches_the_caller(self, monkeypatch, workers):
        failed = threading.Event()

        def fail():
            failed.set()
            raise RuntimeError("helper block failed")

        # the caller's first block waits until a helper's block has failed
        with pytest.raises(RuntimeError, match="helper block failed"):
            self.run(monkeypatch, workers, [], on_caller=lambda: failed.wait(self.WAIT), on_helper=fail)
        assert failed.is_set()

    @pytest.mark.parametrize("error", [RuntimeError, Interrupt])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_error_on_the_caller_stops_the_claims(self, monkeypatch, workers, error):
        began, failed = [], threading.Event()

        def fail():
            failed.set()
            raise error("caller block failed")

        # each helper's block waits until the caller's has failed; then no
        # thread claims another block
        with pytest.raises(error, match="caller block failed"):
            self.run(monkeypatch, workers, began, on_caller=fail, on_helper=lambda: failed.wait(self.WAIT))
        assert failed.is_set() and len(began) < self.BLOCKS

    @pytest.mark.parametrize("workers", [2, 3])
    def test_helper_that_will_not_start_stops_every_claim(self, monkeypatch, workers):
        def refuse(thread):
            raise RuntimeError("can't start new thread")

        began = []
        monkeypatch.setattr(threading.Thread, "start", refuse)
        with pytest.raises(RuntimeError, match="can't start new thread"):
            self.run(monkeypatch, workers, began)
        assert began == []


@pytest.mark.parametrize("count, want", [(5, 5), (None, 1)])
def test_cpus_without_an_affinity_call(monkeypatch, count, want):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert R._available_cpus() == want


GRID_ENTRY_POINTS = {
    "consistent_iid": lambda spec, grid: OS.consistent_iid(spec, grid=grid),
    "worst_case_revenue_topk": lambda spec, grid: R.worst_case_revenue_topk(M.SPAReserve(0.3), spec, grid=grid),
    "optimal_robust_reserve": lambda spec, grid: R.optimal_robust_reserve(spec, M.SPAReserve(0.0), grid=grid),
    "robust_sandwich": lambda spec, grid: R.robust_sandwich(spec, grid=grid),
}


@pytest.mark.parametrize("grid", [0, 15, 2**20 + 1])
@pytest.mark.parametrize("entry", list(GRID_ENTRY_POINTS))
def test_grid_outside_its_bounds_refused(entry, grid):
    # grid 0 once collapsed the consistent i.i.d. law to one knot, and the
    # worst case of spa(r=0.3) on uniform G at (3, 2) read 1.0
    with pytest.raises(ValueError, match="grid must lie between 16 and 1048576"):
        GRID_ENTRY_POINTS[entry](OS.AmbiguitySpec(3, 2, UNIF), grid)


@pytest.mark.parametrize("call, says", [
    (lambda: R.closed_form_revenue(M.MyersonIID(F_DISC), OS.iid(F_DISC, 2)), "no closed form"),
    (lambda: R.mc_expected_revenue(M.SPAReserve(0.5), OS.iid(UNIF, 2), 0, 1), "at least one sample"),
    (lambda: R.unknown_n_bound(-0.5, UNIF), "price must be non-negative"),
    (lambda: R.unknown_n_bound(np.array([0.5, -1e-9]), UNIF), "price must be non-negative"),
    (lambda: R.RevenueReport("m", "d", 1.0, "bootstrap"), "unknown method 'bootstrap'"),
    (lambda: R.closed_form_revenue(M.SPAReserve(math.nan), OS.iid(UNIF, 3)), "reserve must be non-negative and finite"),
    (lambda: R.closed_form_revenue(M.PostedPrice(math.inf), OS.iid(UNIF, 3)), "price must be non-negative and finite"),
    (lambda: R.closed_form_revenue(M.MultiUnit(2, math.inf), OS.iid(UNIF, 3)),
     "reserve must be non-negative and finite"),
    (lambda: R.mc_expected_revenue(M.SPAReserve(math.nan), OS.iid(UNIF, 2), 10, 1),
     "reserve must be non-negative and finite"),
    (lambda: OS.consistent_iid(OS.AmbiguitySpec(3, 2, UNIF), reserve=math.nan), "reserve must be non-negative"),
], ids=["closed_form_myerson", "mc_no_samples", "unknown_n_negative_price", "unknown_n_negative_in_array",
        "report_unknown_method", "nan_reserve", "infinite_price", "infinite_multi_unit_reserve", "mc_nan_reserve",
        "consistent_iid_nan_reserve"])
def test_refusal_names_its_cause(call, says):
    with pytest.raises(ValueError, match=says):
        call()


class TestWorstCase:
    def test_posted_price_first_statistic(self):
        spec = OS.AmbiguitySpec(3, 1, UNIF)
        got = R.worst_case_revenue_topk(M.PostedPrice(0.5), spec)
        assert got == pytest.approx(0.5 * (1 - UNIF.cdf_left(0.5)), abs=1e-9)

    @pytest.mark.parametrize("n", [3, 100, 2000])
    def test_spa_second_statistic_analytic(self, n):
        # at k = 2 the consistent i.i.d. law puts u = I^-1(n-1, 2; G(r-)) below
        # the reserve, and the second-highest value is distributed as G
        grid = 4096
        for r in (0.2, 0.5, 0.9):
            u = betaincinv(n - 1, 2, r)
            want = r * (1 - u**n) + 0.5 * (1 - r) ** 2
            got = R.worst_case_revenue_topk(M.SPAReserve(r), OS.AmbiguitySpec(n, 2, UNIF), grid=grid)
            assert got == pytest.approx(want, rel=0.0, abs=16 / grid**2)

    def test_spa_second_statistic_at_iid(self):
        spec = OS.AmbiguitySpec(3, 2, BERN)
        fbar = OS.consistent_iid(spec)
        got = R.worst_case_revenue_topk(M.SPAReserve(1.0), spec)
        assert got == pytest.approx(R.closed_form_revenue(M.SPAReserve(1.0), OS.iid(fbar, 3)), abs=1e-12)

    def test_myerson_refused(self):
        spec = OS.AmbiguitySpec(3, 2, BERN)
        with pytest.raises(R.NotSeparableError):
            R.worst_case_revenue_topk(M.MyersonIID(F_DISC), spec)

    def test_class_must_fit_observation(self):
        spec = OS.AmbiguitySpec(4, 2, BERN)
        with pytest.raises(ValueError):
            R.worst_case_revenue_topk(M.MultiUnit(2, 0.0), spec)

    def test_every_statistic_observed_at_k_equals_n(self):
        # statistics past the n-th are 0, so a mechanism reaching past them
        # is evaluated at k = n: SPA on one bidder is a posted price at its
        # reserve, and a ladder with more rates than bidders reads the n it has
        got = R.worst_case_revenue_topk(M.SPAReserve(0.3), OS.AmbiguitySpec(1, 1, UNIF), grid=256)
        assert got == pytest.approx(R.closed_form_revenue(M.SPAReserve(0.3), OS.iid(UNIF, 1)), abs=1e-12)
        assert got == pytest.approx(0.21, abs=1e-12)
        spec, ladder = OS.AmbiguitySpec(2, 2, UNIF), M.Laddered((1.0, 0.5, 0.2), 0.1)
        fbar = OS.consistent_iid(spec, grid=256)
        want = R.closed_form_revenue(ladder, OS.iid(fbar, 2))
        assert R.worst_case_revenue_topk(ladder, spec, grid=256) == want

    def test_monotone_in_bidder_count(self):
        # a dummy bidder keeps the observation feasible, so more bidders can
        # only hurt the worst case
        for p in (0.3, 0.6):
            vals = [
                R.worst_case_revenue_topk(
                    M.SPAReserve(p), OS.AmbiguitySpec(n, 2, UNIF), grid=512
                )
                for n in (2, 3, 4, 5)
            ]
            assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))


def separable_mechanisms(n, k, r):
    """A mechanism of each separable family at reserve ``r`` whose worst case
    the observation of the k-th of n values identifies."""
    out = [M.PostedPrice(r)]
    if min(2, n) <= k:
        out.append(M.SPAReserve(r))
    if min(k - 1, n - 1) >= 1:
        out.append(M.MultiUnit(min(k - 1, n - 1), r))
    depth = k - 1 if k < n else 3  # a ladder of depth d reads the top d + 1 statistics
    if depth >= 1:
        out.append(M.Laddered((1.0, 0.6, 0.3)[:depth], r))
    return out


def assert_censored_law_exact_above_reserve(spec, grid, r):
    """The worst case of every separable family at ``r`` is its revenue on
    the full consistent i.i.d. law, bit for bit, and the law it is read off
    holds the full law's knots and levels from the last knot below ``r`` up."""
    full = two_pass_consistent_iid(spec, grid)
    for mechanism in separable_mechanisms(spec.n, spec.k, r):
        want = R.closed_form_revenue(mechanism, OS.iid(full, spec.n))
        assert R.worst_case_revenue_topk(mechanism, spec, grid) == want
    law = OS.consistent_iid(spec, grid, reserve=r)
    assert law.f_left[0] == 0.0
    if law.xs[0] > full.xs[-1]:
        # above the top the full law trims, where its CDF reads 1: one atom
        assert len(law.xs) == 1 and law.xs[0] < r
        return
    assert law.xs[0] == full.xs[full.xs < r][-1:].max(initial=full.xs[0])  # the last knot below r
    kept = full.xs >= law.xs[0]
    assert law.xs.tobytes() == full.xs[kept].tobytes()
    assert law.f_right.tobytes() == full.f_right[kept].tobytes()
    assert law.f_left[1:].tobytes() == full.f_left[kept][1:].tobytes()


class TestCensoredWorstCaseLaw:
    @given(st.data(), observations())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_exact_above_reserve(self, data, case):
        G, grid = case
        n = data.draw(st.one_of(st.integers(1, 12), st.integers(13, 5000)))
        spec = OS.AmbiguitySpec(n, data.draw(st.integers(1, min(n, 4))), G)
        xs = OS.consistent_iid(spec, grid).xs
        i = data.draw(st.integers(0, len(xs) - 1))
        u = data.draw(st.floats(0.0, 1.0, exclude_max=True))
        r = data.draw(st.sampled_from([
            0.0,
            xs[i],  # G's knots are among these
            xs[i] + u * (xs[min(i + 1, len(xs) - 1)] - xs[i]),  # between knots
            data.draw(st.sampled_from([v for v, _ in G.atoms] or [G.xs[0]])),
            u * G.xs[0],  # below the support
            G.xs[-1] * (1.0 + u) + u,  # above it
        ]))
        assert_censored_law_exact_above_reserve(spec, grid, float(r))

    @pytest.mark.parametrize("at", [-2, -1])
    def test_exact_above_a_trimmed_top(self, at):
        # at n = 5000, k = 1 the full law's top knots carry below 1e-12 of
        # its mass, and it trims them; a reserve on them keeps one
        G = D.exponential(1.0, grid=256)
        spec = OS.AmbiguitySpec(5000, 1, G)
        assert OS.consistent_iid(spec, 256).xs[-1] < G.xs[-2]
        assert_censored_law_exact_above_reserve(spec, 256, float(G.xs[at]))

    def test_uniform_g_at_mid_span_inverts_about_half(self, monkeypatch):
        # the knots from the last one below r = 0.5 up: 2050 of the whole law's 4097
        spec, h_inverse, inverted = OS.AmbiguitySpec(6, 2, UNIF), OS.h_inverse, []
        monkeypatch.setattr(OS, "h_inverse", lambda n, k, g: inverted.append(np.size(g)) or h_inverse(n, k, g))
        laws = []
        monkeypatch.setattr(R, "consistent_iid", lambda *a, **kw: laws.append(OS.consistent_iid(*a, **kw)) or laws[-1])
        R.worst_case_revenue_topk(M.SPAReserve(0.5), spec, 4096)
        assert len(laws[0].xs) == 2050
        assert len(OS.consistent_iid(spec, 4096).xs) == 4097
        assert inverted == [2050, 4097]

    def test_reserve_search_inverts_the_whole_law(self):
        # the search replaces the family's own reserve, so that reserve cuts nothing
        spec = OS.AmbiguitySpec(5, 2, UNIF)
        want = R.optimal_robust_reserve(spec, M.SPAReserve(0.0), grid=512)
        assert R.optimal_robust_reserve(spec, M.SPAReserve(0.9), grid=512) == want


class TestOptimalReserve:
    def test_posted_price_first_statistic_monopoly(self):
        res = R.optimal_robust_reserve(OS.AmbiguitySpec(3, 1, UNIF), M.PostedPrice(0.0))
        assert res.reserve == pytest.approx(0.5, abs=1e-2)
        assert res.worst_case_revenue == pytest.approx(0.25, abs=1e-6)
        assert res.optimality_certified

    def test_spa_uniform_against_grid_search(self):
        spec = OS.AmbiguitySpec(5, 2, UNIF)
        res = R.optimal_robust_reserve(spec, M.SPAReserve(0.0), grid=512)
        fbar = OS.consistent_iid(spec, grid=512)
        pd = OS.iid(fbar, 5)
        grid_best = max(
            R.closed_form_revenue(M.SPAReserve(float(r)), pd) for r in np.linspace(0, 1, 2001)
        )
        assert res.worst_case_revenue >= grid_best - 1e-6

    def test_spa_bernoulli_reserve_is_top_atom(self):
        for n in (2, 3, 5):
            res = R.optimal_robust_reserve(OS.AmbiguitySpec(n, 2, BERN), M.SPAReserve(0.0))
            assert res.reserve == pytest.approx(1.0, abs=1e-9)
            u = OS.h_inverse(n, 2, 0.5)
            assert res.worst_case_revenue == pytest.approx(1 - u**n, abs=1e-10)

    def test_multiunit_family(self):
        res = R.optimal_robust_reserve(
            OS.AmbiguitySpec(4, 3, UNIF), M.MultiUnit(2), grid=256
        )
        assert 0.0 <= res.reserve <= 1.0
        assert res.worst_case_revenue > 0

    def test_family_must_fit_observation(self):
        with pytest.raises(ValueError):
            R.optimal_robust_reserve(OS.AmbiguitySpec(3, 1, UNIF), M.SPAReserve(0.0))
        with pytest.raises(ValueError):
            R.optimal_robust_reserve(OS.AmbiguitySpec(4, 2, UNIF), M.MultiUnit(2))

    def test_family_past_the_bidders_at_k_equals_n(self, monkeypatch):
        # a ladder with more rates than bidders is searched at k = n; units
        # that leave no bidder to set the price are refused as such, before
        # the inversion
        spec, family = OS.AmbiguitySpec(2, 2, UNIF), M.Laddered((1.0, 0.5, 0.2))
        res = R.optimal_robust_reserve(spec, family, grid=256)
        fbar = OS.consistent_iid(spec, grid=256)
        at_reserve = R.closed_form_revenue(M.Laddered(family.click_rates, res.reserve), OS.iid(fbar, 2))
        assert res.worst_case_revenue == pytest.approx(at_reserve, abs=1e-12)
        monkeypatch.setattr(R, "consistent_iid", lambda *a, **kw: pytest.fail("inverted before refusing"))
        with pytest.raises(ValueError, match="need more bidders than units"):
            R.optimal_robust_reserve(spec, M.MultiUnit(2), grid=256)


# Both reserve searches on uniform and exponential G at scales 1e-6 to 1e12,
# printed as JSON. A search whose stopping rule the float spacing cannot meet
# never returns, so it runs in a subprocess under a timeout.
SCALED_SEARCHES = """
import json
from osauction import dist as D, mech as M, orderstat as OS, revenue as R
out = {}
for family in ("uniform", "exponential"):
    for scale in (1e-6, 1e-3, 1.0, 1e12):
        G = D.uniform(0.0, scale) if family == "uniform" else D.exponential(1.0 / scale, grid=256)
        fin = R.optimal_robust_reserve(OS.AmbiguitySpec(3, 2, G), M.SPAReserve(0.0), grid=256)
        unk = R.optimal_unknown_n_reserve(G)
        out[f"{family} {scale:g}"] = [fin.reserve, fin.worst_case_revenue, unk.reserve, unk.guarantee]
print(json.dumps(out))
"""


def test_reserve_searches_are_scale_equivariant():
    env = dict(os.environ, PYTHONPATH=str(Path(R.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", SCALED_SEARCHES], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    got = json.loads(done.stdout)
    for family in ("uniform", "exponential"):
        base = got[f"{family} 1"]
        for scale in (1e-6, 1e-3, 1e12):
            scaled = got[f"{family} {scale:g}"]
            for i in (0, 2):  # finite-n and unknown-n reserves
                assert scaled[i] / scale == pytest.approx(base[i], rel=1e-6)
            for i in (1, 3):  # worst-case revenue and guarantee
                assert scaled[i] / scale == pytest.approx(base[i], rel=1e-12)


class TestUnknownN:
    def test_bernoulli_guarantee(self):
        # z (1 - ln z) = 1/2 gives 1 - z ~ 0.813
        got = R.unknown_n_bound(1.0, BERN)
        assert got == pytest.approx(0.813, abs=1e-3)

    def test_no_mass_below_price(self):
        G = D.uniform(1.0, 2.0)
        got = R.unknown_n_bound(0.5, G)
        # z* = 0: the first term is the price itself, plus the tail integral
        assert got == pytest.approx(0.5 + 0.5 + 0.5, abs=1e-12)

    def test_uniform_optimum(self):
        res = R.optimal_unknown_n_reserve(UNIF)
        assert res.z_star == pytest.approx(0.198, abs=2e-3)
        assert res.reserve == pytest.approx(0.519, abs=2e-3)
        assert res.guarantee == pytest.approx(0.531, abs=2e-3)

    def test_lower_bounds_every_finite_n(self):
        for G in (UNIF, BERN):
            for p in (0.4, 1.0):
                bound = R.unknown_n_bound(p, G)
                for n in range(2, 13):
                    wc = R.worst_case_revenue_topk(
                        M.SPAReserve(p), OS.AmbiguitySpec(n, 2, G), grid=512
                    )
                    assert wc >= bound - 1e-9

    def test_array_arguments_match_scalars(self):
        for G in (UNIF, BERN, D.exponential(1.0, grid=256)):
            ps = np.array([0.0, 0.3, 0.5, 1.0, 2.5])
            np.testing.assert_array_equal(R.unknown_n_bound(ps, G), [R.unknown_n_bound(float(p), G) for p in ps])
        gs = np.array([0.0, 1e-6, 0.25, 0.5, 0.99, 1.0])
        np.testing.assert_array_equal(R.z_star(gs), [R.z_star(float(g)) for g in gs])
        with pytest.raises(ValueError):
            R.z_star(np.array([0.5, 1.5]))

    def test_z_star_monotone_root(self):
        for g in (0.0, 1e-6, 0.25, 0.5, 0.99, 1.0):
            z = R.z_star(g)
            if 0 < z < 1:
                assert z * (1 - math.log(z)) == pytest.approx(g, abs=1e-12)


def reference_myerson_iid_revenue(base, n):
    """The per-level loop ``myerson_iid_revenue`` replaced: group atoms by
    ironed virtual value and weight each positive level by the chance that
    it is the highest one."""
    phi_fn = D.virtual_values(base)
    levels = {}
    for v, m in base.atoms:
        p = float(phi_fn.eval(v))
        levels[p] = levels.get(p, 0.0) + m
    phis = sorted(levels)
    cum = np.concatenate([[0.0], np.cumsum([levels[p] for p in phis])])
    cum = cum / cum[-1]
    return sum(p * (cum[t + 1] ** n - cum[t] ** n) for t, p in enumerate(phis) if p > 0)


class TestMyersonIIDRevenue:
    def test_matches_per_level_loop(self):
        # the dot product sums per atom where the loop summed per level:
        # only rounding may differ, a few ulps of the result
        rng = np.random.default_rng(12)
        for _ in range(200):
            base = random_discrete_dist(rng, max_atoms=8)
            for n in (1, 2, 3, 5, 10):
                want = reference_myerson_iid_revenue(base, n)
                assert R.myerson_iid_revenue(base, n) == pytest.approx(want, rel=64 * np.finfo(float).eps, abs=0.0)

    def test_refuses_continuous_base(self):
        with pytest.raises(ValueError):
            R.myerson_iid_revenue(UNIF, 3)


class TestSandwich:
    def test_requires_second_statistic(self):
        with pytest.raises(ValueError):
            R.robust_sandwich(OS.AmbiguitySpec(3, 1, UNIF))

    def test_pooled_counterexample_brackets(self):
        q = 0.8
        g_disc = D.two_point(1.0, 3 * q**2 - 2 * q**3, 2.0)
        sw = R.robust_sandwich(OS.AmbiguitySpec(3, 2, g_disc))
        assert sw.lower == pytest.approx(1.104, abs=1e-9)
        assert sw.upper == pytest.approx(1.36, abs=1e-9)
        assert not sw.regular_above_reserve
        # the heavier two-bidder construction sits strictly inside the bracket
        witness = 1 + math.sqrt(1 - 3 * q**2 + 2 * q**3)
        assert sw.lower < witness < sw.upper

    def test_equality_iff_regular_above_reserve(self):
        sw = R.robust_sandwich(OS.AmbiguitySpec(3, 2, BERN))
        assert sw.regular_above_reserve
        assert sw.lower == pytest.approx(sw.upper, abs=1e-9)

    def test_ratio_never_below_half(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            G = random_discrete_dist(rng)
            sw = R.robust_sandwich(OS.AmbiguitySpec(3, 2, G))
            assert sw.lower <= sw.upper + 1e-12
            assert sw.ratio >= 0.5 - 1e-12

    def test_degenerate_observation(self):
        # a point-mass observation pins the whole market at that price
        sw = R.robust_sandwich(OS.AmbiguitySpec(3, 2, D.point_mass(1.5)))
        assert sw.lower == pytest.approx(1.5, abs=1e-12)
        assert sw.upper == pytest.approx(1.5, abs=1e-12)
        assert sw.regular_above_reserve

    def test_mixed_observation_closed_form_upper(self):
        G = D.from_table([(0.5, 0.0), (1.5, 0.6)], atoms=[(2.0, 0.4)])
        spec = OS.AmbiguitySpec(4, 2, G)
        sw = R.robust_sandwich(spec, grid=512)
        fbar = OS.consistent_iid(spec, grid=512)
        assert not fbar.is_discrete
        # n * max(width * rise) / 4 at n = 4
        assert 0.0 <= sw.upper - sw.lower <= np.max(fbar.segments.width * fbar.segments.rise)

    @pytest.mark.parametrize(
        "G", [D.two_point(1.0, 0.5, 2.0), D.from_table([(0.5, 0.0), (1.5, 0.6)], atoms=[(2.0, 0.4)])],
        ids=["discrete", "mixed"],
    )
    def test_inverts_the_observation_once(self, monkeypatch, G):
        spec = OS.AmbiguitySpec(4, 2, G)
        res = R.optimal_robust_reserve(spec, M.SPAReserve(0.0), grid=512)
        upper = D.optimal_revenue_bound(OS.consistent_iid(spec, grid=512), 4)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return OS.consistent_iid(*args, **kwargs)

        monkeypatch.setattr(R, "consistent_iid", counted)
        sw = R.robust_sandwich(spec, grid=512)
        assert len(calls) == 1
        assert (sw.lower, sw.upper, sw.spa_reserve) == (res.worst_case_revenue, upper, res.reserve)
        assert sw.regular_above_reserve == res.regular_above_reserve

    @pytest.mark.parametrize("grid", [1024, 4096])
    @pytest.mark.parametrize(
        "G, n, k",
        [
            (lambda grid: D.exponential(1.0, grid=grid), 6, 3),
            (lambda grid: D.exponential(1.0, grid=grid), 4, 2),
            (lambda grid: D.exponential(2.0, grid=grid), 8, 4),
            (lambda grid: D.beta_dist(2, 3, grid=grid), 4, 2),
            (lambda grid: D.beta_dist(2, 2, grid=grid), 5, 2),
            (lambda grid: D.normal(1.0, 0.3, grid=grid), 5, 3),
            (lambda grid: D.uniform(0.0, 1.0), 4, 2),
            (lambda grid: D.from_table([(0.5, 0.0), (1.5, 0.6)], atoms=[(2.0, 0.4)]), 4, 2),
        ],
        ids=["exponential1-n6k3", "exponential1-n4k2", "exponential2-n8k4", "beta23-n4k2", "beta22-n5k2",
             "normal-n5k3", "uniform-n4k2", "mixed-n4k2"],
    )
    def test_continuous_bracket_closes_to_grid(self, G, n, k, grid):
        # the upper bound is the optimum plus at most n * max(width * rise) / 4
        # of the tangent apexes, and the optimum is at least the lower bound
        spec = OS.AmbiguitySpec(n, k, G(grid))
        sw = R.robust_sandwich(spec, grid=grid)
        fbar = OS.consistent_iid(spec, grid=grid)
        excess = n * np.max(fbar.segments.width * fbar.segments.rise) / 4
        assert 0.0 <= sw.upper - sw.lower <= excess

    @pytest.mark.parametrize(
        "G, n, k",
        [(D.exponential(1.0, grid=1024), 6, 3), (D.normal(1.0, 0.3, grid=1024), 5, 3)],
        ids=["exponential1-n6k3", "normal-n5k3"],
    )
    def test_upper_bound_not_below_a_mechanism(self, G, n, k):
        # no mechanism earns more than the optimum, the Myerson auction built
        # on the knot hull included
        spec = OS.AmbiguitySpec(n, k, G)
        sw = R.robust_sandwich(spec, grid=1024)
        fbar = OS.consistent_iid(spec, grid=1024)
        rep = R.mc_expected_revenue(M.MyersonIID(fbar), OS.iid(fbar, n), 200_000, 5)
        assert sw.upper >= rep.expected_revenue - 4 * rep.mc_stderr


class TestSaddlePoint:
    def test_first_statistic_guarantee_matches_single_buyer_optimum(self):
        # the degenerate market with one real bidder and dummies at zero
        # cannot beat the monopoly revenue of the observed maximum
        for G in (UNIF, BERN, F_DISC):
            p_star, opt = D.monopoly_price(G)
            pd = OS.ProductDist((G, D.point_mass(0.0), D.point_mass(0.0)))
            assert R.closed_form_revenue(M.PostedPrice(p_star), pd) == pytest.approx(opt, abs=1e-10)
