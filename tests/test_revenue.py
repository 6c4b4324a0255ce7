import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import betaincinv

from osauction import dist as D
from osauction import mech as M
from osauction import orderstat as OS
from osauction import revenue as R
from conftest import random_discrete_dist, random_mixed_dist

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
    (2, "posted_price"): ("0x1.3020c49ba5e35p-1", "0x1.66ff51ff884d6p-7"),  # 0.5940 0.0110
    (2, "spa"): ("0x1.453a8152883c2p-1", "0x1.2e1c0a8490edep-8"),  # 0.6352 0.0046
    (2, "multi_unit"): ("0x1.3a9d778f4d7bep-1", "0x1.3e847ec8b4b80p-8"),  # 0.6145 0.0049
    (2, "laddered"): ("0x1.2beccfd0dbe22p-1", "0x1.454a28310056ep-9"),  # 0.5858 0.0025
    (2, "myerson_lexicographic"): ("0x1.604ea4a8c154dp-1", "0x1.45c4533908be8p-7"),  # 0.6881 0.0099
    (2, "myerson_uniform"): ("0x1.469ad42c3c9efp-1", "0x1.1d5b78ccda2a7p-7"),  # 0.6379 0.0087
    (3, "posted_price"): ("0x1.36ae7d566cf42p-1", "0x1.66fe035a40d12p-7"),  # 0.6068 0.0110
    (3, "spa"): ("0x1.afd6ba163b6a2p-1", "0x1.f207e566f858ap-9"),  # 0.8434 0.0038
    (3, "multi_unit"): ("0x1.25f8d7fd08b85p+0", "0x1.9d4ab9c4016a3p-8"),  # 1.1483 0.0063
    (3, "laddered"): ("0x1.e682f7fed0f4cp-1", "0x1.ed6eba1dc7f3cp-9"),  # 0.9502 0.0038
    (3, "myerson_lexicographic"): ("0x1.fe425aee631f9p-1", "0x1.07e601e676f62p-8"),  # 0.9966 0.0040
    (3, "myerson_uniform"): ("0x1.09652bd3c3611p+0", "0x1.95eb51f2ffb1ep-9"),  # 1.0367 0.0031
    (5, "posted_price"): ("0x1.c5d63886594afp-1", "0x1.3b79891ddc524p-7"),  # 0.8864 0.0096
    (5, "spa"): ("0x1.137abc29270bep+0", "0x1.252fa7f0d1f65p-8"),  # 1.0761 0.0045
    (5, "multi_unit"): ("0x1.aea3a04bfb1ecp+0", "0x1.ea5dcdeabdbeap-8"),  # 1.6822 0.0075
    (5, "laddered"): ("0x1.7f715de8aca5bp+0", "0x1.a3d000cd9285cp-8"),  # 1.4978 0.0064
    (5, "myerson_lexicographic"): ("0x1.30a3d70a3d70ap+0", "0x1.66d0d777ca686p-8"),  # 1.1900 0.0055
    (5, "myerson_uniform"): ("0x1.2874df5e58336p+0", "0x1.0dc59dd220f20p-8"),  # 1.1580 0.0041
    (8, "posted_price"): ("0x1.16f0068db8bacp+0", "0x1.9f0f174332ecep-8"),  # 1.0896 0.0063
    (8, "spa"): ("0x1.4d7ebdbe3c868p+0", "0x1.6451bb2cf324ap-8"),  # 1.3027 0.0054
    (8, "multi_unit"): ("0x1.1354c0fc677aep+1", "0x1.15d96880a7937p-7"),  # 2.1510 0.0085
    (8, "laddered"): ("0x1.f6790b97d0f57p+0", "0x1.b5ea0441f5a96p-8"),  # 1.9628 0.0067
    (8, "myerson_lexicographic"): ("0x1.678ee7a7cbacep+0", "0x1.54901944af2d7p-8"),  # 1.4045 0.0052
    (8, "myerson_uniform"): ("0x1.5fe31a6228e28p+0", "0x1.36821cd6c8beap-8"),  # 1.3746 0.0047
    (12, "posted_price"): ("0x1.2acd9e83e4259p+0", "0x1.d44ec253788c3p-9"),  # 1.1672 0.0036
    (12, "spa"): ("0x1.7b7cf0420813fp+0", "0x1.4c83d05d726f6p-8"),  # 1.4824 0.0051
    (12, "multi_unit"): ("0x1.436ecbea3f736p+1", "0x1.320411ad504ddp-7"),  # 2.5268 0.0093
    (12, "laddered"): ("0x1.25e2e60ab7420p+1", "0x1.e38d1c7ed78c2p-8"),  # 2.2960 0.0074
    (12, "myerson_lexicographic"): ("0x1.885ff0aa604b4p+0", "0x1.2df4a781b0c04p-8"),  # 1.5327 0.0046
    (12, "myerson_uniform"): ("0x1.84ecd105b5dffp+0", "0x1.24f8f83e98866p-8"),  # 1.5192 0.0045
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
        unif = R._uniform_matrix(3, 2000, 4)
        # uniform ties are averaged exactly: the reference is the mean over
        # all 3! priority orders
        orders = list(itertools.permutations(range(3))) if tiebreak == "uniform" else [(0, 1, 2)]
        pays = {}  # the profiles repeat: two values for three bidders
        total = 0.0
        for s in range(2000):
            vals = tuple(F_DISC.quantile(unif[s, j]) for j in range(3))
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
        pd = OS.ProductDist(tuple(D.from_literal(PIN_LITERALS[(3 * j) % 4 if n > 4 else j % 4]) for j in range(n)))
        rep = R.mc_expected_revenue(_pin_mechanisms(n)[name], pd, 3000, 40 + n)
        assert (rep.expected_revenue.hex(), rep.mc_stderr.hex()) == PINNED_MC[key]

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
    phi_fn = D.virtual_values(base)
    for tiebreak in ("lexicographic", "uniform"):
        score, pay = R._sampler(M.MyersonIID(base, tiebreak), pd)
        levels = np.array([score(c, row) for c, row in zip(pd.components, q)])
        assert levels.tobytes() == phi_fn.eval(values).tobytes()
        assert score(pd.components[0], q[:1]).tobytes() == levels[:1].tobytes()  # a slab of rows
        want = R._payment_kernel(M.MyersonIID(base, tiebreak), n)(values)
        assert pay(levels).tobytes() == want.tobytes()


def _single_matrix_mc(mechanism, pd, samples, seed):
    """Monte Carlo on one draw matrix for all samples, as it ran before the
    samples were split into blocks."""
    n = pd.n
    unif = np.random.Generator(np.random.Philox(key=seed)).random((samples, n + 1))
    values = unif[:, :n].T.copy()
    for row, component in zip(values, pd.components):
        row[:] = component.quantile(row)
    payments = R._payment_kernel(mechanism, n)(values)
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
    @pytest.mark.parametrize("n", [3, 4])  # n + 1 draws per sample: even, then odd
    @pytest.mark.parametrize("samples", [1, BLOCK - 1, BLOCK + 1, 2 * BLOCK + 5])
    def test_same_bits_for_any_worker_count(self, monkeypatch, name, n, samples):
        comps = [D.from_literal(PIN_LITERALS[j % 4]) for j in range(n - 1)] + [D.exponential(1.0, grid=64)]
        pd = OS.ProductDist(tuple(comps))
        mech = BLOCK_MECHANISMS[name]
        want = _single_matrix_mc(mech, pd, samples, 23)
        for workers in (1, 2, 3):
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

    @pytest.mark.parametrize("name", ["laddered", "myerson_uniform"])
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

    def test_block_draws_are_slices_of_one_matrix(self):
        whole = R._uniform_matrix(5, 40, 7)
        for start in (0, 4, 36):
            assert R._uniform_matrix(5, 40 - start, 7, start).tobytes() == whole[start:].tobytes()
        with pytest.raises(ValueError):
            R._uniform_matrix(5, 10, 7, 2)

    @pytest.mark.parametrize("n", [1, 3, 4, 12, 40])
    def test_slab_draws_are_the_whole_block_transposed(self, monkeypatch, n):
        # a block wider than _MC_SLAB values is drawn a slab of rows at a
        # time, each slab at most _MC_SLAB values (or 4 rows), into the
        # bidder-major array; the bytes are those of the whole block's draw
        samples, start = 2 * R._MC_SLAB // (n + 1) + 7, 16384
        whole = R._uniform_matrix(9, samples, n + 1, start)[:, :n].T
        drawn = []
        draw = R._uniform_matrix

        def spy(seed, rows, width, first):
            drawn.append(rows * width)
            return draw(seed, rows, width, first)

        monkeypatch.setattr(R, "_uniform_matrix", spy)
        got = R._bidder_major_draws(9, samples, n, start)
        assert got.shape == (n, samples) and got.tobytes() == whole.tobytes()
        assert len(drawn) > 1 and max(drawn) <= max(R._MC_SLAB, 4 * (n + 1))

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
        monkeypatch.setattr(R, "_uniform_matrix", None)  # a draw would fail with TypeError
        with pytest.raises(ValueError, match="more bidders than units"):
            R.mc_expected_revenue(M.MultiUnit(3, 0.0), OS.iid(UNIF, 3), 100, 1)


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
], ids=["closed_form_myerson", "mc_no_samples", "unknown_n_negative_price", "unknown_n_negative_in_array",
        "report_unknown_method"])
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
