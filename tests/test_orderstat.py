import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from osauction import dist as D
from osauction import oracle as O
from osauction import orderstat as OS
from conftest import observations, random_mixed_dist, two_pass_consistent_iid

BERN_HALF = D.two_point(0.0, 0.5, 1.0)


class TestHPoly:
    def test_endpoints_exact(self):
        for n in range(1, 11):
            for k in range(1, n + 1):
                assert OS.h_poly(n, k, 0.0) == 0.0
                assert OS.h_poly(n, k, 1.0) == 1.0

    def test_median_of_three(self):
        assert OS.h_poly(3, 2, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_maximum_of_two(self):
        assert OS.h_poly(2, 1, 0.3) == pytest.approx(0.09, abs=1e-15)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            OS.h_poly(3, 4, 0.5)
        with pytest.raises(ValueError):
            OS.h_poly(3, 0, 0.5)

    def test_strictly_increasing(self):
        # strict away from the float saturation zone at H = 1, monotone everywhere
        u = np.arange(0.0, 1.0001, 1e-3)
        for n, k in [(2, 1), (5, 3), (8, 8), (10, 1)]:
            vals = OS.h_poly(n, k, u)
            assert np.all(np.diff(vals) >= 0)
            interior = vals[:-1] < 1 - 1e-12
            assert np.all(np.diff(vals)[interior] > 0)

    def test_is_binomial_tail(self):
        # Pr(Bin(n, 1-u) <= k-1) by direct summation
        n, k, u = 6, 3, 0.37
        want = sum(
            math.comb(n, t) * (1 - u) ** t * u ** (n - t) for t in range(k)
        )
        assert OS.h_poly(n, k, u) == pytest.approx(want, abs=1e-15)


def _mpmath_root(n, k, g):
    """Root of I_u(n-k+1, k) = g at 30 digits, bracketed in log u between the
    leading-term root and 1."""
    mp = pytest.importorskip("mpmath")
    a = n - k + 1
    with mp.workdps(30):
        log_g = mp.log(mp.mpf(g))
        lead = (log_g + mp.log(a) + mp.log(mp.beta(a, k))) / a

        def f(x):
            return mp.log(mp.betainc(a, k, 0, mp.exp(x), regularized=True)) - log_g

        return float(mp.exp(mp.findroot(f, (lead, mp.mpf(0)), solver="illinois")))


class TestHInverse:
    def test_last_statistic_closed_form(self):
        for g in (0.0, 0.1, 0.5, 0.9, 1.0):
            for n in (1, 2, 4, 7):
                assert OS.h_inverse(n, n, g) == pytest.approx(
                    1 - (1 - g) ** (1 / n), abs=1e-12
                )

    def test_median_case(self):
        assert OS.h_inverse(3, 2, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_against_grid_scan(self):
        # independent oracle: two-stage scan of h_poly to 1e-7 resolution
        g = 0.75
        coarse = np.arange(0.0, 1.0001, 1e-4)
        i = int(np.searchsorted(OS.h_poly(3, 2, coarse), g))
        fine = np.arange(coarse[i - 1], coarse[i] + 1e-7, 1e-7)
        j = int(np.searchsorted(OS.h_poly(3, 2, fine), g))
        assert OS.h_inverse(3, 2, g) == pytest.approx(fine[j], abs=1e-6)

    def test_index_validation(self):
        for k in (0, 4):
            with pytest.raises(ValueError):
                OS.h_inverse(3, k, 0.5)

    @pytest.mark.parametrize(
        "n,k,g",
        [
            (5, 2, 7.047083481898405e-242),  # found by hypothesis: bare betaincinv gives NaN
            (10, 2, 1e-300),
            (2000, 1999, 1.999e-254),
            (2000, 2, 0.5),
            (2000, 1000, 1e-9),
            (28, 10, 1e-300),  # bare betainc is off by 3.7e-2 there
            (25, 2, 1e-305),  # and by 1.4e-5 there
        ],
    )
    def test_deep_tail_and_large_n_round_trip(self, n, k, g):
        u = OS.h_inverse(n, k, g)
        assert 0.0 < u < 1.0
        assert OS.h_poly(n, k, u) == pytest.approx(g, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize(
        "n,k,g",
        [
            (27, 5, 4.3e-277),  # bare betaincinv gives 4.9e-15 for a root near 6.3e-13
            (25, 2, 3.4e-274),
            (40, 20, 1e-200),
            (10, 2, 1e-300),
            (3, 3, 1e-150),
            (2000, 2, 1e-100),  # root near 0.89: the leading term alone is far off
            (2000, 1999, 1.999e-254),
        ],
    )
    def test_deep_tail_against_mpmath(self, n, k, g):
        assert OS.h_inverse(n, k, g) == pytest.approx(_mpmath_root(n, k, g), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n,k", [(25, 2), (27, 5), (28, 10), (60, 30)])
    def test_deep_tail_monotone(self, n, k):
        u = OS.h_inverse(n, k, np.geomspace(1e-300, 1e-96, 3000))
        assert np.all(np.diff(u) > 0)

    @pytest.mark.parametrize("n,k", [(15, 2), (28, 10), (60, 3), (300, 150)])
    def test_deep_tail_root_independent_of_batch(self, n, k):
        # a root polished in a batch is the root of g inverted alone
        g = np.geomspace(1e-300, 1e-97, 400)
        alone = np.array([OS.h_inverse(n, k, x) for x in g])
        assert OS.h_inverse(n, k, g).tobytes() == alone.tobytes()
        assert OS.h_inverse(n, k, g[::-3]).tobytes() == alone[::-3].tobytes()

    @given(st.integers(1, 2000), st.data())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_entry_by_entry(self, n, data):
        # a level's root does not depend on the other levels of its call, deep
        # ones (below 1e-96) mixed in among ordinary ones: consistent_iid
        # inverts each distinct level once and copies it on that basis
        k = data.draw(st.integers(1, n))
        level = st.one_of(st.floats(0.0, 1.0), st.floats(1e-300, 1e-96), st.sampled_from([0.0, 1.0, 5e-324]))
        g = np.array(data.draw(st.lists(level, min_size=1, max_size=12)))
        batch = OS.h_inverse(n, k, g)
        alone = np.array([OS.h_inverse(n, k, x) for x in g])
        assert batch.tobytes() == alone.tobytes()
        some = g != g[0]
        assert OS.h_inverse(n, k, g[some]).tobytes() == batch[some].tobytes()

    @given(st.integers(1, 10), st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, n, data):
        k = data.draw(st.integers(1, n))
        g = data.draw(st.floats(0.0, 1.0))
        u = OS.h_inverse(n, k, g)
        assert OS.h_poly(n, k, u) == pytest.approx(g, abs=1e-10)


# a table G with atoms at its lowest and its highest knot
ENDS_ATOMS = D.from_table([(0.5, 0.0), (1.0, 0.3), (2.0, 0.5)], atoms=[(0.5, 0.2), (2.0, 0.3)])


class TestConsistentIID:
    @given(st.data(), observations())
    @settings(max_examples=80, deadline=None, derandomize=True)
    @example(data=None, case=(ENDS_ATOMS, 64))
    def test_one_pass_per_distinct_level_is_bitwise_two_pass(self, data, case):
        G, grid = case
        draws = [(2000, 1), (2000, 1000), (2000, 2000), (3, 2)] if data is None else [None]
        for nk in draws:
            if nk is None:
                n = data.draw(st.one_of(st.integers(1, 12), st.integers(13, 2000)))
                nk = (n, data.draw(st.integers(1, n)))
            spec = OS.AmbiguitySpec(*nk, G)
            got, want = OS.consistent_iid(spec, grid), two_pass_consistent_iid(spec, grid)
            for side in ("xs", "f_left", "f_right"):
                assert getattr(got, side).tobytes() == getattr(want, side).tobytes()
            assert got.label == want.label

    def test_last_statistic_formula(self):
        spec = OS.AmbiguitySpec(3, 3, D.uniform(0, 1))
        f = OS.consistent_iid(spec)
        vs = f.xs
        assert np.allclose(f.cdf(vs), 1 - (1 - np.minimum(vs, 1.0)) ** (1 / 3), atol=1e-12)

    def test_first_statistic_formula(self):
        spec = OS.AmbiguitySpec(4, 1, D.uniform(0, 1))
        f = OS.consistent_iid(spec)
        vs = f.xs
        assert np.allclose(f.cdf(vs), np.minimum(vs, 1.0) ** (1 / 4), atol=1e-12)

    def test_two_point_observation(self):
        f = OS.consistent_iid(OS.AmbiguitySpec(3, 2, BERN_HALF))
        assert f.cdf(0.0) == pytest.approx(0.5, abs=1e-12)  # 3u^2 - 2u^3 = 1/2

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 2), (5, 5), (6, 3)])
    def test_round_trip_at_knots(self, n, k):
        mixed = D.from_table([(0.5, 0.0), (1.5, 0.6)], atoms=[(2.0, 0.4)])
        for G in (D.uniform(0, 1), D.exponential(1.0, grid=256), BERN_HALF, mixed):
            spec = OS.AmbiguitySpec(n, k, G)
            f = OS.consistent_iid(spec)
            pd = OS.iid(f, n)
            got = OS.order_stat_cdf(pd, k, f.xs)
            assert np.max(np.abs(got - G.cdf(f.xs))) <= 1e-10


class TestOrderStatCdf:
    def test_max_of_two(self):
        half = D.uniform(0, 1)
        pd = OS.ProductDist((half, half))
        assert OS.order_stat_cdf(pd, 1, 0.5) == pytest.approx(0.25, abs=1e-15)

    def test_dummy_forces_minimum(self):
        pd = OS.ProductDist((D.point_mass(0.0), D.uniform(0, 1)))
        assert OS.order_stat_cdf(pd, 2, 0.0) == 1.0

    def test_second_of_three_against_enumeration(self):
        b = D.two_point(0.0, 0.8, 1.0)  # survival 0.2 above 0
        pd = OS.iid(b, 3)
        got = OS.order_stat_cdf(pd, 2, 0.0)
        want = 0.0
        for bits in itertools.product((0, 1), repeat=3):
            prob = math.prod(0.2 if x else 0.8 for x in bits)
            if sum(bits) <= 1:
                want += prob
        assert got == pytest.approx(want, abs=1e-15)
        assert want == pytest.approx(0.896, abs=1e-12)

    def test_index_validation(self):
        pd = OS.iid(D.uniform(0, 1), 2)
        with pytest.raises(ValueError):
            OS.order_stat_cdf(pd, 3, 0.5)


class TestPoissonBinomial:
    def test_two_halves(self):
        assert np.allclose(OS.poisson_binomial_pmf([0.5, 0.5]), [0.25, 0.5, 0.25])

    def test_degenerate(self):
        assert np.allclose(OS.poisson_binomial_pmf([1.0, 0.0]), [0.0, 1.0, 0.0])

    def test_against_enumeration(self):
        x = [0.2, 0.3, 0.4]
        want = np.zeros(4)
        for bits in itertools.product((0, 1), repeat=3):
            p = math.prod(xi if b else 1 - xi for xi, b in zip(x, bits))
            want[sum(bits)] += p
        assert np.allclose(OS.poisson_binomial_pmf(x), want, atol=1e-15)

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_sums_to_one_and_log_concave(self, x):
        pmf = OS.poisson_binomial_pmf(x)
        assert abs(pmf.sum() - 1.0) <= 1e-12
        for i in range(1, len(pmf) - 1):
            assert pmf[i] ** 2 >= pmf[i - 1] * pmf[i + 1] - 1e-12

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_truncated_rows_equal_full_table(self, x, columns):
        x = np.array(x)
        if columns:  # one sum per column of a trailing axis
            x = np.stack([x, x[::-1], 1.0 - x], axis=1)
        full = OS._pb_pmf(x)
        for m in range(1, len(x) + 2):
            assert np.array_equal(OS._pb_pmf(x, rows=m), full[:m])


def per_node_tail_segments(pd, w, a, b):
    """A heterogeneous tail's integrals over [a, b] as ``OrderStatTail``
    computed them in one pass, every Gauss node searching its own CDF pieces."""
    gx, gw = np.polynomial.legendre.leggauss((pd.n + 2) // 2)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    pts = mid[:, None] + half[:, None] * gx[None, :]
    below = OS._order_stat_below(pd, range(1, len(w) + 1), pts.ravel())
    return ((w @ (1.0 - below)).reshape(pts.shape) * gw[None, :]).sum(axis=1) * half


class TestHeterogeneousTail:
    @pytest.mark.parametrize("chunk", [OS._TAIL_CHUNK, 1000])  # one pass, and many short ones
    def test_agrees_with_per_node_lookups(self, monkeypatch, chunk):
        monkeypatch.setattr(OS, "_TAIL_CHUNK", chunk)
        rng = np.random.default_rng(26)
        for _ in range(40):
            n = int(rng.integers(2, 13))
            families = [D.beta_dist(2.0 + rng.uniform(), 3.0, grid=64), D.exponential(1.0 + rng.uniform(), grid=32)]
            pd = OS.ProductDist(tuple(
                families[j % 2] if j < 2 else random_mixed_dist(rng, atoms=bool(j % 3)) for j in range(n)
            ))
            w = rng.uniform(0.0, 1.0, size=int(rng.integers(1, n + 1)))
            tail = OS.OrderStatTail(pd, w)
            k = tail.knots
            lo = np.sort(rng.uniform(-0.5, k[-1] + 0.5, size=64))
            start = np.clip(lo, k[0], k[-1])
            nxt = np.minimum(np.searchsorted(k, start, side="right"), len(k) - 1)
            for a, b in ((k[:-1], k[1:]), (start, k[nxt])):
                np.testing.assert_allclose(tail._segments(a, b), per_node_tail_segments(pd, w, a, b),
                                           rtol=1e-13, atol=1e-13)

    def test_memory_does_not_grow_with_the_segments(self):
        # 30 betas of 1026 knots each: one pass held 30 x 16 x 30780 survivals
        # and their Poisson-binomial table, a 229.5 MB peak
        pd = OS.ProductDist(tuple(D.beta_dist(2 + 0.01 * i, 3, grid=1024) for i in range(30)))
        tracemalloc.start()
        try:
            OS.OrderStatTail(pd, (0.0, 1.0, 0.5, 0.25))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestDominance:
    def test_reflexive(self):
        u = D.uniform(0, 1)
        assert O.fosd_check(u, u)

    def test_point_masses(self):
        assert O.fosd_check(D.point_mass(1.0), D.point_mass(0.0))
        assert not O.fosd_check(D.point_mass(0.0), D.point_mass(1.0))

    def test_implied_iid_shrinks_with_more_bidders(self):
        # an extra bidder can always be a dummy at zero, so the implied
        # i.i.d. distribution for n+1 sits below the one for n
        for G in (D.uniform(0, 1), BERN_HALF):
            for n in (2, 3, 5):
                f_n = OS.consistent_iid(OS.AmbiguitySpec(n, 2, G))
                f_n1 = OS.consistent_iid(OS.AmbiguitySpec(n + 1, 2, G))
                assert O.fosd_check(f_n, f_n1)


class TestMinimalOrderStat:
    def test_at_k_returns_observation(self):
        spec = OS.AmbiguitySpec(3, 2, BERN_HALF)
        d = O.minimal_orderstat_cdf(spec, 2)
        for v in (0.0, 0.5, 1.0):
            assert d.cdf(v) == pytest.approx(BERN_HALF.cdf(v), abs=1e-12)

    def test_above_k_is_zero_mass(self):
        spec = OS.AmbiguitySpec(3, 2, BERN_HALF)
        d = O.minimal_orderstat_cdf(spec, 3)
        assert d.support_hi == 0.0 and d.cdf(0.0) == 1.0

    def test_below_k_maximum_marginal(self):
        spec = OS.AmbiguitySpec(3, 2, BERN_HALF)
        d = O.minimal_orderstat_cdf(spec, 1)
        u = OS.h_inverse(3, 2, 0.5)
        assert d.cdf(0.0) == pytest.approx(u**3, abs=1e-12)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            O.minimal_orderstat_cdf(OS.AmbiguitySpec(3, 2, BERN_HALF), 4)


class TestAmbiguitySpec:
    def test_bounds(self):
        with pytest.raises(ValueError):
            OS.AmbiguitySpec(2, 3, BERN_HALF)
        with pytest.raises(ValueError):
            OS.AmbiguitySpec(0, 0, BERN_HALF)


@pytest.mark.parametrize("call, says", [
    (lambda: OS.h_inverse(3, 2, 1.5), r"lie in \[0, 1\]"),
    (lambda: OS.h_inverse(3, 2, np.array([0.5, -1e-12])), r"lie in \[0, 1\]"),
    (lambda: OS.poisson_binomial_pmf([0.5, 1.5]), r"lie in \[0, 1\]"),
    (lambda: OS.poisson_binomial_pmf(np.array([[0.5], [-0.1]])), r"lie in \[0, 1\]"),
    (lambda: OS.ProductDist(()), "need at least one bidder"),
], ids=["h_inverse_above_one", "h_inverse_below_zero", "pmf_above_one", "pmf_below_zero", "no_bidders"])
def test_refusal_names_its_cause(call, says):
    with pytest.raises(ValueError, match=says):
        call()


def test_iid_product_reads_its_marginal():
    pd = OS.iid(BERN_HALF, 4)
    assert pd.common is BERN_HALF and pd.merged_knots() is BERN_HALF.xs
    mixed = OS.ProductDist((BERN_HALF, D.uniform(0, 2)))
    assert mixed.common is None
    np.testing.assert_array_equal(mixed.merged_knots(), [0.0, 1.0, 2.0])
