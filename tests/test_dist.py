import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from osauction import dist as D
from osauction import orderstat as OS
from conftest import random_discrete_dist, random_mixed_dist

F_DISC = D.two_point(1.0, 0.8, 2.0)


class TestCdfQuantile:
    def test_point_mass_cdf(self):
        d0 = D.point_mass(0.0)
        assert d0.cdf(0.0) == 1.0
        assert d0.cdf(-1.0) == 0.0

    def test_uniform_cdf_identity(self):
        u = D.uniform(0, 1)
        assert u.cdf(0.3) == pytest.approx(0.3, abs=1e-15)

    def test_uniform_quantile(self):
        assert D.uniform(0, 1).quantile(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_step_quantile(self):
        assert F_DISC.quantile(0.9) == 2.0

    def test_quantile_domain_error(self):
        with pytest.raises(ValueError):
            D.uniform(0, 1).quantile(1.5)

    def test_exponential_quantile_against_analytic(self):
        # oracle: evaluate 1 - e^{-1} numerically; its quantile is 1
        e = D.exponential(1.0, grid=131072, tail=1e-12)
        assert e.quantile(1.0 - math.exp(-1.0)) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("xs, f_left, f_right, says", [
        ([], [], [], "non-empty and equally long"),
        ([0.0, 1.0], [0.0, 1.0], [1.0], "non-empty and equally long"),
        ([1.0, 0.0], [0.0, 0.5], [0.5, 1.0], "strictly increasing"),
        ([0.0, 1.0], [0.5, 1.0], [0.5, 1.0], "start at 0 and end at 1"),
        ([0.0, 1.0, 2.0], [0.0, 0.6, 0.6], [0.5, 0.4, 1.0], "atom masses must be non-negative"),
        ([0.0, 1.0, 2.0], [0.0, 0.6, 0.5], [0.7, 0.6, 1.0], "non-decreasing between knots"),
    ], ids=["empty", "unequal_lengths", "decreasing_knots", "cdf_not_from_0", "negative_atom", "falling_segment"])
    def test_constructor_refusal_names_its_cause(self, xs, f_left, f_right, says):
        with pytest.raises(ValueError, match=says):
            D.Dist(np.array(xs), np.array(f_left), np.array(f_right))

    def test_leading_knots_without_mass_trimmed(self):
        d = D.dist_from_arrays([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 0.5, 1.0], [0.0, 0.0, 0.5, 1.0])
        np.testing.assert_array_equal(d.xs, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(d.cdf([0.5, 1.0, 1.5, 2.5]), [0.0, 0.0, 0.25, 0.75])

    @pytest.mark.parametrize("grid", [0, 15, 2**20 + 1, 64.0, 100.5, True])
    def test_family_grid_outside_its_bounds_refused(self, grid):
        # a float grid once reached np.linspace and raised TypeError
        says = "grid must lie between" if type(grid) is int else "grid must be an integer"
        with pytest.raises(ValueError, match=says):
            D.exponential(1.0, grid=grid)

    @pytest.mark.parametrize("make", [
        lambda: D.from_literal({"family": "beta", "a": 2.0, "b": 3.0}, grid=100.5),
        lambda: OS.consistent_iid(OS.AmbiguitySpec(3, 2, D.uniform(0.0, 1.0)), grid=64.0),
    ], ids=["from_literal", "consistent_iid"])
    def test_non_integer_grid_refused(self, make):
        with pytest.raises(ValueError, match="grid must be an integer"):
            make()

    def test_negative_support_rejected(self):
        with pytest.raises(ValueError):
            D.uniform(-1.0, 1.0)

    def test_sample_trivial(self):
        assert D.point_mass(0.0).quantile(0.37) == 0.0
        assert D.uniform(0, 1).quantile(0.7) == pytest.approx(0.7)
        assert F_DISC.quantile(0.9) == 2.0

    @given(st.integers(0, 10**6), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_round_trips(self, seed, q):
        d = random_mixed_dist(np.random.default_rng(seed))
        v = d.quantile(q)
        assert d.cdf(v) >= q - 1e-10
        # quantile of the cdf never overshoots the point
        x = d.quantile(d.cdf(v))
        assert x <= v + 1e-10


class TestRevenueCurve:
    def test_two_point_sawtooth_knots(self):
        curve = D.revenue_curve(F_DISC)
        pts = set(zip(np.round(curve.qs, 12), np.round(curve.rs, 12)))
        for q, r in [(0.0, 0.0), (0.2, 0.4), (0.2, 0.2), (1.0, 1.0)]:
            assert (round(q, 12), round(r, 12)) in pts

    def test_point_mass_at_zero_flat(self):
        curve = D.revenue_curve(D.point_mass(0.0))
        assert np.all(curve.rs == 0.0)

    def test_uniform_parabola(self):
        # uniform(0, 1) knotted every 1/1024: the curve is read at the knots
        xs = np.linspace(0.0, 1.0, 1025)
        curve = D.revenue_curve(D.dist_from_arrays(xs, xs, xs))
        # r(q) = q (1 - q) at every emitted knot, maximum 1/4 at q = 1/2
        assert np.allclose(curve.rs, curve.qs * (1 - curve.qs), atol=1e-12)
        k = int(np.argmax(curve.rs))
        assert curve.qs[k] == pytest.approx(0.5, abs=1e-12)
        assert curve.rs[k] == pytest.approx(0.25, abs=1e-12)

    def test_rejects_negative_support(self):
        with pytest.raises(ValueError):
            D.Dist(np.array([-1.0, 1.0]), np.array([0.0, 1.0]), np.array([0.0, 1.0]))


def reference_upper_hull(qs, rs):
    best = {}
    for q, r in zip(qs, rs):
        if q not in best or r > best[q]:
            best[float(q)] = float(r)
    hull = []
    for q, r in sorted(best.items()):
        while len(hull) >= 2:
            (q1, r1), (q2, r2) = hull[-2], hull[-1]
            if (q2 - q1) * (r - r1) - (r2 - r1) * (q - q1) >= 0.0:
                hull.pop()
            else:
                break
        hull.append((q, r))
    return np.array([p[0] for p in hull]), np.array([p[1] for p in hull])


def reference_knot_curve(d):
    """The knot-level revenue curve, its hull and its ironing intervals as the
    per-knot loops built them before they became array operations; the
    arithmetic is the same, so the results must be equal bit for bit."""
    qs, rs = [0.0], [0.0]

    def push(q, r):
        if not (q == qs[-1] and r == rs[-1]):
            qs.append(float(q))
            rs.append(float(r))

    for i in range(len(d.xs) - 1, -1, -1):
        x = float(d.xs[i])
        q_a, q_b = 1.0 - float(d.f_right[i]), 1.0 - float(d.f_left[i])
        if q_b > q_a:
            push(q_a, q_a * x)
            push(q_b, q_b * x)
        if i > 0:
            c_lo, c_hi = float(d.f_right[i - 1]), float(d.f_left[i])
            if c_hi > c_lo:
                qa, qb = 1.0 - c_hi, 1.0 - c_lo
                slope = (x - float(d.xs[i - 1])) / (c_hi - c_lo)
                for q in (qa, qb):
                    push(q, q * (x - (q - qa) * slope))
    qs, rs = np.array(qs), np.array(rs)
    hq, hr = reference_upper_hull(qs, rs)
    below = np.interp(qs, hq, hr) > rs + 1e-12 * max(1.0, float(np.max(rs, initial=0.0)))
    intervals = []
    i, n = 0, len(qs)
    while i < n:
        if below[i]:
            j = i
            while j + 1 < n and below[j + 1]:
                j += 1
            lo = qs[i - 1] if i > 0 else qs[i]
            hi = qs[j + 1] if j + 1 < n else qs[j]
            if intervals and intervals[-1][1] >= lo:
                intervals[-1] = (intervals[-1][0], float(hi))
            else:
                intervals.append((float(lo), float(hi)))
            i = j + 1
        else:
            i += 1
    return qs, rs, hq, hr, tuple(intervals)


def _assert_curve_matches_reference(d):
    curve = D.revenue_curve(d)
    qs, rs, hq, hr, intervals = reference_knot_curve(d)
    for got, want in ((curve.qs, qs), (curve.rs, rs), (curve.ironed_qs, hq), (curve.ironed_rs, hr)):
        assert got.tobytes() == want.tobytes()
    assert curve.ironed_intervals == intervals


def _envelope_oracle(qs, rs, q):
    """Concave envelope by definition: best chord over all knot pairs."""
    best = max(r for qq, r in zip(qs, rs) if qq == q) if q in qs else 0.0
    for i in range(len(qs)):
        for j in range(len(qs)):
            if qs[i] < q < qs[j]:
                lam = (q - qs[i]) / (qs[j] - qs[i])
                best = max(best, (1 - lam) * rs[i] + lam * rs[j])
    return best


class TestIron:
    def test_concave_input_identity(self):
        curve = D.revenue_curve(D.uniform(0, 1))
        ironed = D.iron(curve.qs, curve.rs)
        assert ironed.ironed_intervals == ()
        assert np.allclose(ironed.ironed_value(curve.qs), curve.rs, atol=1e-12)

    def test_envelope_ignores_point_order(self):
        # F_DISC's curve repeats quantile 0.2, priced at 2 and at 1; the
        # higher point is kept whatever order the points come in
        curve = D.revenue_curve(F_DISC)
        assert len(np.unique(curve.qs)) < len(curve.qs)
        shuffled = np.random.default_rng(3).permutation(len(curve.qs))
        hull = D.iron(curve.qs[shuffled], curve.rs[shuffled])
        assert hull.ironed_qs.tobytes() == curve.ironed_qs.tobytes()
        assert hull.ironed_rs.tobytes() == curve.ironed_rs.tobytes()

    def test_f_disc_envelope(self):
        curve = D.revenue_curve(F_DISC)
        hull = list(zip(curve.ironed_qs, curve.ironed_rs))
        assert hull[0] == (0.0, 0.0)
        assert hull[-1] == (1.0, 1.0)
        assert any(abs(q - 0.2) < 1e-12 and abs(r - 0.4) < 1e-12 for q, r in hull)
        (lo, hi), = curve.ironed_intervals
        assert (lo, hi) == pytest.approx((0.2, 1.0), abs=1e-12)

    @given(st.floats(0.05, 0.95), st.floats(0.1, 2.0), st.floats(2.5, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_two_point_envelope_against_pair_oracle(self, p1, v1, v2):
        curve = D.revenue_curve(D.two_point(v1, p1, v2))
        slopes = np.diff(curve.ironed_rs) / np.diff(curve.ironed_qs)
        assert np.all(np.diff(slopes) <= 1e-12)
        for q in np.linspace(0, 1, 17):
            want = _envelope_oracle(list(curve.qs), list(curve.rs), q)
            assert curve.ironed_value(q) == pytest.approx(want, abs=1e-10)

    @given(st.integers(0, 10**6), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_knot_curve_matches_reference_on_random(self, seed, discrete):
        rng = np.random.default_rng(seed)
        _assert_curve_matches_reference(random_discrete_dist(rng, 6) if discrete else random_mixed_dist(rng, 8))

    @pytest.mark.parametrize("grid", [16, 1024])
    def test_knot_curve_matches_reference_on_families(self, grid):
        table = D.from_literal({"family": "table", "knots": [[0, 0], [1, 0.4], [2, 0.8]], "atoms": [[1.5, 0.2]]})
        for G in (D.exponential(1.3, grid=grid), D.beta_dist(2, 3, grid=grid), D.normal(1.0, 0.6, grid=grid), table):
            _assert_curve_matches_reference(G)
            for n, k in ((4, 2), (6, 3), (3, 3)):
                _assert_curve_matches_reference(OS.consistent_iid(OS.AmbiguitySpec(n, k, G), grid=grid))

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_envelope_dominates_curve(self, seed):
        d = random_mixed_dist(np.random.default_rng(seed))
        curve = D.revenue_curve(d)
        env = curve.ironed_value(curve.qs)
        assert np.all(env >= curve.rs - 1e-12)
        slopes = np.diff(curve.ironed_rs) / np.diff(curve.ironed_qs)
        assert np.all(np.diff(slopes) <= 1e-12)


class TestVirtualValues:
    def test_f_disc_pooled_values(self):
        vv = D.virtual_values(F_DISC)
        # pooled level 2 - 1/q on [1, 2), jump to 2 at the top
        assert vv.eval(1.0) == pytest.approx(0.75, abs=1e-12)
        assert vv.eval(1.5) == pytest.approx(0.75, abs=1e-12)
        assert vv.eval(2.0) == 2.0
        assert vv.flat_regions == ((1.0, 2.0),)

    def test_f_reg_matches_pooled_f_disc(self):
        # continuous counterpart of F_DISC: CDF (v-1)/(v-2+1/q) on [1, 2)
        q = 0.8
        vs = np.linspace(1.0, 2.0, 257)
        cdf = np.where(vs < 2.0, (vs - 1.0) / (vs - 2.0 + 1.0 / q), 1.0)
        f_reg = D.dist_from_arrays(vs, cdf, cdf)
        vv = D.virtual_values(f_reg)
        for v in (1.1, 1.5, 1.9):
            assert vv.eval(v) == pytest.approx(0.75, abs=5e-3)
        assert vv.eval(2.0) == pytest.approx(2.0, abs=1e-9)

    def test_uniform_raw_slope(self):
        vv = D.virtual_values(D.uniform(0, 1))
        for v in (0.2, 0.5, 0.8):
            # finite-difference slope of q(1-q) at q = 1 - v
            h = 1e-7
            q = 1 - v
            slope = ((q + h) * (1 - q - h) - (q - h) * (1 - q + h)) / (2 * h)
            assert vv.eval(v) == pytest.approx(slope, abs=1e-6)
            assert vv.eval(v) == pytest.approx(2 * v - 1, abs=1e-12)

    def test_monotone_on_dense_grid(self):
        for d in (F_DISC, D.uniform(0, 1), D.exponential(1.0, grid=256)):
            vv = D.virtual_values(d)
            grid = np.linspace(d.support_lo, d.support_hi, 2001)
            vals = vv.eval(grid)
            assert np.all(np.diff(vals) >= -1e-12)

    @given(st.lists(st.tuples(st.floats(0.05, 2.0), st.floats(0.05, 1.0)), min_size=2, max_size=7))
    @settings(max_examples=80, deadline=None)
    def test_values_pooled_on_one_edge_share_one_float(self, steps):
        # atoms a random gap apart with random masses; those whose quantile
        # spans lie on one edge of the hull take that edge's slope, one float
        vs = np.cumsum([gap for gap, _ in steps])
        ms = np.array([m for _, m in steps])
        d = D.from_table([], atoms=list(zip(vs, ms / ms.sum())))
        edge = np.searchsorted(D.revenue_curve(d).ironed_qs, 1.0 - 0.5 * (d.f_left + d.f_right)) - 1
        levels = D.virtual_values(d).eval(d.xs)
        for e in np.unique(edge):
            assert np.unique(levels[edge == e]).size == 1

    def test_phi_bar_equals_raw_outside_flats(self):
        d = D.exponential(1.0, grid=512)
        vv = D.virtual_values(d)
        for v in np.linspace(0.1, 5.0, 23):
            if any(lo <= v <= hi for lo, hi in vv.flat_regions):
                continue
            # the density formula v - (1 - F(v)) / f(v) on the segment holding v
            i = int(np.searchsorted(d.xs, v, side="right")) - 1
            density = (d.f_left[i + 1] - d.f_right[i]) / (d.xs[i + 1] - d.xs[i])
            assert vv.eval(v) == pytest.approx(v - (1.0 - d.cdf(v)) / density, abs=1e-9)


def _hand_built(bp, phi_lo, phi_hi, phi_top, support_lo, support_hi):
    return D.VirtualValueFn(np.array(bp), np.array(phi_lo), np.array(phi_hi), phi_top, support_lo, support_hi, ())


# maps whose edges the extended piece tables must reproduce: the last
# breakpoint below support_hi, phi_top above support_hi and below the last
# level, a piece at -inf, a single atom at 0 (levels and support_hi both
# zeros) and maps built from distributions with a gap and a top atom
EDGE_MAPS = {
    "bp_below_top": _hand_built([0.0, 1.0, 2.0], [-1.0, 0.5], [0.2, 1.5], 3.0, 0.0, 4.0),
    "top_above_support": _hand_built([0.5, 1.0, 2.0], [0.1, 0.7], [0.4, 2.5], 2.2, 0.5, 2.0),
    "neg_inf_piece": _hand_built([0.0, 0.5, 1.0, 3.0], [-np.inf, -0.5, 1.0], [-np.inf, 0.25, 3.0], 3.0, 0.0, 3.0),
    "atom_at_zero": D.virtual_values(D.point_mass(0.0)),
    "atom": D.virtual_values(D.point_mass(1.5)),
    "gap": D.virtual_values(
        D.from_table([(0.0, 0.0), (1.0, 0.3), (2.0, 0.3), (3.0, 0.6)], atoms=[(2.0, 0.25), (4.0, 0.15)])
    ),
    "pooled_top": D.virtual_values(D.from_table([], atoms=[(1.0, 0.7), (1.2, 0.1), (2.0, 0.19), (4.0, 0.01)])),
    # a threshold adds a zero to its piece's start, which would turn a
    # breakpoint or top at -0.0 into +0.0: the map stores them as +0.0
    "negative_zero_start": _hand_built([-0.0, 1.0], [-1.0], [1.0], 1.0, -0.0, 1.0),
    "atom_at_negative_zero": D.virtual_values(D.point_mass(-0.0)),
}


@pytest.mark.parametrize("name", list(EDGE_MAPS))
def test_extended_tables_at_their_edges(name):
    # eval at and past both ends of the support (support_hi above the last
    # breakpoint included), thresholds at and past phi_top and support_hi
    # and at -inf, each against the per-point references, bit for bit
    from test_lookup_tables import assert_bitwise, reference_eval, reference_invert

    phi = EDGE_MAPS[name]
    ends = np.append(phi.bp, phi.support_hi)
    assert not np.any(np.signbit(ends) & (ends == 0.0))
    lo, hi, top = phi.support_lo, phi.support_hi, phi.phi_top
    v = np.array([lo, hi, phi.bp[-1], lo - 1.0, hi + 1.0, 1e300, -np.inf, np.inf, np.nan, 0.0, -0.0])
    v = np.concatenate([v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf), phi.bp])
    t = np.array([top, hi, 2.0 * hi + 1.0, 1e300, np.inf, -np.inf, np.nan, 0.0, -0.0])
    t = np.concatenate([t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf), phi.phi_lo, phi.phi_hi])
    # large queries read the tables, small ones and scalars search directly
    for reps in (1, 300):
        vs, ts = np.tile(v, reps), np.tile(t, reps)
        # the infinities, and a fraction of a piece at -1.8e308, overflow
        with np.errstate(invalid="ignore", over="ignore"):
            want = reference_eval(phi, vs), reference_invert(phi, ts, False), reference_invert(phi, ts, True)
            got = phi.eval(vs), phi.threshold_weak(ts), phi.threshold_strict(ts)
        for g, w in zip(got, want):
            assert_bitwise(g, w)
    for x in (hi, top, -np.inf):
        with np.errstate(invalid="ignore"):
            want = reference_eval(phi, x), reference_invert(phi, x, False), reference_invert(phi, x, True)
        got = phi.eval(x), phi.threshold_weak(x), phi.threshold_strict(x)
        assert [np.float64(g).tobytes() for g in got] == [np.float64(w).tobytes() for w in want]


class TestMonopolyPrice:
    def test_uniform_against_grid_search(self):
        u = D.uniform(0, 1)
        p, r = D.monopoly_price(u)
        grid = np.arange(0.0, 1.0001, 1e-4)
        rev = grid * (1 - u.cdf_left(grid))
        assert r == pytest.approx(float(rev.max()), abs=1e-6)
        assert (p, r) == (pytest.approx(0.5, abs=1e-9), pytest.approx(0.25, abs=1e-9))

    def test_f_disc_two_candidates(self):
        # enumerate: price 1 sells surely (revenue 1), price 2 yields 0.4
        assert D.monopoly_price(F_DISC) == (1.0, 1.0)

    def test_point_mass(self):
        assert D.monopoly_price(D.point_mass(3.0)) == (3.0, 3.0)
        # at 0 every price earns 0, and the first maximum is the lowest knot
        assert D.monopoly_price(D.point_mass(0.0)) == (0.0, 0.0)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_matches_grid_search_on_random(self, seed):
        d = random_mixed_dist(np.random.default_rng(seed))
        p, r = D.monopoly_price(d)
        grid = np.linspace(0, d.support_hi, 20001)
        grid = np.unique(np.concatenate([grid, d.xs]))
        rev = grid * d.survival_left(grid)
        assert r >= float(rev.max()) - 1e-6


class TestRegularity:
    def test_uniform_regular(self):
        rep = D.is_regular_above_reserve(D.uniform(0, 1))
        assert rep.regular_above_reserve and rep.regular

    def test_f_disc_needs_ironing_at_reserve(self):
        # selling always at 1 is optimal, yet the curve is ironed on (0.2, 1):
        # the optimal auction and the reserve-1 second-price auction differ,
        # so the distribution is not regular above its reserve
        rep = D.is_regular_above_reserve(F_DISC)
        assert not rep.regular
        assert not rep.regular_above_reserve
        assert rep.monopoly_price == 1.0
        assert rep.violating_intervals == ((pytest.approx(0.2), pytest.approx(1.0)),)

    def test_point_mass_at_zero(self):
        rep = D.is_regular_above_reserve(D.point_mass(0.0))
        assert rep == D.RegularityReport(
            regular_above_reserve=True, regular=True, monopoly_price=0.0,
            reserve_quantile=1.0, violating_intervals=(),
        )

    def test_bernoulli_regular_above_reserve_only(self):
        b = D.two_point(0.0, 0.4, 1.0)
        rep = D.is_regular_above_reserve(b)
        assert rep.regular_above_reserve and not rep.regular


class TestGeometricAverage:
    def test_idempotent(self):
        u = D.uniform(0, 1)
        g = D.geometric_average(u, u)
        xs = np.linspace(0, 1, 33)
        assert np.allclose(g.cdf(xs), u.cdf(xs), atol=1e-12)

    def test_point_mass_at_zero_absorbs(self):
        g = D.geometric_average(D.point_mass(0.0), D.uniform(0, 1))
        assert g.support_hi == 0.0
        assert g.cdf(0.0) == 1.0

    def test_bernoulli_success_probs_multiply(self):
        a, b = 0.2, 0.8
        g = D.geometric_average(D.two_point(0, 1 - a, 1), D.two_point(0, 1 - b, 1))
        assert g.survival(0.0) == pytest.approx(math.sqrt(a * b), abs=1e-12)

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_survival_identity_on_grid(self, seed):
        rng = np.random.default_rng(seed)
        d1, d2 = random_mixed_dist(rng), random_mixed_dist(rng)
        g = D.geometric_average(d1, d2)
        xs = np.unique(np.concatenate([d1.xs, d2.xs]))
        lhs = (1 - g.cdf(xs)) ** 2
        rhs = (1 - d1.cdf(xs)) * (1 - d2.cdf(xs))
        assert np.allclose(lhs, rhs, atol=1e-12)
        assert np.all(np.diff(g.cdf(xs)) >= -1e-12)


class TestLiterals:
    @pytest.mark.parametrize(
        "lit",
        [
            {"family": "uniform", "lo": 0, "hi": 2},
            {"family": "exponential", "rate": 0.5},
            {"family": "beta", "a": 2, "b": 2},
            {"family": "normal", "mean": 10, "sd": 1},
            {"family": "twopoint", "v1": 1, "p1": 0.8, "v2": 2},
            {"family": "atom", "v": 1.5},
            {"family": "table", "knots": [[0, 0], [1, 0.5]], "atoms": [[2, 0.5]]},
        ],
    )
    def test_parses_to_valid_dist(self, lit):
        d = D.from_literal(lit, grid=128)
        assert d.cdf(d.support_hi) == 1.0
        assert d.cdf_left(d.support_lo) == 0.0

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            D.from_literal({"family": "cauchy"})

    @pytest.mark.parametrize(
        "lit",
        [
            {"family": "exponential", "rate": float("nan")},
            {"family": "exponential", "rate": float("inf")},
            {"family": "exponential", "rate": 0},
            {"family": "normal", "mean": 1, "sd": 0},
            {"family": "normal", "mean": float("nan"), "sd": 1},
            {"family": "beta", "a": -1, "b": 2},
            {"family": "beta", "a": 2, "b": 0},
            {"family": "uniform", "lo": 0, "hi": float("nan")},
            {"family": "twopoint", "v1": 0, "p1": float("nan"), "v2": 1},
            {"family": "atom", "v": float("inf")},
            {"family": "table", "knots": [[0, 0], [1, float("nan")]], "atoms": [[2, 0.5]]},
            {"family": "exponential", "rate": "fast"},
        ],
    )
    def test_degenerate_parameters_rejected(self, lit):
        with pytest.raises(ValueError):
            D.from_literal(lit, grid=128)

    @pytest.mark.parametrize("grid", [0, 1, 15])
    def test_grid_below_16_rejected(self, grid):
        with pytest.raises(ValueError, match="grid"):
            D.from_literal({"family": "exponential", "rate": 1}, grid=grid)
        assert D.from_literal({"family": "exponential", "rate": 1}, grid=16).xs.size > 2

    def test_grid_above_cap_rejected(self):
        lit = {"family": "uniform", "lo": 0, "hi": 1}  # allocates nothing grid-sized
        with pytest.raises(ValueError, match="grid"):
            D.from_literal(lit, grid=2**20 + 1)
        assert D.from_literal(lit, grid=2**20).xs.size == 2

    @pytest.mark.parametrize(
        "lit, field",
        [
            ({"family": "table", "knots": 5}, "table 'knots'"),
            ({"family": "table", "knots": [[0, 0, 1], [1, 1]]}, "table 'knots'"),
            ({"family": "table", "atoms": [0.5]}, "table 'atoms'"),
            ({"family": "table", "atoms": {"0.5": 1}}, "table 'atoms'"),
            # the kept window of these holds a single value
            ({"family": "beta", "a": 1e30, "b": 3}, r"beta\(1e\+30,3\)"),
            ({"family": "normal", "mean": 1e17, "sd": 1}, r"normal\(1e\+17,1\)"),
            ({"family": "uniform", "lo": 0}, "missing parameter 'hi'"),
            ({"family": "uniform", "lo": 0, "hi": 10**400}, "uniform parameter 'hi' must be finite"),
            ({"family": "table", "knots": [[0, 0], [1, 1]], "atoms": [[0.5, 0]]}, "atom masses must be positive"),
            ({"family": "uniform", "lo": 1, "hi": 0}, "uniform needs lo < hi"),
            ({"family": "twopoint", "v1": 1, "p1": 0.5, "v2": 0.5}, "two_point needs v1 < v2"),
        ],
        ids=["knots_not_a_list", "knot_triple", "atom_not_a_pair", "atoms_a_dict", "beta_point", "normal_point",
             "missing_parameter", "integer_past_float_range", "atom_without_mass", "uniform_reversed",
             "twopoint_reversed"],
    )
    def test_malformed_literal_names_its_field(self, lit, field):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused, not computed through 0/0
            with pytest.raises(ValueError, match=field):
                D.from_literal(lit, grid=64)

    @pytest.mark.parametrize(
        "knots",
        [[(0.2, 0.1), (0.5, 0.1), (0.5, 0.3), (1, 1)], [(0.5, 0.3), (0.5, 0.0), (1, 1)]],
        ids=["flat_then_jump", "decreasing_pair"],
    )
    def test_repeated_table_knot_rejected(self, knots):
        # either reading of a repeated knot value changes the input: a jump is an atom
        with pytest.raises(ValueError, match="atoms"):
            D.from_table(knots)

    @pytest.mark.parametrize(
        "knots, atoms",
        [([(0.2, 0.1), (1, 1)], []), ([(1, 0.2), (2, 0.5)], [(0.5, 0.5)])],
        ids=["mass_below_lowest_knot", "mass_spread_from_an_atom"],
    )
    def test_table_cdf_starts_at_zero(self, knots, atoms):
        # CDF above 0 at the lowest knot puts mass the table does not place:
        # an atom there, or a ramp from a lower atom
        with pytest.raises(ValueError, match="atoms"):
            D.from_table(knots, atoms)

    def test_beta_cdf_matches_closed_form(self):
        d = D.beta_dist(2, 2, grid=4096)
        for v in (0.2, 0.5, 0.8):
            assert d.cdf(v) == pytest.approx(3 * v**2 - 2 * v**3, abs=1e-6)
