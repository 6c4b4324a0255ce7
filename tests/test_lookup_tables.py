"""The table-driven ``Dist.cdf``, ``Dist.cdf_left``, ``Dist.quantile``,
``VirtualValueFn.eval`` and the thresholds against the per-point
implementations they replaced, copied below verbatim: the closed forms must
read the same CDFs, and the Monte Carlo path must draw the same values and
pay the same amounts, bit for bit. Beneath them, the guided search they all
read against ``np.searchsorted``, the separable Monte Carlo kernel's
top-row selection against the sort it replaced, the quantile's read of the
CDF's piece table against the reach mask it replaced, and the clearing
scorer against the values it replaced."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from osauction import dist as D
from osauction import mech as M
from osauction import orderstat as O
from osauction import revenue as R
from conftest import random_discrete_dist, random_mixed_dist


def reference_cdf(self, v):
    """Right-continuous CDF, clamped to {0, 1} outside the support."""
    v = np.asarray(v, dtype=np.float64)
    i = np.searchsorted(self.xs, v, side="right") - 1
    i_c = np.maximum(i, 0)
    x0 = self.xs[i_c]
    f0 = self.f_right[i_c]
    i_next = np.minimum(i_c + 1, len(self.xs) - 1)
    x1 = self.xs[i_next]
    f1 = self.f_left[i_next]
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.where(x1 > x0, (v - x0) / np.where(x1 > x0, x1 - x0, 1.0), 0.0)
    out = f0 + np.minimum(np.maximum(t, 0.0), 1.0) * (f1 - f0)
    out = np.where(i < 0, 0.0, out)
    out = np.where(v >= self.xs[-1], 1.0, out)
    return out if out.ndim else float(out)


def reference_cdf_left(self, v):
    """Left limit F(v-) = Pr(value < v)."""
    v = np.asarray(v, dtype=np.float64)
    i = np.searchsorted(self.xs, v, side="left")
    i_c = np.minimum(i, len(self.xs) - 1)
    at_knot = (self.xs[i_c] == v) & (i < len(self.xs))
    out = np.where(at_knot, self.f_left[i_c], reference_cdf(self, v))
    out = np.where(v < self.xs[0], 0.0, out)
    out = np.where(v > self.xs[-1], 1.0, out)
    return out if out.ndim else float(out)


def reference_quantile(self, q):
    """Generalized inverse inf{v : F(v) >= q}; q must lie in [0, 1]."""
    q_arr = np.asarray(q, dtype=np.float64)
    if np.any(q_arr < 0.0) or np.any(q_arr > 1.0):
        raise ValueError("quantile argument must lie in [0, 1]")
    # first knot whose right CDF reaches q
    j = np.searchsorted(self.f_right, q_arr, side="left")
    j = np.clip(j, 0, len(self.xs) - 1)
    out = self.xs[j].astype(np.float64) if q_arr.ndim else np.float64(self.xs[j])
    # the continuous segment entering knot j may attain q earlier
    jm = np.clip(j - 1, 0, len(self.xs) - 1)
    rise = self.f_left[j] - self.f_right[jm]
    reach = (j > 0) & (self.f_left[j] >= q_arr) & (rise > 0) & (q_arr > self.f_right[jm])
    with np.errstate(invalid="ignore", divide="ignore"):
        t = (q_arr - self.f_right[jm]) / np.where(rise > 0, rise, 1.0)
    interp = self.xs[jm] + t * (self.xs[j] - self.xs[jm])
    out = np.where(reach, interp, out)
    out = np.where(q_arr <= self.f_right[0], self.xs[0], out)
    return out if q_arr.ndim else float(out)


def reference_eval(self, v):
    """Ironed virtual value at v (vectorized)."""
    v = np.asarray(v, dtype=np.float64)
    out = np.full(v.shape, -np.inf)
    if len(self.bp) > 1:
        j = np.clip(np.searchsorted(self.bp, v, side="right") - 1, 0, len(self.phi_lo) - 1)
        width = self.bp[j + 1] - self.bp[j]
        t = np.where(width > 0, (v - self.bp[j]) / np.where(width > 0, width, 1.0), 0.0)
        inside = (v >= self.support_lo) & (v < self.support_hi)
        out = np.where(inside, self.phi_lo[j] + np.clip(t, 0, 1) * (self.phi_hi[j] - self.phi_lo[j]), out)
    out = np.where(v == self.support_hi, self.phi_top, out)
    out = np.where(v > self.support_hi, v, out)
    return out if out.ndim else float(out)


def reference_invert(self, t, strict: bool):
    t = np.asarray(t, dtype=np.float64)
    side = "right" if strict else "left"
    if len(self.phi_hi):
        j = np.searchsorted(self.phi_hi, t, side=side)
    else:
        j = np.zeros(t.shape, dtype=int)
    out = np.empty(t.shape)
    past = j >= len(self.phi_hi)
    jc = np.clip(j, 0, max(len(self.phi_hi) - 1, 0))
    if len(self.phi_hi):
        lo_hit = self.phi_lo[jc] > t if strict else self.phi_lo[jc] >= t
        rise = self.phi_hi[jc] - self.phi_lo[jc]
        frac = np.where(rise > 0, (t - self.phi_lo[jc]) / np.where(rise > 0, rise, 1.0), 0.0)
        interp = self.bp[jc] + np.clip(frac, 0, 1) * (self.bp[jc + 1] - self.bp[jc])
        out = np.where(lo_hit, self.bp[jc], interp)
    top_hit = self.phi_top > t if strict else self.phi_top >= t
    out = np.where(past, np.where(top_hit, self.support_hi, np.maximum(self.support_hi, t)), out)
    return out if out.ndim else float(out)


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _dists():
    rng = np.random.default_rng(5)
    out = {
        "point_mass": D.point_mass(1.5),
        "point_mass_at_0": D.point_mass(0.0),
        "twopoint": D.two_point(1.0, 0.8, 2.0),
        "atoms": D.from_table([], atoms=[(0.5, 0.4), (1.0, 0.35), (2.5, 0.25)]),
        # continuous mass, then a zero-mass gap, then an atom and more mass
        "gap": D.from_table([(0.0, 0.0), (1.0, 0.3), (2.0, 0.3), (3.0, 0.6)], atoms=[(2.0, 0.25), (4.0, 0.15)]),
        "atom_at_base": D.from_table([(1.0, 0.0), (2.0, 0.5)], atoms=[(1.0, 0.5)]),
        "uniform": D.uniform(0.25, 1.75),
        "table": D.from_literal({"family": "table", "knots": [[0, 0], [1, 0.5], [3, 0.9]], "atoms": [[3, 0.1]]}),
        "mixed": random_mixed_dist(rng),
        "discrete": random_discrete_dist(rng),
    }
    for grid in (16, 256, 4096):
        out[f"exponential/{grid}"] = D.exponential(1.3, grid=grid)
        out[f"beta/{grid}"] = D.beta_dist(2.0, 3.0, grid=grid)
        out[f"normal/{grid}"] = D.normal(1.0, 0.6, grid=grid)  # floored at 0: a leading atom
    return out


DISTS = _dists()


@pytest.mark.parametrize("name", list(DISTS))
def test_quantile_matches_reference(name):
    d = DISTS[name]
    rng = np.random.default_rng(len(name))
    q = np.concatenate([rng.random(2000), d.f_left, d.f_right, [0.0, 1.0]])
    q = np.concatenate([q, np.nextafter(q, 0.0), np.nextafter(q, 1.0)])
    assert_bitwise(d.quantile(q), reference_quantile(d, q))
    # a strided column and a matrix give the same values as the flat array
    cols = np.stack([q, q[::-1]], axis=1)
    assert_bitwise(d.quantile(cols[:, 1]), reference_quantile(d, cols[:, 1]))
    assert_bitwise(d.quantile(cols), reference_quantile(d, cols))
    for x in (0.0, 1.0, float(q[7]), float(d.f_right[0])):
        got = d.quantile(x)
        assert type(got) is float and got == reference_quantile(d, x)
    assert d.quantile(np.empty(0)).shape == (0,)


@pytest.mark.parametrize("name", list(DISTS))
def test_cdf_matches_reference(name):
    d = DISTS[name]
    lo, hi = d.support_lo, d.support_hi
    rng = np.random.default_rng(len(name))
    v = np.concatenate([
        d.xs, rng.uniform(lo, hi, 2000),
        [lo - 1.0, hi + 1.0, -1.0, 0.0, 1e9, -np.inf, np.inf],
    ])
    v = np.concatenate([v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)])
    for got, want in ((d.cdf, reference_cdf), (d.cdf_left, reference_cdf_left)):
        with np.errstate(over="ignore"):  # the reference past the top of the support
            want_flat, want_2d = want(d, v), want(d, v.reshape(3, -1))
        assert_bitwise(got(v), want_flat)
        assert_bitwise(got(v.reshape(3, -1)), want_2d)
        assert_bitwise(got(v[::-2]), want_flat[::-2])
        for x in (lo, hi, lo - 1.0, hi + 1.0, float(v[5]), float(d.xs[len(d.xs) // 2])):
            out = got(x)
            assert type(out) is float and np.float64(out).tobytes() == np.float64(want(d, x)).tobytes()


def test_cdf_left_reads_f_left_at_a_knot():
    # on the segment entering knot 2, lower + (f_left - lower) rounds away from f_left
    lo, up = 0.36773300555455796, 0.9679261899246464
    d = D.Dist(np.array([0.0, 1.0, 2.0]), np.array([0.0, lo, up]), np.array([0.0, lo, 1.0]))
    assert lo + (up - lo) != up
    assert_bitwise(d.cdf_left(d.xs), d.f_left)
    assert_bitwise(d.cdf_left(d.xs), reference_cdf_left(d, d.xs))


@pytest.mark.parametrize("q", [-1e-300, -0.5, 1.0 + 1e-15, 2.0, [0.5, -0.1], [[0.2], [1.5]], np.nan, [0.5, np.nan]])
def test_quantile_out_of_range_raises(q):
    with pytest.raises(ValueError):
        DISTS["mixed"].quantile(q)


@pytest.mark.parametrize("name", list(DISTS))
def test_virtual_value_eval_matches_reference(name):
    d = DISTS[name]
    phi = D.virtual_values(d)
    lo, hi = d.support_lo, d.support_hi
    rng = np.random.default_rng(len(name))
    v = np.concatenate([
        phi.bp, d.xs, [lo, hi, lo - 1.0, hi + 1.0, -1.0, 0.0, 1e9],
        rng.uniform(max(lo - 0.5, 0.0), hi + 0.5, 2000),
    ])
    v = np.concatenate([v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)])
    assert_bitwise(phi.eval(v), reference_eval(phi, v))
    assert_bitwise(phi.eval(v.reshape(3, -1)), reference_eval(phi, v.reshape(3, -1)))
    for x in (lo, hi, lo - 1.0, hi + 1.0, float(v[-5])):
        got = phi.eval(x)
        assert type(got) is float and np.float64(got).tobytes() == np.float64(reference_eval(phi, x)).tobytes()


def _levels(phi, rng):
    """Virtual values to invert: every piece's ends, their neighbours, values
    between and outside them, and 0."""
    t = np.concatenate([phi.phi_lo, phi.phi_hi, [phi.phi_top, 0.0, -1.0, 1e3, -np.inf]])
    t = t[np.isfinite(t) | (t == -np.inf)]
    finite = t[np.isfinite(t)]
    t = np.concatenate([t, rng.uniform(finite.min() - 1.0, finite.max() + 1.0, 2000)])
    return np.concatenate([t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf)])


@pytest.mark.parametrize("name", list(DISTS))
def test_thresholds_match_reference(name):
    phi = D.virtual_values(DISTS[name])
    t = _levels(phi, np.random.default_rng(len(name)))
    with np.errstate(over="ignore"):  # t far past a piece of tiny rise
        check_thresholds(phi, t)


def check_thresholds(phi, t):
    for strict, got in ((False, phi.threshold_weak), (True, phi.threshold_strict)):
        assert_bitwise(got(t), reference_invert(phi, t, strict))
        assert_bitwise(got(t.reshape(3, -1)), reference_invert(phi, t.reshape(3, -1), strict))
        for x in (0.0, float(t[3]), float(t[-7])):
            assert np.float64(got(x)).tobytes() == np.float64(reference_invert(phi, x, strict)).tobytes()


def test_single_atom_base_has_one_breakpoint():
    phi = D.virtual_values(D.point_mass(2.0))
    assert len(phi.bp) == 1
    v = np.array([0.0, 1.0, 2.0, 3.0])
    assert_bitwise(phi.eval(v), reference_eval(phi, v))


def test_hand_built_map_with_zero_width_pieces():
    # pieces of no width, one at the top below support_hi, and a piece at -inf
    phi = D.VirtualValueFn(
        bp=np.array([0.0, 0.5, 1.0, 1.0, 2.0, 2.0]),
        phi_lo=np.array([-np.inf, 0.0, 1.0, 1.0, 2.0]),
        phi_hi=np.array([-np.inf, 1.0, 1.0, 2.0, 5.0]),
        phi_top=5.0,
        support_lo=0.0,
        support_hi=3.0,
    )
    v = np.concatenate([np.linspace(-0.5, 3.5, 81), phi.bp])
    with np.errstate(invalid="ignore"):
        want = reference_eval(phi, v)
    assert_bitwise(phi.eval(v), want)
    with np.errstate(invalid="ignore"):
        check_thresholds(phi, np.concatenate([np.linspace(-1.0, 6.0, 56), phi.phi_lo, phi.phi_hi]))


@st.composite
def sorted_keys(draw):
    """Sorted keys without NaN: 0 to 5000 of them, heavy-tailed (crowded
    buckets) or even, with duplicates, a signed zero pair or a leading -inf."""
    n = draw(st.one_of(st.integers(0, 8), st.integers(9, 5000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-300, 1e-6, 1.0, 1e6, 1e300]))
    keys = (rng.standard_cauchy(n) if draw(st.booleans()) else rng.uniform(-1.0, 1.0, n)) * scale
    if n and draw(st.booleans()):
        keys = rng.choice(keys[: max(1, n // 3)], n)
    if n >= 2 and draw(st.booleans()):
        keys[:2] = -0.0, 0.0
    keys.sort()
    if n and draw(st.booleans()):
        keys[0] = -np.inf
    return keys


def _queries(keys, rng):
    """Every key and both of its float neighbours, NaN, the infinities and
    random values, at least ``_GUIDED_MIN`` of them so the table is read."""
    x = np.concatenate([keys, [np.nan, np.inf, -np.inf, 0.0, -0.0]])
    x = np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])
    finite = keys[np.isfinite(keys)]
    lo, hi = (finite.min(), finite.max()) if len(finite) else (-1.0, 1.0)
    with np.errstate(over="ignore"):
        spread = rng.uniform(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo), D._GUIDED_MIN)
    return rng.permutation(np.concatenate([x, spread]))


@given(keys=sorted_keys(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None, derandomize=True)
def test_guided_search_matches_searchsorted(keys, seed):
    search = D._Search(keys)
    x = _queries(keys, np.random.default_rng(seed))
    for side in ("left", "right"):
        want = np.searchsorted(keys, x, side)
        got = search(x, side)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        # a matrix, a strided view, a query just under the guided size and a scalar
        even = len(x) // 2 * 2
        assert np.array_equal(search(x[:even].reshape(2, -1), side), want[:even].reshape(2, -1))
        assert np.array_equal(search(x[::-2], side), want[::-2])
        assert np.array_equal(search(x[: D._GUIDED_MIN - 1], side), want[: D._GUIDED_MIN - 1])
        for v in x[:5]:
            assert search(np.asarray(v), side) == np.searchsorted(keys, v, side)


def reference_separable_payments(mechanism, n, values):
    """The separable Monte Carlo payments, read from a sort of every column."""
    r, a, b = M.separable_form(mechanism)
    cleared = r * np.concatenate([[0.0], np.cumsum(a)])
    total = cleared[np.minimum(np.count_nonzero(values >= r, axis=0), len(a))]
    ascending = np.sort(values, axis=0)  # v_(j) is row n - j
    for j, bj in enumerate(b[: n - 1], start=2):
        if bj:
            total += bj * np.clip(ascending[n - j] - r, 0.0, None)
    return total


def _separable_mechanisms(n, rng, reserve):
    yield M.PostedPrice(reserve)
    yield M.SPAReserve(reserve)
    for units in range(1, n):
        yield M.MultiUnit(units, reserve)
    for length in (1, n, n + 1):
        yield M.Laddered(tuple(np.sort(rng.uniform(0.1, 1.0, length))[::-1]), reserve)


@given(seed=st.integers(0, 2**32 - 1), levels=st.integers(1, 6))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_payment_kernel_matches_sorted_reference(seed, levels):
    # values on a few levels tie with each other and with the reserve
    rng = np.random.default_rng(seed)
    grid = np.sort(rng.uniform(0.0, 2.0, levels))
    for n in range(1, 13):
        values = rng.choice(grid, (n, 97))
        for mechanism in _separable_mechanisms(n, rng, float(rng.choice(np.append(grid, 0.0)))):
            got = R._payment_kernel(mechanism, n)(values)
            assert_bitwise(got, reference_separable_payments(mechanism, n, values))
    # tails deeper than R._INSERT_DEPTH sort every column
    values = rng.choice(grid, (40, 97))
    for mechanism in (M.MultiUnit(30, float(grid[0])), M.Laddered(tuple(np.linspace(1.0, 0.1, 35)), 0.0)):
        assert_bitwise(R._payment_kernel(mechanism, 40)(values), reference_separable_payments(mechanism, 40, values))


# -- the quantile as the weak inverse of the CDF's piece table ------------------
# The reach-mask implementation the piece-table read replaced, kept verbatim:
# ``segments`` built on its own, a search of f_right[:-1] for the knot whose
# right CDF reaches q, and a mask of the entries the segment entering that
# knot reaches first.


def reach_mask_segments(self):
    left, lower = np.append(self.xs[0], self.xs[:-1]), np.append(self.f_left[0], self.f_right[:-1])
    width, rise = self.xs - left, self.f_left - lower
    width[0] = 1.0
    return D.Segments(*map(D._as_readonly, (left, width, lower, rise)))


def reach_mask_locate(self, q):
    j = D._Search(self.f_right[:-1])(q, "left")
    if not self._rises:
        return j, None
    return j, (self.f_left[j] >= q) & (j > 0)


def reach_mask_along_segment(self, q, j):
    left, width, lower, rise = reach_mask_segments(self)
    return D._along(q, j, lower, rise, left, width)


def reach_mask_quantile(self, q):
    q_arr = np.asarray(q, dtype=np.float64)
    if q_arr.size and (q_arr.min() < 0.0 or q_arr.max() > 1.0):
        raise ValueError("quantile argument must lie in [0, 1]")
    flat = q_arr.reshape(-1)
    j, reach = reach_mask_locate(self, flat)
    out = self.xs[j]
    if reach is not None and reach.any():
        np.copyto(out, reach_mask_along_segment(self, flat, j), where=reach)
    return out.reshape(q_arr.shape) if q_arr.ndim else float(out[0])


def _flat_table(rng):
    """Rising segments, zero-mass gaps and atoms, on up to 8 knots."""
    m = int(rng.integers(2, 9))
    xs = np.cumsum(rng.uniform(0.05, 1.0, m))
    cdf = np.append(0.0, np.cumsum(rng.uniform(0.0, 1.0, m - 1) * (rng.random(m - 1) < 0.6)))
    atoms = [(float(x), float(rng.uniform(0.05, 1.0))) for x in xs[rng.random(m) < 0.4]]
    total = cdf[-1] + sum(mass for _, mass in atoms)
    if total == 0.0:
        return D.point_mass(float(xs[0]))
    return D.from_table(list(zip(xs, cdf / total)), [(x, mass / total) for x, mass in atoms])


@st.composite
def laws(draw):
    """Random tables, consistent i.i.d. laws and discretized families."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["mixed", "atomless", "discrete", "flats", "iid", "family"]))
    if kind in ("mixed", "atomless"):
        return random_mixed_dist(rng, max_knots=8, atoms=kind == "mixed")
    if kind == "discrete":
        return random_discrete_dist(rng, max_atoms=8)
    if kind == "flats":
        return _flat_table(rng)
    grid = draw(st.one_of(st.sampled_from([16, 4096]), st.integers(16, 4096)))
    if kind == "iid":
        n = draw(st.sampled_from([2, 3, 5, 50, 2000]))
        k = draw(st.integers(1, n))
        G = D.exponential(float(rng.uniform(0.2, 5.0)), grid=grid) if draw(st.booleans()) else D.two_point(
            float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.05, 0.95)), float(rng.uniform(1.0, 3.0)))
        return O.consistent_iid(O.AmbiguitySpec(n=n, k=k, G=G), grid=grid)
    family = draw(st.sampled_from([D.exponential, D.beta_dist, D.normal]))
    params = {D.exponential: (1.3,), D.beta_dist: (2.0, 3.0), D.normal: (1.0, 0.6)}[family]
    return family(*params, grid=grid)


def _quantile_points(d, rng):
    """Both CDF sides at every knot, their float neighbours, 0, 1 and random
    points, shuffled."""
    q = np.concatenate([d.f_left, d.f_right, [0.0, 1.0]])
    q = np.concatenate([q, np.nextafter(q, 0.0), np.nextafter(q, 1.0), rng.random(500)])
    return rng.permutation(q)


@given(d=laws(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_quantile_reads_the_piece_table_as_the_reach_mask_did(d, seed):
    for got, want in zip(d.segments, reach_mask_segments(d)):
        assert_bitwise(got, want)
        assert not got.flags.writeable
    q = _quantile_points(d, np.random.default_rng(seed))
    # batches on both sides of the guided search's threshold
    for batch in (q[: D._GUIDED_MIN - 1], np.resize(q, max(len(q), D._GUIDED_MIN))):
        assert_bitwise(d.quantile(batch), reach_mask_quantile(d, batch))


@pytest.mark.parametrize("d", [
    D.point_mass(-0.0),
    D.uniform(-0.0, 1.0),
    D.from_table([(-0.0, 0.0), (1.0, 0.5)], atoms=[(-0.0, 0.25), (2.0, 0.25)]),
], ids=["point_mass", "uniform", "table"])
def test_knot_at_negative_zero_reads_positive_zero(d):
    # a piece read adds a zero to the knot, so every read gives +0.0 there
    assert not np.signbit(d.xs).any()
    q = np.concatenate([[0.0], d.f_left, d.f_right])
    assert not np.signbit(d.quantile(q)).any()
    assert not np.signbit(d.quantile(np.resize(q, D._GUIDED_MIN))).any()
    assert math.copysign(1.0, d.quantile(0.0)) == 1.0
    assert d.cdf(-0.0) == d.cdf(0.0) and d.cdf_left(-0.0) == d.cdf_left(0.0)


# -- the clearing scorer: draws compared with a clearing quantile ---------------
# The top of the piece leaving the knot at 1.5 ulp reads fl(x + (x' - x)), one
# ulp above the next knot, 1 + 3 ulp: the quantile falls from there to that knot.
OVERSHOOT = D.from_table([(0, 0), (1.5 * 2**-52, 0.3), (1 + 3 * 2**-52, 0.6), (1 + 2**-40, 0.6000001), (3, 1)])


def test_quantile_overshoots_a_knot_by_an_ulp():
    q = OVERSHOOT.f_left[2]
    assert OVERSHOOT.quantile(q) == 1 + 4 * 2**-52
    assert OVERSHOOT.quantile(np.nextafter(q, 1.0)) == 1 + 3 * 2**-52
    # a price in the overshoot keeps the values; one at its knot or above it does not
    assert R._clearing_quantile(OVERSHOOT, 1 + 4 * 2**-52) is None
    assert R._clearing_quantile(OVERSHOOT, 1 + 3 * 2**-52) == 0.6
    assert R._clearing_quantile(OVERSHOOT, 1 + 5 * 2**-52) is not None


def _prices(components, rng, where):
    """A price at 0, on a knot, between two knots or above every support."""
    xs = np.unique(np.concatenate([c.xs for c in components]))
    if where == "zero":
        return 0.0
    if where == "knot":
        return float(rng.choice(xs))
    if where == "between" and len(xs) > 1:
        i = int(rng.integers(len(xs) - 1))
        return float(xs[i] + rng.uniform(0.0, 1.0) * (xs[i + 1] - xs[i]))
    return float(xs[-1] * rng.uniform(1.0, 2.0) + rng.uniform(0.0, 1.0))


@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_clearing_scorer_pays_what_values_pay(data, seed):
    rng = np.random.default_rng(seed)
    extra = [OVERSHOOT, D.point_mass(float(rng.uniform(0.0, 2.0))), D.point_mass(0.0)]
    pool = [data.draw(laws()) for _ in range(2)] + [extra[int(rng.integers(3))]]
    n = data.draw(st.integers(1, 5))
    where = data.draw(st.sampled_from(["zero", "knot", "between", "above", "overshoot"]))
    first = (OVERSHOOT,) if where == "overshoot" else ()  # a bidder reads the overshoot
    pd = O.ProductDist(first + tuple(pool[int(rng.integers(3))] for _ in range(n - len(first))))
    r = 1 + 4 * 2**-52 if where == "overshoot" else _prices(pd.components, rng, where)
    # every bidder reads its own component's knots, their neighbours and random draws
    q = np.array([np.resize(_quantile_points(c, rng), 1200) for c in pd.components])
    values = np.array([c.quantile(row) for c, row in zip(pd.components, q)])
    mechanisms = [M.PostedPrice(r)]
    if n == 1:  # no tail weight reaches a statistic below the first
        mechanisms += [M.SPAReserve(r), M.Laddered((1.0, 0.5), r)]
    for mechanism in mechanisms:
        score, pay = R._sampler(mechanism, pd)
        scores = np.array([score(c, row) for c, row in zip(pd.components, q)])
        np.testing.assert_array_equal(scores >= r, values >= r)
        assert_bitwise(pay(scores), R._payment_kernel(mechanism, n)(values))
        assert_bitwise(score(pd.components[0], q[:1]), scores[:1])  # a slab of rows
    for c, row in zip(pd.components, scores):
        theta = R._clearing_quantile(c, r)
        if theta is None:  # only in an overshoot, where the values are kept
            assert c is OVERSHOOT and where == "overshoot"
            continue
        assert set(np.unique(row)) <= {r, -np.inf}
        # the least float whose quantile reaches r
        if theta == math.inf:
            assert c.quantile(1.0) < r
        else:
            assert c.quantile(theta) >= r and (theta == 0.0 or c.quantile(np.nextafter(theta, 0.0)) < r)
