import numpy as np
from hypothesis import strategies as st

from osauction import dist as D
from osauction import orderstat as OS


def random_mixed_dist(rng: np.random.Generator, max_knots: int = 5, atoms: bool = True) -> D.Dist:
    """Random valid distribution: a few atoms plus piecewise-linear mass."""
    m = int(rng.integers(2, max_knots + 1))
    xs = np.sort(rng.uniform(0.0, 3.0, size=m))
    xs += np.arange(m) * 1e-6  # keep strictly increasing
    atom_mass = rng.uniform(0.0, 1.0, size=m) * (1.0 if atoms else 0.0)
    cont_mass = rng.uniform(0.0, 1.0, size=m - 1)
    total = atom_mass.sum() + cont_mass.sum()
    if total <= 0:
        atom_mass[0] = 1.0
        total = 1.0
    atom_mass /= total
    cont_mass /= total
    fl = np.zeros(m)
    fr = np.zeros(m)
    acc = 0.0
    for i in range(m):
        fl[i] = acc
        acc += atom_mass[i]
        fr[i] = acc
        if i < m - 1:
            acc += cont_mass[i]
    return D.dist_from_arrays(xs, fl, fr)


def random_discrete_dist(rng: np.random.Generator, max_atoms: int = 4) -> D.Dist:
    m = int(rng.integers(2, max_atoms + 1))
    xs = np.sort(rng.uniform(0.1, 3.0, size=m))
    xs += np.arange(m) * 1e-6
    mass = rng.dirichlet(np.ones(m))
    mass = np.maximum(mass, 1e-3)
    mass /= mass.sum()
    return D.from_table([], atoms=list(zip(xs, mass)))


@st.composite
def observations(draw):
    """(G, grid) over the families a config can name, G at grid 16 to 256."""
    grid = draw(st.sampled_from([16, 64, 256]))
    kind = draw(st.sampled_from(["uniform", "exponential", "beta", "normal", "twopoint", "table"]))
    if kind == "uniform":
        lo = draw(st.floats(0.0, 2.0))
        return D.uniform(lo, lo + draw(st.floats(0.1, 5.0))), grid
    if kind == "exponential":
        return D.exponential(draw(st.floats(0.1, 10.0)), grid=grid), grid
    if kind == "beta":
        return D.beta_dist(draw(st.floats(0.5, 5.0)), draw(st.floats(0.5, 5.0)), grid=grid), grid
    if kind == "normal":
        return D.normal(draw(st.floats(0.5, 3.0)), draw(st.floats(0.1, 1.0)), grid=grid), grid
    if kind == "twopoint":
        v1 = draw(st.floats(0.0, 1.0))
        return D.two_point(v1, draw(st.floats(0.05, 0.95)), v1 + draw(st.floats(0.1, 2.0))), grid
    xs = sorted(draw(st.lists(st.integers(0, 100), min_size=2, max_size=6, unique=True)))
    cont = draw(st.sampled_from([0.0, 0.5, 1.0]))
    steps = np.cumsum(draw(st.lists(st.floats(0.0, 1.0), min_size=len(xs) - 1, max_size=len(xs) - 1)))
    cdf = [0.0] + list(cont * steps / steps[-1]) if steps[-1] > 0 else [0.0] * len(xs)
    atoms = []
    if cdf[-1] < 1.0:  # the rest of the mass in atoms at some of the knots
        at = draw(st.lists(st.sampled_from(range(len(xs))), unique=True, min_size=1))
        mass = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=len(at), max_size=len(at))))
        atoms = [(xs[i] / 10, m) for i, m in zip(at, (1.0 - cdf[-1]) * mass / mass.sum())]
    return D.from_table([(x / 10, c) for x, c in zip(xs, cdf)], atoms=atoms), grid


def two_pass_consistent_iid(spec, grid):
    """``consistent_iid`` inverting both sides of every knot, one
    ``h_inverse`` call per side."""
    G = spec.G
    rise = G.segments.rise[1:]
    n_sub = np.where(rise > OS._REFINE_MASS, np.ceil(rise * grid), 1).astype(np.int64)
    seg = np.repeat(np.arange(len(rise)), n_sub)
    t = (np.arange(len(seg)) - np.repeat(np.cumsum(n_sub) - n_sub, n_sub)) / n_sub[seg]
    xs = np.append(G.xs[seg] + t * (G.xs[seg + 1] - G.xs[seg]), G.xs[-1])
    f = G.f_right[seg] + t * rise[seg]
    fl = np.append(np.where(t == 0.0, G.f_left[seg], f), G.f_left[-1])
    fr = np.append(f, G.f_right[-1])
    return D.dist_from_arrays(
        xs, OS.h_inverse(spec.n, spec.k, fl), OS.h_inverse(spec.n, spec.k, fr),
        label=f"iid(k={spec.k},n={spec.n};{G.describe()})",
    )
