"""Command-line interface: scenario configs in, reports and plot-ready CSV out.

Subcommands:
  invert     emit the consistent i.i.d. distribution for an observed order statistic
  reserve    optimal robust reserve (finite n, or a bound uniform over n)
  worstcase  worst-case expected revenue of a mechanism over the ambiguity set
  curve      revenue curve and concave envelope of the implied i.i.d. distribution
  reproduce  named worked examples checked against their reference values
  simulate   seeded Monte Carlo revenue for an explicit product distribution

Every config command maps a config to one table; ``main`` alone loads the
config, applies ``--grid``, ``--seed`` and ``--samples`` as overrides of the
config fields of the same name, refuses, and writes the CSV.

Exit codes: 0 success, 1 a reproduction check failed (its rows are still
written), 2 config/parse error or an --out that cannot be written, 3 robust
evaluation unsupported for the requested mechanism. Identical configs and
seeds produce byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import numbers
import sys

import numpy as np

from . import mech as M
from . import revenue as R
from .dist import DEFAULT_GRID, _finite, from_literal, is_regular_above_reserve, revenue_curve, two_point, uniform
from .orderstat import AmbiguitySpec, ProductDist, consistent_iid, h_poly, iid
from .oracle import counterexample_certificate

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_UNSUPPORTED = 3

# size caps, refused before anything is allocated
MAX_SIZE = 10**6  # bidders n, and a multi-unit auction's units
MAX_DRAWS = 2**25  # values one simulate request draws: samples x bidders

# flags that override the config field of the same name
OVERRIDES = ("grid", "seed", "samples")


class ConfigError(ValueError):
    pass


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def _load_config(path) -> dict:
    if path is None:
        raise ConfigError("this command needs --config")
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing {key!r}")
    return cfg[key]


def _integer(name: str, value, most: int | None = None) -> int:
    """``value`` as an int, at most ``most`` when given; bools, strings and
    non-integral numbers are refused, an integral float such as 1000.0 is
    taken below 2**53 in magnitude, past which it need not be the integer
    written."""
    if isinstance(value, float) and value.is_integer():
        if abs(value) >= 2**53:
            raise ConfigError(f"{name} must be written as an integer, got the float {value!r}: past 2**53 a float "
                              "need not be the integer written")
        value = int(value)
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if most is not None and value > most:
        raise ConfigError(f"{name} must be at most {most}, got {value}")
    return int(value)


def _spec_from_config(cfg: dict, grid: int) -> AmbiguitySpec:
    try:
        n = _integer("n", _require(cfg, "n"), MAX_SIZE)
        k = _integer("k", _require(cfg, "k"))
        G = from_literal(_require(cfg, "G"), grid=grid)
        return AmbiguitySpec(n, k, G)
    except (ValueError, TypeError) as e:
        raise ConfigError(str(e)) from None


def _mechanism_from_config(obj, grid: int) -> M.Mechanism:
    if not isinstance(obj, dict) or "type" not in obj:
        raise ConfigError("mechanism must be an object with a 'type' key")
    t = obj["type"]

    def reserve() -> float:
        return _finite(obj.get("reserve", 0.0), "reserve")

    try:
        if t == "posted_price":
            return M.PostedPrice(_finite(obj["price"], "price"))
        if t == "spa":
            return M.SPAReserve(reserve())
        if t == "multi_unit":
            return M.MultiUnit(_integer("units", obj["units"], MAX_SIZE), reserve())
        if t == "laddered":
            return M.Laddered(tuple(_finite(a, "click rate") for a in obj["click_rates"]), reserve())
        if t == "myerson":
            base = from_literal(obj["base"], grid=grid) if "base" in obj else None
            return M.MyersonIID(base, obj.get("tiebreak", "lexicographic"))
        raise ConfigError(f"unknown mechanism type {t!r}")
    except (KeyError, ValueError, TypeError) as e:
        if isinstance(e, ConfigError):
            raise
        raise ConfigError(f"bad mechanism spec: {e}") from None


def _family_from_config(obj, grid: int) -> M.Mechanism:
    """The family's mechanism; the reserve search sets its reserve."""
    if obj == "spa":
        return M.SPAReserve(0.0)
    if obj == "posted_price":
        return M.PostedPrice(0.0)
    if isinstance(obj, dict) and obj.get("type") in ("multi_unit", "laddered"):
        if "reserve" in obj:
            raise ConfigError("a family takes no 'reserve': the search sets it")
        return _mechanism_from_config(obj, grid)
    raise ConfigError(f"unknown mechanism family {obj!r}")


# -- subcommands ----------------------------------------------------------------


def cmd_invert(cfg: dict, grid: int):
    spec = _spec_from_config(cfg, grid)
    fbar = consistent_iid(spec, grid=grid)
    xs, fl, fr = fbar.xs, fbar.f_left, fbar.f_right
    residual_l = np.abs(h_poly(spec.n, spec.k, fl) - spec.G.cdf_left(xs))
    # both sides of every knot, the right one only where the CDF jumps
    jumps = fr != fl
    residual_r = np.zeros(len(xs))
    if jumps.any():
        residual_r[jumps] = np.abs(h_poly(spec.n, spec.k, fr[jumps]) - spec.G.cdf(xs[jumps]))
    keep = np.column_stack([np.ones(len(xs), dtype=bool), jumps]).ravel()
    cols = [np.column_stack(pair).ravel()[keep] for pair in ((xs, xs), (fl, fr), (residual_l, residual_r))]
    return ("value", "cdf", "roundtrip_residual"), zip(*cols)


def cmd_reserve(cfg: dict, grid: int):
    family_field = _require(cfg, "family")
    family = _family_from_config(family_field, grid)
    n_field = _require(cfg, "n")
    if n_field == "unknown":
        if family_field != "spa":
            raise ConfigError("the any-number-of-bidders bound is for the 'spa' family")
        if _integer("k", cfg.get("k", 2)) != 2:
            raise ConfigError("the any-number-of-bidders bound observes the second-highest value: k must be 2")
        res = R.optimal_unknown_n_reserve(from_literal(_require(cfg, "G"), grid=grid))
        return (
            ("family", "mode", "reserve", "guarantee", "z_star", "certificate"),
            [("spa", "unknown-n", res.reserve, res.guarantee, res.z_star,
              "lower bound uniform over the number of bidders")],
        )
    spec = _spec_from_config(cfg, grid)
    res = R.optimal_robust_reserve(spec, family, grid=grid)
    cert = (
        "robustly optimal among all mechanisms"
        if res.optimality_certified
        else "robust guarantee for this family; global optimality not certified"
    )
    return (
        ("family", "mode", "reserve", "worst_case_revenue", "regular_above_reserve", "certificate"),
        [(
            family_field if isinstance(family_field, str) else family_field["type"],
            f"n={spec.n}",
            res.reserve,
            res.worst_case_revenue,
            int(res.regular_above_reserve),
            cert,
        )],
    )


def cmd_worstcase(cfg: dict, grid: int):
    spec = _spec_from_config(cfg, grid)
    mechanism = _mechanism_from_config(_require(cfg, "mechanism"), grid)
    value = R.worst_case_revenue_topk(mechanism, spec, grid=grid)
    report = R.RevenueReport(
        mechanism=mechanism.describe(),
        distribution=f"worst case over k={spec.k}, n={spec.n}, G={spec.G.describe()}",
        expected_revenue=value,
        method="closed-form",
    )
    row = report.as_row()
    return tuple(row), [tuple(row.values())]


def cmd_curve(cfg: dict, grid: int):
    cfg.setdefault("k", 2)
    spec = _spec_from_config(cfg, grid)
    fbar = consistent_iid(spec, grid=grid)
    # the implied i.i.d. distribution is densely knotted, so the knot-level
    # curve is already plot-ready; the regularity check reads the same one
    curve = revenue_curve(fbar)
    q_star = is_regular_above_reserve(fbar).reserve_quantile
    qs, rs = curve.qs, curve.rs
    if q_star not in qs:
        j = int(np.searchsorted(qs, q_star))
        qs, rs = np.insert(qs, j, q_star), np.insert(rs, j, np.interp(q_star, qs, rs))
    cols = (qs, rs, curve.ironed_value(qs), qs == q_star)
    header = ("quantile", "revenue", "ironed_revenue", "is_reserve_quantile")
    return header, zip(*(c.tolist() for c in cols))


def cmd_simulate(cfg: dict, grid: int):
    seed, samples = cfg.get("seed"), cfg.get("samples")
    if seed is None:
        raise ConfigError("simulate needs an explicit seed (config 'seed' or --seed)")
    if samples is None:
        raise ConfigError("simulate needs a sample count (config 'samples' or --samples)")
    if not isinstance(cfg.get("product"), list):
        raise ConfigError("simulate needs 'product': a list of distribution literals")
    samples, seed = _integer("samples", samples), _integer("seed", seed)
    if not 0 <= seed < 2**128:  # 128 bits of entropy for the stream's SeedSequence
        raise ConfigError(f"seed must lie between 0 and 2**128 - 1, got {seed}")
    if samples * len(cfg["product"]) > MAX_DRAWS:
        raise ConfigError(f"simulate draws samples x bidders values, at most {MAX_DRAWS}")
    # one Dist per distinct literal, shared by every bidder that names it
    keys = [json.dumps(lit, sort_keys=True) for lit in cfg["product"]]
    dists = {}
    for key, lit in zip(keys, cfg["product"]):
        if key not in dists:
            dists[key] = from_literal(lit, grid=grid)
    pd = ProductDist(tuple(dists[key] for key in keys))
    mechanism = _mechanism_from_config(_require(cfg, "mechanism"), grid)
    if isinstance(mechanism, M.MyersonIID) and mechanism.base is None:
        raise ConfigError("simulate needs an explicit 'base' for the myerson mechanism")
    report = R.mc_expected_revenue(mechanism, pd, samples, seed)
    row = report.as_row()
    return tuple(row), [tuple(row.values())]


# -- named reproductions ----------------------------------------------------------


def _check(name, computed, reference, tol, ok=None):
    """One reproduction row; it passes when ``ok``, by default when
    ``computed`` lies within ``tol`` of ``reference``."""
    ok = abs(computed - reference) <= tol if ok is None else ok
    return (name, computed, reference, tol, "PASS" if ok else "FAIL")


def _reproduce_bernoulli() -> list:
    bound = R.unknown_n_bound(1.0, two_point(0.0, 0.5, 1.0))
    return [_check("bernoulli_guarantee_at_reserve_1", bound, 0.813, 1e-3)]


def _reproduce_uniform() -> list:
    res = R.optimal_unknown_n_reserve(uniform(0.0, 1.0))
    return [
        _check("uniform_z_star", res.z_star, 0.198, 2e-3),
        _check("uniform_reserve", res.reserve, 0.519, 2e-3),
        _check("uniform_guarantee", res.guarantee, 0.531, 2e-3),
    ]


def _reproduce_counterexample(q: float = 0.8) -> list:
    rep = counterexample_certificate(q)
    return [
        _check("iid_optimal_revenue", rep.opt_iid, rep.opt_iid_formula, 1e-9),
        _check("construction_optimal_revenue", rep.opt_construction, rep.opt_construction_formula, 1e-9),
        _check("second_stat_match", rep.second_stat_max_error, 0.0, 1e-12),
        _check("regime_threshold", rep.regime_threshold, 0.673, 1e-3),
        _check("strict_gap", rep.gap, 0.03, 0.0, ok=rep.gap > 0.03),
    ]


def _reproduce_sandwich() -> list:
    q = 0.8
    sw = R.robust_sandwich(AmbiguitySpec(3, 2, two_point(1.0, 3 * q**2 - 2 * q**3, 2.0)))
    return [
        _check("spa_optimal_lower", sw.lower, 1.104, 1e-9),
        _check("iid_optimal_upper", sw.upper, 1.36, 1e-9),
        _check("lower_within_half_of_upper", sw.ratio, 0.5, 0.0, ok=sw.lower <= sw.upper and sw.ratio >= 0.5),
    ]


# name -> rows of checks; only the counterexample takes an argument, --q
REPRODUCTIONS = {
    "bernoulli-example": _reproduce_bernoulli,
    "uniform-example": _reproduce_uniform,
    "counterexample": _reproduce_counterexample,
    "sandwich": _reproduce_sandwich,
}


# -- entry point -------------------------------------------------------------------


@functools.cache  # built once per process: parsing leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="osauction", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    for name, fn in (
        ("invert", cmd_invert),
        ("reserve", cmd_reserve),
        ("worstcase", cmd_worstcase),
        ("curve", cmd_curve),
        ("simulate", cmd_simulate),
    ):
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="path to a JSON scenario config")
        sp.add_argument("--out", help="write CSV here instead of stdout")
        sp.add_argument("--grid", type=int, help="discretization grid size override")
        sp.set_defaults(fn=fn)
        if name == "simulate":
            sp.add_argument("--seed", type=int, help="seed for randomized evaluation")
            sp.add_argument("--samples", type=int, help="Monte Carlo sample count")

    sp = sub.add_parser("reproduce")
    sp.add_argument("name", help=f"one of {', '.join(REPRODUCTIONS)}")
    sp.add_argument("--q", type=float, help="atom weight for the counterexample (default 0.8)")
    sp.add_argument("--out", help="write CSV here instead of stdout")

    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "reproduce":
            if args.name not in REPRODUCTIONS:
                raise ConfigError(f"unknown reproduction {args.name!r}; choose from {tuple(REPRODUCTIONS)}")
            if args.q is not None and args.name != "counterexample":
                raise ConfigError(f"--q is the counterexample's atom weight; {args.name} takes none")
            header = ("check", "computed", "reference", "tolerance", "status")
            rows = REPRODUCTIONS[args.name]() if args.q is None else _reproduce_counterexample(args.q)
        else:
            cfg = _load_config(args.config)
            cfg.update({f: v for f, v in vars(args).items() if f in OVERRIDES and v is not None})
            header, rows = args.fn(cfg, _integer("grid", cfg.get("grid", DEFAULT_GRID)))
    except ValueError as e:  # ConfigError, NotSeparableError, and the library refusing bad input
        print(f"error: {e}", file=sys.stderr)
        return EXIT_UNSUPPORTED if isinstance(e, R.NotSeparableError) else EXIT_CONFIG
    try:
        out = contextlib.nullcontext(sys.stdout) if args.out is None else open(args.out, "w", newline="")
    except OSError as e:
        print(f"error: cannot write {args.out}: {e.strerror}", file=sys.stderr)
        return EXIT_CONFIG
    with out as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(map(_fmt, row) for row in rows)
    failed = args.command == "reproduce" and any(row[-1] != "PASS" for row in rows)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
