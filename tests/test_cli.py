import csv
import hashlib
import io
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from osauction import cli


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_cfg(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestInvert:
    def test_last_statistic_formula(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, "c.json",
            {"n": 3, "k": 3, "G": {"family": "uniform", "lo": 0, "hi": 1}, "grid": 64},
        )
        code, out, _ = run_cli(["invert", "--config", cfg], capsys)
        assert code == 0
        rows = parse_csv(out)
        for row in rows:
            v, f = float(row["value"]), float(row["cdf"])
            assert f == pytest.approx(1 - (1 - v) ** (1 / 3), abs=1e-9)
            assert float(row["roundtrip_residual"]) <= 1e-10

    def test_first_statistic_formula(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, "c.json",
            {"n": 4, "k": 1, "G": {"family": "uniform", "lo": 0, "hi": 1}, "grid": 64},
        )
        code, out, _ = run_cli(["invert", "--config", cfg], capsys)
        assert code == 0
        for row in parse_csv(out):
            v, f = float(row["value"]), float(row["cdf"])
            assert f == pytest.approx(v ** (1 / 4), abs=1e-9)

    def test_bad_config_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", {"n": 3, "k": 9, "G": {"family": "uniform", "lo": 0, "hi": 1}})
        code, _, err = run_cli(["invert", "--config", cfg], capsys)
        assert code == 2 and "error" in err

    def test_missing_config_exit_2(self, capsys):
        code, _, err = run_cli(["invert"], capsys)
        assert code == 2


class TestReserve:
    def test_unknown_n_uniform(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, "c.json",
            {"n": "unknown", "k": 2, "G": {"family": "uniform", "lo": 0, "hi": 1}, "family": "spa"},
        )
        code, out, _ = run_cli(["reserve", "--config", cfg], capsys)
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["reserve"]) == pytest.approx(0.519, abs=2e-3)
        assert float(row["guarantee"]) == pytest.approx(0.531, abs=2e-3)

    def test_unknown_n_bernoulli(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, "c.json",
            {"n": "unknown", "k": 2,
             "G": {"family": "twopoint", "v1": 0, "p1": 0.5, "v2": 1}, "family": "spa"},
        )
        code, out, _ = run_cli(["reserve", "--config", cfg], capsys)
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["guarantee"]) == pytest.approx(0.813, abs=1e-3)

    def test_posted_price_first_statistic(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, "c.json",
            {"n": 3, "k": 1, "G": {"family": "uniform", "lo": 0, "hi": 1},
             "family": "posted_price", "grid": 512},
        )
        code, out, _ = run_cli(["reserve", "--config", cfg], capsys)
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["reserve"]) == pytest.approx(0.5, abs=1e-2)
        assert float(row["worst_case_revenue"]) == pytest.approx(0.25, abs=1e-6)
        assert "optimal" in row["certificate"]

    def test_large_n_approaches_unknown_n(self, tmp_path, capsys):
        # with 2000 bidders the robust reserve sits next to the reserve that is
        # robust for every number of bidders, and guarantees at least as much
        cfg = write_cfg(
            tmp_path, "c.json",
            {"n": 2000, "k": 2, "G": {"family": "uniform", "lo": 0, "hi": 1}, "family": "spa"},
        )
        code, out, _ = run_cli(["reserve", "--config", cfg], capsys)
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["reserve"]) == pytest.approx(0.5191, abs=1e-3)
        assert float(row["worst_case_revenue"]) >= 0.531809

    def test_near_float_maximum_still_certified(self, tmp_path, capsys):
        # uniform(1e300, 1.7e308) overflows and is refused; two decades lower
        # every float of the revenue curve is finite and the verdict reads 1
        cfg = write_cfg(
            tmp_path, "c.json",
            {"n": 3, "k": 2, "G": {"family": "uniform", "lo": 1e300, "hi": 1.7e306}, "family": "spa"},
        )
        code, out, _ = run_cli(["reserve", "--config", cfg], capsys)
        assert code == 0
        assert parse_csv(out)[0]["regular_above_reserve"] == "1"


UNIF_LIT = {"family": "uniform", "lo": 0, "hi": 1}
REFUSED = {
    "multi_unit_without_units": (
        "reserve", {"n": 4, "k": 3, "G": UNIF_LIT, "family": {"type": "multi_unit"}, "grid": 64}),
    "laddered_increasing_rates": (
        "reserve", {"n": 4, "k": 3, "G": UNIF_LIT, "grid": 64,
                    "family": {"type": "laddered", "click_rates": [0.5, 1.0]}}),
    "family_deeper_than_observation": (
        "reserve", {"n": 2, "k": 2, "G": UNIF_LIT, "family": {"type": "multi_unit", "units": 2}, "grid": 64}),
    "unknown_n_unknown_G_family": (
        "reserve", {"n": "unknown", "k": 2, "G": {"family": "cauchy"}, "family": "spa"}),
    "simulate_units_not_below_bidders": (
        "simulate", {"product": [UNIF_LIT, UNIF_LIT], "mechanism": {"type": "multi_unit", "units": 2},
                     "samples": 100, "seed": 1}),
    "nan_rate": (
        "worstcase", {"n": 3, "k": 2, "G": {"family": "exponential", "rate": float("nan")},
                      "mechanism": {"type": "spa", "reserve": 0.5}, "grid": 64}),
    "grid_zero": (
        "reserve", {"n": 3, "k": 2, "G": {"family": "exponential", "rate": 1}, "family": "spa", "grid": 0}),
    "decreasing_table_cdf": (
        "reserve", {"n": 3, "k": 2, "family": "spa",
                    "G": {"family": "table", "knots": [[0, 0], [1, 0.5], [2, 0.4]], "atoms": [[1.5, 0.6]]}}),
    # a repeated knot value would be a jump, which belongs under "atoms"
    "repeated_table_knot": (
        "reserve", {"n": 3, "k": 2, "family": "spa",
                    "G": {"family": "table", "knots": [[0.2, 0.1], [0.5, 0.1], [0.5, 0.3], [1, 1]]}}),
    # CDF above 0 at the lowest knot would be an atom there
    "table_starts_above_zero": (
        "invert", {"n": 3, "k": 2, "G": {"family": "table", "knots": [[0.2, 0.1], [1, 1]]}, "grid": 64}),
    "fractional_k": ("invert", {"n": 3, "k": 2.7, "G": UNIF_LIT, "grid": 64}),
    "fractional_grid": ("invert", {"n": 3, "k": 2, "G": UNIF_LIT, "grid": 100.9}),
    "boolean_n": ("invert", {"n": True, "k": 1, "G": UNIF_LIT, "grid": 64}),
    "string_n": ("invert", {"n": "3", "k": 2, "G": UNIF_LIT, "grid": 64}),
    "fractional_units": (
        "worstcase", {"n": 4, "k": 3, "G": UNIF_LIT, "grid": 64,
                      "mechanism": {"type": "multi_unit", "units": 2.5}}),
    # mechanism numbers are read like distribution parameters: finite JSON numbers only
    "nan_reserve": (
        "worstcase", {"n": 3, "k": 2, "G": UNIF_LIT, "grid": 64,
                      "mechanism": {"type": "spa", "reserve": float("nan")}}),
    "infinite_price": (
        "worstcase", {"n": 3, "k": 2, "G": UNIF_LIT, "grid": 64,
                      "mechanism": {"type": "posted_price", "price": float("inf")}}),
    "nan_click_rate": (
        "reserve", {"n": 4, "k": 3, "G": UNIF_LIT, "grid": 64,
                    "family": {"type": "laddered", "click_rates": [1, float("nan")]}}),
    "boolean_price": (
        "worstcase", {"n": 3, "k": 2, "G": UNIF_LIT, "grid": 64,
                      "mechanism": {"type": "posted_price", "price": True}}),
    "string_reserve": (
        "worstcase", {"n": 3, "k": 2, "G": UNIF_LIT, "grid": 64,
                      "mechanism": {"type": "spa", "reserve": "0.5"}}),
    "string_lo": ("invert", {"n": 3, "k": 2, "G": {"family": "uniform", "lo": "0", "hi": True}, "grid": 64}),
    # malformed shapes are refused before any iteration or indexing
    "product_not_a_list": (
        "simulate", {"product": 5, "mechanism": {"type": "spa"}, "samples": 10, "seed": 1}),
    "empty_table": ("invert", {"n": 3, "k": 2, "G": {"family": "table"}, "grid": 64}),
    # the search sets a family's reserve, so one given in the config is refused
    "family_with_reserve": (
        "reserve", {"n": 4, "k": 3, "G": UNIF_LIT, "grid": 64,
                    "family": {"type": "multi_unit", "units": 2, "reserve": 0.3}}),
    # the any-number-of-bidders bound reads G as the second-highest value
    "unknown_n_third_statistic": ("reserve", {"n": "unknown", "k": 3, "G": UNIF_LIT, "family": "spa", "grid": 64}),
    # a table's knots and atoms are lists of [value, number] pairs
    "table_knots_not_a_list": (
        "reserve", {"n": "unknown", "k": 2, "G": {"family": "table", "knots": 5}, "family": "spa", "grid": 64}),
    "product_table_knots_not_a_list": (
        "simulate", {"product": [{"family": "table", "knots": 5}], "mechanism": {"type": "spa"},
                     "samples": 10, "seed": 1, "grid": 64}),
    # a family whose kept window holds a single value is not a distribution to discretize
    "beta_without_spread": ("invert", {"n": 3, "k": 2, "G": {"family": "beta", "a": 1e30, "b": 3}, "grid": 64}),
    "normal_without_spread": (
        "invert", {"n": 3, "k": 2, "G": {"family": "normal", "mean": 1e17, "sd": 1}, "grid": 64}),
    # size caps, refused before anything is allocated
    "n_past_cap": (
        "worstcase", {"n": 1e30, "k": 2, "G": UNIF_LIT, "mechanism": {"type": "spa"}, "grid": 64}),
    "integer_n_past_cap": ("reserve", {"n": 10**30, "k": 2, "G": UNIF_LIT, "family": "spa", "grid": 64}),
    "units_past_cap": (
        "worstcase", {"n": 4, "k": 3, "G": UNIF_LIT, "mechanism": {"type": "multi_unit", "units": 1e30}, "grid": 64}),
    "draws_past_cap": (
        "simulate", {"product": [UNIF_LIT, UNIF_LIT], "mechanism": {"type": "spa"}, "samples": 10**12, "seed": 1}),
    # a refusal names what is wrong
    "negative_price": (
        "worstcase", {"n": 3, "k": 2, "G": UNIF_LIT, "grid": 64, "mechanism": {"type": "posted_price", "price": -0.5}}),
    "laddered_deeper_than_observation": (
        "worstcase", {"n": 8, "k": 3, "G": UNIF_LIT, "grid": 64,
                      "mechanism": {"type": "laddered", "click_rates": [1, 0.8, 0.6, 0.4, 0.2], "reserve": 0.1}}),
    "config_not_an_object": ("invert", [3, 2, UNIF_LIT]),
    "unknown_mechanism_type": (
        "worstcase", {"n": 3, "k": 2, "G": UNIF_LIT, "grid": 64, "mechanism": {"type": "vickrey"}}),
    "simulate_myerson_without_base": (
        "simulate", {"product": [UNIF_LIT, UNIF_LIT], "mechanism": {"type": "myerson"}, "samples": 10, "seed": 1}),
    "posted_price_without_price": (
        "worstcase", {"n": 3, "k": 2, "G": UNIF_LIT, "grid": 64, "mechanism": {"type": "posted_price"}}),
    "laddered_without_click_rates": (
        "worstcase", {"n": 3, "k": 2, "G": UNIF_LIT, "grid": 64, "mechanism": {"type": "laddered"}}),
    **{f"click_rates_{kind}": (
        "worstcase", {"n": 3, "k": 2, "G": UNIF_LIT, "grid": 64, "mechanism": {"type": "laddered", "click_rates": rates}})
       for kind, rates in (("a_number", 5), ("null", None), ("a_string", "ab"), ("an_object", {"a": 1}))},
    # a revenue curve past the float maximum was read as not regular, with exit 0
    "overflowing_revenue_curve": (
        "reserve", {"n": 3, "k": 2, "G": {"family": "uniform", "lo": 1e300, "hi": 1.7e308}, "family": "spa"}),
    # a seed is used as written or refused: past 2**53 a float need not be the
    # integer written, and a seed lies in [0, 2**128)
    "float_seed_at_2_53": (
        "simulate", {"product": [UNIF_LIT, UNIF_LIT], "mechanism": {"type": "spa"}, "samples": 10,
                     "seed": 9.007199254740993e15}),
    "float_seed_1e30": (
        "simulate", {"product": [UNIF_LIT, UNIF_LIT], "mechanism": {"type": "spa"}, "samples": 10, "seed": 1e30}),
    "negative_seed": (
        "simulate", {"product": [UNIF_LIT, UNIF_LIT], "mechanism": {"type": "spa"}, "samples": 10, "seed": -1}),
    "seed_past_key": (
        "simulate", {"product": [UNIF_LIT, UNIF_LIT], "mechanism": {"type": "spa"}, "samples": 10, "seed": 2**128}),
}
# what the refusal of a case says, where a test pins it
REFUSED_SAYS = {
    "negative_price": "error: price must be non-negative",
    "laddered_deeper_than_observation": "needs the top 6 order statistics but only the k=3 order statistic is observed",
    "family_deeper_than_observation": "error: need more bidders than units",
    "config_not_an_object": "error: config must be a JSON object",
    "unknown_mechanism_type": "error: unknown mechanism type 'vickrey'",
    "simulate_myerson_without_base": "error: simulate needs an explicit 'base' for the myerson mechanism",
    "multi_unit_without_units": "error: mechanism 'multi_unit' is missing parameter 'units'",
    "posted_price_without_price": "error: mechanism 'posted_price' is missing parameter 'price'",
    "laddered_without_click_rates": "error: mechanism 'laddered' is missing parameter 'click_rates'",
    "click_rates_a_number": "error: click_rates must be a list of numbers, got 5",
    "click_rates_null": "error: click_rates must be a list of numbers, got None",
    "click_rates_a_string": "error: click_rates must be a list of numbers, got 'ab'",
    "click_rates_an_object": "error: click_rates must be a list of numbers, got {'a': 1}",
    "overflowing_revenue_curve": "error: iid(k=2,n=3;uniform(1e+300,1.7e+308)) lies too close to the float maximum",
    "float_seed_at_2_53": "error: seed must be written as an integer, got the float 9007199254740992.0",
    "float_seed_1e30": "error: seed must be written as an integer, got the float 1e+30",
    "negative_seed": "error: seed must lie between 0 and 2**128 - 1, got -1",
    "seed_past_key": f"error: seed must lie between 0 and 2**128 - 1, got {2**128}",
}


@pytest.mark.parametrize("case", list(REFUSED))
def test_bad_family_mechanism_or_literal_exits_2(case, tmp_path, capsys):
    command, cfg = REFUSED[case]
    code, out, err = run_cli([command, "--config", write_cfg(tmp_path, "c.json", cfg)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert REFUSED_SAYS.get(case, "") in err


@pytest.mark.parametrize("text", [None, "{\"n\": 3,", ""], ids=["missing_file", "truncated_json", "empty_file"])
def test_unreadable_config_exits_2(text, tmp_path, capsys):
    path = tmp_path / "c.json"
    if text is not None:
        path.write_text(text)
    code, out, err = run_cli(["invert", "--config", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read config {path}: ")


@pytest.mark.parametrize("command, cfg", [
    ("reserve", {"n": cli.MAX_SIZE, "k": 2, "G": UNIF_LIT, "family": "spa", "grid": 64}),
    ("worstcase", {"n": cli.MAX_SIZE, "k": 2, "G": UNIF_LIT, "grid": 64, "mechanism": {"type": "spa", "reserve": 0.5}}),
], ids=["reserve", "worstcase"])
def test_request_at_the_size_cap(command, cfg, tmp_path, capsys):
    code, out, err = run_cli([command, "--config", write_cfg(tmp_path, "c.json", cfg)], capsys)
    assert (code, err) == (0, "")
    (row,) = parse_csv(out)
    assert f"n={cli.MAX_SIZE}" in (row.get("mode") or row["distribution"])
    revenue = float(row.get("worst_case_revenue") or row["expected_revenue"])
    assert 0.0 < revenue < 1.0


@pytest.mark.parametrize("command, G", [
    ("reserve", {"family": "table", "knots": [[0, 0], [1e-310, 0.5], [1, 1]]}),
    ("reserve", {"family": "uniform", "lo": 0, "hi": 1e-310}),
    ("curve", {"family": "uniform", "lo": 0, "hi": 1e-310}),
], ids=["reserve-table", "reserve-uniform", "curve-uniform"])
def test_subnormal_width_segment_answered(command, G, tmp_path, capsys):
    # a segment of subnormal width has a density past the float maximum; its
    # monopoly price reads the inverse density, with no overflow warning
    cfg = {"n": 3, "k": 2, "G": G, "family": "spa"} if command == "reserve" else {"n": 3, "k": 2, "G": G}
    code, out, err = run_cli([command, "--config", write_cfg(tmp_path, "c.json", cfg)], capsys)
    assert (code, err) == (0, "")
    rows = parse_csv(out)
    if command == "reserve":
        (row,) = rows
        assert row["regular_above_reserve"] == "1"
        if G["family"] == "table":
            assert row["reserve"] == "0.640267467126"
        else:
            assert 0.0 < float(row["reserve"]) < 1e-310
    else:
        assert sum(r["is_reserve_quantile"] == "1" for r in rows) == 1


def test_integral_float_is_an_integer(tmp_path, capsys):
    cfg = {"n": 3.0, "k": 2, "G": UNIF_LIT}
    code, out, _ = run_cli(["invert", "--config", write_cfg(tmp_path, "c.json", dict(cfg, grid=64.0))], capsys)
    assert code == 0
    assert out == run_cli(["invert", "--config", write_cfg(tmp_path, "d.json", dict(cfg, n=3, grid=64))], capsys)[1]


def test_each_cell_kind_written(tmp_path, capsys):
    # floats at 12 significant digits, None as an empty cell, ints and
    # strings as they are, and the curve's flag as 0 or 1
    requests = {
        "worstcase": {"n": 2, "k": 2, "G": UNIF_LIT, "grid": 64, "mechanism": {"type": "spa", "reserve": 0.3}},
        "simulate": {"product": [UNIF_LIT, {"family": "atom", "v": 0.25}], "samples": 1, "seed": 7,
                     "mechanism": {"type": "spa", "reserve": 0.2}},
        "curve": {"n": 2, "k": 2, "G": UNIF_LIT, "grid": 16},
    }
    out = {}
    for command, cfg in requests.items():
        code, out[command], _ = run_cli([command, "--config", write_cfg(tmp_path, "c.json", cfg)], capsys)
        assert code == 0
    assert out["worstcase"].splitlines()[1] == (
        'spa(r=0.3),"worst case over k=2, n=2, G=uniform(0,1)",closed-form,0.536915898933,,,')
    assert out["simulate"].splitlines()[1] == 'spa(r=0.2),"uniform(0,1) x atom(0.25)",monte-carlo,0.25,inf,1,7'
    curve = out["curve"].splitlines()
    assert curve[1] == "0,0,0,0"
    assert [row for row in curve if row.endswith(",1")] == ["0.572963424452,0.384552022288,0.384552022288,1"]
    assert {row.rsplit(",", 1)[1] for row in curve[1:]} == {"0", "1"}


def test_sampling_flags_only_on_simulate(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {"n": 3, "k": 2, "G": UNIF_LIT, "family": "spa", "grid": 64})
    with pytest.raises(SystemExit) as exit_:
        cli.main(["reserve", "--seed", "3", "--config", cfg])
    assert exit_.value.code == 2
    assert "--seed" in capsys.readouterr().err


class TestWorstCase:
    def test_separable_families_emit_rows(self, tmp_path, capsys):
        base = {"n": 4, "k": 3, "G": {"family": "uniform", "lo": 0, "hi": 1}, "grid": 256}
        for mech in (
            {"type": "posted_price", "price": 0.5},
            {"type": "spa", "reserve": 0.5},
            {"type": "multi_unit", "units": 2, "reserve": 0.2},
            {"type": "laddered", "click_rates": [1.0, 0.5], "reserve": 0.2},
        ):
            cfg = write_cfg(tmp_path, "c.json", dict(base, mechanism=mech))
            code, out, _ = run_cli(["worstcase", "--config", cfg], capsys)
            assert code == 0
            row = parse_csv(out)[0]
            assert row["method"] == "closed-form"
            assert float(row["expected_revenue"]) >= 0

    def test_myerson_exit_3(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, "c.json",
            {"n": 3, "k": 2, "G": {"family": "uniform", "lo": 0, "hi": 1},
             "mechanism": {"type": "myerson"}},
        )
        code, _, err = run_cli(["worstcase", "--config", cfg], capsys)
        assert code == 3
        assert "not attained at the consistent i.i.d." in err

    def test_myerson_at_lowest_statistic_exit_3(self, tmp_path, capsys):
        # at k = n nothing lies below the observed statistic: the refusal says
        # why it still refuses
        cfg = write_cfg(
            tmp_path, "c.json",
            {"n": 3, "k": 3, "G": {"family": "uniform", "lo": 0, "hi": 1},
             "mechanism": {"type": "myerson"}},
        )
        code, out, err = run_cli(["worstcase", "--config", cfg], capsys)
        assert (code, out) == (3, "")
        assert "lowest order statistic is observed" in err
        assert "below the observed one" not in err

    def test_multiunit_matches_oracle_on_discretized_iid(self, tmp_path, capsys):
        from osauction import dist as D, mech as M, orderstat as OS, oracle as O

        cfg = write_cfg(
            tmp_path, "c.json",
            {"n": 4, "k": 3, "G": {"family": "uniform", "lo": 0, "hi": 1},
             "mechanism": {"type": "multi_unit", "units": 2, "reserve": 0.3}, "grid": 512},
        )
        code, out, _ = run_cli(["worstcase", "--config", cfg], capsys)
        assert code == 0
        value = float(parse_csv(out)[0]["expected_revenue"])
        # independent check: coarse atomization of the implied i.i.d.
        # distribution, enumerated exhaustively
        fbar = OS.consistent_iid(OS.AmbiguitySpec(4, 3, D.uniform(0, 1)), grid=512)
        m = 24
        qs = (np.arange(m) + 0.5) / m
        atoms = [(float(v), 1.0 / m) for v in fbar.quantile(qs)]
        merged: dict[float, float] = {}
        for v, w in atoms:
            merged[v] = merged.get(v, 0.0) + w
        disc = D.from_table([], atoms=sorted(merged.items()))
        inst = O.DiscreteInstance.from_dists([disc] * 4)
        approx = O.exhaustive_revenue(M.MultiUnit(2, 0.3), inst)
        assert value == pytest.approx(approx, abs=0.02)

    def test_class_too_deep_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, "c.json",
            {"n": 4, "k": 2, "G": {"family": "uniform", "lo": 0, "hi": 1},
             "mechanism": {"type": "multi_unit", "units": 2}},
        )
        code, _, err = run_cli(["worstcase", "--config", cfg], capsys)
        assert code == 2


class TestCurve:
    def test_exponential_regular_above_reserve(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, "c.json",
            {"n": 4, "k": 2, "G": {"family": "exponential", "rate": 1}, "grid": 512},
        )
        code, out, _ = run_cli(["curve", "--config", cfg], capsys)
        assert code == 0
        rows = parse_csv(out)
        marks = [r for r in rows if r["is_reserve_quantile"] == "1"]
        assert len(marks) == 1
        q_star = float(marks[0]["quantile"])
        for r in rows:
            if float(r["quantile"]) <= q_star:
                assert float(r["ironed_revenue"]) == pytest.approx(
                    float(r["revenue"]), abs=1e-8
                )

    def test_beta_regular_above_reserve(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, "c.json",
            {"n": 10, "k": 2, "G": {"family": "beta", "a": 2, "b": 2}, "grid": 512},
        )
        code, out, _ = run_cli(["curve", "--config", cfg], capsys)
        assert code == 0
        rows = parse_csv(out)
        q_star = next(float(r["quantile"]) for r in rows if r["is_reserve_quantile"] == "1")
        for r in rows:
            if float(r["quantile"]) <= q_star:
                assert float(r["ironed_revenue"]) == pytest.approx(
                    float(r["revenue"]), abs=1e-8
                )

    def test_reserve_row_reads_the_peak(self, tmp_path, capsys):
        # q* lies inside a segment: the chord there reads 0.342060573834, below
        # the knot row at 0.342062813126
        from osauction import dist as D, orderstat as OS

        G = {"family": "exponential", "rate": 1}
        cfg = write_cfg(tmp_path, "c.json", {"n": 4, "k": 2, "G": G, "grid": 256})
        code, out, _ = run_cli(["curve", "--config", cfg], capsys)
        assert code == 0
        rows = parse_csv(out)
        (mark,) = [r for r in rows if r["is_reserve_quantile"] == "1"]
        fbar = OS.consistent_iid(OS.AmbiguitySpec(4, 2, D.from_literal(G, grid=256)), grid=256)
        peak = f"{D.monopoly_price(fbar)[1]:.12g}"
        assert mark["revenue"] == mark["ironed_revenue"] == peak == "0.34211442669"
        assert max(float(r["revenue"]) for r in rows) == float(peak)

    def test_concave_input_identical_columns(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, "c.json",
            {"n": 2, "k": 2, "G": {"family": "uniform", "lo": 0, "hi": 1}, "grid": 128},
        )
        code, out, _ = run_cli(["curve", "--config", cfg], capsys)
        assert code == 0
        for r in parse_csv(out):
            assert float(r["ironed_revenue"]) == pytest.approx(float(r["revenue"]), abs=1e-9)


# SHA-256 of the curve CSV at grid 1024 as the per-knot loops wrote it, but
# for the reserve row, which reads the arc's peak p* q* instead of the chord:
# the array-built curve, hull and intervals must write the same bytes. The
# CSV carries the last digits of scipy.special.betaincinv (through the
# inversion), so the hashes hold for the scipy they were taken with.
CURVE_SHA256 = {
    "uniform-n4-k2": ({"n": 4, "k": 2, "G": {"family": "uniform", "lo": 0, "hi": 1}},
                      "a6019d12cea2c279578fe2be84c969ef22a53fa49d593ab7213b459e3ee4a6e2"),
    "exponential-n6-k3": ({"n": 6, "k": 3, "G": {"family": "exponential", "rate": 1}},
                          "2aeb402c6c1a17199f8f7332322634bcc416e037e78d52f49880c6a963245a7a"),
    "table-atom-n5-k2": ({"n": 5, "k": 2, "G": {"family": "table", "knots": [[0, 0], [1, 0.4], [2, 0.8]],
                                               "atoms": [[1.5, 0.2]]}},
                         "a918ad3796cff360196a1f8742f69e43cbfd3e991cf9a837b313ad9fc01bfb23"),
}


@pytest.mark.skipif(not scipy.__version__.startswith("1.17."),
                    reason="curve hashes recorded with scipy 1.17")
@pytest.mark.parametrize("name", list(CURVE_SHA256))
def test_curve_csv_pinned(name, tmp_path):
    cfg, want = CURVE_SHA256[name]
    out = tmp_path / "curve.csv"
    assert cli.main(["curve", "--config", write_cfg(tmp_path, "c.json", dict(cfg, grid=1024)), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want


class TestReproduce:
    @pytest.mark.parametrize(
        "name", ["bernoulli-example", "uniform-example", "counterexample", "sandwich"]
    )
    def test_named_checks_pass(self, name, capsys):
        code, out, _ = run_cli(["reproduce", name], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert rows and all(r["status"] == "PASS" for r in rows)

    # runpy warns that the module it runs as __main__ is imported already
    @pytest.mark.filterwarnings("ignore:.*found in sys.modules:RuntimeWarning")
    def test_module_exits_with_the_code_of_main(self, monkeypatch, capsys):
        # python -m osauction.cli
        monkeypatch.setattr(sys, "argv", ["osauction", "reproduce", "not-a-thing"])
        with pytest.raises(SystemExit) as stop:
            runpy.run_module("osauction.cli", run_name="__main__")
        assert stop.value.code == 2

    def test_unknown_name_exit_2(self, capsys):
        code, _, err = run_cli(["reproduce", "not-a-thing"], capsys)
        assert code == 2


class TestSimulate:
    CFG = {
        "product": [
            {"family": "uniform", "lo": 0, "hi": 1},
            {"family": "uniform", "lo": 0, "hi": 1},
        ],
        "mechanism": {"type": "posted_price", "price": 0.5},
        "samples": 20000,
        "seed": 11,
    }

    def test_matches_closed_form(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", self.CFG)
        code, out, _ = run_cli(["simulate", "--config", cfg], capsys)
        assert code == 0
        row = parse_csv(out)[0]
        est, se = float(row["expected_revenue"]), float(row["mc_stderr"])
        assert abs(est - 0.375) <= 4 * se
        assert row["seed"] == "11"

    def test_byte_identical_reruns(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", self.CFG)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_bidders_of_one_literal_share_one_dist(self, tmp_path, capsys, monkeypatch):
        # 200000 copies of one literal once built 200000 Dists and their tables
        products = []
        run = cli.R.mc_expected_revenue
        monkeypatch.setattr(cli.R, "mc_expected_revenue", lambda m, pd, *a: products.append(pd) or run(m, pd, *a))
        beta, reordered = {"family": "beta", "a": 2, "b": 3}, {"b": 3, "a": 2, "family": "beta"}
        cfg = write_cfg(tmp_path, "c.json", {**self.CFG, "product": [beta, reordered, UNIF_LIT, beta], "grid": 64})
        assert run_cli(["simulate", "--config", cfg], capsys)[0] == 0
        first, second, uniform, last = products[0].components
        assert first is second is last and uniform is not first

    @pytest.mark.parametrize("seed", [0, 2**128 - 1])
    def test_seeds_at_the_ends_of_the_range_answered(self, seed, tmp_path, capsys):
        # 2**128 is refused (see REFUSED["seed_past_key"])
        cfg = write_cfg(tmp_path, "c.json", {**self.CFG, "seed": seed, "samples": 100})
        code, out, _ = run_cli(["simulate", "--config", cfg], capsys)
        assert code == 0 and parse_csv(out)[0]["seed"] == str(seed)

    def test_parser_built_once_per_process(self, tmp_path, capsys):
        # the cached parser answers a run after one it refused as it did before
        cfg = write_cfg(tmp_path, "c.json", self.CFG)
        first = run_cli(["simulate", "--config", cfg], capsys)
        with pytest.raises(SystemExit) as refused:
            cli.main(["simulate", "--config", cfg, "--no-such-flag"])
        assert refused.value.code == 2 and "--no-such-flag" in capsys.readouterr().err
        assert run_cli(["simulate", "--config", cfg], capsys) == first and first[0] == 0
        assert cli._build_parser() is cli._build_parser()

    def test_threaded_simulate_imports_no_executor(self, tmp_path):
        # the README's sim.json on two threads, in a fresh process; its
        # literals need no scipy.special, which imports concurrent.futures itself
        cfg = write_cfg(tmp_path, "sim.json", {
            "product": [UNIF_LIT, {"family": "atom", "v": 0}],
            "mechanism": {"type": "spa", "reserve": 0.5},
        })
        script = (
            "import sys\n"
            "from osauction import cli, revenue\n"
            "revenue._available_cpus = lambda: 2\n"
            f"assert cli.main(['simulate', '--config', {cfg!r}, '--seed', '7', '--samples', '100000']) == 0\n"
            "assert 'concurrent.futures' not in sys.modules and 'scipy.special' not in sys.modules\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert parse_csv(done.stdout)[0]["samples"] == "100000"

    def test_missing_seed_exit_2(self, tmp_path, capsys):
        cfg = dict(self.CFG)
        del cfg["seed"]
        path = write_cfg(tmp_path, "c.json", cfg)
        code, _, err = run_cli(["simulate", "--config", path], capsys)
        assert code == 2
        assert "seed" in err

    def test_myerson_simulation(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, "c.json",
            {
                "product": [{"family": "twopoint", "v1": 1, "p1": 0.8, "v2": 2}] * 3,
                "mechanism": {"type": "myerson", "base": {"family": "twopoint", "v1": 1, "p1": 0.8, "v2": 2}},
                "samples": 200000,
                "seed": 4,
            },
        )
        code, out, _ = run_cli(["simulate", "--config", cfg], capsys)
        assert code == 0
        row = parse_csv(out)[0]
        assert abs(float(row["expected_revenue"]) - 1.36) <= 4 * float(row["mc_stderr"])

    def test_myerson_uniform_tiebreak_large_n(self, tmp_path, capsys):
        # 171! overflows a double; uniform ties are averaged, not unranked
        lit = {"family": "twopoint", "v1": 1, "p1": 0.8, "v2": 2}
        cfg = write_cfg(
            tmp_path, "c.json",
            {"product": [lit] * 171, "mechanism": {"type": "myerson", "base": lit, "tiebreak": "uniform"},
             "samples": 2000, "seed": 4},
        )
        code, out, _ = run_cli(["simulate", "--config", cfg], capsys)
        assert code == 0
        # at least two of 171 bidders hold the top value (short of 1e-15), so
        # every sample pays 2
        assert float(parse_csv(out)[0]["expected_revenue"]) == pytest.approx(2.0, abs=1e-12)


# one request of every kind: main writes the same table to --out as to stdout
REQUESTS = {
    "invert": ("invert", {"n": 3, "k": 2, "G": UNIF_LIT, "grid": 64}),
    "reserve-finite-n": ("reserve", {"n": 3, "k": 2, "G": UNIF_LIT, "family": "spa", "grid": 64}),
    "reserve-unknown-n": ("reserve", {"n": "unknown", "k": 2, "G": UNIF_LIT, "family": "spa", "grid": 64}),
    "worstcase": ("worstcase", {"n": 4, "k": 3, "G": UNIF_LIT, "grid": 64,
                                "mechanism": {"type": "multi_unit", "units": 2, "reserve": 0.5}}),
    "curve": ("curve", {"n": 4, "k": 2, "G": UNIF_LIT, "grid": 64}),
    "simulate": ("simulate", {"product": [UNIF_LIT, UNIF_LIT], "mechanism": {"type": "spa", "reserve": 0.5},
                              "samples": 1000, "seed": 3}),
}


@pytest.mark.parametrize("name", [*REQUESTS, *cli.REPRODUCTIONS])
def test_out_file_holds_the_stdout_bytes(name, tmp_path, capsys):
    if name in REQUESTS:
        command, cfg = REQUESTS[name]
        argv = [command, "--config", write_cfg(tmp_path, "c.json", cfg)]
    else:
        argv = ["reproduce", name]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and out.count("\n") >= 2
    path = tmp_path / "out.csv"
    assert run_cli([*argv, "--out", str(path)], capsys) == (0, "", "")
    assert path.read_bytes() == out.encode()


def test_failed_reproduction_exits_1_with_its_rows(tmp_path, capsys):
    # at q = 0.5 the construction is outside the counterexample's regime
    path = tmp_path / "out.csv"
    assert cli.main(["reproduce", "counterexample", "--q", "0.5", "--out", str(path)]) == 1
    status = {row["check"]: row["status"] for row in parse_csv(path.read_text())}
    assert status["strict_gap"] == "FAIL"
    assert status["iid_optimal_revenue"] == "PASS"
    code, out, _ = run_cli(["reproduce", "counterexample", "--q", "0.5"], capsys)
    assert code == 1 and out == path.read_text()


# an --out that cannot be opened: an existing directory, or a file under a missing one
UNWRITABLE_OUT = {"out_directory": "dir", "out_missing_directory": "missing/out.csv"}


@pytest.mark.parametrize("command, cfg, code, out_name", [
    *((*REFUSED[case], 2, "out.csv")
      for case in ("nan_rate", "simulate_units_not_below_bidders", "table_starts_above_zero")),
    ("worstcase", {"n": 3, "k": 2, "G": UNIF_LIT, "grid": 64, "mechanism": {"type": "myerson"}}, 3, "out.csv"),
    *(("reproduce", "sandwich", 2, out) for out in UNWRITABLE_OUT.values()),
    *((*REQUESTS["worstcase"], 2, out) for out in UNWRITABLE_OUT.values()),
    # --q is the counterexample's atom weight alone
    *(("reproduce", f"{name} --q 5", 2, "out.csv") for name in ("sandwich", "bernoulli-example", "uniform-example")),
], ids=["nan_rate", "simulate_units_not_below_bidders", "table_starts_above_zero", "myerson_unsupported",
        *(f"{name}_{case}" for name in ("sandwich", "worstcase") for case in UNWRITABLE_OUT),
        *(f"{name}_with_q" for name in ("sandwich", "bernoulli-example", "uniform-example"))])
def test_refused_request_writes_no_out_file(command, cfg, code, out_name, tmp_path, capsys):
    path = tmp_path / out_name
    if out_name == "dir":
        path.mkdir()
    argv = ["reproduce", *cfg.split()] if command == "reproduce" else [command, "--config", write_cfg(tmp_path, "c.json", cfg)]
    got, out, err = run_cli([*argv, "--out", str(path)], capsys)
    assert (got, out) == (code, "") and err.startswith("error: ") and "Traceback" not in err
    assert ("cannot write" in err) == (out_name in UNWRITABLE_OUT.values())
    assert not list(path.iterdir()) if out_name == "dir" else not path.exists()


def test_closed_stdout_exits_2_without_a_traceback(tmp_path):
    # ``osauction curve --config curve.json | head -1``: the reader takes the
    # header and closes the pipe while the ~200 kB table, past a default
    # 64 kB pipe buffer, is still being written
    cfg = write_cfg(tmp_path, "curve.json", {"n": 4, "k": 2, "G": {"family": "exponential", "rate": 1}})
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    argv = [sys.executable, "-m", "osauction.cli", "curve", "--config", cfg]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        assert proc.stdout.readline() == "quantile,revenue,ironed_revenue,is_reserve_quantile\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    # one error line: no traceback, and no "Exception ignored" from the flush at exit
    assert (code, err.count("\n")) == (2, 1) and err.startswith("error: cannot write stdout: "), err
