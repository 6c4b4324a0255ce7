"""Tests of the benchmark itself, on small decks.

    python3 -m pytest osbench/test_osbench.py -q
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import bench  # noqa: E402
import decks  # noqa: E402
from osauction import cli  # noqa: E402

CHEAP = {
    "design": ["unknown-uniform-g4096", "spa-n3-twopoint-g4096", "pp-n3-table-g256"],
    "evaluate": ["wc-spa-n2000-g4096", "wc-spa-n2-twopoint", "wc-myerson", "curve-twopoint", "reproduce-bernoulli"],
    "simulate": ["sim-spa-n2", "sim-pp-n3", "sim-myerson-lex-n4"],
}


def cheap_slots(workload):
    return [s for s in decks.SLOTS[workload] if s[0] in CHEAP[workload] or s[0] == "repeat"]


def run_cheap(workload, trace, seed=3):
    return bench.run(workload, seed, 0, trace, slots=cheap_slots(workload), setup_repeats=1)


def printed(result):
    buf = io.StringIO()
    bench.emit(result, buf)
    return buf.getvalue().splitlines()


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric_with_its_unit(workload):
    result = run_cheap(workload, 0)
    lines = printed(result)
    for name, unit in bench.END_TO_END_UNITS.items():
        assert any(re.fullmatch(rf"metric {re.escape(name)} \S+ {re.escape(unit)}( \(.*\))?", ln) for ln in lines), name
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == set(bench.RESULT_METRICS)
    assert all(last["metrics"][n]["unit"] == bench.END_TO_END_UNITS[n] for n in bench.RESULT_METRICS)
    assert last["correct"] and last["attempted"] == len(result["records"])
    # the only request allowed to fail on the seed code is the n=2000 worst case
    assert all(r["slot"] == "wc-spa-n2000-g4096" for r in result["records"] if r["failed"])
    assert any(r["slot"].endswith(":repeat") for r in result["records"])


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_traced_run_prints_every_layer_metric_and_repeats_its_counts(workload):
    first, second = run_cheap(workload, 1), run_cheap(workload, 1)
    lines = printed(first)
    for name in bench.layer_metric_names():
        assert any(ln.startswith(f"layer {name} ") for ln in lines), name
    assert any(ln.startswith("layer trace_overhead ") for ln in lines)
    last = json.loads(lines[-1])
    assert list(last["metrics"]) == list(bench.RESULT_LAYER_METRICS)
    counts = [n for n in bench.layer_metric_names() if not n.endswith("self_s")]
    assert {n: first["layer"][n] for n in counts} == {n: second["layer"][n] for n in counts}
    assert first["layer"]["cli.main.calls"] > 0


def _scaled(text, factor):
    lines = text.splitlines(keepends=True)
    out = lines[:1]
    for ln in lines[1:]:
        fields = []
        for f in ln.rstrip("\n").split(","):
            try:
                x = float(f)
            except ValueError:
                fields.append(f)
                continue
            fields.append(repr(x * factor) if x else f)
        out.append(",".join(fields) + "\n")
    return "".join(out)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_perturbed_answers_are_counted_failed(workload, monkeypatch):
    real = cli.main

    def perturbed(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = real(argv)
        sys.stdout.write(_scaled(buf.getvalue(), 1.1))
        return code

    monkeypatch.setattr(cli, "main", perturbed)
    result = run_cheap(workload, 0)
    answered = [r for r in result["records"] if r["command"] != "closed_form" and r["slot"] not in
                ("wc-myerson", "wc-spa-n2000-g4096")]
    assert answered and all(r["failed"] and r["wrong"] for r in answered)
    assert not result["correct"]
    assert result["failed"] >= len(answered)


def test_analytic_spa_tolerance_is_not_vacuous():
    G = decks.ExactCDF({"family": "uniform", "lo": 0.5, "hi": 2.0})
    n, r, grid = 30, 1.25, 4096
    ref = decks.spa_worst_case(G, n, r)
    tol = decks.spa_tol(G, grid)
    check = decks.check_spa_worstcase(G, n, r, grid)

    def outcome(value):
        return decks.Outcome(0, f"expected_revenue\n{value!r}\n", "", None, 0.0)

    assert check(outcome(ref + 0.5 * tol), {}) is None
    assert check(outcome(ref + 2.0 * tol), {}) is not None


def test_decks_depend_only_on_seed_and_pass():
    builder = decks.DeckBuilder()
    keys = [[r.key for r in builder.deck("evaluate", s, 0)] for s in (1, 1, 2)]
    assert keys[0] == keys[1] != keys[2]


def test_result_lines_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (n, bench.END_TO_END_UNITS[n]) for n in bench.RESULT_METRICS]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (n, bench._layer_unit(n)) for n in bench.RESULT_LAYER_METRICS]
