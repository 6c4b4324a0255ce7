"""The osauction benchmark: one closed-loop client driving the program's real
entry points (``osauction.cli.main`` in-process, and the library's
``closed_form_revenue``) with seeded, generated configs.

An untraced run (``--trace 0``) issues whole decks of requests until
``--seconds`` have passed, checks every output and reports the end-to-end
metrics. A traced run (``--trace 1``) runs every request of the first deck twice,
once untraced and once with spans around every call into the program's
layers, so its counts repeat exactly for a given seed, and reports the
per-layer metrics and the tracing overhead. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
report every metric by name and unit, the provenance, and each failure.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from osauction import cli

import decks
from spans import FUNCTIONS, LAYERS, POINTED, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = tuple(decks.SLOTS)
SETUP_REPEATS = 9
P90_MIN_REQUESTS = 100

SETUP_CODE = (
    "import time, osauction; "
    "osauction.from_literal({'family': 'beta', 'a': 2, 'b': 3}, grid=256); "
    "print(time.monotonic())"
)

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_s_p50": "s", "op_s_p90": "s",
                    "failed_frac": "fraction", "mc_draws_per_s": "draws/s", "peak_rss_mb": "MB"}
# the end-to-end metrics every workload reports on the result line
RESULT_METRICS = ("setup_s", "ops_per_s", "op_s_p50", "peak_rss_mb")
# the per-layer metrics on the traced result line: every count, and the self
# times that are non-zero on all three workloads (the rest are printed above it)
RESULT_LAYER_METRICS = (
    *(f"{fn}.calls" for fn in FUNCTIONS), *(f"{fn}.points" for fn in POINTED),
    "cli.out_rows", "orderstat.fbar_knots", "orderstat.h_poly_points_per_inverted_point",
    "revenue.objective_evals_per_reserve",
    "cli.main.self_s", "dist.from_literal.self_s", "dist.revenue_curve.self_s", "dist.iron.self_s",
    "dist.Dist.cdf.self_s", "orderstat.order_stat_cdf.self_s", "orderstat.poisson_binomial_pmf.self_s",
    "revenue.closed_form_revenue.self_s",
    "dist.self_s", "orderstat.self_s", "revenue.self_s", "mech.self_s", "trace_overhead",
)


def _layer_unit(name: str) -> str:
    if name == "trace_overhead":
        return "ratio"
    if name.endswith("self_s"):
        return "s"
    if name.endswith("_per_inverted_point"):
        return "points/point"
    if name.endswith("_per_reserve"):
        return "evals/search"
    return "count"


def layer_metric_names() -> list[str]:
    names = [f"{fn}.{m}" for fn in FUNCTIONS for m in ("calls", "self_s")]
    names += [f"{fn}.points" for fn in POINTED] + [f"{layer}.self_s" for layer in LAYERS]
    names += ["cli.out_rows", "orderstat.fbar_knots", "orderstat.h_poly_points_per_inverted_point",
              "revenue.objective_evals_per_reserve"]
    return names


# -- one request ------------------------------------------------------------------


class Client:
    """Sends requests one at a time and checks each answer."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.ctx: dict = {}  # exact values that later Monte Carlo checks compare with
        self.seen: dict[str, str] = {}  # CSV of every (config, seed) pair already run
        self.cfg_dir = OUT / "configs"
        self.cfg_dir.mkdir(parents=True, exist_ok=True)
        self.records: list[dict] = []

    def _argv(self, req: decks.Request) -> list[str]:
        if req.config is None:
            return [req.command, *req.args]
        text = json.dumps(req.config, sort_keys=True)
        path = self.cfg_dir / (hashlib.sha256(text.encode()).hexdigest()[:20] + ".json")
        if not path.exists():
            path.write_text(text)
        return [req.command, "--config", str(path), *req.args]

    def _call(self, req: decks.Request) -> decks.Outcome:
        argv = None if req.call else self._argv(req)
        out, err = io.StringIO(), io.StringIO()
        code, exc, value = None, None, None
        span = None
        if self.tracer is not None:
            self.tracer.request_id = len(self.records)
            span = self.tracer.open(0)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if req.call is not None:
                    value = req.call()
                    code = 0
                else:
                    code = cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except Exception as e:  # a failed request is counted, and the client goes on
            exc = e
        finally:
            seconds = time.perf_counter() - t0
            if span is not None:
                self.tracer.close(span)
        if span is not None and req.call is None:
            self.tracer.size[span] = max(out.getvalue().count("\n") - 1, 0)  # CSV data rows
        error = "".join(traceback.format_exception(exc)) if exc is not None else None
        return decks.Outcome(code, out.getvalue(), err.getvalue(), error, seconds, value)

    def send(self, req: decks.Request) -> dict:
        o = self._call(req)
        wrong = False
        if o.error is not None or "Traceback" in o.err:
            reason = "traceback: " + (o.error or o.err).strip().splitlines()[-1]
        elif o.code != req.expect:
            reason = f"exit {o.code}, expected {req.expect}"
            wrong = o.code == 0  # an answer where a refusal was due
        else:
            try:
                reason = req.check(o, self.ctx) if req.check else None
            except (ValueError, KeyError, IndexError) as e:
                reason = f"unreadable output: {e!r}"
            if reason is None and req.call is None and req.expect == 0:
                earlier = self.seen.setdefault(req.key, o.out)
                if earlier != o.out:
                    reason = "CSV differs from an earlier run of the same config and seed"
            wrong = reason is not None
        rec = {"slot": req.slot, "command": req.command, "sizes": req.sizes, "seconds": o.seconds,
               "draws": req.draws, "failed": reason is not None, "wrong": wrong, "reason": reason}
        self.records.append(rec)
        return rec


# -- runs -----------------------------------------------------------------------------


def measure_setup() -> float:
    """Seconds from spawning a fresh interpreter until the package is imported
    and scipy.stats has served its first distribution literal."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1]) - t0


def run_passes(workload: str, seed: int, client: Client, builder: decks.DeckBuilder,
               seconds: float, slots=None, setup_repeats: int = SETUP_REPEATS) -> tuple[int, list[float]]:
    """Whole decks until ``seconds`` have passed (at least one), with
    ``setup_repeats`` set-up samples spread evenly over that time between
    requests, so a slow spell of the host moves few of them. The time spent
    in set-up samples does not count towards ``seconds``."""
    t0 = time.perf_counter()
    setup: list[float] = []
    paused = 0.0  # seconds spent taking set-up samples

    def sample():
        nonlocal paused
        t = time.perf_counter()
        setup.append(measure_setup())
        paused += time.perf_counter() - t

    p = 0
    while True:
        for req in builder.deck(workload, seed, p, slots):
            while len(setup) < setup_repeats and time.perf_counter() - t0 - paused >= len(setup) * seconds / setup_repeats:
                sample()
            client.send(req)
        p += 1
        if time.perf_counter() - t0 - paused >= seconds:
            break
    while len(setup) < setup_repeats:
        sample()
    return p, setup


def summarize(records: list[dict]) -> dict[str, float | None]:
    times = [r["seconds"] for r in records]
    mc = [r for r in records if r["draws"]]
    return {
        "ops_per_s": len(times) / sum(times),
        "op_s_p50": statistics.median(times),
        "op_s_p90": statistics.quantiles(times, n=10)[-1] if len(times) >= P90_MIN_REQUESTS else None,
        "failed_frac": sum(r["failed"] for r in records) / len(records),
        "mc_draws_per_s": sum(r["draws"] for r in mc) / sum(r["seconds"] for r in mc) if mc else None,
    }


def provenance(workload: str, seed: int, seconds: float, trace: int) -> dict:
    git = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        git = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "osauction").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "git_commit": git,
            "source_sha256": src.hexdigest(), "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}


def run(workload: str, seed: int, seconds: float, trace: int, slots=None, setup_repeats=SETUP_REPEATS) -> dict:
    """One benchmark run; returns everything the report prints."""
    builder = decks.DeckBuilder()
    result: dict = {"provenance": provenance(workload, seed, seconds, trace)}
    if trace:
        # each request runs untraced and traced back to back, in alternating
        # order, so warm caches favour neither side of the overhead ratio
        tracer = Tracer()
        untraced, traced = Client(), Client(tracer)
        traced.seen, traced.ctx = untraced.seen, untraced.ctx
        for i, req in enumerate(builder.deck(workload, seed, 0, slots)):
            for client in (untraced, traced) if i % 2 == 0 else (traced, untraced):
                if client is untraced:
                    client.send(req)
                    continue
                tracer.install()
                try:
                    client.send(req)
                finally:
                    tracer.uninstall()
        records = untraced.records + traced.records
        metrics = tracer.layer_metrics()
        metrics["trace_overhead"] = summarize(traced.records)["ops_per_s"] / summarize(untraced.records)["ops_per_s"]
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{workload}-seed{seed}.npz")
        result.update(passes=1, layer=metrics, spans=len(tracer.name))
    else:
        client = Client()
        passes, setup = run_passes(workload, seed, client, builder, seconds, slots, setup_repeats)
        records = client.records
        metrics = summarize(records)
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result.update(passes=passes, end_to_end=metrics, setup_samples=setup)
    result["records"] = records
    result["attempted"] = len(records)
    result["failed"] = sum(r["failed"] for r in records)
    result["correct"] = not any(r["wrong"] for r in records)
    return result


# -- report -----------------------------------------------------------------------------


def result_line(result: dict) -> dict:
    if "layer" in result:
        metrics = {n: {"value": result["layer"][n], "unit": _layer_unit(n)} for n in RESULT_LAYER_METRICS}
    else:
        metrics = {n: {"value": result["end_to_end"][n], "unit": END_TO_END_UNITS[n]} for n in RESULT_METRICS}
    return {"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def emit(result: dict, stream=None) -> None:
    stream = stream or sys.stdout
    prov = result["provenance"]

    def say(*parts):
        print(*parts, file=stream)

    say(f"# osbench workload={prov['workload']} seed={prov['seed']} trace={prov['trace']} "
        f"passes={result['passes']} requests={result['attempted']} failed={result['failed']}")
    say("provenance " + json.dumps(prov, sort_keys=True))
    slots: dict[str, list[dict]] = {}
    for r in result["records"]:
        slots.setdefault(r["slot"], []).append(r)
    for slot, recs in slots.items():
        say(f"slot {slot} requests={len(recs)} failed={sum(r['failed'] for r in recs)} "
            f"median_s={statistics.median(r['seconds'] for r in recs):.4g} sizes={json.dumps(recs[0]['sizes'], sort_keys=True)}")
    for r in result["records"]:
        if r["failed"]:
            say(f"failed {r['slot']} {json.dumps(r['sizes'], sort_keys=True)}: {r['reason']}")
    if "end_to_end" in result:
        for name, unit in END_TO_END_UNITS.items():
            value = result["end_to_end"][name]
            say(f"metric {name} {'n/a' if value is None else repr(value)} {unit}"
                + (_why_missing(name, result) if value is None else ""))
    else:
        for name in layer_metric_names():
            say(f"layer {name} {result['layer'][name]!r} {_layer_unit(name)}")
        say(f"layer trace_overhead {result['layer']['trace_overhead']!r} ratio "
            "(traced ops_per_s / untraced ops_per_s on the same deck)")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{prov['workload']}-seed{prov['seed']}-trace{prov['trace']}.json"
    path.write_text(json.dumps(result, indent=1, default=str))
    say(json.dumps(result_line(result)))


def _why_missing(name: str, result: dict) -> str:
    if name == "op_s_p90":
        return f" (needs {P90_MIN_REQUESTS} requests in a run, had {result['attempted']})"
    return " (no Monte Carlo requests in this workload)"


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    ok, summary = True, {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                                   "--seconds", str(seconds), "--trace", str(trace)],
                                  capture_output=True, text=True, timeout=900)
            lines = proc.stdout.rstrip("\n").splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not lines:
                ok = False
                continue
            last = json.loads(lines[-1])
            summary[f"{workload}.trace{trace}"] = last
            ok = ok and last["correct"]
    print(json.dumps(summary))
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    emit(run(args.workload, args.seed, args.seconds, args.trace))
    return 0
