"""Alternating A/B pairs of the osauction benchmark: a base revision against
the working tree, on one workload.

    python3 tools/abpairs.py --workload simulate --pairs 4 --seconds 30 --seed 21
    python3 tools/abpairs.py --workload evaluate --base HEAD~1 --pairs 10

The committed files of ``--base`` (default HEAD) are extracted with
``git archive`` into a temporary directory (under ``--workdir`` if given),
so the base runs exactly what a fresh checkout of it holds and nothing is
registered in the repository. Pair i runs ``osbench/run.py`` untraced once
on each side with seed ``--seed + i`` and the same run length, the base
first in even pairs and the working tree first in odd ones. Each pair's
end-to-end metrics are printed as they arrive, then, per metric, the
median and quartiles of each side, the working tree's median over the
base's, the pairs the working tree won (by the direction
``BENCHMARK.json`` gives; ties count for neither side) and a verdict:

* ``gain`` when the working tree won at least nine tenths of the pairs and
  its median beats the base's by more than the base's interquartile range;
* ``within`` when its median is worse than the base's by no more than the
  metric's ``bound`` in ``BENCHMARK.json`` (as a fraction of the base's
  median; 0 for the failed share and any metric without one), else
  ``OUTSIDE``, with the relative move of the median that decides it.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def extract(rev: str, dest: Path) -> None:
    """The committed files of ``rev`` in ``dest``."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """One untraced benchmark run in ``checkout``: its end-to-end metrics,
    after checking that it reported every output correct."""
    cmd = [sys.executable, "osbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"error: {' '.join(cmd)} in {checkout} exited {done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"error: incorrect outputs in {checkout} (seed {seed}):\n{done.stdout[-2000:]}")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    metrics["failed"] = result["failed"] / max(result["attempted"], 1)
    return metrics


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def verdict(base: list[float], head: list[float], better: str, bound: float) -> tuple[int, bool, bool, float]:
    """One metric's runs, pair by pair: (pairs the working tree won, gain,
    within bound, how much worse the working tree's median is than the
    base's, relative to the base's; negative when it is better)."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (y - x) > 0 for x, y in zip(base, head))
    (b1, b2, b3), h2 = quartiles(base), quartiles(head)[1]
    move = sign * (b2 - h2)  # positive when the working tree is worse
    gain = wins >= 0.9 * len(base) and -move > b3 - b1
    worse = move / abs(b2) if b2 else math.copysign(math.inf, move) if move else 0.0
    return wins, gain, worse <= bound, worse


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--base", default="HEAD", help="git revision to compare against (default HEAD)")
    p.add_argument("--pairs", type=int, default=4)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--seed", type=int, default=21, help="seed of the first pair; pair i uses seed + i")
    p.add_argument("--workdir", default=None, help="parent directory of the base checkout (default: system temp)")
    args = p.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    better, bound = {m["name"]: m["better"] for m in metrics}, {m["name"]: m["bound"] for m in metrics}
    better["failed"] = "lower"

    runs: dict[str, list[dict[str, float]]] = {"base": [], "head": []}
    with tempfile.TemporaryDirectory(prefix="abpairs-", dir=args.workdir) as tmp:
        base = Path(tmp) / "base"
        extract(args.base, base)
        sides = {"base": base, "head": ROOT}
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                runs[side].append(run(sides[side], args.workload, seed, args.seconds))
            row = "  ".join(f"{name} {runs['base'][-1][name]:.6g} -> {runs['head'][-1][name]:.6g}"
                            for name in runs["base"][-1])
            print(f"pair {i} seed {seed} {order[0]} first: {row}", flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs of {args.seconds:g} s, base {args.base} against the working tree")
    print(f"{'metric':<14}{'base q1/med/q3':>32}{'head q1/med/q3':>32}{'head/base':>11}{'wins':>7}  verdict")
    for name in runs["base"][0]:
        b = [r[name] for r in runs["base"]]
        h = [r[name] for r in runs["head"]]
        bq, hq = quartiles(b), quartiles(h)
        ratio = hq[1] / bq[1] if bq[1] else float("nan")
        limit = bound.get(name, 0.0)
        wins, gain, within, worse = verdict(b, h, better.get(name, "higher"), limit)
        say = f"{'gain' if gain else 'no gain'}, {'within' if within else 'OUTSIDE'} bound {limit:.0%}"
        print(f"{name:<14}{' / '.join(f'{v:.4g}' for v in bq):>32}{' / '.join(f'{v:.4g}' for v in hq):>32}"
              f"{ratio:>11.3f}{wins:>4}/{len(b)}  {say} (median {abs(worse):.1%} {'worse' if worse >= 0 else 'better'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
