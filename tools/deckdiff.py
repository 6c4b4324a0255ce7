"""Every request of the benchmark decks, run on a base revision and on the
working tree, compared byte for byte.

    python3 tools/deckdiff.py
    python3 tools/deckdiff.py --base HEAD~1 --workload evaluate --seeds 1 2 3 --passes 2

The committed files of ``--base`` (default HEAD) are extracted with
``git archive`` into a temporary directory (under ``--workdir`` if given),
as ``abpairs.py`` does. Each side runs in its own process, with its own
``src`` and ``osbench`` first on the import path, and sends every request of
``osbench.decks.DeckBuilder().deck(workload, seed, pass)`` (every workload
unless ``--workload`` names some; seeds 1 and 2, passes 0 to 3 by default)
through ``osauction.cli.main`` in-process, or the library call of a
``closed_form`` request, whose value is written as its ``repr``. A side's
config files go to its own temporary directory, under the same relative
names on both sides, so a message that names a config reads the same.

Prints each request whose exit code, stdout or stderr differs (with the
first line that differs), then the SHA-256 of each side over every request's
exit code, stdout and stderr in deck order, per workload and in all. Exits 1
when any request differs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from abpairs import ROOT, extract

WORKLOADS = ("design", "evaluate", "simulate")


def send(req, cfg_dir: Path) -> tuple[int | str, str, str]:
    """One deck request, in this process: (exit code, stdout, stderr). A
    request that raises gets the code ``raised`` and its exception's last
    line on stderr."""
    import traceback

    from osauction import cli

    argv = [req.command, *req.args]
    if req.config is not None:
        text = json.dumps(req.config, sort_keys=True)
        path = cfg_dir / (hashlib.sha256(text.encode()).hexdigest()[:20] + ".json")
        path.write_text(text)
        argv[1:1] = ["--config", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if req.call is not None:
                print(repr(req.call()))
                code = 0
            else:
                code = cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except Exception as e:  # a failing request is an output like any other
            code = "raised"
            err.write("".join(traceback.format_exception_only(e)))
    return code, out.getvalue(), err.getvalue()


def side(plan: dict, dest: str) -> None:
    """Run every planned request in the current directory, with the side's
    ``osauction`` and ``decks`` importable, and write the outcomes to ``dest``."""
    import decks

    builder, cfg_dir = decks.DeckBuilder(), Path("configs")
    cfg_dir.mkdir()
    done = []
    for workload in plan["workloads"]:
        for seed in plan["seeds"]:
            for pass_no in range(plan["passes"]):
                for i, req in enumerate(builder.deck(workload, seed, pass_no)):
                    name = f"{workload} seed {seed} pass {pass_no} #{i} {req.slot} ({req.command})"
                    done.append([workload, name, *send(req, cfg_dir)])
    Path(dest).write_text(json.dumps(done))


def launch(checkout: Path, plan: dict, scratch: Path) -> tuple[subprocess.Popen, Path]:
    """Start one side in its own directory under ``scratch``."""
    scratch.mkdir()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(checkout / "src"), str(checkout / "osbench")]))
    dest = scratch / "outcomes.json"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--side", json.dumps(plan), str(dest)]
    return subprocess.Popen(cmd, cwd=scratch, env=env), dest


def first_difference(a: str, b: str) -> str:
    for i, (x, y) in enumerate(zip(a.splitlines(), b.splitlines())):
        if x != y:
            return f"line {i + 1}: {x[:100]!r} -> {y[:100]!r}"
    return f"{len(a.splitlines())} lines -> {len(b.splitlines())} lines"


def digests(outcomes: list) -> dict[str, str]:
    """SHA-256 over exit code, stdout and stderr of every request, per
    workload and over all of them, in deck order."""
    hashes = {"all": hashlib.sha256()}
    for workload, _, code, out, err in outcomes:
        for h in (hashes["all"], hashes.setdefault(workload, hashlib.sha256())):
            h.update(json.dumps([code, out, err]).encode())
    return {name: h.hexdigest() for name, h in hashes.items()}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", default="HEAD", help="git revision to compare against (default HEAD)")
    p.add_argument("--workload", action="append", choices=WORKLOADS, help="repeatable; default every workload")
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    p.add_argument("--passes", type=int, default=4, help="passes 0 to PASSES-1 of every seed")
    p.add_argument("--workdir", default=None, help="parent directory of the base checkout (default: system temp)")
    p.add_argument("--side", nargs=2, help=argparse.SUPPRESS)  # one side's run, in its own process
    args = p.parse_args(argv)
    if args.side:
        side(json.loads(args.side[0]), args.side[1])
        return 0
    plan = {"workloads": args.workload or list(WORKLOADS), "seeds": args.seeds, "passes": args.passes}

    with tempfile.TemporaryDirectory(prefix="deckdiff-", dir=args.workdir) as tmp:
        base = Path(tmp) / "base"
        extract(args.base, base)
        runs = {name: launch(checkout, plan, Path(tmp) / f"run-{name}") for name, checkout in
                (("base", base), ("head", ROOT))}
        for name, (proc, _) in runs.items():
            if proc.wait() != 0:
                sys.exit(f"error: the {name} side exited {proc.returncode}")
        got = {name: json.loads(dest.read_text()) for name, (_, dest) in runs.items()}

    if [o[1] for o in got["base"]] != [o[1] for o in got["head"]]:
        sys.exit("error: the two sides built different decks")
    differ = 0
    for b, h in zip(got["base"], got["head"]):
        parts = [f"exit {b[2]} -> {h[2]}"] if b[2] != h[2] else []
        parts += [f"{stream} {first_difference(x, y)}" for stream, x, y in
                  (("stdout", b[3], h[3]), ("stderr", b[4], h[4])) if x != y]
        if parts:
            differ += 1
            print(f"{b[1]}: " + "; ".join(parts))
    print(f"\n{len(got['head'])} requests, {differ} differ (base {args.base} against the working tree)")
    for name, outcomes in got.items():
        for workload, digest in digests(outcomes).items():
            print(f"{name:<5} {workload:<9} sha256 {digest}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
