"""Regenerate reference.json: the output of every fixed reserve and worstcase
config the decks can draw, as the current program writes it.

    python3 osbench/record.py

Run it on the commit whose outputs are the reference, and only when the
decks gain a config; the check of a later change compares against these.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import decks  # noqa: E402
from osauction import cli  # noqa: E402


def main() -> int:
    reference = {}
    configs = decks.recorded_configs()
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for i, (command, cfg) in enumerate(configs):
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(cfg))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main([command, "--config", str(path)])
            if code != 0:
                raise SystemExit(f"{command} {cfg} exited {code}")
            header, rows = decks.parse_csv(out.getvalue())
            reference[decks.Request("", command, cfg).key] = {"header": header, "row": rows[0]}
            print(f"[{i + 1}/{len(configs)}] {command} {json.dumps(cfg)}", file=sys.stderr)
    decks.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
