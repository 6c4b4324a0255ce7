import csv
import json
import re
import shlex
from pathlib import Path

import pytest

from osauction import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    printed = capsys.readouterr().out
    found = re.search(r"SandwichResult\(lower=([^,]+), upper=([^,]+),", printed)
    assert found, printed
    lower, upper = map(float, found.groups())
    assert 0.0 < lower <= upper


def _cli_examples():
    """The sh blocks' ``osauction <cmd> --config X.json`` lines, each with the
    config its ``# X.json:`` comment gives; an indented comment line below
    one continues its JSON."""
    block = re.sub(r"\n#\s{2,}", " ", "".join(re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)))
    configs = {name: json.loads(text) for name, text in re.findall(r"^# (\w+\.json): (.*)$", block, flags=re.M)}
    commands = [shlex.split(line)[1:] for line in re.findall(r"^osauction \w+ --config .*$", block, flags=re.M)]
    return [(argv, configs[argv[2]]) for argv in commands]


EXAMPLES = _cli_examples()


def _example_id(i):
    """A command's first example goes by the command; a later one adds its config's stem."""
    argv = EXAMPLES[i][0]
    if any(other[0] == argv[0] for other, _ in EXAMPLES[:i]):
        return f"{argv[0]}_{Path(argv[2]).stem}"
    return argv[0]


def test_every_config_example_is_found():
    assert sorted(argv[0] for argv, _ in EXAMPLES) == [
        "curve", "invert", "reserve", "simulate", "simulate", "simulate", "worstcase"]


@pytest.mark.parametrize("argv, cfg", EXAMPLES, ids=[_example_id(i) for i in range(len(EXAMPLES))])
def test_cli_example_runs(argv, cfg, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path(argv[2]).write_text(json.dumps(cfg))
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    if "--out" in argv:
        out = Path(argv[argv.index("--out") + 1]).read_text()
    rows = list(csv.reader(out.splitlines()))
    assert len(rows) >= 2 and all(len(row) == len(rows[0]) for row in rows)
