import re
from pathlib import Path

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
