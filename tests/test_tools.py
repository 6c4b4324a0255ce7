import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


abpairs = _load("abpairs")


class TestVerdict:
    BASE = [10.0, 10.2, 9.9, 10.4, 10.1, 9.8, 10.3, 10.0, 10.1, 10.2]  # quartiles 10.0 / 10.1 / 10.2

    def test_gain_needs_nine_of_ten_and_a_move_past_the_base_iqr(self):
        head = [x - 1.0 for x in self.BASE]  # lower is better: every pair won
        assert abpairs.verdict(self.BASE, head, "lower", 0.25) == (10, True, True, pytest.approx(-1.0 / 10.1))
        eight = head[:8] + self.BASE[8:]  # two ties count for neither side
        assert abpairs.verdict(self.BASE, eight, "lower", 0.25)[:2] == (8, False)
        small = [x - 0.15 for x in self.BASE]  # every pair won, but inside the base's IQR of 0.2
        assert abpairs.verdict(self.BASE, small, "lower", 0.25)[:2] == (10, False)
        assert abpairs.verdict(self.BASE, head, "higher", 0.25)[:2] == (0, False)

    def test_bound_on_the_relative_move_of_the_median(self):
        up = [x * 1.09 for x in self.BASE]
        wins, gain, within, worse = abpairs.verdict(self.BASE, up, "lower", 0.1)
        assert (wins, gain, within, worse) == (0, False, True, pytest.approx(0.09))
        assert abpairs.verdict(self.BASE, up, "higher", 0.1)[:3] == (10, True, True)
        assert abpairs.verdict(self.BASE, up, "lower", 0.05)[2] is False
        down = [x * 0.85 for x in self.BASE]
        assert abpairs.verdict(self.BASE, down, "higher", 0.1)[2:] == (False, pytest.approx(0.15))

    def test_zero_base_median(self):
        # the failed share: any failure where the base had none is outside bound 0
        assert abpairs.verdict([0.0] * 10, [0.0] * 10, "lower", 0.0) == (0, False, True, 0.0)
        assert abpairs.verdict([0.0] * 10, [0.1] * 10, "lower", 0.0)[2:] == (False, float("inf"))
