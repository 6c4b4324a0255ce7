"""Property test of the config boundary: every command answers a random
config, each field valid or junk, with exit 0, 2 or 3 and no exception, and a
rerun gives the same answer."""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from osauction import cli

MISSING = object()  # the field is left out of the config

JUNK = st.one_of(
    st.just(MISSING),
    st.none(),
    st.booleans(),
    st.sampled_from([10**30, 1e30]),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    st.text(max_size=4),
    st.integers(-10**6, -1),
    st.floats(-1e6, -1e-3),
    st.lists(st.integers(0, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2),
)


def field(valid, junk=JUNK):
    """Four valid draws to one junk draw."""
    return st.integers(0, 4).flatmap(lambda i: junk if i == 4 else valid)


def floats(lo, hi):
    return st.floats(lo, hi).map(lambda x: round(x, 3))


def _corrupt(lit: dict):
    """``lit`` with one of its entries replaced by junk."""
    return st.tuples(st.sampled_from(sorted(lit)), JUNK).map(lambda kv: {**lit, kv[0]: kv[1]})


VALID_LITERALS = st.one_of(
    st.builds(lambda lo, w: {"family": "uniform", "lo": lo, "hi": lo + w}, floats(0, 2), floats(0.1, 2)),
    st.builds(lambda r: {"family": "exponential", "rate": r}, floats(0.5, 2)),
    st.builds(lambda a, b: {"family": "beta", "a": a, "b": b}, floats(1.5, 4), floats(1.5, 4)),
    st.builds(lambda m, s: {"family": "normal", "mean": m, "sd": s}, floats(0.5, 2), floats(0.2, 0.5)),
    st.builds(lambda v, p: {"family": "twopoint", "v1": v, "p1": p, "v2": v + 1}, floats(0, 1), floats(0.1, 0.9)),
    st.builds(lambda v: {"family": "atom", "v": v}, floats(0, 2)),
    st.builds(lambda x, m: {"family": "table", "knots": [[0, 0], [x, 0.6]], "atoms": [[2 * x, m]]},
              floats(0.2, 1), st.just(0.4)),
)
LITERALS = field(VALID_LITERALS, junk=st.one_of(JUNK, VALID_LITERALS.flatmap(_corrupt)))
N = field(st.integers(1, 6))
K = field(st.integers(1, 3))
# never missing: the default grid of 4096 would not fit the time budget
GRID = field(st.sampled_from([16, 64]), junk=JUNK.filter(lambda x: x is not MISSING))
RESERVE = field(floats(0, 1.5))
CLICK_RATES = field(st.lists(floats(0.1, 1), min_size=1, max_size=3).map(lambda a: sorted(a, reverse=True)))
MULTI_UNIT = st.fixed_dictionaries({"type": st.just("multi_unit"), "units": field(st.integers(1, 3))})
LADDERED = st.fixed_dictionaries({"type": st.just("laddered"), "click_rates": CLICK_RATES})
FAMILY = field(st.one_of(st.sampled_from(["spa", "posted_price"]), MULTI_UNIT, LADDERED))
MECHANISM = field(st.one_of(
    st.fixed_dictionaries({"type": st.just("posted_price"), "price": RESERVE}),
    st.fixed_dictionaries({"type": st.just("spa"), "reserve": RESERVE}),
    MULTI_UNIT.map(lambda m: {**m, "reserve": 0.2}),
    LADDERED.map(lambda m: {**m, "reserve": 0.2}),
    st.fixed_dictionaries({"type": st.just("myerson"), "base": LITERALS,
                           "tiebreak": field(st.sampled_from(["lexicographic", "uniform"]))}),
))
SPEC = {"n": N, "k": K, "G": LITERALS, "grid": GRID}
CASES = st.one_of(
    st.tuples(st.just("invert"), st.fixed_dictionaries(SPEC)),
    st.tuples(st.just("curve"), st.fixed_dictionaries(SPEC)),
    st.tuples(st.just("worstcase"), st.fixed_dictionaries({**SPEC, "mechanism": MECHANISM})),
    st.tuples(st.just("reserve"), st.fixed_dictionaries(
        {**SPEC, "n": field(st.integers(0, 6).map(lambda n: n or "unknown")), "family": FAMILY})),
    st.tuples(st.just("simulate"), st.fixed_dictionaries({
        "product": field(st.lists(LITERALS, min_size=1, max_size=4)), "mechanism": MECHANISM,
        "samples": field(st.integers(1, 200)), "seed": field(st.integers(0, 1000)), "grid": GRID,
    })),
)


def _drop_missing(x):
    if isinstance(x, dict):
        return {k: _drop_missing(v) for k, v in x.items() if v is not MISSING}
    if isinstance(x, list):
        return [_drop_missing(v) for v in x if v is not MISSING]
    return x


def _run(command: str, path: str):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, "--config", path])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=CASES)
def test_every_config_is_answered_or_refused(case, tmp_path_factory):
    command, cfg = case
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(_drop_missing(cfg)))
    code, out, err = _run(command, str(path))
    assert code in (0, 2, 3)
    if code:
        assert out == ""
        assert "error: " in err
    # compare stdout only: a warning is printed once per process
    assert _run(command, str(path))[:2] == (code, out)
