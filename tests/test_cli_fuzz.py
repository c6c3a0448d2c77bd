"""Hypothesis fuzz of ``cli.main()`` at the input boundary.

Whatever the lasso JSON, generator params or flag values, the command must
exit with one of its documented codes (0, 1, 2, 3) and never print a
traceback.  The explicit examples are the inputs the CI job checks by hand.
Sizes are kept small (n <= 12, short horizons, a few fuzz trials, no worker
pool) so that each example runs in milliseconds; a value out of range is
drawn from just past each bound.
"""

import contextlib
import io
import json
from unittest import mock

from hypothesis import HealthCheck, example, given, settings, strategies as st

from rootcons.cli import main

FUZZ_SETTINGS = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])

json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12), st.floats(allow_nan=False), st.text(max_size=4)
)
json_values = st.recursive(json_scalars, lambda inner: st.lists(inner, max_size=3), max_leaves=8)
small_or_bad_ints = st.one_of(st.integers(-3, 12), st.sampled_from([1025, 10**12]))
edges = st.lists(
    st.one_of(st.tuples(small_or_bad_ints, small_or_bad_ints).map(list), json_values), max_size=6
)
lasso_dicts = st.fixed_dictionaries(
    {"n": st.one_of(small_or_bad_ints, json_scalars)},
    optional={
        "prefix": st.one_of(st.lists(edges, max_size=3), json_values),
        "cycle": st.one_of(st.lists(edges, max_size=3), json_values),
    },
)


def edge_lists(n):
    return st.lists(st.tuples(st.integers(1, n), st.integers(1, n)).map(list), max_size=8)


well_formed_lassos = st.integers(2, 6).flatmap(
    lambda n: st.fixed_dictionaries(
        {
            "n": st.just(n),
            "prefix": st.lists(edge_lists(n), max_size=4),
            "cycle": st.lists(edge_lists(n), min_size=1, max_size=3),
        }
    )
)
lasso_texts = st.one_of(
    well_formed_lassos.map(json.dumps),
    st.one_of(lasso_dicts.map(json.dumps), json_values.map(json.dumps), st.text(max_size=20)),
)
modes = st.one_of(
    st.sampled_from(["full", "bounded:5", "bounded:7", "bounded:0", "bounded:-1", "bounded:", "bounded:x", "bounded:3", "bounded:99", "partial"]),
    st.text(max_size=8),
)
horizons = st.one_of(st.none(), st.integers(-3, 40))


def run_main(argv, stdin=""):
    """(exit code, stdout, stderr) of ``main(argv)`` with ``stdin`` as standard input."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(argv, stdin=""):
    code, out, err = run_main(argv, stdin)
    assert code in (0, 1, 2, 3), (argv, stdin, code)
    assert "Traceback" not in out and "Traceback" not in err, (argv, stdin, err)


@FUZZ_SETTINGS
@given(text=lasso_texts, d=st.integers(-1, 5), kind=st.sampled_from(["estable", "altestable", "vsrc", "mad"]),
       horizon=horizons)
@example(text='{"n": 3, "prefix": null, "cycle": [[]]}', d=1, kind="estable", horizon=None)
@example(text='{"n": 3, "cycle": [[[1, 2.5]]]}', d=1, kind="estable", horizon=None)
@example(text='{"n": true, "cycle": [[]]}', d=1, kind="estable", horizon=None)
@example(text='{"n": 3, "cycle": [[[true, 2]]]}', d=1, kind="estable", horizon=None)
@example(text='{"n": 3, "cycle": [[[1, 2, 3]]]}', d=1, kind="estable", horizon=None)
@example(text='{"n": 3, "cycle": [[[0, 2]]]}', d=1, kind="estable", horizon=None)
def test_check_exits_cleanly(text, d, kind, horizon):
    argv = ["check", "--lasso", "-", "--adversary", kind, "--d", str(d)]
    if horizon is not None:
        argv += ["--horizon", str(horizon)]
    assert_clean_exit(argv, text)


input_texts = st.one_of(
    st.text(max_size=6), st.lists(st.integers(-5, 5), max_size=8).map(lambda v: ",".join(map(str, v)))
)


@st.composite
def lassos_with_inputs(draw):
    """(lasso JSON, --inputs): half the time a well-formed lasso with one input per process."""
    if draw(st.booleans()):
        data = draw(well_formed_lassos)
        return json.dumps(data), ",".join(str(draw(st.integers(0, 9))) for _ in range(data["n"]))
    return draw(lasso_texts), draw(input_texts)


@FUZZ_SETTINGS
@given(case=lassos_with_inputs(), d=st.integers(-1, 5), mode=modes, horizon=horizons)
@example(case=('{"n": 3, "cycle": [[[1, 2], [2, 3]]]}', "1,2,3"), d=1, mode="bounded:0", horizon=None)
@example(case=('{"n": 3, "cycle": [[[1, 2], [2, 3]]]}', "1,2,3"), d=2, mode="bounded:4", horizon=0)
def test_run_exits_cleanly(case, d, mode, horizon):
    text, inputs = case
    argv = ["run", "--lasso", "-", "--inputs", inputs, "--d", str(d), "--mode", mode]
    if horizon is not None:
        argv += ["--horizon", str(horizon)]
    assert_clean_exit(argv, text)


generator_fields = st.sampled_from(["n", "D", "seed", "r_gst_target", "r_sr_target", "x", "y", "bogus"])
well_formed_params = st.fixed_dictionaries(
    {"n": st.integers(2, 8), "D": st.integers(-1, 4)},
    optional={
        "seed": st.integers(0, 2**32),
        "r_gst_target": st.integers(-1, 10),
        "r_sr_target": st.integers(-1, 12),
        "x": st.integers(-1, 4),
        "y": st.integers(-1, 4),
    },
)
params_texts = st.one_of(
    well_formed_params.map(json.dumps),
    st.one_of(
        st.dictionaries(generator_fields, st.one_of(st.integers(-3, 12), json_scalars), max_size=7).map(json.dumps),
        json_values.map(json.dumps),
        st.text(max_size=12),
    ),
)


@FUZZ_SETTINGS
@given(text=params_texts, adversary=st.sampled_from(["estable", "altestable", "mad"]))
@example(text='{"n": "x", "D": 2}', adversary="estable")
@example(text='"hello"', adversary="estable")
@example(text='{"n": 5, "D": 2, "x": -1}', adversary="mad")
def test_generate_params_exit_cleanly(text, adversary):
    assert_clean_exit(["generate", "--adversary", adversary, "--params", "-"], text)


@FUZZ_SETTINGS
@given(
    n_range=st.one_of(
        st.tuples(st.integers(-2, 18), st.integers(-2, 18)).map(lambda t: f"{t[0]}:{t[1]}"),
        st.sampled_from(["2:4", "3:6"]),
        st.text(max_size=5),
    ),
    d_cap=st.integers(-2, 4),
    mode=modes,
    jobs=st.sampled_from([1, 0, -1, 10**6]),  # never a valid count above 1: no worker pool starts
    trials=st.integers(-1, 2),
)
@example(n_range="2:8", d_cap=3, mode="bounded:3", jobs=1, trials=2)
def test_fuzz_exits_cleanly(n_range, d_cap, mode, jobs, trials):
    assert_clean_exit(
        ["fuzz", "--trials", str(trials), "--n-range", n_range, "--d-cap", str(d_cap), "--mode", mode, "--jobs", str(jobs)]
    )
