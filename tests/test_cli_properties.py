"""Property test of the exit-status contract over finite inputs.

Every finite input ends in exit status 0, 2, 3 or 4 with no exception
escaping ``main``; an exit-2 run writes no file, and an exit-0 ``potential``
or ``surface`` table holds only finite numbers.  The same holds for any JSON
value in a ``--config`` document.  Grid sizes and level counts stay small so
that the whole module runs in a few seconds.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from pdm_dirac.cli import main

finite = st.floats(allow_nan=False, allow_infinity=False)


def mixed(plausible):
    """Values from the model's range three times in four, else any finite double."""
    return st.integers(0, 3).flatmap(lambda pick: plausible if pick else finite)


eta = mixed(st.floats(-1.0, 1.0))
positive = mixed(st.floats(1e-3, 20.0))
optional = st.none() | positive
# derandomized: every run tries the same inputs, so a failure reproduces
EXAMPLES = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def _flag(name, value):
    # "--x=value" keeps argparse from reading "-1e-05" as an option
    return [] if value is None else [f"--{name}={value!r}"]


def _params(eta, steep, use_alpha, m0):
    # only {M0, eta, alpha} has a scale: --lambda beside an M0 other than 1 is refused
    if not use_alpha:
        return _flag("eta", eta) + _flag("lambda", steep)
    return _flag("eta", eta) + _flag("alpha", steep) + _flag("M0", m0)


def _run(args):
    """Run main in a fresh directory; return (status, written files)."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.txt"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            status = main(args + ["--out", str(out)])
        files = {p.name: p.read_text() for p in Path(tmp).iterdir()}
    assert status in {0, 2, 3, 4}
    if status == 2:
        assert files == {}
    return status, files


def _assert_finite_table(text):
    rows = [line for line in text.splitlines()[1:] if not line.startswith("#")]
    assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))


boxes = st.tuples(eta, eta, mixed(st.floats(0.0, 20.0)), positive).map(
    lambda b: (*sorted(b[:2]), *sorted(b[2:]))
)
grids = st.tuples(st.integers(2, 12), st.integers(2, 12))


@EXAMPLES
@given(eta=eta, steep=positive, use_alpha=st.booleans(), m0=optional, half_width=optional,
       num_points=st.none() | st.integers(3, 400), box=st.none() | boxes, grid=grids,
       n_max=st.integers(0, 8))
def test_verdict_exit_status(eta, steep, use_alpha, m0, half_width, num_points, box, grid,
                             n_max):
    args = ["verdict", *_params(eta, steep, use_alpha, m0), *_flag("L", half_width),
            *_flag("N", num_points), "--grid", f"{grid[0]},{grid[1]}", "--n-max", str(n_max)]
    if box is not None:
        args.append("--box=" + ",".join(map(repr, box)))
    _run(args)


@EXAMPLES
@given(eta=eta, steep=positive, use_alpha=st.booleans(), m0=optional, n_max=st.integers(0, 20))
def test_spectrum_exit_status(eta, steep, use_alpha, m0, n_max):
    _run(["spectrum", *_params(eta, steep, use_alpha, m0), "--n-max", str(n_max)])


@EXAMPLES
@given(eta=eta, steep=positive, use_alpha=st.booleans(), m0=optional, half_width=optional,
       count=st.integers(2, 50))
def test_potential_exit_status(eta, steep, use_alpha, m0, half_width, count):
    args = ["potential", *_params(eta, steep, use_alpha, m0), *_flag("L", half_width),
            "--N", str(count)]
    status, files = _run(args)
    if status == 0:
        _assert_finite_table(files["out.txt"])


@EXAMPLES
@given(box=boxes, grid=grids)
def test_surface_exit_status(box, grid):
    status, files = _run(["surface", "--box=" + ",".join(map(repr, box)),
                          "--grid", f"{grid[0]},{grid[1]}"])
    if status == 0:
        _assert_finite_table(files["out.txt"])


# Run keys each subcommand takes; a config document may also hold parameters
# (all but surface), and half of the drawn documents hold one key the
# subcommand does not take.
RUN_KEYS = {
    "surface": ["out", "format", "box", "grid"],
    "spectrum": ["out", "format", "n_max"],
    "verdict": ["out", "format", "n_max", "L", "N", "box", "grid", "control_well"],
    "potential": ["out", "format", "L", "N"],
}
PARAM_SETS = [["eta", "lambda"], ["M0", "eta", "alpha"]]
ALL_KEYS = {key for keys in [*RUN_KEYS.values(), *PARAM_SETS] for key in keys} | {"mystery"}
# small sizes stay cheap to run; the huge ones are rejected by the ceilings
json_scalars = (st.none() | st.booleans() | st.integers(-3, 40)
                | st.sampled_from([10**7, 2**64, 10**400]) | st.floats() | st.text(max_size=4))
json_values = json_scalars | st.lists(json_scalars, max_size=4)
# values that pass the checks, so that runs also reach the subcommands
valid = {
    "eta": eta, "lambda": positive, "alpha": positive, "M0": positive,
    "n_max": st.integers(0, 8), "L": positive, "N": st.integers(2, 400),
    "box": boxes.map(list), "grid": grids.map(list), "control_well": st.booleans(),
    "format": st.sampled_from(["csv", "json"]),
    "out": st.just("ignored.txt"), "mystery": st.none(),
}


@st.composite
def config_docs(draw):
    sub = draw(st.sampled_from(sorted(RUN_KEYS)))
    params = [] if sub == "surface" else draw(st.sampled_from(PARAM_SETS))
    keys = params + draw(st.lists(st.sampled_from(RUN_KEYS[sub]), unique=True))
    if draw(st.booleans()):
        keys.append(draw(st.sampled_from(sorted(ALL_KEYS - set(params) - set(RUN_KEYS[sub])))))
    # seven values in eight pass their key's check, the rest are any JSON value
    return sub, {key: draw(st.integers(0, 7).flatmap(
        lambda pick, key=key: json_values if pick == 7 else valid[key])) for key in keys}


@EXAMPLES
@given(doc=config_docs())
def test_config_exit_status(doc):
    sub, values = doc
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "cfg.json"
        cfg_path.write_text(json.dumps(values))
        _run([sub, "--config", str(cfg_path)])
