"""``surface``, ``potential`` and ``spectrum`` CSV tables, byte for byte.

The CLI writes table floats through ``csvtext.g17``, a vectorized ``%.17g``
kernel, and joins a block of rows as bytes.  The reference functions below
format one value at a time with ``format(v, ".17g")`` and evaluate
``surface`` one eta row at a time; they are kept here only as what the CLI
output must equal.
"""

import math
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pdm_dirac
from pdm_dirac import Box, DimensionlessParams, PhysicalParams, potential_sample
from pdm_dirac.cli import _FORMAT_ROWS, _distinct_sorted, main
from pdm_dirac.csvtext import _SLOT, csv_text, g17
from pdm_dirac.feasibility import _f_grid
from pdm_dirac.params import ETA_ZERO_SNAP
from pdm_dirac.spectrum import classify_levels


def _fmt(value):
    return format(float(value), ".17g")


def reference_surface(box, grid):
    scan_box = Box(*box)
    eta_nodes = np.unique(np.linspace(scan_box.eta_min, scan_box.eta_max, grid[0]))
    with np.errstate(over="ignore"):
        lam_nodes = np.unique(np.linspace(scan_box.lam_min, scan_box.lam_max, grid[1]))
    lam_text = [_fmt(lam) for lam in lam_nodes]
    boundary = lam_nodes == 0.0
    lines = ["eta,lambda,f"]
    for eta in eta_nodes.tolist():
        if abs(eta) <= ETA_ZERO_SNAP:
            lines.append(f"# eta node {_fmt(eta)} skipped: f undefined on the eta=0 line")
            continue
        values = _f_grid(np.array([eta]), lam_nodes)[0]
        values[boundary] = 0.0
        eta_text = _fmt(eta)
        lines.extend(f"{eta_text},{lam},{_fmt(v)}" for lam, v in zip(lam_text, values.tolist()))
    return "\n".join(lines) + "\n"


def reference_potential(params, half_width, count):
    s = potential_sample(params, np.linspace(-half_width, half_width, count))
    columns = (s.x, s.mass, s.im_v, s.v_eff)
    lines = ["x,mass,im_v,v_eff"]
    lines.extend(",".join(map(_fmt, row)) for row in zip(*(c.tolist() for c in columns)))
    return "\n".join(lines) + "\n"


def reference_levels(eta, lam, n_max):
    lines = ["n,delta1,e_squared,classification,energy_magnitude"]
    lines.extend(f"{e.n},{_fmt(e.delta1)},{_fmt(e.e_squared)},{e.classification.value},"
                 f"{_fmt(e.energy_magnitude)}"
                 for e in classify_levels(DimensionlessParams(eta, lam), n_max, M0=1.0))
    return "\n".join(lines) + "\n"


def assert_same_table(args, expected, capsys, tmp_path):
    """The table on stdout and in an --out file, streamed there, is ``expected``."""
    assert main(args + ["--out", "-"]) == 0
    actual = capsys.readouterr().out
    out = tmp_path / "table.csv"
    assert main(args + ["--out", str(out)]) == 0
    assert out.read_bytes() == actual.encode()
    assert_same_text(actual, expected)


def assert_same_text(actual, expected):
    if actual != expected:
        # name the first differing line: pytest's diff of two multi-megabyte
        # strings takes minutes
        got, want = actual.split("\n"), expected.split("\n")
        line = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), None)
        where = "" if line is None else f"; line {line}: {got[line]!r} != {want[line]!r}"
        pytest.fail(f"{len(got)} lines, expected {len(want)}{where}")


BIG = 1.7976931348623157e308
EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 2.225e-308, 2.2250738585072014e-308, BIG, -BIG,
               1e16, 1.2345678901234567e-5, -4.6213203435596426, 1e22, 0.1, 123456789012345680.0]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(), min_size=1, max_size=12))
@example(EDGE_VALUES)
@example([float("inf"), float("-inf"), float("nan")])
@example([np.float64(-4.6213203435596426)])  # a numpy scalar writes as the float it holds
def test_slot_template_row_is_the_per_value_format(values):
    # every table float goes through the kernel, whose fallback is _SLOT
    assert _SLOT == "%.17g"
    row = csv_text(*g17(np.array(values, dtype=np.float64))[:, None])  # one column each
    assert row == ",".join(format(float(v), ".17g") for v in values) + "\n"


DEFAULT_BOX = (-1.0, 1.0, 0.0, 10.0)
# id -> (box, grid); None keeps the CLI default
SURFACE_CASES = {
    "default box, odd grid": (None, None),
    "degenerate box": ((0.5, 0.5, 1.0, 1.0), (2, 2)),
    "lambda = 0 column": ((-0.5, 0.75, 0.0, 0.5), (6, 5)),
    # rows longer than _FORMAT_ROWS nodes are split into lambda chunks: 8 of
    # them here, the lambda = 0 column in the first chunk only
    "long rows in lambda chunks": (None, (5, 30000)),
    # five eta nodes, the middle one on eta = 0, between two long rows
    "skipped row between long rows": (None, (5, 20000)),
    # a last chunk of one node
    "one-node last chunk": ((0.25, 0.75, 0.0, 1.0), (2, 4097)),
}


@pytest.mark.parametrize("box,grid", SURFACE_CASES.values(), ids=SURFACE_CASES.keys())
def test_surface_equals_the_line_by_line_builder(box, grid, capsys, tmp_path):
    args = ["surface"]
    if box is not None:
        args.append("--box=" + ",".join(map(repr, box)))
    if grid is not None:
        args += ["--grid", f"{grid[0]},{grid[1]}"]
    expected = reference_surface(box or DEFAULT_BOX, grid or (101, 101))
    assert_same_table(args, expected, capsys, tmp_path)


@st.composite
def surface_axes(draw):
    # an axis as surface builds it: np.linspace over the finite bounds a box
    # admits (eta in [-1, 1], lambda in [0, BIG] and -0.0), up to a few ulps
    # wide or degenerate, so that nodes repeat
    low_edge, high_edge = draw(st.sampled_from([(-1.0, 1.0), (0.0, BIG)]))
    bound = st.one_of(st.floats(low_edge, high_edge), st.sampled_from([-0.0, 0.0, high_edge]))
    low, high = sorted([draw(bound), draw(bound)])
    if draw(st.booleans()):
        high = low
        for _ in range(draw(st.integers(0, 3))):
            high = math.nextafter(high, high_edge)
    return low, high, draw(st.integers(2, 40))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(surface_axes())
@example((-0.0, -0.0, 3))   # [0.0, 0.0, -0.0]
@example((0.0, -0.0, 4))
@example((-0.5, -0.0, 5))
@example((0.5, math.nextafter(0.5, 1.0), 7))
@example((0.0, BIG, 4))     # the last node overflows before linspace pins it
def test_distinct_sorted_is_np_unique(axis):
    with np.errstate(over="ignore"):
        nodes = np.linspace(*axis)
    assert _distinct_sorted(nodes).tobytes() == np.unique(nodes).tobytes()


# 4096 rows are exactly one block of _FORMAT_ROWS and 4097 one row more; 8192
# are exactly two, 10001 two full blocks and a partial one, and 100001 25 and a part
@pytest.mark.parametrize("count", [3, 4096, 4097, 8192, 10001, 100001])
def test_potential_equals_the_line_by_line_builder(count, capsys, tmp_path):
    assert _FORMAT_ROWS == 4096
    args = ["potential", "--eta=-0.7", "--alpha", "1.3", "--N", str(count)]
    expected = reference_potential(PhysicalParams(1.0, -0.7, 1.3), 10.0 / 1.3, count)
    assert_same_table(args, expected, capsys, tmp_path)


def test_potential_with_24_character_fields(capsys, tmp_path):
    # x in [-1e-100, 1e-100]: most negative x texts fill all 24 bytes of a
    # slot (-9.9977777777777784e-101); they lie in the first two blocks of
    # _FORMAT_ROWS rows, not in the last
    args = ["potential", "--eta", "0.5", "--alpha", "1e101", "--N", "9001"]
    expected = reference_potential(PhysicalParams(1.0, 0.5, 1e101), 10.0 / 1e101, 9001)
    fields = [field for line in expected.split("\n")[1:-1] for field in line.split(",")]
    assert sum(len(field) == 24 for field in fields) == 4028
    assert_same_table(args, expected, capsys, tmp_path)


# n_max + 1 rows: one, a part of a block of _FORMAT_ROWS, exactly one block,
# one row more, and two blocks and a part; a pole row (Undefined, nan) and Real rows
@pytest.mark.parametrize("eta,lam", [(0.5, 1.0), (1.0, 0.5 ** 0.5), (0.5, 0.01)])
@pytest.mark.parametrize("n_max", [0, 1000, 4095, 4096, 9000])
def test_spectrum_csv_equals_the_per_value_reference(eta, lam, n_max, capsys, tmp_path):
    args = ["spectrum", "--eta", repr(eta), "--lambda", repr(lam), "--n-max", str(n_max)]
    assert_same_table(args, reference_levels(eta, lam, n_max), capsys, tmp_path)


def test_surface_file_is_written_as_it_is_formatted(tmp_path):
    out = tmp_path / "s.csv"
    tracemalloc.start()
    try:
        assert main(["surface", "--grid", "401,401", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the table is 8.9 MB; one block of f values and its rows of text are
    # about 3 MB, where the whole table held as text would be twice its size
    assert peak < out.stat().st_size / 2
    # 401 eta nodes on [-1, 1]: the middle one is eta = 0, skipped after 200 rows
    assert_same_text(out.read_text(), reference_surface(DEFAULT_BOX, (401, 401)))


# Runs ``pdm-dirac`` with the arguments given and prints its exit status and
# its own peak RSS, which os.wait4 reads.  A process starts with the peak of
# the one that spawned it (exec keeps the high-water mark of the memory it
# replaces, which a vfork child shares with its parent), so this small
# interpreter spawns the CLI: the test process's peak would pass the bounds.
_PEAK_RSS_PROBE = """
import os, subprocess, sys
proc = subprocess.Popen([sys.executable, "-m", "pdm_dirac", *sys.argv[1:]])
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_maxrss)
"""


def run_fresh(argv, cwd):
    """Exit status and peak RSS in MB of ``pdm-dirac argv`` in a fresh
    interpreter, run under umask 022."""
    src = str(Path(pdm_dirac.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS_PROBE, *argv], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path), umask=0o022,
                          capture_output=True, text=True, timeout=120, check=True)
    status, peak_kib = proc.stdout.split()[-2:]
    return int(status), int(peak_kib) / 1024  # ru_maxrss is in KiB on Linux


def test_a_2001_by_2001_surface_is_streamed_to_a_file(tmp_path):
    # the whole table as text would be over 600 MB, and the whole f grid
    # (30.5 MiB) on top of a streamed run's 35 MB passes 60
    status, peak_mb = run_fresh(["surface", "--grid", "2001,2001", "--out", "big.csv"], tmp_path)
    assert status == 0
    assert peak_mb < 60
    out = tmp_path / "big.csv"
    assert stat.S_IMODE(out.stat().st_mode) == 0o644  # what open gives a new file
    out.unlink()  # 226 MB


def test_a_surface_row_longer_than_a_piece_is_evaluated_a_piece_at_a_time(tmp_path):
    # the grid ceiling's longest rows: 2 x 2,050,000 nodes.  Holding f for a
    # whole row (15.6 MiB) with its temporaries peaked at 174 MB, and the
    # whole lambda axis's text (46.9 MiB) at 96 MB; a piece is at most
    # _FORMAT_ROWS nodes with their lambda text, and the run peaks near 79 MB
    status, peak_mb = run_fresh(["surface", "--grid", "2,2050000", "--out", "long.csv"],
                                tmp_path)
    assert status == 0
    assert peak_mb < 90
    (tmp_path / "long.csv").unlink()


def test_a_million_row_potential_is_sampled_a_block_at_a_time(tmp_path):
    # sampling the whole x grid at once peaked at 107 MB
    status, peak_mb = run_fresh(["potential", "--eta", "0.5", "--alpha", "1", "--N", "1000000",
                                 "--out", "pot.csv"], tmp_path)
    assert status == 0
    assert peak_mb < 70
    out = tmp_path / "pot.csv"
    with open(out, "rb") as handle:
        assert sum(1 for _ in handle) == 1_000_001
    out.unlink()  # 80 MB
