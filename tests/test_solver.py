"""Finite-difference oracle: operator assembly, Sturm slicing, localization."""

import dataclasses
import functools
import json
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from pdm_dirac import (
    Discretization,
    DomainTooSmall,
    EvaluationError,
    GridTooCoarse,
    ParameterError,
    PhysicalParams,
    TridiagonalOperator,
    bound_state_report,
    build_hamiltonian,
    continuum_edge,
    effective_potential,
    eigenvalues_below,
    eigenvector,
    localization_metric,
    poschl_teller_well,
    sech_squared,
    solver,
    sturm_count,
)
from pdm_dirac.cli import main

P_HALF = PhysicalParams(1.0, 0.5, 1.0)


def default_box(params):
    # the verdict's default box: L = 25/alpha, N = 8000
    return Discretization(25.0 / params.alpha, 8000)


def model_edge(params):
    return continuum_edge(functools.partial(effective_potential, params))


def toy_operator():
    # deliberately under-resolved 5x5 instance for dense-reference checks
    return build_hamiltonian(P_HALF, Discretization(2.5, 5))


def test_discretization_geometry():
    disc = Discretization(2.5, 5)
    assert disc.spacing == pytest.approx(2 * 2.5 / 6)
    x = disc.grid()
    assert x.shape == (5,)
    assert x[0] == pytest.approx(-2.5 + disc.spacing)
    assert np.allclose(x, -x[::-1])


def test_discretization_rejects_tiny_n():
    with pytest.raises(Exception):
        Discretization(2.5, 2)


def test_for_params_defaults(tmp_path):
    # the verdict's default box is L = 25/alpha and N = 8000
    out = tmp_path / "verdict.json"
    argv = ["verdict", "--M0", "1", "--eta", "0.5", "--alpha", "2", "--grid", "2,2"]
    assert main([*argv, "--out", str(out)]) == 0
    grid = json.loads(out.read_text())["comparison"]["numeric"]["grid"]
    assert (grid["half_width"], grid["num_points"]) == (12.5, 8000)


def test_build_hamiltonian_structure():
    op = toy_operator()
    h = Discretization(2.5, 5).spacing
    assert op.off == pytest.approx(-1.0 / h**2)
    assert np.allclose(op.diag, 2.0 / h**2 + op.v_eff)
    # x = 0 is not a node of this even-N-like toy; check V_eff directly
    mid = np.argmin(np.abs(op.x))
    assert op.diag[mid] == pytest.approx(2.0 / h**2 + op.v_eff[mid])
    dense = op.dense()
    assert np.allclose(dense, dense.T)


def test_build_hamiltonian_constant_potential_diagonal():
    disc = Discretization(20.0, 50)
    op = build_hamiltonian(PhysicalParams(1.0, 0.0, 1.0), disc)
    h = disc.spacing
    assert np.allclose(op.diag, 2.0 / h**2 + 1.0)


def test_resolution_guards():
    with pytest.raises(GridTooCoarse):
        bound_state_report(PhysicalParams(1.0, 0.5, 1.0), Discretization(25.0, 100))
    with pytest.raises(DomainTooSmall):
        bound_state_report(PhysicalParams(1.0, 0.5, 1.0), Discretization(2.5, 2000))
    # a short domain is flagged in the report alone, without a Python warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = bound_state_report(PhysicalParams(1.0, 0.5, 1.0), Discretization(8.0, 2000))
    assert report.domain_warning
    assert report.to_dict()["domain_warning"] is True
    assert not bound_state_report(P_HALF, Discretization(10.0, 2000)).domain_warning


def test_sturm_count_matches_dense():
    rng = np.random.default_rng(2718)
    scipy_linalg = pytest.importorskip("scipy.linalg")
    for _ in range(25):
        n = int(rng.integers(3, 40))
        disc = Discretization(float(rng.uniform(2.0, 12.0)), n)
        p = PhysicalParams(
            float(rng.uniform(0.3, 2.0)),
            float(rng.uniform(-0.9, 0.9)),
            float(rng.uniform(0.3, 2.0)),
        )
        op = build_hamiltonian(p, disc)
        reference = scipy_linalg.eigvalsh(op.dense())
        for shift in rng.uniform(reference[0] - 1.0, reference[-1] + 1.0, size=6):
            assert sturm_count(op, float(shift)) == int(np.sum(reference < shift))


def _sturm_count_reference(op, sigma):
    # the recurrence as first written: per-entry shift and scale, first pivot
    # apart, on the operator scaled to a unit off-diagonal (none if off = 0)
    pivmin = sys.float_info.min
    scale = abs(op.off) or 1.0
    unit = 1.0 if op.off else 0.0
    count = 0
    q = None
    for d in op.diag.tolist():
        s = (d - sigma) / scale
        q = s if q is None else s - unit / q
        if abs(q) < pivmin:
            q = -pivmin
        if q < 0.0:
            count += 1
    return count


def test_sturm_count_matches_reference_recurrence():
    # integer entries times a power of two, so a shift on a diagonal entry
    # gives exact zero pivots; scales 2^-997 (7e-301) .. 2^498 (8e149)
    rng = np.random.default_rng(1966)
    dense_checked = underflow_checked = 0
    for _ in range(3000):
        size = int(rng.integers(0, 10))
        scale = 2.0 ** int(rng.integers(-997, 499))
        diag = rng.integers(-4, 5, size).astype(float) * scale
        off = 0.0 if rng.random() < 0.2 else float(rng.integers(-3, 4)) * scale
        op = TridiagonalOperator(diag=diag, off=off, x=diag, v_eff=diag)
        shifts = [*diag[:3].tolist(), 0.0, float(rng.normal()) * scale,
                  math.nan, math.inf, -math.inf]
        for sigma in shifts:
            count = sturm_count(op, sigma)
            assert count == _sturm_count_reference(op, sigma)
            # the scaled recurrence never squares off, so the count is the
            # dense one down to off = 2^-997, where off^2 underflows to 0
            if size == 0 or not math.isfinite(sigma):
                continue
            values = np.linalg.eigvalsh(op.dense())
            if np.min(np.abs(values - sigma)) <= 1e-9 * scale:
                continue  # a tie: the count depends on rounding at sigma
            assert count == int(np.sum(values < sigma))
            dense_checked += 1
            underflow_checked += 0.0 < abs(off) < 1.5e-154
    assert dense_checked > 5000
    assert underflow_checked > 2000  # off^2 is subnormal or 0 there
    # a shifted entry that overflows is -inf or inf, silently, as per entry
    op = TridiagonalOperator(diag=np.array([-1.5e308, 1.5e308, 0.0]), off=1.0,
                             x=np.zeros(3), v_eff=np.zeros(3))
    for sigma in (-1.5e308, 1.5e308):
        assert sturm_count(op, sigma) == _sturm_count_reference(op, sigma)


class _WatchedDiag(np.ndarray):
    """A diagonal whose shifted copies note when the pivot loop reads them."""

    reads = 0

    def tolist(self):
        _WatchedDiag.reads += 1
        return super().tolist()


def _count_and_loop(op, sigma):
    """sturm_count(op, sigma), and whether its pivot recurrence ran."""
    _WatchedDiag.reads = 0
    watched = dataclasses.replace(op, diag=op.diag.view(_WatchedDiag))
    return sturm_count(watched, sigma), _WatchedDiag.reads > 0


def _bare_operator(diag, off):
    diag = np.asarray(diag, dtype=float)
    return TridiagonalOperator(diag=diag, off=off, x=diag, v_eff=diag)


def _scaled(op, sigma):
    # the shifted and scaled diagonal, as sturm_count computes it
    with np.errstate(all="ignore"):
        return (op.diag - sigma) / abs(op.off)


def test_sturm_count_shortcut_at_scaled_minimum_two():
    # (d - sigma) / |e| is 2.0 exactly at its minimum: no pivot can be
    # negative, so the count is 0 without the recurrence.  The first case is
    # the Dirichlet Laplacian at sigma = 0, whose eigenvalues are 2 - 2 cos(.)
    cases = [
        (np.full(50, 2.0), -1.0, 0.0),
        ([2.0, 2.0, 5.0, 2.0, 1e300], -1.0, 0.0),
        ([-4.0, 12.0, -4.0, 40.0], 4.0, -12.0),           # d = sigma + 2 |e|, exact
        (np.array([2.0, 3.0, 2.0]) * 2.0**-600, -2.0**-600, 0.0),
        (np.array([2.0, 2.5, 2.0]) * 2.0**500, 2.0**500, 0.0),
    ]
    for diag, off, sigma in cases:
        op = _bare_operator(diag, off)
        assert _scaled(op, sigma).min() == 2.0
        assert _count_and_loop(op, sigma) == (0, False)
        assert _sturm_count_reference(op, sigma) == 0


def test_sturm_count_just_below_two_runs_the_recurrence():
    below = np.nextafter(2.0, 0.0)
    assert below == 2.0 - 2.0**-52
    for diag in (np.full(50, below), [2.0, below, 7.0], [below, -3.0, 2.0, 2.0]):
        op = _bare_operator(diag, -1.0)
        count, looped = _count_and_loop(op, 0.0)
        assert looped
        assert count == _sturm_count_reference(op, 0.0)


def test_sturm_count_shortcut_edge_cases():
    for off in (-1.0, 0.0):  # an empty operator counts 0, scaled or not
        assert sturm_count(_bare_operator([], off), 0.0) == 0
    op = _bare_operator([2.0, 3.0, 2.0], -1.0)
    count, looped = _count_and_loop(op, math.nan)  # a NaN minimum fails the test
    assert looped and count == _sturm_count_reference(op, math.nan) == 0
    nan_entry = _bare_operator([3.0, math.nan, 3.0], -1.0)
    count, looped = _count_and_loop(nan_entry, 0.0)
    assert looped and count == _sturm_count_reference(nan_entry, 0.0)
    # +inf entries pass the test, -inf entries fail it
    cases = [
        ([math.inf, 2.0, math.inf], 0.0, False),
        ([2.0, -math.inf, 3.0], 0.0, True),
        ([2.0, 3.0, 2.0], -math.inf, False),    # every entry shifts to +inf
        ([2.0, 3.0, 2.0], math.inf, True),      # every entry shifts to -inf
    ]
    for diag, sigma, loops in cases:
        op = _bare_operator(diag, -1.0)
        count, looped = _count_and_loop(op, sigma)
        assert looped == loops
        assert count == _sturm_count_reference(op, sigma)


def test_sturm_count_shortcut_never_hides_a_pivot():
    # scaled entries at, above and a little below 2 on random operators:
    # wherever the shortcut applies, the recurrence as first written gives 0
    rng = np.random.default_rng(2024)
    applied = 0
    for _ in range(3000):
        size = int(rng.integers(1, 60))
        off = float(rng.choice([-1.0, 1.0])) * 2.0 ** float(rng.uniform(-60.0, 60.0))
        sigma = float(rng.normal()) * 2.0 ** float(rng.uniform(-60.0, 60.0))
        bump = rng.exponential(size=size) * 10.0 ** float(rng.uniform(-17.0, 1.0))
        if rng.random() < 0.5:
            bump *= rng.choice([-1.0, 0.0, 1.0], size)
        else:
            bump *= rng.choice([0.0, 1.0], size)
        op = _bare_operator(sigma + (2.0 + bump) * abs(off), off)
        count, looped = _count_and_loop(op, sigma)
        assert count == _sturm_count_reference(op, sigma)
        if _scaled(op, sigma).min() >= 2.0:
            assert not looped and count == 0
            applied += 1
        else:
            assert looped
    assert 500 < applied < 2500


def test_default_verdict_edge_count_takes_the_shortcut():
    # verdict --eta 0.5 --lambda 1: V_eff >= edge in doubles, and the scaled
    # diagonal at the edge is 2.0 at its minimum, so the edge count skips the
    # pivot loop; a count among the box modes just above the edge runs it
    op = build_hamiltonian(P_HALF, default_box(P_HALF))
    edge = model_edge(P_HALF)
    assert np.min(op.v_eff) >= edge
    assert _scaled(op, edge).min() >= 2.0
    assert _count_and_loop(op, edge) == (0, False)
    assert _count_and_loop(op, 1.1 * edge)[1]


@pytest.mark.parametrize("argv,loops", [
    *(((f"--eta {eta} --lambda 1 --N {n}", False)
       for eta in ("0.5", "-0.5") for n in (4000, 8000, 16000))),
    # the shortcut's one-ulp miss: the scaled edge minimum is 2 - 4.4e-16
    ("--M0 2 --eta 0.01 --alpha 0.01", True),
])
def test_model_verdict_runs_no_pivot_loop(argv, loops, monkeypatch, tmp_path):
    # the edge count is the verdict's only Sturm count; the Weyl margin
    # replaced the count above the edge, which always ran the loop
    looped = []

    def watched(op, sigma):
        count, ran = _count_and_loop(op, sigma)
        looped.append(ran)
        return count

    monkeypatch.setattr(solver, "sturm_count", watched)
    assert main(["verdict", *argv.split(), "--out", str(tmp_path / "v.json")]) == 0
    assert looped == [loops]


def test_control_well_verdict_runs_one_pivot_loop(monkeypatch, tmp_path):
    # the edge count runs the loop; the count at the Gershgorin end takes the
    # shortcut, and with one value below the edge no other count is needed
    looped = []

    def watched(op, sigma):
        count, ran = _count_and_loop(op, sigma)
        looped.append(ran)
        return count

    monkeypatch.setattr(solver, "sturm_count", watched)
    argv = ["verdict", "--eta", "0.5", "--lambda", "1", "--control-well"]
    assert main([*argv, "--out", str(tmp_path / "v.json")]) == 3
    assert looped == [True, False]


def _rosen_morse_well(a, b):
    # A^2 + B^2/A^2 + 2B tanh x - A(A+1) sech^2 x: #{n : (A-n)^2 > |B|} levels
    def well(x):
        return a * a + b * b / (a * a) + 2.0 * b * np.tanh(x) - a * (a + 1.0) * sech_squared(x)
    return well


@settings(max_examples=60, deadline=None)
@given(m0_exp=st.floats(-3.0, 3.0), eta=st.floats(-1.0, 1.0), lam_exp=st.floats(-3.0, 3.0),
       num_points=st.integers(30, 400), box=st.floats(0.0, 1.0))
def test_weyl_margin_bounds_the_dense_minimum(m0_exp, eta, lam_exp, num_points, box):
    # alpha L anywhere in [3.01, 0.099 (N+1)], inside both resolution guards
    m0 = 10.0**m0_exp
    params = PhysicalParams(m0, eta, 10.0**lam_exp * m0)
    alpha_l = 3.01 + box * (0.099 * (num_points + 1) - 3.01)
    disc = Discretization(alpha_l / params.alpha, num_points)
    report = bound_state_report(params, disc)
    lowest = np.linalg.eigvalsh(build_hamiltonian(params, disc).dense())[0]
    assert lowest - report.continuum_edge >= report.weyl_margin - report.count_error_bound
    assert report.weyl_margin > report.count_error_bound > 0.0


def test_wells_that_bind_report_a_negative_margin():
    # the control well and a Rosen-Morse II member (A, B) = (4, 2), which
    # binds three levels below its edge A^2 + B^2/A^2 - 2|B| = 12.25; each
    # edge is the lower of the well's limits at -inf and +inf, exactly
    disc = Discretization(25.0, 2000)
    for potential, edge, levels in ((poschl_teller_well, 1.0, 1),
                                    (_rosen_morse_well(4.0, 2.0), 12.25, 3)):
        report = bound_state_report(P_HALF, disc, potential=potential)
        assert report.continuum_edge == edge
        assert report.weyl_margin < 0.0 < report.count_error_bound
        assert sum(c.localized for c in report.bound_candidates) == levels


def test_toy_eigenvalues_match_dense_reference():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    op = toy_operator()
    reference = scipy_linalg.eigvalsh(op.dense())
    got = eigenvalues_below(op, math.inf)
    assert got.shape == (5,)
    assert np.all(np.diff(got) > 0)
    np.testing.assert_allclose(got, reference, rtol=1e-10, atol=1e-10)


def test_eigenvalues_below_counts_every_threshold_as_sturm_count_does():
    # one count for every threshold: all values at +inf, none at -inf or NaN
    op = build_hamiltonian(P_HALF, Discretization(25.0, 200))
    assert eigenvalues_below(op, math.inf).size == sturm_count(op, math.inf) == 200
    assert eigenvalues_below(op, -math.inf).size == sturm_count(op, -math.inf) == 0
    assert eigenvalues_below(op, math.nan).size == sturm_count(op, math.nan) == 0


@pytest.mark.parametrize("potential", [
    pytest.param(lambda x: poschl_teller_well(x) + 0.0 * x, id="nan"),
    pytest.param(lambda x: poschl_teller_well(x) + 1e-300 * x * x, id="inf"),
    pytest.param(lambda x: poschl_teller_well(x) + 1e-300 * x, id="-inf"),
])
def test_bound_state_report_rejects_a_non_finite_edge(potential):
    # each well is finite on the grid; its limit at -inf or +inf is not
    disc = Discretization(25.0, 2000)
    assert np.all(np.isfinite(build_hamiltonian(P_HALF, disc, potential=potential).diag))
    with pytest.raises(ParameterError, match="edge must be finite"):
        bound_state_report(P_HALF, disc, potential=potential)


def test_slice_values_bracketed_by_sturm_count():
    # sturm_count is the oracle: the slice holds exactly the counted values,
    # and the j-th one sits where the count steps from <= j to > j
    params = PhysicalParams(1.0, 0.1, 0.2)
    production = build_hamiltonian(params, default_box(params))
    cases = [(toy_operator(), 100.0, 5), (production, 1.1 * model_edge(params), 11)]
    for op, threshold, expected in cases:
        values = eigenvalues_below(op, threshold)
        assert values.size == sturm_count(op, threshold) == expected
        for j, v in enumerate(values):
            d = 1e-9 * max(1.0, abs(v))
            assert sturm_count(op, v - d) <= j < sturm_count(op, v + d)


def _dstebz(op, threshold):
    """The reference: LAPACK ``dstebz`` bisection for the counted values, and
    its tolerance eps (max|d_i| + 2|e|)."""
    k = sturm_count(op, threshold)
    values = eigvalsh_tridiagonal(op.diag, np.full(op.size - 1, op.off),
                                  select="i", select_range=(0, k - 1))
    return values, sys.float_info.epsilon * (np.max(np.abs(op.diag)) + 2.0 * abs(op.off))


def _control_well_case(alpha):
    # the N = 8000 control well: one value below its edge
    params = PhysicalParams(1.0, 0.5, alpha)
    return build_hamiltonian(params, default_box(params), potential=poschl_teller_well), 1.0, 1


def _production_case():
    params = PhysicalParams(1.0, 0.1, 0.2)
    op = build_hamiltonian(params, default_box(params))
    return op, 1.1 * model_edge(params), 11


LOCATOR_CASES = {  # (operator, threshold, count below it)
    "control-0.5": lambda: _control_well_case(0.5),
    "control-1": lambda: _control_well_case(1.0),
    "control-2": lambda: _control_well_case(2.0),
    "rosen-morse-4-2": lambda: (build_hamiltonian(P_HALF, default_box(P_HALF),
                                                  potential=_rosen_morse_well(4.0, 2.0)),
                                12.25, 3),
    "production-box-modes": _production_case,
    "toy": lambda: (toy_operator(), 100.0, 5),
}


@pytest.mark.parametrize("case", LOCATOR_CASES)
def test_located_values_agree_with_dstebz_and_are_enclosed(case):
    op, threshold, k = LOCATOR_CASES[case]()
    reference, tol = _dstebz(op, threshold)
    located = solver._locate(op, threshold)
    values = eigenvalues_below(op, threshold)
    assert values.size == k == len(located)
    assert np.all(np.abs(values - reference) <= tol)
    assert np.array_equal(values, eigenvalues_below(op, threshold))  # deterministic
    assert values.tolist() == [value for value, _, _, _ in located]
    for j, (value, radius, a, b) in enumerate(located):
        # the residual interval lies inside an interval that isolates the
        # j-th eigenvalue in the Sturm count
        assert sturm_count(op, a) == j and sturm_count(op, b) == j + 1
        assert a < value - radius and value + radius < b
        assert radius <= tol


def test_a_pair_closer_than_the_tolerance_comes_back_as_two_values():
    # Poschl-Teller wells at +-14 on the production box: the tunnelling
    # splitting (about e^-28) is below dstebz's tolerance, so both values lie
    # in one window of that width
    def double_well(x):
        return 1.0 - 2.0 * sech_squared(x - 14.0) - 2.0 * sech_squared(x + 14.0)

    op = build_hamiltonian(P_HALF, default_box(P_HALF), potential=double_well)
    reference, tol = _dstebz(op, 1.0)
    centre = float(reference.mean())
    assert sturm_count(op, centre - 0.5 * tol) == 0 and sturm_count(op, centre + 0.5 * tol) == 2
    values = eigenvalues_below(op, 1.0)
    assert values.size == 2
    assert np.all(np.abs(values - reference) <= tol)
    assert np.array_equal(values, eigenvalues_below(op, 1.0))


@pytest.mark.parametrize("threshold,fake,match", [
    (12.25, lambda count, sigma: max(count, 1), "count 1 at "),  # not 0 at the Gershgorin end
    (12.25, lambda count, sigma: count + 10 * (0 < count < 3), "count 1[12] at "),
    (12.25, lambda count, sigma: 3 - count if count < 3 else count, "count 3 at "),
    (math.inf, lambda count, sigma: count - (count == 2000 and sigma < math.inf),
     "count 1999 at "),  # not every value below the Gershgorin top
], ids=["gershgorin-end", "above-the-threshold-count", "decreasing", "gershgorin-top"])
def test_an_inconsistent_count_raises_an_evaluation_error(threshold, fake, match, monkeypatch):
    # the Rosen-Morse well has 3 values below its edge: with the count at the
    # threshold kept, a count that contradicts it inside the locator is an error
    op = build_hamiltonian(P_HALF, Discretization(25.0, 2000),
                           potential=_rosen_morse_well(4.0, 2.0))
    count = solver.sturm_count
    monkeypatch.setattr(solver, "sturm_count",
                        lambda op, sigma: fake(count(op, sigma), sigma))
    assert solver.sturm_count(op, threshold) == count(op, threshold)
    with pytest.raises(EvaluationError, match="inconsistent Sturm " + match):
        eigenvalues_below(op, threshold)


def test_the_bisection_fallback_brackets_each_value_by_the_count(monkeypatch):
    # with no solve allowed, refinement is bisection with counts down to the
    # tolerance, and a count outside [j, j + 1] there is an error
    monkeypatch.setattr(solver, "_SOLVES_PER_BISECTION", 0)
    op, threshold, k = LOCATOR_CASES["rosen-morse-4-2"]()
    reference, tol = _dstebz(op, threshold)
    located = solver._locate(op, threshold)
    assert len(located) == k
    for j, (value, radius, a, b) in enumerate(located):
        assert sturm_count(op, a) == j and sturm_count(op, b) == j + 1
        assert b - a <= tol and (value, radius) == (0.5 * a + 0.5 * b, 0.5 * (b - a))
        assert abs(value - reference[j]) <= tol
    count = solver.sturm_count
    monkeypatch.setattr(solver, "sturm_count",
                        lambda op, sigma: count(op, sigma) + (count(op, sigma) == 1 and sigma < 1.0))
    op, threshold, _ = LOCATOR_CASES["control-1"]()
    with pytest.raises(EvaluationError, match="inconsistent Sturm count 2 at "):
        eigenvalues_below(op, threshold)


def test_refinement_returns_the_eigenvalue_inside_its_interval():
    # 49 eigenvalues at 0 below the isolating interval (0.01, 1) and one at
    # 0.02 inside it: the Rayleigh quotients from the midpoint shift may lie
    # below the interval, near 0, and then the refinement gives up; only the
    # value inside may come back
    op = _bare_operator([0.02] + [0.0] * 49, 0.0)
    tol = sys.float_info.epsilon * 0.02
    refined = solver._refine(op, 0.01, 1.0, tol)
    if refined is not None:
        value, radius = refined
        assert 0.01 < value - radius and value + radius < 1.0
        assert abs(value - 0.02) <= tol
    # the locator's count bisection narrows the interval until it settles
    located = solver._locate(op, 1.0)
    assert len(located) == 50
    assert all(abs(value) <= tol for value, _, _, _ in located[:49])
    value, radius, a, b = located[49]
    assert sturm_count(op, a) == 49 and sturm_count(op, b) == 50
    assert a < value - radius and value + radius < b
    assert abs(value - 0.02) <= tol
    # the control well's interval (Gershgorin end, edge) settles at once: the
    # locator's value is the refinement's, from the same fixed start vector
    op, threshold, _ = LOCATOR_CASES["control-1"]()
    [(value, radius, a, b)] = solver._locate(op, threshold)
    assert b == threshold
    assert solver._refine(op, a, b, _dstebz(op, threshold)[1]) == (value, radius)


def test_dense_equivalence_random_instances():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(31415)
    for _ in range(20):
        n = int(rng.integers(3, 51))
        disc = Discretization(float(rng.uniform(2.0, 15.0)), n)
        p = PhysicalParams(
            float(rng.uniform(0.3, 2.0)),
            float(rng.uniform(-1.0, 1.0)),
            float(rng.uniform(0.3, 2.0)),
        )
        op = build_hamiltonian(p, disc)
        reference = scipy_linalg.eigvalsh(op.dense())
        got = eigenvalues_below(op, math.inf)
        assert got.size == n
        for a, b in zip(got, reference):
            assert abs(a - b) <= 1e-9 * max(1.0, abs(b))


def test_constant_potential_has_no_state_below_edge():
    # Dirichlet box modes sit at 1 + (2/h^2)(1 - cos(k pi / (N+1))) > 1
    disc = Discretization(5.0 * math.pi, 400)
    op = build_hamiltonian(PhysicalParams(1.0, 0.0, 1.0), disc)
    assert eigenvalues_below(op, 1.0).size == 0
    # and the first few above the edge match the exact discrete dispersion
    h = disc.spacing
    n = op.size
    exact = [1.0 + (2.0 / h**2) * (1.0 - math.cos(k * math.pi / (n + 1))) for k in (1, 2, 3)]
    got = eigenvalues_below(op, exact[2] * 1.000001)
    np.testing.assert_allclose(got, exact, rtol=1e-10)


def test_rayleigh_lower_bound_and_ascending():
    rng = np.random.default_rng(777)
    for _ in range(10):
        n = int(rng.integers(10, 60))
        p = PhysicalParams(
            float(rng.uniform(0.3, 2.0)),
            float(rng.uniform(-1.0, 1.0)),
            float(rng.uniform(0.3, 2.0)),
        )
        op = build_hamiltonian(p, Discretization(float(rng.uniform(3.0, 20.0)), n))
        vals = eigenvalues_below(op, math.inf)
        assert np.all(np.diff(vals) >= 0)
        assert vals[0] >= float(np.min(op.v_eff)) - 1e-12


def test_eigenvector_residual_and_sign():
    op = build_hamiltonian(
        PhysicalParams(1.0, 0.0, 1.0),
        Discretization(4.0, 200),
        potential=poschl_teller_well,
    )
    vals = eigenvalues_below(op, 0.99)
    assert vals.size == 1
    v = eigenvector(op, float(vals[0]))
    assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)
    assert v[np.argmax(np.abs(v))] > 0.0
    residual = op.dense() @ v - vals[0] * v
    assert np.linalg.norm(residual) <= 1e-8 * max(1.0, abs(vals[0]) + abs(op.off))
    # deterministic: same value in, same vector out
    assert np.array_equal(v, eigenvector(op, float(vals[0])))
    # every locator case, box modes too: each located value's vector matches
    # LAPACK's eigh_tridiagonal up to sign
    for case in LOCATOR_CASES.values():
        op, threshold, k = case()
        values = eigenvalues_below(op, threshold)
        _, ref = eigh_tridiagonal(
            op.diag, np.full(op.size - 1, op.off), select="i", select_range=(0, k - 1)
        )
        for j, value in enumerate(values.tolist()):
            v = eigenvector(op, value)
            assert min(np.max(np.abs(v - ref[:, j])), np.max(np.abs(v + ref[:, j]))) <= 1e-10
            assert v[np.argmax(np.abs(v))] > 0.0


def _scaled_control_well(spacing):
    # the control well on [-5, 5] with 200 points, scaled by c = h / h_1 to
    # the spacing h: the operator is the h_1 one over c^2, so |e| = 1/h^2
    c = spacing * 201 / 10.0
    disc = Discretization(5.0 * c, 200)
    op = build_hamiltonian(P_HALF, disc, potential=lambda x: poschl_teller_well(x / c) / (c * c))
    return op, 1.0 / (c * c)


def _smallest_spacing():
    # Discretization refuses a spacing whose (2/h^2)^2 overflows
    h = math.sqrt(2.0 / math.sqrt(sys.float_info.max))
    while True:
        try:
            return Discretization(h * 201 / 2.0, 200).spacing
        except ParameterError:
            h = math.nextafter(h, 1.0)


@pytest.mark.parametrize("spacing", [1e-76, _smallest_spacing()], ids=["1e-76", "smallest"])
def test_eigenvector_stays_finite_at_the_smallest_spacing(spacing):
    # |e| = 1e152 and up: LAPACK dstein gave an all-NaN vector with info = 0
    # here; the vector is the unscaled operator's, or the solve is refused
    op, edge = _scaled_control_well(spacing)
    assert abs(op.off) >= 1e152
    [value] = eigenvalues_below(op, edge)
    try:
        v = eigenvector(op, value)
    except EvaluationError:
        return
    unscaled, unscaled_edge = _scaled_control_well(10.0 / 201)
    [unscaled_value] = eigenvalues_below(unscaled, unscaled_edge)
    assert np.all(np.isfinite(v))
    assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)
    assert np.max(np.abs(v - eigenvector(unscaled, unscaled_value))) <= 1e-10


def test_a_one_point_operator_has_its_entry_and_a_unit_vector():
    # SciPy's dgtsv refuses n = 1; the kernel gives the exact pair instead
    op = _bare_operator([3.0], -1.0)
    assert eigenvalues_below(op, 4.0).tolist() == [3.0]
    assert eigenvector(op, 3.0).tolist() == [1.0]


def test_localization_separates_bound_from_box_modes():
    # genuinely bound: Poschl-Teller ground state on a wide box
    report = bound_state_report(
        P_HALF,
        Discretization(25.0, 2000),
        potential=poschl_teller_well,
    )
    assert len(report.bound_candidates) == 1
    metric = report.bound_candidates[0].localization
    assert metric.interior_mass_fraction >= 0.99
    assert metric.edge_amplitude <= 1e-4
    assert metric.localized
    # box artifact: lowest mode of the constant potential fills the box
    disc = Discretization(10.0, 500)
    op = build_hamiltonian(PhysicalParams(1.0, 0.0, 1.0), disc)
    lowest = eigenvalues_below(op, 1.5)[0]
    phi = eigenvector(op, float(lowest))
    box_metric = localization_metric(op.x, phi, disc.half_width)
    assert not box_metric.localized
    assert box_metric.interior_mass_fraction < 0.9


def test_continuum_edge_values():
    assert model_edge(P_HALF) == 0.25
    assert model_edge(PhysicalParams(2.0, 0.5, 1.0)) == 1.0
    assert model_edge(PhysicalParams(1.0, -0.5, 1.0)) == 0.25
    assert model_edge(PhysicalParams(1.0, 1.0, 1.0)) == 0.0
    assert continuum_edge(poschl_teller_well) == 1.0
    # the upper limit may overflow: only the lower one is the edge
    assert model_edge(PhysicalParams(8.945e153, 0.5, 1.0)) == 2.000325625e+307


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(M0=st.floats(1e-3, 1e3), eta=st.floats(-1.0, 1.0), alpha=st.floats(1e-3, 1e3),
       alpha_l=st.floats(3.0, 25.0))
# min V_eff - edge was -1.1e-16 here while the edge was squared with pow
@example(M0=2.387541746667582, eta=0.6757242001375277, alpha=0.11098262335599376,
         alpha_l=25.0)
def test_model_v_eff_never_lies_below_its_edge(M0, eta, alpha, alpha_l):
    # bitwise, on any box; on the default box tanh saturates at the end
    # nodes, where V_eff is the edge itself
    params = PhysicalParams(M0, eta, alpha)
    default = bound_state_report(params, default_box(params))
    assert default.v_eff_min == default.continuum_edge
    short = bound_state_report(params, Discretization(alpha_l / alpha, 2000))
    assert short.v_eff_min >= short.continuum_edge


def test_core_experiment_is_empty():
    disc = Discretization(25.0, 8000)
    report = bound_state_report(P_HALF, disc)
    assert report.continuum_edge == pytest.approx(0.25)
    # box modes crowd the edge from above; nothing lies below it, as the
    # Weyl margin certifies
    op = build_hamiltonian(P_HALF, disc)
    assert sturm_count(op, report.continuum_edge) == 0
    assert sturm_count(op, 1.1 * report.continuum_edge) > 0
    assert report.weyl_margin > report.count_error_bound > 0.0
    assert "slice_count" not in report.to_dict()
    assert report.bound_candidates == []
    assert report.empty_real_spectrum
    assert report.v_eff_monotone
    assert report.v_eff_min == pytest.approx(0.25, abs=1e-9)


def test_monotone_flag_tracks_eta_sign():
    up = bound_state_report(P_HALF, Discretization(25.0, 1000))
    down = bound_state_report(PhysicalParams(1.0, -0.5, 1.0), Discretization(25.0, 1000))
    assert up.v_eff_monotone and down.v_eff_monotone
    flat = bound_state_report(PhysicalParams(1.0, 0.0, 1.0), Discretization(25.0, 1000))
    assert not flat.v_eff_monotone  # constant potential is not a step


def test_eta_zero_free_case_verdict():
    params, disc = PhysicalParams(1.0, 0.0, 1.0), Discretization(25.0, 1000)
    report = bound_state_report(params, disc)
    assert report.continuum_edge == pytest.approx(1.0)
    op = build_hamiltonian(params, disc)
    assert sturm_count(op, 1.0) == 0  # box modes only, none below M0^2
    assert sturm_count(op, 1.1) > 0
    # a constant V_eff at the edge: the margin is lambda_min(T)/h^2 alone
    assert report.weyl_margin > report.count_error_bound > 0.0
    assert report.bound_candidates == []
    assert report.empty_real_spectrum


def test_control_well_finds_the_known_state():
    report = bound_state_report(
        P_HALF, Discretization(25.0, 8000), potential=poschl_teller_well
    )
    assert report.empty_real_spectrum is False
    assert len(report.bound_candidates) == 1
    assert report.bound_candidates[0].e_squared == pytest.approx(0.0, abs=2e-3)


def test_report_certifies_and_solves_only_below_edge():
    # production operator (11 box modes up to 1.1 * edge, none below the
    # edge, certified) and the control well (5 up to 1.1 * edge, its one
    # state below the edge, which its negative margin leaves uncertified)
    cases = [
        (PhysicalParams(1.0, 0.1, 0.2), None, 11, 0),
        (P_HALF, poschl_teller_well, 5, 1),
    ]
    for p, potential, slice_size, candidates in cases:
        disc = default_box(p)
        report = bound_state_report(p, disc, potential=potential)
        op = build_hamiltonian(p, disc, potential=potential)
        edge = report.continuum_edge
        assert sturm_count(op, 1.1 * edge) == slice_size
        values = [c.e_squared for c in report.bound_candidates]
        assert values == eigenvalues_below(op, edge).tolist()
        assert len(values) == sturm_count(op, edge) == candidates
        assert (report.weyl_margin > report.count_error_bound) == (candidates == 0)
        doc = report.to_dict()
        assert "slice_count" not in doc
        assert (doc["weyl_margin"], doc["count_error_bound"]) == (
            report.weyl_margin, report.count_error_bound)


def test_grid_refinement_second_order_on_control_well():
    # exact ground level of 1 - 2 sech^2 x sits at 0; discretization error
    # should shrink like h^2 (log-log slope 2 +/- 0.3)
    errors, spacings = [], []
    for n in (250, 500, 1000, 2000):
        report = bound_state_report(
            P_HALF, Discretization(25.0, n), potential=poschl_teller_well
        )
        [candidate] = report.bound_candidates
        errors.append(abs(candidate.e_squared))
        spacings.append(report.disc.spacing)
    slope = np.polyfit(np.log(spacings), np.log(errors), 1)[0]
    assert 1.7 <= slope <= 2.3


def test_parity_spectra_match():
    # mirror-image potentials share the spectrum; compare above the edge too
    plus = build_hamiltonian(PhysicalParams(1.0, 0.6, 1.0), Discretization(25.0, 1500))
    minus = build_hamiltonian(PhysicalParams(1.0, -0.6, 1.0), Discretization(25.0, 1500))
    a = eigenvalues_below(plus, 0.5)
    b = eigenvalues_below(minus, 0.5)
    assert a.size == b.size
    for x, y in zip(a, b):
        assert abs(x - y) <= 1e-9 * max(1.0, abs(x))


def test_report_serialization():
    report = bound_state_report(P_HALF, Discretization(25.0, 1000))
    doc = report.to_dict()
    assert doc["empty_real_spectrum"] is True
    assert doc["continuum_edge"] == report.continuum_edge
    assert doc["grid"]["num_points"] == 1000
