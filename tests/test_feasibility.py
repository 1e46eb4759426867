"""Two-route evaluation of the feasibility surface, sign certificate, scans."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pdm_dirac import (
    ABS_TOL,
    ETA_ZERO_SNAP,
    REL_TOL,
    BothZero,
    Box,
    BoxIncludesEtaZero,
    CertificateViolation,
    Classification,
    DimensionlessParams,
    EmptyBox,
    EtaOutOfRange,
    EtaZeroSingular,
    EvaluationError,
    InvalidBox,
    NegativeLambda,
    SignVerdict,
    aux_root,
    classify_levels,
    evaluate_point,
    f_direct,
    f_factored,
    sign_certificate,
    supremum_scan,
)
from pdm_dirac import feasibility

# mpmath, 50 digits, rounded to nearest double
F_HALF_1 = -4.6213203435596426
U_HALF_1 = 0.20710678118654752
U2_HALF_1 = 0.042893218813452476     # (3 - 2 sqrt(2)) / 4
F_04_1 = -6.9866402246522456
F_04_2 = -25.808846094982458
F_06_1 = -3.2773777201611830
F_06_2 = -11.702010236334436


def test_boundary_identity_exact_points():
    # t = -1 at (0.5, 0): terms 1.25 - 1 - 0.25; t = -2 at (1, 0): 2 - 1 - 1
    assert f_direct(0.5, 0.0) == 0.0
    assert f_direct(1.0, 0.0) == 0.0
    assert f_factored(0.5, 0.0) == 0.0
    assert f_factored(1.0, 0.0) == 0.0


def test_boundary_identity_sampled():
    for eta in np.linspace(-1.0, 1.0, 201):
        if eta == 0.0 or abs(eta) <= 1e-12:
            continue
        assert abs(f_direct(float(eta), 0.0)) <= 1e-12
        assert abs(f_factored(float(eta), 0.0)) <= 1e-12


def test_aux_root_reference_point():
    u = aux_root(0.5, 1.0)
    assert u == pytest.approx(U_HALF_1, rel=1e-15)
    assert u * u == pytest.approx(U2_HALF_1, rel=1e-14)


def test_aux_root_range():
    rng = np.random.default_rng(321)
    for _ in range(500):
        eta = float(rng.uniform(1e-3, 1.0)) * (1 if rng.random() < 0.5 else -1)
        lam = float(rng.uniform(0.0, 10.0))
        u = aux_root(eta, lam)
        assert 0.0 < u <= abs(eta) + 1e-15
        if lam == 0.0:
            assert u == abs(eta)
        # u solves u^2 + lam*u = eta^2
        assert u * u + lam * u == pytest.approx(eta * eta, rel=1e-12)


def test_reference_values():
    assert f_direct(0.5, 1.0) == pytest.approx(F_HALF_1, rel=1e-12)
    assert f_factored(0.5, 1.0) == pytest.approx(F_HALF_1, rel=1e-12)
    assert f_factored(1.0, 10.0) == pytest.approx(-100.0, rel=1e-12)
    assert f_factored(1.0, 1e-3) == pytest.approx(-1e-6, rel=1e-10)


def test_route_agreement_sampled():
    rng = np.random.default_rng(8675309)
    for _ in range(10_000):
        eta = float(rng.uniform(1e-3, 1.0)) * (1 if rng.random() < 0.5 else -1)
        lam = float(rng.uniform(0.0, 10.0))
        fd = f_direct(eta, lam)
        ff = f_factored(eta, lam)
        assert abs(fd - ff) <= 1e-10 * max(1.0, abs(fd))


def test_evenness_is_bitwise():
    rng = np.random.default_rng(44)
    for _ in range(1000):
        eta = float(rng.uniform(1e-6, 1.0))
        lam = float(rng.uniform(0.0, 10.0))
        assert f_direct(-eta, lam) == f_direct(eta, lam)
        assert f_factored(-eta, lam) == f_factored(eta, lam)


def test_f_factored_exact_pole_is_structured():
    # u - lam n is exactly 0.0 here: found by a seeded search over lam = eta /
    # sqrt(n (n + 1)) and its neighbouring doubles (it once divided by zero)
    eta, lam, n = 0.15778930185120008, 0.02880825331896465, 5
    assert aux_root(eta, lam) - lam * n == 0.0
    with pytest.raises(EvaluationError, match="pole"):
        f_factored(eta, lam, n)
    entry = classify_levels(DimensionlessParams(eta, lam), n)[n]
    assert entry.classification is Classification.UNDEFINED


def test_domain_errors():
    with pytest.raises(EtaZeroSingular):
        f_direct(0.0, 1.0)
    with pytest.raises(EtaZeroSingular):
        f_factored(0.0, 1.0)
    with pytest.raises(BothZero):
        f_direct(0.0, 0.0)
    with pytest.raises(EtaOutOfRange):
        f_direct(1.5, 1.0)
    with pytest.raises(NegativeLambda):
        f_factored(0.5, -0.1)


def test_sign_certificate_examples():
    assert sign_certificate(0.5, 1.0) is SignVerdict.NEGATIVE
    assert sign_certificate(0.7, 0.0) is SignVerdict.ZERO_BOUNDARY
    assert sign_certificate(1.0, 1e-3) is SignVerdict.NEGATIVE
    assert f_factored(1.0, 1e-3) < 0.0


def test_sign_certificate_strict_negativity_sampled():
    rng = np.random.default_rng(99)
    for _ in range(2000):
        eta = float(rng.uniform(1e-3, 1.0)) * (1 if rng.random() < 0.5 else -1)
        lam = float(rng.uniform(1e-3, 10.0))
        assert sign_certificate(eta, lam) is SignVerdict.NEGATIVE
        assert f_factored(eta, lam) < 0.0


def test_evaluate_point_bundle():
    r = evaluate_point(0.5, 1.0)
    assert r.sign_verdict is SignVerdict.NEGATIVE
    assert r.f_direct == pytest.approx(r.f_factored, rel=1e-12)
    doc = r.to_dict()
    assert doc["sign_verdict"] == "Negative"
    assert doc["u"] == r.u


# (eta, lambda) -> reprs of the point certificate's f_direct, f_factored and u.
# The scalar routes call math.hypot, which CPython computes itself, not libm:
# these bytes were the same on Python 3.10.13, 3.11.7, 3.12.1 and 3.13.0.
POINT_CERTIFICATE_BYTES = {
    (0.5, 1.0): ("-4.621320343559641", "-4.621320343559642", "0.20710678118654754"),
    (0.5, 1e-300): ("0.0", "-1.5e-300", "0.5"),
    (1.0, 5e-324): ("0.0", "-0.0", "1.0"),
    (0.9999999999999999, 1e-3):
        ("-1.0000000000287557e-06", "-1.000000000000222e-06", "0.9995001249999921"),
    (-0.9999999999999999, 1e-12): ("0.0", "-1.000222044604925e-24", "0.9999999999995"),
    (1.0, 1e6): ("-999999999999.9999", "-999999999999.9999", "9.99999999999e-07"),
    (0.01, 0.01): ("-1.6179721853510194", "-1.6179721853510196", "0.006180339887498949"),
}


def test_point_certificate_bytes_are_pinned():
    for (eta, lam), expected in POINT_CERTIFICATE_BYTES.items():
        doc = evaluate_point(eta, lam).to_dict()
        assert tuple(repr(doc[key]) for key in ("f_direct", "f_factored", "u")) == expected, \
            (eta, lam)


def test_exact_factorization_against_mpmath():
    """Re-derive the factorization at high precision on a deterministic grid.

    Direct form: f = (1+eta^2) - 4 eta^2 / t^2 - t^2 / 4 with
    t = lam - sqrt(lam^2 + 4 eta^2).  Factored form: with u the positive
    root of u^2 + lam u = eta^2, f = (1 - u^2)(u^2 - eta^2)/u^2.  Both are
    evaluated with 50-digit arithmetic; the float routes must sit on top.
    """
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    worst = mp.mpf(0)
    for eta in (1e-3, 0.1, 0.5, 0.9, 1.0, -0.5):
        for lam in (1e-3, 0.5, 1.0, 2.0, 10.0):
            e, l = mp.mpf(eta), mp.mpf(lam)
            t = l - mp.sqrt(l * l + 4 * e * e)
            f_hp_direct = (1 + e * e) - 4 * e * e / (t * t) - t * t / 4
            u = (mp.sqrt(l * l + 4 * e * e) - l) / 2
            f_hp_fact = (1 - u * u) * (u * u - e * e) / (u * u)
            worst = max(worst, abs(f_hp_direct - f_hp_fact) / max(1, abs(f_hp_direct)))
            got = f_factored(eta, lam)
            assert abs(got - float(f_hp_direct)) <= 1e-12 * max(1.0, abs(float(f_hp_direct)))
    assert worst < mp.mpf("1e-45")


def test_both_evaluators_relative_accuracy_against_mpmath():
    """Scalar and grid routes hold a few ulps of relative accuracy everywhere.

    Down to lambda = 1e-30 and with |eta| a hair from 1, where subtracting
    ``u^2 - eta^2`` or ``1 - u^2`` once cancelled every digit (f even came
    out 0 or positive).  Reference: 60-digit mpmath, same seeded points.
    """
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    rng = np.random.default_rng(11)
    etas = rng.uniform(-1.0, 1.0, 40)
    etas[:10] = np.sign(etas[:10]) * (1.0 - 10.0 ** rng.uniform(-16, -1, 10))
    etas[10] = 1.0
    lams = 10.0 ** rng.uniform(-30.0, 3.0, 40)
    grid = feasibility._f_grid(etas, lams)
    for i, eta in enumerate(etas.tolist()):
        for j, lam in enumerate(lams.tolist()):
            e, l = mp.mpf(eta), mp.mpf(lam)
            u = 2 * e * e / (l + mp.sqrt(l * l + 4 * e * e))
            ref = (1 - u * u) * (u * u - e * e) / (u * u)
            for got in (f_factored(eta, lam), grid[i, j]):
                assert got < 0.0
                assert abs((got - ref) / ref) <= 2e-15


# lambda where lam*lam reaches DBL_MAX; at |eta| = 1, f is about -lam^2
LAM_SQUARE_EDGE = 1.3407807929942596e154


def test_grid_range_ends_where_lambda_squared_overflows():
    # the grid squares lambda itself: |f| > lam^2 - lam, so f leaves the
    # double range no later than lam*lam does, and the edge stays where it was
    # with hypot; an overflowed lam*lam makes u = 0, so the whole grid is refused
    value = feasibility._f_grid(np.array([1.0]), np.array([LAM_SQUARE_EDGE]))[0, 0]
    assert -math.inf < value < 0.0
    for lam in (math.nextafter(LAM_SQUARE_EDGE, math.inf), 1e200, 1.7e308):
        for etas, lam_nodes in (([1.0], [lam]), ([-1.0, 1e-12, 0.5, 1.0], [1.0, lam])):
            with pytest.raises(InvalidBox):
                feasibility._f_grid(np.array(etas), np.array(lam_nodes))


@pytest.mark.parametrize("lam,eta", [
    *[(lam, eta) for lam in (5e-324, 1e-200) for eta in (1e-150, -1e-100, 1e-17)],
    *[(1e-200, eta) for eta in (0.5, -(1.0 - 1e-9), 1e-12)],
    *[(lam, eta) for lam in (1e100, 1e150) for eta in (1.0, -0.5, 0.1)],
])
def test_grid_accuracy_at_the_ends_of_lambda(lam, eta):
    # lam*lam underflows at the small end, so s is exactly 2|eta| there, as
    # hypot gives; the reference carries enough digits for u^2 - eta^2 = -lam u
    mp = pytest.importorskip("mpmath")
    with mp.workdps(400):
        e, l = mp.mpf(eta), mp.mpf(lam)
        u = 2 * e * e / (l + mp.sqrt(l * l + 4 * e * e))
        ref = (1 - u * u) * (u * u - e * e) / (u * u)
        assert abs(ref) >= sys.float_info.min  # a normal double: relative error is meaningful
        for got in (f_factored(eta, lam), feasibility._f_grid(np.array([eta]), np.array([lam]))[0, 0]):
            assert abs((got - ref) / ref) <= 2e-15


def test_feasibility_inequality_reference_points():
    # the margin is the ground level's E_0^2; Real or ZeroThreshold would
    # satisfy the inequality
    [level] = classify_levels(DimensionlessParams(0.5, 1.0), 0)
    assert level.classification is Classification.IMAGINARY
    assert level.e_squared == pytest.approx(F_HALF_1, rel=1e-12)
    [level] = classify_levels(DimensionlessParams(math.sqrt(3.0) / 2.0, 1.0), 0)
    assert level.classification is Classification.IMAGINARY
    assert level.e_squared == pytest.approx(-1.5, abs=1e-12)


def test_feasibility_inequality_boundary_limit():
    # margin -> 0 as lam -> 0 (equality case of the threshold inequality)
    [level] = classify_levels(DimensionlessParams(0.5, 1e-8), 0)
    assert abs(level.e_squared) < 1e-6


# derandomized: every run tries the same inputs, so a failure reproduces
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(
    st.floats(1e-50, 1.0), st.floats(1e-50, 1.0), st.floats(1e-30, 1e3), st.floats(1e-30, 1e3),
    st.booleans(),
)
def test_f_monotone_in_eta_and_lambda(a1, a2, lam1, lam2, negative):
    # the supremum scan's corner certificate rests on this: f rises with
    # |eta| and falls with lambda; the factored route keeps both to 1 ulp
    (a1, a2), (lam1, lam2) = sorted((a1, a2)), sorted((lam1, lam2))
    sign = -1.0 if negative else 1.0
    for lam in (lam1, lam2):
        upper = f_factored(a2, lam)
        assert f_factored(sign * a1, lam) <= upper + math.ulp(upper)
    for a in (a1, a2):
        upper = f_factored(sign * a, lam1)
        assert f_factored(a, lam2) <= upper + math.ulp(upper)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(
    st.floats(-1.0, 1.0).filter(bool), st.floats(0.0, exclude_min=True, allow_infinity=False),
    st.floats(1e-3, 1e3), st.data(),
)
def test_no_closed_form_level_is_normalizable_or_real(eta, lam, M0, data):
    # the paper's claim: level n of the Rosen-Morse II member with w = u - lam n
    # in place of u is normalizable iff w > 0 and w^2 > |eta|; but w <= u <
    # |eta| <= 1, and every index with w > 0 has E_n^2 <= M0^2 f < 0.  n runs
    # up to 2^62, so E_n^2 is computed as a row of classify_levels computes it
    try:
        u = aux_root(eta, lam)
    except EvaluationError:
        assume(False)
    n = data.draw(st.integers(0, int(min(u / lam, 2.0**62))))
    w = u - lam * n
    assume(w > ABS_TOL * u)  # w > 0, and off classify_levels' pole band
    try:
        e_squared = M0 * M0 * f_factored(eta, lam, n)
        ground = M0 * M0 * f_factored(eta, lam)
    except EvaluationError:
        assume(False)
    assume(math.isfinite(e_squared))
    # w^2 > |eta| never holds; equality does in doubles, where lambda is
    # below an ulp of u and u rounds to |eta| = 1
    assert w * w <= abs(eta)
    # the sign, not the class: an E_n^2 that underflows is ZeroThreshold
    assert math.copysign(1.0, e_squared) == -1.0
    assert e_squared <= ground


@PROPERTY
@given(st.floats(-12.0, 0.0), st.floats(-300.0, 130.0), st.booleans())
def test_grid_agrees_with_the_scalar_route(log_a, log_lam, negative):
    # |eta| from ETA_ZERO_SNAP to 1, as the scans and surface pass it; f stays a
    # normal double on the whole range.  The grid's sqrt of a sum and the scalar
    # route's hypot differ by an ulp at most; the surface test uses the same bound.
    eta = (-1.0 if negative else 1.0) * 10.0**log_a
    lam = 10.0**log_lam
    scalar = f_factored(eta, lam)
    grid = feasibility._f_grid(np.array([eta]), np.array([lam]))[0, 0]
    assert abs(grid - scalar) <= 1e-14 * abs(scalar)


# --- supremum scan ----------------------------------------------------------


def test_box_validation():
    with pytest.raises(EmptyBox):
        Box(0.5, 0.4, 1.0, 2.0)
    with pytest.raises(InvalidBox):
        Box(-1.5, 1.0, 1.0, 2.0)
    with pytest.raises(InvalidBox):
        Box(0.0, 1.0, math.nan, 2.0)
    for eta in (0.0, 0.1):  # also when every eta gridline would be skipped
        with pytest.raises(NegativeLambda):
            Box(eta, eta, -1.0, 1.0)


def test_scan_four_point_box():
    report = supremum_scan(Box(0.4, 0.6, 1.0, 2.0), grid=(2, 2))
    corner_values = {F_04_1, F_04_2, F_06_1, F_06_2}
    assert report.sup_estimate == pytest.approx(max(corner_values), rel=1e-12)
    assert report.sup_estimate < -2.0
    assert all(v < -2.0 for v in corner_values)
    assert report.argmax[0] == pytest.approx(0.6)
    assert report.argmax[1] == pytest.approx(1.0)


def test_scan_degenerate_single_point():
    report = supremum_scan(Box(0.5, 0.5, 1.0, 1.0), grid=(2, 2))
    assert report.sup_estimate == pytest.approx(F_HALF_1, rel=1e-12)
    assert report.argmax == (0.5, 1.0)


def test_scan_requires_positive_lambda():
    with pytest.raises(InvalidBox):
        supremum_scan(Box(0.1, 1.0, 0.0, 2.0), grid=(3, 3))


def test_underflow_is_structured():
    # u^2 underflows: indistinguishable from eta = 0 in doubles
    for eta, lam in ((1e-200, 1.0), (1e-160, 1.0), (1.0, 1e300)):
        for fn in (aux_root, f_direct, f_factored):
            with pytest.raises(EtaZeroSingular):
                fn(eta, lam)
    with pytest.raises(InvalidBox):
        supremum_scan(Box(0.5, 0.6, 1e300, 1e300), grid=(3, 3))
    # u^2 is subnormal there, but f = -lam (1-u^2) / u leaves the double range
    for fn in (f_direct, f_factored, evaluate_point):
        with pytest.raises(EvaluationError, match="leaves the double range"):
            fn(1.0, 1e160)


def test_scan_grid_floor():
    with pytest.raises(InvalidBox):
        supremum_scan(Box(0.1, 1.0, 1.0, 2.0), grid=(1, 5))


def test_scan_rejects_pure_eta_zero_box():
    with pytest.raises(BoxIncludesEtaZero):
        supremum_scan(Box(0.0, 0.0, 1.0, 2.0), grid=(2, 2))


def test_scan_skips_eta_zero_gridline():
    report = supremum_scan(Box(-1.0, 1.0, 0.5, 2.0), grid=(21, 5))
    assert len(report.skipped_eta_nodes) == 1
    assert abs(report.skipped_eta_nodes[0]) <= 1e-12
    assert report.all_nodes_negative
    assert report.sup_estimate < 0.0


def test_scan_deterministic():
    box = Box(-1.0, 1.0, 1e-3, 10.0)
    a = supremum_scan(box, grid=(41, 41))
    b = supremum_scan(box, grid=(41, 41))
    assert a.to_dict() == b.to_dict()


def test_scan_tie_break_prefers_negative_eta():
    # f is even in eta, so (+1, lam) and (-1, lam) tie exactly; the argmax is
    # the corner's negative member
    report = supremum_scan(Box(-1.0, 1.0, 1.0, 1.0), grid=(5, 2))
    assert report.argmax == (-1.0, 1.0)


def test_scan_sup_is_grid_maximum():
    box = Box(0.2, 1.0, 1e-3, 3.0)
    report = supremum_scan(box, grid=(11, 11))
    values = feasibility._f_grid(np.linspace(0.2, 1.0, 11), np.linspace(1e-3, 3.0, 11))
    assert report.sup_estimate == values.max() == values[-1, 0]
    assert report.argmax == (1.0, 1e-3)
    assert report.sup_estimate == pytest.approx(f_factored(1.0, 1e-3), rel=REL_TOL)
    assert report.all_nodes_negative


widths = st.just(0.0) | st.floats(1e-3, 2.0)


@PROPERTY
@given(
    st.floats(-1.0, 1.0), widths, st.booleans(), st.floats(1e-3, 10.0), widths,
    st.integers(2, 40), st.integers(2, 40),
)
def test_scan_supremum_is_the_corner(eta_lo, eta_width, symmetric, lam_lo, lam_width,
                                     eta_count, lam_count):
    eta_hi = eta_lo + eta_width
    if symmetric:
        eta_lo = -eta_hi
    assume(abs(eta_hi) <= 1.0 and max(abs(eta_lo), abs(eta_hi)) >= 1e-3)
    box = Box(min(eta_lo, eta_hi), max(eta_lo, eta_hi), lam_lo, lam_lo + lam_width)
    report = supremum_scan(box, grid=(eta_count, lam_count))
    corner = max(abs(box.eta_min), abs(box.eta_max))
    assert report.sup_estimate == pytest.approx(f_factored(corner, lam_lo), rel=REL_TOL)
    # the negative member of a +-eta tie
    assert report.argmax == (-corner if box.eta_min == -corner else corner, lam_lo)


# |eta| from 1e-300 to 1, half of the draws above ETA_ZERO_SNAP / 10
magnitudes = (st.floats(-300.0, 0.0) | st.floats(-13.0, 0.0)).map(lambda e: 10.0**e)
signed = st.tuples(magnitudes, st.booleans()).map(lambda m: -m[0] if m[1] else m[0])


@PROPERTY
@given(
    signed, signed, st.booleans(), st.floats(-300.0, 308.0), st.floats(-300.0, 308.0),
    st.integers(2, 401), st.integers(2, 401),
)
def test_scan_extreme_nodes_give_what_every_node_gives(eta_a, eta_b, symmetric, log_lam_a,
                                                       log_lam_b, eta_count, lam_count):
    # the scan evaluates f only on its extreme nodes; f's monotonicity says
    # that is enough, and this checks the rounding of _f_grid agrees: the same
    # refusal and the same maximum, bit for bit, as every kept node gives
    eta_lo, eta_hi = (-abs(eta_b), abs(eta_b)) if symmetric else sorted((eta_a, eta_b))
    lam_lo, lam_hi = sorted((10.0**log_lam_a, 10.0**log_lam_b))
    box, grid = Box(eta_lo, eta_hi, lam_lo, lam_hi), (eta_count, lam_count)
    eta = np.linspace(eta_lo, eta_hi, eta_count)
    if np.all(np.abs(eta) <= ETA_ZERO_SNAP):
        with pytest.raises(BoxIncludesEtaZero):
            supremum_scan(box, grid=grid)
        return
    try:
        reference = _every_node_max(box, grid)
    except InvalidBox as refused:
        with pytest.raises(InvalidBox) as raised:
            supremum_scan(box, grid=grid)
        assert str(raised.value) == str(refused)
        return
    assert supremum_scan(box, grid=grid).sup_estimate == reference


def test_scan_grid_below_corner_is_reported(monkeypatch):
    # the check is one-sided: a grid below the certified corner is only a
    # weaker lower estimate, and the scan reports it as it is
    f_grid = feasibility._f_grid
    monkeypatch.setattr(feasibility, "_f_grid", lambda eta, lam: f_grid(eta, lam) - 1.0)
    report = supremum_scan(Box(0.2, 1.0, 1e-3, 3.0), grid=(11, 11))
    assert report.sup_estimate == f_grid(np.array([1.0]), np.array([1e-3]))[0, 0] - 1.0


def _assert_grid_above_corner_raises(lift, grid, monkeypatch):
    # halving f lifts every node toward 0; negating it makes every node
    # positive.  Either contradicts the certified corner.
    f_grid = feasibility._f_grid
    monkeypatch.setattr(feasibility, "_f_grid", lambda eta, lam: lift * f_grid(eta, lam))
    with pytest.raises(CertificateViolation, match="exceeds the certified supremum"):
        supremum_scan(Box(-1.0, 1.0, 1e-3, 10.0), grid=grid)


@pytest.mark.parametrize("lift", [0.5, -1.0])
def test_scan_grid_above_corner_raises(lift, monkeypatch):
    # a small grid; below, a large one on the same 2x2 extreme nodes
    _assert_grid_above_corner_raises(lift, (21, 21), monkeypatch)


@pytest.mark.parametrize("lift", [0.5, -1.0])
def test_scan_grid_above_corner_raises_multi_block(lift, monkeypatch):
    # 401 x 2001 nodes, evaluated as the small grid's 2x2 extreme nodes
    _assert_grid_above_corner_raises(lift, (401, 2001), monkeypatch)


def test_scan_report_serialization():
    report = supremum_scan(Box(0.4, 0.6, 1.0, 2.0), grid=(3, 3))
    doc = report.to_dict()
    assert sorted(doc) == [
        "all_nodes_negative", "argmax", "box", "grid_shape", "skipped_eta_nodes",
        "sup_estimate",
    ]
    assert doc["box"] == [0.4, 0.6, 1.0, 2.0]
    assert doc["grid_shape"] == [3, 3]
    assert doc["argmax"] == [0.6, 1.0]
    assert doc["skipped_eta_nodes"] == []
    assert doc["all_nodes_negative"] is True
    assert report.all_nodes_negative == (report.sup_estimate < 0.0)


def _every_node_max(box, grid):
    # every kept node with multiplicity, evaluated on its signed eta at once
    eta_nodes = np.linspace(box.eta_min, box.eta_max, grid[0])
    eta_nodes = eta_nodes[np.abs(eta_nodes) > ETA_ZERO_SNAP]
    lam_nodes = np.linspace(box.lam_min, box.lam_max, grid[1])
    return float(feasibility._f_grid(eta_nodes, lam_nodes).max())


SCAN_REFERENCE_CASES = [
    # an odd eta count on a box of positive eta, 2001 lambda nodes
    (Box(0.05, 0.95, 1e-3, 10.0), (75, 2001)),
    # a lambda axis of 100,001 nodes
    (Box(-0.3, 0.7, 1e-4, 5.0), (3, 100_001)),
    (Box(-0.4, 0.9, 1e-3, 3.0), (27, 41)),        # eta-asymmetric
    (Box(-1.0, 1.0, 1e-3, 10.0), (201, 201)),     # symmetric, eta = 0 skipped
    (Box(0.5, 0.5, 1.0, 1.0), (201, 201)),        # every node ties
    (Box(-0.5, 0.5, 1.0, 1.0), (2, 2001)),        # every node ties, both signs
    (Box(0.5, 0.5, 1.0, 2.0), (201, 3)),          # each eta node repeated 201 times
    (Box(-1.0, 1.0, 1e-3, 1e-2), (40, 41)),       # the maximum is a +-eta tie
    (Box(0.4, 0.6, 1.0, 2.0), (2, 2)),            # the smallest grid
    # f at |eta| = 1 and at the next double below tie in floats: the argmax
    # is the corner (-1, 2), not the tied node of smaller |eta|
    (Box(-1.0, math.nextafter(1.0, 0.0), 2.0, 3.0), (2, 3)),
]


@pytest.mark.parametrize("box,grid", SCAN_REFERENCE_CASES)
def test_scan_matches_brute_force_reference(box, grid, monkeypatch):
    # f is evaluated on the calling thread
    threads = set()
    f_grid = feasibility._f_grid

    def recording(eta, lam):
        threads.add(threading.current_thread())
        return f_grid(eta, lam)

    monkeypatch.setattr(feasibility, "_f_grid", recording)
    report = supremum_scan(box, grid=grid)
    assert threads == {threading.current_thread()}
    assert report.sup_estimate == _every_node_max(box, grid)
    corner = max(abs(box.eta_min), abs(box.eta_max))
    assert report.argmax == (-corner if box.eta_min == -corner else corner, box.lam_min)


BIG = 1.7976931348623157e308
# a symmetric box whose eta = 0 node is skipped, an asymmetric one, a box of
# one point, and one whose np.linspace lambda axis of 4 nodes overflows before
# it pins its last node (f overflows at lam_max too, so the box is refused)
EXTREME_NODE_BOXES = {
    "symmetric": Box(-1.0, 1.0, 1e-3, 10.0),
    "asymmetric": Box(-0.4, 0.9, 1e-3, 3.0),
    "one point": Box(0.5, 0.5, 1.0, 1.0),
    "largest lambda": Box(-0.4, 0.9, 1e-3, BIG),
}


@pytest.mark.parametrize("grid", [(2, 2), (201, 3), (2001, 2001), (3, 100_001), (5, 4)])
@pytest.mark.parametrize("box", EXTREME_NODE_BOXES.values(), ids=EXTREME_NODE_BOXES.keys())
def test_scan_evaluates_f_once_on_the_extreme_nodes(box, grid, monkeypatch):
    calls = []
    f_grid = feasibility._f_grid

    def recording(eta, lam):
        calls.append((eta.tolist(), lam.tolist()))
        return f_grid(eta, lam)

    monkeypatch.setattr(feasibility, "_f_grid", recording)
    if box.lam_max == BIG:
        with pytest.raises(InvalidBox):
            supremum_scan(box, grid=grid)
    else:
        supremum_scan(box, grid=grid)
    [(rows, columns)] = calls
    # the box's lambda bounds, which np.linspace pins as its end nodes, and
    # the extreme kept |eta|; a one-value axis gives its value twice
    eta = np.abs(feasibility._scan_eta_nodes(box, grid[0]))
    kept = eta[eta > ETA_ZERO_SNAP]
    assert columns == [box.lam_min, box.lam_max]
    assert rows == [kept.min(), kept.max()]


def _scan_rows(box, eta_count, monkeypatch):
    # the |eta| rows the scan hands to _f_grid
    rows = []
    f_grid = feasibility._f_grid

    def recording(eta, lam):
        rows.append(eta)
        return f_grid(eta, lam)

    monkeypatch.setattr(feasibility, "_f_grid", recording)
    supremum_scan(box, grid=(eta_count, 3))
    [evaluated] = rows
    return evaluated


@pytest.mark.parametrize("eta_count,rows", [(201, 100), (2001, 1000), (200, 100), (2000, 1000)])
def test_symmetric_scan_evaluates_one_row_per_mirror_pair(eta_count, rows, monkeypatch):
    # np.linspace(-1, 1, 2001) rounds mirror nodes apart: 1428 distinct |eta|;
    # the scan's nodes are exact mirrors, and it evaluates the extremes of theirs
    box = Box(-1.0, 1.0, 1e-3, 10.0)
    eta = feasibility._scan_eta_nodes(box, eta_count)
    distinct = np.unique(np.abs(eta[np.abs(eta) > ETA_ZERO_SNAP]))
    assert distinct.size == rows
    assert list(_scan_rows(box, eta_count, monkeypatch)) == [distinct[0], distinct[-1]]


@pytest.mark.parametrize("eta_count", [27, 201, 2000])
def test_asymmetric_scan_keeps_the_linspace_nodes(eta_count, monkeypatch):
    box = Box(-0.4, 0.9, 1e-3, 3.0)
    eta = np.linspace(box.eta_min, box.eta_max, eta_count)
    distinct = np.unique(np.abs(eta[np.abs(eta) > ETA_ZERO_SNAP]))
    assert list(_scan_rows(box, eta_count, monkeypatch)) == [distinct[0], distinct[-1]]


@PROPERTY
@given(
    st.floats(1e-3, 1.0), st.floats(1e-6, 10.0), st.floats(1e-6, 10.0),
    st.integers(2, 401), st.integers(2, 401),
)
def test_symmetric_scan_reports_what_every_linspace_node_gives(
    eta_max, lam_a, lam_b, eta_count, lam_count
):
    # the mirrored eta axis moves no output byte against the plain np.linspace grid
    box = Box(-eta_max, eta_max, min(lam_a, lam_b), max(lam_a, lam_b))
    grid = (eta_count, lam_count)
    eta = np.linspace(box.eta_min, box.eta_max, eta_count)
    reference = feasibility.SupremumReport(
        box=box,
        grid_shape=grid,
        sup_estimate=_every_node_max(box, grid),
        argmax=(-eta_max, box.lam_min),
        skipped_eta_nodes=[float(v) for v in eta[np.abs(eta) <= ETA_ZERO_SNAP]],
    )
    assert supremum_scan(box, grid=grid).to_dict() == reference.to_dict()


def test_scan_tie_order_on_the_grid_maximum():
    # every node of a 2001^2 grid ties: the argmax is the box's one point (the
    # +-eta tie at the maximum is a reference case above)
    report = supremum_scan(Box(0.5, 0.5, 1.0, 1.0), grid=(2001, 2001))
    assert report.argmax == (0.5, 1.0)


MEMORY_BOXES = [Box(-1.0, 1.0, 1e-3, 10.0), Box(0.5, 0.5, 1.0, 1.0)]


@pytest.mark.parametrize("box", MEMORY_BOXES)
def test_scan_memory_stays_block_sized(box):
    # a whole 2001^2 grid of doubles is 30.5 MiB and its eta axis 16 KiB; the
    # scan holds that axis and the 2x2 extreme grid
    tracemalloc.start()
    try:
        supremum_scan(box, grid=(2001, 2001))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**19
