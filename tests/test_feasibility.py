"""Two-route evaluation of the feasibility surface, sign certificate, scans."""

import math
import warnings

import numpy as np
import pytest

from pdm_dirac import (
    BothZero,
    Box,
    BoxIncludesEtaZero,
    DimensionlessParams,
    EmptyBox,
    EtaOutOfRange,
    EtaZeroSingular,
    InvalidBox,
    NegativeLambda,
    SignVerdict,
    aux_root,
    evaluate_point,
    f_direct,
    f_factored,
    feasibility_inequality,
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


def test_feasibility_inequality_reference_points():
    ok, margin = feasibility_inequality(DimensionlessParams(0.5, 1.0))
    assert not ok
    assert margin == pytest.approx(F_HALF_1, rel=1e-12)
    ok, margin = feasibility_inequality(DimensionlessParams(math.sqrt(3.0) / 2.0, 1.0))
    assert not ok
    assert margin == pytest.approx(-1.5, abs=1e-12)


def test_feasibility_inequality_boundary_limit():
    # margin -> 0 as lam -> 0 (equality case of the threshold inequality)
    _, margin = feasibility_inequality(DimensionlessParams(0.5, 1e-8))
    assert abs(margin) < 1e-6


def test_monotone_in_lambda_soft_property():
    # observed, not proven: f decreases in lam at fixed eta; warn on violation
    violations = []
    for eta in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
        lams = np.linspace(1e-3, 10.0, 200)
        vals = [f_factored(eta, float(l)) for l in lams]
        for a, b, la, lb in zip(vals, vals[1:], lams, lams[1:]):
            if b >= a:
                violations.append((eta, float(la), float(lb)))
    if violations:  # pragma: no cover - diagnostic path
        warnings.warn(f"f not decreasing in lambda at {violations[:5]} ...")


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
    report = supremum_scan(Box(0.4, 0.6, 1.0, 2.0), grid=(2, 2), refine_steps=0)
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


def test_scan_grid_floor():
    with pytest.raises(InvalidBox):
        supremum_scan(Box(0.1, 1.0, 1.0, 2.0), grid=(1, 5))


def test_scan_rejects_pure_eta_zero_box():
    with pytest.raises(BoxIncludesEtaZero):
        supremum_scan(Box(0.0, 0.0, 1.0, 2.0), grid=(2, 2))


def test_scan_skips_eta_zero_gridline():
    report = supremum_scan(Box(-1.0, 1.0, 0.5, 2.0), grid=(21, 5), refine_steps=0)
    assert len(report.skipped_eta_nodes) == 1
    assert abs(report.skipped_eta_nodes[0]) <= 1e-12
    assert report.all_nodes_negative
    assert report.sup_estimate < 0.0


def test_scan_deterministic():
    box = Box(-1.0, 1.0, 1e-3, 10.0)
    a = supremum_scan(box, grid=(41, 41), refine_steps=24)
    b = supremum_scan(box, grid=(41, 41), refine_steps=24)
    assert a.sup_estimate == b.sup_estimate
    assert a.argmax == b.argmax
    assert a.refinement_trace == b.refinement_trace


def test_scan_tie_break_prefers_negative_eta():
    # f is even in eta, so (+1, lam) and (-1, lam) tie exactly; the scan
    # must resolve the tie the same way regardless of evaluation order
    report = supremum_scan(Box(-1.0, 1.0, 1.0, 1.0), grid=(5, 2), refine_steps=0)
    assert report.argmax[0] == -1.0
    # the one ranking: largest f, then smallest lambda, smallest |eta|, eta < 0
    tied = [(0.5, 2.0, -1.0), (0.9, 1.0, -1.0), (-0.9, 1.0, -1.0), (0.7, 1.0, -1.0)]
    assert sorted(tied, key=feasibility._rank) == [
        (0.7, 1.0, -1.0), (-0.9, 1.0, -1.0), (0.9, 1.0, -1.0), (0.5, 2.0, -1.0)
    ]


def test_scan_sup_tracks_refinement(monkeypatch):
    # refinement can only raise the estimate, never lower it
    box = Box(0.2, 1.0, 1e-3, 3.0)
    coarse = supremum_scan(box, grid=(11, 11), refine_steps=0)
    refined = supremum_scan(box, grid=(11, 11), refine_steps=40)
    assert refined.sup_estimate >= coarse.sup_estimate
    assert refined.sup_estimate < 0.0
    # f peaks between grid nodes, where only refinement sees it: the supremum
    # is the best refinement evaluation, and 0 is not "all negative"
    monkeypatch.setattr(feasibility, "f_factored", lambda eta, lam: 1.0 - abs(eta - 0.55))
    report = supremum_scan(box, grid=(11, 11), refine_steps=40)
    assert report.sup_estimate == max(v for _, _, v in report.refinement_trace)
    assert report.sup_estimate > coarse.sup_estimate
    monkeypatch.setattr(feasibility, "f_factored", lambda eta, lam: 0.0)
    report = supremum_scan(box, grid=(11, 11), refine_steps=40)
    assert report.sup_estimate == 0.0
    assert not report.all_nodes_negative


def test_scan_report_serialization():
    report = supremum_scan(Box(0.4, 0.6, 1.0, 2.0), grid=(3, 3), refine_steps=8)
    doc = report.to_dict()
    assert doc["box"] == [0.4, 0.6, 1.0, 2.0]
    assert doc["grid_shape"] == [3, 3]
    assert doc["refinement_evaluations"] == len(report.refinement_trace)
    assert "refinement_trace" not in doc  # reported by its length only
    assert doc["all_nodes_negative"] is True
    assert report.all_nodes_negative == (report.sup_estimate < 0.0)
