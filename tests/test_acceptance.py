"""Acceptance suite: ten go/no-go checks for the feasibility claim pipeline.

Each criterion prints exactly one PASS/FAIL line (bypassing capture) and then
asserts, so a full `pytest` run shows the scoreboard inline.

Conventions used below, also noted where they apply:
- "relative" comparisons use |a - b| <= tol * max(1, |b|) so that values near
  zero are compared absolutely at the same tolerance;
- stated runtime budgets are asserted on wall-clock time of the criterion
  body (they are generous; typical runtimes are 100-1000x under budget).
"""

import json
import math
import time

import numpy as np
import pytest
import scipy.linalg

from pdm_dirac import (
    Box,
    Classification,
    DimensionlessParams,
    Discretization,
    PhysicalParams,
    SignVerdict,
    bound_state_report,
    build_hamiltonian,
    classify_levels,
    delta1,
    eigenvalues_below,
    effective_potential,
    f_direct,
    f_factored,
    mass_profile,
    poschl_teller_well,
    potential_sample,
    sign_certificate,
    supremum_scan,
)
from pdm_dirac.cli import main as cli_main

# mpmath 50-digit references, frozen as doubles
DELTA1_HALF = -0.20710678118654752    # (1 - sqrt(2)) / 2
E2_HALF = -4.6213203435596426         # radicand at (eta=0.5, lam=1, n=0)
ABS_E_HALF = 2.1497256437879794


def report(capsys, k, ok, detail):
    with capsys.disabled():
        print(f"\n[acceptance] criterion {k:2d}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_01_boundary_identity(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    for eta in np.linspace(-1.0, 1.0, 201):
        if abs(eta) <= 1e-12:
            continue  # f is undefined on the eta = 0 line
        worst = max(worst, abs(f_direct(float(eta), 0.0)), abs(f_factored(float(eta), 0.0)))
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and checked == 200 and elapsed < 1.0
    report(capsys, 1, ok, f"f(eta, 0) = 0 on {checked} nodes, max |f| = {worst:.3g}")
    assert worst <= 1e-12
    assert checked == 200
    assert elapsed < 1.0


def test_criterion_02_route_agreement(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250501)
    worst = 0.0
    for _ in range(10_000):
        eta = float(rng.uniform(1e-3, 1.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        lam = 10.0 * (1.0 - float(rng.random()))  # (0, 10]
        fd = f_direct(eta, lam)
        ff = f_factored(eta, lam)
        worst = max(worst, abs(fd - ff) / max(1.0, abs(fd)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    report(capsys, 2, ok, f"two routes agree on 10^4 seeded samples, worst rel = {worst:.3g}")
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_03_negativity_scan(capsys):
    t0 = time.perf_counter()
    grid_n = 801
    box = Box(-1.0, 1.0, 1e-3, 10.0)
    scan = supremum_scan(box, grid=(grid_n, grid_n))
    # certify the sign at every grid node, not just the float maximum
    eta_nodes = [float(e) for e in np.linspace(-1.0, 1.0, grid_n) if abs(e) > 1e-12]
    lam_nodes = [float(l) for l in np.linspace(1e-3, 10.0, grid_n)]
    all_negative = all(
        sign_certificate(eta, lam) is SignVerdict.NEGATIVE
        for eta in eta_nodes
        for lam in lam_nodes
    )
    elapsed = time.perf_counter() - t0
    eta_star, lam_star = scan.argmax
    ok = (
        scan.sup_estimate < 0.0
        and all_negative
        and scan.all_nodes_negative
        and abs(eta_star) == 1.0
        and lam_star == 1e-3
        and abs(scan.sup_estimate) <= 1e-4
        and elapsed < 30.0
    )
    report(
        capsys, 3, ok,
        f"sup f = {scan.sup_estimate:.6g} < 0 at (eta, lam) = ({eta_star}, {lam_star}); "
        f"{len(eta_nodes) * len(lam_nodes)} node certificates Negative; {elapsed:.1f}s",
    )
    assert scan.sup_estimate < 0.0
    assert all_negative and scan.all_nodes_negative
    assert abs(eta_star) == 1.0 and lam_star == 1e-3
    assert abs(scan.sup_estimate) <= 1e-4
    assert elapsed < 30.0


def test_criterion_04_bridge_identity(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(40404)
    mismatches = 0
    for _ in range(1000):
        eta = float(rng.uniform(1e-3, 1.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        lam = float(rng.uniform(1e-3, 10.0))
        m0 = float(rng.uniform(0.2, 3.0))
        [level] = classify_levels(DimensionlessParams(eta, lam), 0, M0=m0)
        lhs = level.e_squared
        rhs = m0 * m0 * f_factored(eta, lam)
        mismatches += lhs != rhs
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 1.0
    report(
        capsys, 4, ok,
        f"ground-level radicand == M0^2 f bitwise on 10^3 points, {mismatches} mismatches",
    )
    assert mismatches == 0
    assert elapsed < 1.0


def test_criterion_05_reference_points(capsys):
    t0 = time.perf_counter()
    [entry] = classify_levels(DimensionlessParams(0.5, 1.0), 0)
    d_err = abs(entry.delta1 - DELTA1_HALF)
    e_err = abs(entry.e_squared - E2_HALF)
    m_err = abs(entry.energy_magnitude - ABS_E_HALF)
    [exact] = classify_levels(DimensionlessParams(math.sqrt(3.0) / 2.0, 1.0), 0)
    x_d_err = abs(exact.delta1 - (-0.5))
    x_e_err = abs(exact.e_squared - (-1.5))
    elapsed = time.perf_counter() - t0
    ok = (
        d_err <= 1e-12
        and e_err <= 1e-12 * max(1.0, abs(E2_HALF))
        and entry.classification is Classification.IMAGINARY
        and m_err <= 1e-12 * max(1.0, ABS_E_HALF)
        and x_d_err <= 1e-12
        and x_e_err <= 1e-12
        and exact.classification is Classification.IMAGINARY
        and elapsed < 1.0
    )
    report(
        capsys, 5, ok,
        "reference point (0.5, 1): delta1/E^2/|E| to 1e-12, Imaginary; "
        f"exact case (sqrt(3)/2, 1): delta1 err {x_d_err:.3g}, E^2 err {x_e_err:.3g}",
    )
    assert d_err <= 1e-12
    assert e_err <= 1e-12 * max(1.0, abs(E2_HALF))
    assert entry.classification is Classification.IMAGINARY
    assert m_err <= 1e-12 * max(1.0, ABS_E_HALF)
    assert x_d_err <= 1e-12 and x_e_err <= 1e-12
    assert elapsed < 1.0


def test_criterion_06_empty_set_verdict(capsys):
    t0 = time.perf_counter()
    p = PhysicalParams(1.0, 0.5, 1.0)
    base = bound_state_report(p, Discretization(25.0, 8000))
    refined = bound_state_report(p, Discretization(40.0, 16000))
    localized = [c for c in base.bound_candidates if c.localization.localized]
    localized_r = [c for c in refined.bound_candidates if c.localization.localized]
    elapsed = time.perf_counter() - t0
    ok = (
        base.continuum_edge == pytest.approx(0.25)
        and localized == []
        and base.empty_real_spectrum
        and localized_r == []
        and refined.empty_real_spectrum
        and elapsed < 60.0
    )
    report(
        capsys, 6, ok,
        "no localized state below edge 0.25 at (L=25, N=8000); "
        f"unchanged at (L=40, N=16000); {elapsed:.1f}s",
    )
    assert base.continuum_edge == pytest.approx(0.25)
    assert localized == [] and base.empty_real_spectrum
    assert localized_r == [] and refined.empty_real_spectrum
    assert elapsed < 60.0


def test_criterion_07_detector_control(capsys):
    t0 = time.perf_counter()
    report_ = bound_state_report(
        PhysicalParams(1.0, 0.5, 1.0),
        Discretization(25.0, 8000),
        potential=poschl_teller_well,
    )
    localized = [c for c in report_.bound_candidates if c.localization.localized]
    err = abs(localized[0].e_squared - 0.0) if len(localized) == 1 else math.inf
    elapsed = time.perf_counter() - t0
    ok = len(localized) == 1 and err <= 2e-3 and elapsed < 60.0
    report(
        capsys, 7, ok,
        f"control well: exactly one localized state, |E^2 - 0| = {err:.3g} <= 2e-3",
    )
    assert len(localized) == 1
    assert err <= 2e-3
    assert elapsed < 60.0


def test_criterion_08_dense_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(88888)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 51))
        half_width = float(rng.uniform(2.0, 15.0))
        p = PhysicalParams(
            float(rng.uniform(0.3, 2.0)),
            float(rng.uniform(-1.0, 1.0)),
            float(rng.uniform(0.3, 2.0)),
        )
        op = build_hamiltonian(p, Discretization(half_width, n))
        reference = scipy.linalg.eigvalsh(op.dense())
        got = eigenvalues_below(op, math.inf)
        assert got.size == n
        worst = max(worst, float(np.max(np.abs(got - reference))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    report(
        capsys, 8, ok,
        f"Sturm-isolated shift-and-invert values vs dense reference on 20 instances, "
        f"worst |diff| = {worst:.3g}",
    )
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_criterion_09_parity_suite(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(909090)
    worst_veff = worst_re = worst_v0 = 0.0
    even_bitwise = True
    for _ in range(500):
        m0 = float(rng.uniform(0.2, 3.0))
        eta = float(rng.uniform(1e-3, 1.0))
        alpha = float(rng.uniform(0.2, 3.0))
        lam = float(rng.uniform(1e-3, 10.0))
        x = float(rng.uniform(-12.0, 12.0))
        even_bitwise &= f_factored(-eta, lam) == f_factored(eta, lam)
        even_bitwise &= delta1(DimensionlessParams(-eta, lam)) == delta1(
            DimensionlessParams(eta, lam)
        )
        [minus_level] = classify_levels(DimensionlessParams(-eta, lam), 0, M0=m0)
        [plus_level] = classify_levels(DimensionlessParams(eta, lam), 0, M0=m0)
        even_bitwise &= minus_level.e_squared == plus_level.e_squared
        plus = PhysicalParams(m0, eta, alpha)
        minus = PhysicalParams(m0, -eta, alpha)
        a = effective_potential(minus, x)
        b = effective_potential(plus, -x)
        worst_veff = max(worst_veff, abs(a - b) / max(1.0, abs(b)))
        # V = i Im V: potential_sample carries Im V as a real array
        im_v = potential_sample(plus, np.array([x, 0.0])).im_v
        v, v0 = 1j * im_v
        worst_re = max(worst_re, abs(v.real))
        worst_v0 = max(
            worst_v0,
            abs(v0.imag - alpha * eta / 2.0) / max(1.0, abs(alpha * eta / 2.0)),
        )
    elapsed = time.perf_counter() - t0
    ok = (
        even_bitwise
        and worst_veff <= 1e-12
        and worst_re == 0.0
        and worst_v0 <= 1e-12
        and elapsed < 1.0
    )
    report(
        capsys, 9, ok,
        "evenness bitwise; V_eff mirror err "
        f"{worst_veff:.3g}; Re V = {worst_re:.3g}; Im V(0) err {worst_v0:.3g}",
    )
    assert even_bitwise
    assert worst_veff <= 1e-12
    assert worst_re == 0.0
    assert worst_v0 <= 1e-12
    assert elapsed < 1.0


def test_criterion_10_end_to_end(capsys, tmp_path):
    t0 = time.perf_counter()
    results = {}
    for tag, flags in {
        "a": ["--eta", "0.5", "--lambda", "1"],
        "b": ["--M0", "1", "--eta", "0.9", "--alpha", "0.2"],
    }.items():
        out = tmp_path / f"verdict_{tag}.json"
        args = ["verdict", *flags, "--out", str(out)]
        rc1 = cli_main(args)
        first = out.read_bytes()
        rc2 = cli_main(args)
        second = out.read_bytes()
        doc = json.loads(first)
        results[tag] = (rc1, rc2, first == second, doc["statement"])
    surface = tmp_path / "surface.csv"
    rc_surface = cli_main(["surface", "--out", str(surface)])
    rows = [
        line.split(",")
        for line in surface.read_text().splitlines()[1:]
        if not line.startswith("#")
    ]
    values = [(float(lam), float(f)) for _, lam, f in rows]
    max_f = max(f for _, f in values)
    boundary_only = all((f == 0.0) == (lam == 0.0) for lam, f in values)
    elapsed = time.perf_counter() - t0
    ok = (
        all(r == (0, 0, True, "SpectrumImaginaryOrEmpty") for r in results.values())
        and rc_surface == 0
        and max_f == 0.0
        and boundary_only
        and elapsed < 120.0
    )
    report(
        capsys, 10, ok,
        "verdict byte-deterministic and SpectrumImaginaryOrEmpty at both points; "
        f"surface max f = {max_f} only on the lam = 0 boundary; {elapsed:.1f}s",
    )
    capsys.readouterr()  # swallow the CLI's own stdout chatter
    for rc1, rc2, stable, statement in results.values():
        assert (rc1, rc2) == (0, 0)
        assert stable
        assert statement == "SpectrumImaginaryOrEmpty"
    assert rc_surface == 0
    assert max_f == 0.0
    assert boundary_only
    assert elapsed < 120.0
