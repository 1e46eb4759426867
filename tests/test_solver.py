"""Finite-difference oracle: operator assembly, Sturm slicing, localization."""

import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from pdm_dirac import (
    Discretization,
    DomainResolutionWarning,
    DomainTooSmall,
    GridTooCoarse,
    PhysicalParams,
    analytic_vs_numeric,
    bound_state_report,
    build_hamiltonian,
    continuum_edge,
    eigenvalues_below,
    eigenvector,
    localization_metric,
    poschl_teller_well,
    sturm_count,
)

P_HALF = PhysicalParams(1.0, 0.5, 1.0)


def toy_operator():
    # deliberately under-resolved 5x5 instance for dense-reference checks
    return build_hamiltonian(
        P_HALF, Discretization(2.5, 5), enforce_resolution=False
    )


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


def test_for_params_defaults():
    disc = Discretization.for_params(PhysicalParams(1.0, 0.5, 2.0))
    assert disc.half_width == pytest.approx(12.5)   # 25 / alpha
    assert disc.num_points == 8000


def test_build_hamiltonian_structure():
    op = toy_operator()
    h = op.spacing
    assert op.off == pytest.approx(-1.0 / h**2)
    assert np.allclose(op.diag, 2.0 / h**2 + op.v_eff)
    # x = 0 is not a node of this even-N-like toy; check V_eff directly
    mid = np.argmin(np.abs(op.x))
    assert op.diag[mid] == pytest.approx(2.0 / h**2 + op.v_eff[mid])
    dense = op.dense()
    assert np.allclose(dense, dense.T)


def test_build_hamiltonian_constant_potential_diagonal():
    op = build_hamiltonian(
        PhysicalParams(1.0, 0.0, 1.0), Discretization(20.0, 50), enforce_resolution=False
    )
    h = op.spacing
    assert np.allclose(op.diag, 2.0 / h**2 + 1.0)


def test_resolution_guards():
    with pytest.raises(GridTooCoarse):
        build_hamiltonian(PhysicalParams(1.0, 0.5, 1.0), Discretization(25.0, 100))
    with pytest.raises(DomainTooSmall):
        build_hamiltonian(PhysicalParams(1.0, 0.5, 1.0), Discretization(2.5, 2000))
    with pytest.warns(DomainResolutionWarning):
        op = build_hamiltonian(PhysicalParams(1.0, 0.5, 1.0), Discretization(8.0, 2000))
    assert op.domain_warning


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
        op = build_hamiltonian(p, disc, enforce_resolution=False)
        reference = scipy_linalg.eigvalsh(op.dense())
        for shift in rng.uniform(reference[0] - 1.0, reference[-1] + 1.0, size=6):
            assert sturm_count(op, float(shift)) == int(np.sum(reference < shift))


def test_toy_eigenvalues_match_dense_reference():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    op = toy_operator()
    reference = scipy_linalg.eigvalsh(op.dense())
    got = eigenvalues_below(op, math.inf)
    assert got.shape == (5,)
    assert np.all(np.diff(got) > 0)
    np.testing.assert_allclose(got, reference, rtol=1e-10, atol=1e-10)


def test_slice_values_bracketed_by_sturm_count():
    # sturm_count is the oracle: the slice holds exactly the counted values,
    # and the j-th one sits where the count steps from <= j to > j
    params = PhysicalParams(1.0, 0.1, 0.2)
    production = build_hamiltonian(params, Discretization.for_params(params))
    cases = [(toy_operator(), 100.0, 5), (production, 1.1 * continuum_edge(params), 11)]
    for op, threshold, expected in cases:
        values = eigenvalues_below(op, threshold)
        assert values.size == sturm_count(op, threshold) == expected
        for j, v in enumerate(values):
            d = 1e-9 * max(1.0, abs(v))
            assert sturm_count(op, v - d) <= j < sturm_count(op, v + d)


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
        op = build_hamiltonian(p, disc, enforce_resolution=False)
        reference = scipy_linalg.eigvalsh(op.dense())
        got = eigenvalues_below(op, math.inf)
        assert got.size == n
        for a, b in zip(got, reference):
            assert abs(a - b) <= 1e-9 * max(1.0, abs(b))


def test_constant_potential_has_no_state_below_edge():
    # Dirichlet box modes sit at 1 + (2/h^2)(1 - cos(k pi / (N+1))) > 1
    op = build_hamiltonian(
        PhysicalParams(1.0, 0.0, 1.0),
        Discretization(5.0 * math.pi, 400),
        enforce_resolution=False,
    )
    assert eigenvalues_below(op, 1.0).size == 0
    # and the first few above the edge match the exact discrete dispersion
    h = op.spacing
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
        op = build_hamiltonian(
            p, Discretization(float(rng.uniform(3.0, 20.0)), n), enforce_resolution=False
        )
        vals = eigenvalues_below(op, math.inf)
        assert np.all(np.diff(vals) >= 0)
        assert vals[0] >= float(np.min(op.v_eff)) - 1e-12


def test_eigenvector_residual_and_sign():
    op = build_hamiltonian(
        PhysicalParams(1.0, 0.0, 1.0),
        Discretization(4.0, 200),
        potential=poschl_teller_well,
        enforce_resolution=False,
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
    # production control well: the candidate's vector matches LAPACK's
    # eigh_tridiagonal up to sign
    params = PhysicalParams(1.0, 0.5, 1.0)
    disc = Discretization.for_params(params)
    assert disc.num_points == 8000
    report = bound_state_report(params, disc, potential=poschl_teller_well, edge=1.0)
    [cand] = report.bound_candidates
    op = build_hamiltonian(params, disc, potential=poschl_teller_well)
    v = eigenvector(op, cand.e_squared)
    _, ref = eigh_tridiagonal(
        op.diag, np.full(op.size - 1, op.off), select="i", select_range=(0, 0)
    )
    ref = ref[:, 0]
    assert min(np.max(np.abs(v - ref)), np.max(np.abs(v + ref))) <= 1e-10
    assert v[np.argmax(np.abs(v))] > 0.0


def test_localization_separates_bound_from_box_modes():
    # genuinely bound: Poschl-Teller ground state on a wide box
    report = bound_state_report(
        P_HALF,
        Discretization(25.0, 2000),
        potential=poschl_teller_well,
        edge=1.0,
    )
    assert len(report.bound_candidates) == 1
    metric = report.bound_candidates[0].localization
    assert metric.interior_mass_fraction >= 0.99
    assert metric.edge_amplitude <= 1e-4
    assert metric.localized
    # box artifact: lowest mode of the constant potential fills the box
    op = build_hamiltonian(
        PhysicalParams(1.0, 0.0, 1.0), Discretization(10.0, 500), enforce_resolution=False
    )
    lowest = eigenvalues_below(op, 1.5)[0]
    phi = eigenvector(op, float(lowest))
    box_metric = localization_metric(op.x, phi, op.half_width)
    assert not box_metric.localized
    assert box_metric.interior_mass_fraction < 0.9


def test_continuum_edge_values():
    assert continuum_edge(P_HALF) == pytest.approx(0.25)
    assert continuum_edge(PhysicalParams(2.0, 0.5, 1.0)) == pytest.approx(1.0)
    assert continuum_edge(PhysicalParams(1.0, -0.5, 1.0)) == pytest.approx(0.25)
    assert continuum_edge(PhysicalParams(1.0, 1.0, 1.0)) == 0.0


def test_core_experiment_is_empty():
    disc = Discretization(25.0, 8000)
    report = bound_state_report(P_HALF, disc)
    assert report.continuum_edge == pytest.approx(0.25)
    # the slice may pick up box modes just above the edge; nothing below it
    op = build_hamiltonian(P_HALF, disc)
    assert sturm_count(op, report.continuum_edge) == 0
    assert report.slice_count == sturm_count(op, 1.1 * report.continuum_edge)
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
    assert report.slice_count == sturm_count(op, 1.1) > 0
    assert report.bound_candidates == []
    assert report.empty_real_spectrum


def test_control_well_finds_the_known_state():
    report = bound_state_report(
        P_HALF, Discretization(25.0, 8000), potential=poschl_teller_well, edge=1.0
    )
    assert report.empty_real_spectrum is False
    assert len(report.bound_candidates) == 1
    assert report.bound_candidates[0].e_squared == pytest.approx(0.0, abs=2e-3)


def test_report_counts_slice_and_solves_only_below_edge():
    # production operator (11 box modes in the slice, none below the edge)
    # and the control well (5 in the slice, its one state below the edge)
    cases = [
        (PhysicalParams(1.0, 0.1, 0.2), None, None, 11, 0),
        (P_HALF, poschl_teller_well, 1.0, 5, 1),
    ]
    for p, potential, edge, slice_size, candidates in cases:
        disc = Discretization.for_params(p)
        report = bound_state_report(p, disc, potential=potential, edge=edge)
        op = build_hamiltonian(p, disc, potential=potential)
        edge = report.continuum_edge
        assert report.slice_count == sturm_count(op, 1.1 * edge) == slice_size
        values = [c.e_squared for c in report.bound_candidates]
        assert values == eigenvalues_below(op, edge).tolist()
        assert len(values) == candidates
        assert report.to_dict()["slice_count"] == report.slice_count


def test_custom_potential_requires_explicit_edge():
    with pytest.raises(ValueError):
        bound_state_report(P_HALF, Discretization(25.0, 500), potential=poschl_teller_well)


def test_grid_refinement_second_order_on_control_well():
    # exact ground level of 1 - 2 sech^2 x sits at 0; discretization error
    # should shrink like h^2 (log-log slope 2 +/- 0.3)
    errors, spacings = [], []
    for n in (250, 500, 1000, 2000):
        report = bound_state_report(
            P_HALF, Discretization(25.0, n), potential=poschl_teller_well, edge=1.0
        )
        [candidate] = report.bound_candidates
        errors.append(abs(candidate.e_squared))
        spacings.append(report.spacing)
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


def test_analytic_vs_numeric_reference_case():
    report = analytic_vs_numeric(P_HALF, Discretization(25.0, 4000), n_max=5)
    assert report.analytic_error is None
    assert report.analytic_entries[0].e_squared == pytest.approx(-4.6213203435596426, rel=1e-12)
    assert report.numeric.empty_real_spectrum
    assert report.imaginary_levels_consistent
    assert report.real_levels_unbound
    assert report.consistent


def test_analytic_vs_numeric_exact_rational_case():
    eta = math.sqrt(3.0) / 2.0
    report = analytic_vs_numeric(
        PhysicalParams(1.0, eta, 1.0), Discretization(25.0, 4000), n_max=2
    )
    assert report.analytic_entries[0].e_squared == pytest.approx(-1.5, abs=1e-12)
    assert report.numeric.continuum_edge == pytest.approx((1.0 - eta) ** 2, rel=1e-12)
    assert report.consistent


def test_analytic_vs_numeric_eta_zero_branch():
    report = analytic_vs_numeric(
        PhysicalParams(1.0, 0.0, 1.0), Discretization(25.0, 1000), n_max=3
    )
    assert report.analytic_error is not None
    assert "EtaZeroDegenerate" in report.analytic_error
    assert report.analytic_entries == []
    assert report.numeric.empty_real_spectrum
    assert report.consistent


def test_report_serialization():
    report = bound_state_report(P_HALF, Discretization(25.0, 1000))
    doc = report.to_dict()
    assert doc["empty_real_spectrum"] is True
    assert doc["continuum_edge"] == report.continuum_edge
    assert doc["grid"]["num_points"] == 1000
