"""Closed-form evaluators: mass profile, complex vector potential, levels.

High-precision reference values were generated once with mpmath at 50
significant digits and frozen here as doubles.
"""

import math
import warnings

import numpy as np
import pytest

from pdm_dirac import (
    Classification,
    DimensionlessParams,
    EtaZeroDegenerate,
    EtaZeroSingular,
    LambdaZero,
    PhysicalParams,
    classify_levels,
    delta1,
    effective_potential,
    level_energy,
    mass_profile,
    potential_sample,
    sech_squared,
    vector_potential,
)

P_HALF = PhysicalParams(1.0, 0.5, 1.0)
D_HALF = DimensionlessParams(0.5, 1.0)

# mpmath, 50 digits, rounded to nearest double
TANH_1 = 0.76159415595576489
MASS_AT_1 = 1.3807970779778824       # 1 + 0.5 tanh(1)
IM_V_AT_1 = 0.07603838904212129      # 0.5 sech(1)^2 / (2 (1 + 0.5 tanh(1)))
V_EFF_AT_1 = 1.9066005705522584      # (1 + 0.5 tanh(1))^2
DELTA1_HALF = -0.20710678118654752   # (1 - sqrt(2)) / 2
E2_N0 = -4.6213203435596426
E2_N1 = 0.22366154000375338
E2_N2 = -2.0422395073446366
E2_N3 = -6.5823027760912807
ABS_E_N0 = 2.1497256437879794


def test_mass_profile_reference_points():
    assert mass_profile(P_HALF, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert mass_profile(P_HALF, 1.0) == pytest.approx(MASS_AT_1, rel=1e-15)
    # saturation toward the asymptotes
    assert mass_profile(P_HALF, 40.0) == pytest.approx(1.5, rel=1e-15)
    assert mass_profile(P_HALF, -40.0) == pytest.approx(0.5, rel=1e-15)


def test_mass_profile_bounds():
    rng = np.random.default_rng(91)
    for _ in range(300):
        m0 = float(rng.uniform(0.1, 5.0))
        eta = float(rng.uniform(-1.0, 1.0))
        alpha = float(rng.uniform(0.1, 5.0))
        x = float(rng.uniform(-50.0, 50.0))
        m = mass_profile(PhysicalParams(m0, eta, alpha), x)
        assert m0 * (1 - abs(eta)) - 1e-12 <= m <= m0 * (1 + abs(eta)) + 1e-12


def test_sech_squared_overflow_safe():
    assert sech_squared(0.0) == 1.0
    # cosh(z)**2 overflows from |z| ~ 355, long before cosh(z) does near 710:
    # the result is 0.0, without an overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (356.0, 380.0, 399.0, 800.0, 1e4, math.inf):
            assert sech_squared(z) == 0.0
            assert sech_squared(-z) == 0.0
        arr = sech_squared(np.array([0.0, 1.0, 356.0, -399.0, 1e4, -math.inf]))
    assert arr[0] == 1.0
    assert arr[1] > 0.0
    assert arr[2:].tolist() == [0.0] * 4


def test_vector_potential_is_purely_imaginary():
    v = vector_potential(PhysicalParams(1.0, 0.5, 2.0), 0.0)
    assert v == 0.5j  # i * alpha * eta / 2 at the origin
    rng = np.random.default_rng(17)
    for _ in range(100):
        p = PhysicalParams(1.0, float(rng.uniform(-0.99, 0.99)), float(rng.uniform(0.1, 3.0)))
        v = vector_potential(p, float(rng.uniform(-20.0, 20.0)))
        assert v.real == 0.0


def test_vector_potential_hermitian_limit():
    p = PhysicalParams(1.0, 0.0, 1.0)
    for x in (-3.0, 0.0, 7.5):
        assert vector_potential(p, x) == 0.0


def test_vector_potential_reference_point():
    v = vector_potential(P_HALF, 1.0)
    assert v.imag == pytest.approx(IM_V_AT_1, rel=1e-14)


def test_vector_potential_matches_log_derivative():
    # Im V = M'/(2M) = (log M)'/2, against mpmath's numeric derivative of log M;
    # at |alpha x| = 45 that is ~1e-39 of log M, hence 80 digits
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(1003)
    with mp.workdps(80):
        for _ in range(1000):
            p = PhysicalParams(
                float(rng.uniform(0.2, 3.0)),
                float(rng.uniform(-0.95, 0.95)),
                float(rng.uniform(0.2, 3.0)),
            )
            x = float(rng.uniform(-15.0, 15.0))
            log_mass = lambda t: mp.log(p.M0 * (1 + p.eta * mp.tanh(p.alpha * t)))
            ref = float(mp.diff(log_mass, x) / 2)
            assert vector_potential(p, x).imag == pytest.approx(ref, rel=1e-12, abs=1e-300)


def test_effective_potential_is_mass_squared():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = PhysicalParams(
            float(rng.uniform(0.2, 3.0)),
            float(rng.uniform(-1.0, 1.0)),
            float(rng.uniform(0.2, 3.0)),
        )
        x = float(rng.uniform(-30.0, 30.0))
        assert effective_potential(p, x) == pytest.approx(mass_profile(p, x) ** 2, rel=4e-16)


def test_effective_potential_reference_point():
    assert effective_potential(P_HALF, 1.0) == pytest.approx(V_EFF_AT_1, rel=1e-14)


def test_potential_sample_fields():
    s = potential_sample(P_HALF, 0.0)
    assert (s.x, s.mass, s.v_eff) == (0.0, 1.0, 1.0)
    assert s.im_v == 0.25


def test_delta1_reference_points():
    assert delta1(DimensionlessParams(0.0, 1.0)) == 0.0
    assert delta1(DimensionlessParams(math.sqrt(3.0) / 2.0, 1.0)) == pytest.approx(
        -0.5, abs=1e-15
    )
    assert delta1(D_HALF) == pytest.approx(DELTA1_HALF, abs=1e-15)


def test_delta1_rejects_lambda_zero():
    with pytest.raises(LambdaZero):
        delta1(DimensionlessParams(0.5, 0.0))
    with pytest.raises(LambdaZero):  # (eta/lam)^2 overflows: lam is 0 in doubles
        delta1(DimensionlessParams(0.5, 1e-300))
    with pytest.raises(EtaZeroSingular):  # delta1 is finite, but u^2 underflows
        level_energy(DimensionlessParams(1e-300, 1e-300), 0)


def test_delta1_nonpositive_and_monotone_in_eta():
    lam = 0.7
    etas = np.linspace(0.0, 1.0, 41)
    values = [delta1(DimensionlessParams(float(e), lam)) for e in etas]
    assert all(v <= 0.0 for v in values)
    assert all(b < a for a, b in zip(values, values[1:]))  # strictly decreasing in |eta|


def test_level_energy_reference_point():
    entry = level_energy(D_HALF, 0)
    assert entry.n == 0
    assert entry.delta1 == pytest.approx(DELTA1_HALF, abs=1e-15)
    assert entry.e_squared == pytest.approx(E2_N0, rel=1e-12)
    assert entry.classification is Classification.IMAGINARY
    assert entry.energy_magnitude == pytest.approx(ABS_E_N0, rel=1e-12)


def test_level_energy_exact_rational_case():
    entry = level_energy(DimensionlessParams(math.sqrt(3.0) / 2.0, 1.0), 0)
    assert entry.delta1 == pytest.approx(-0.5, abs=1e-12)
    assert entry.e_squared == pytest.approx(-1.5, abs=1e-12)
    assert entry.classification is Classification.IMAGINARY


def test_level_energy_scales_with_mass():
    for m0 in (0.5, 2.0, 7.0):
        entry = level_energy(D_HALF, 0, M0=m0)
        assert entry.e_squared == pytest.approx(m0 * m0 * E2_N0, rel=1e-12)


def test_level_energy_eta_zero_rejected():
    with pytest.raises(EtaZeroDegenerate):
        level_energy(DimensionlessParams(0.0, 1.0), 0)


def test_level_energy_negative_index_rejected():
    with pytest.raises(ValueError):
        level_energy(D_HALF, -1)


def test_classify_levels_table():
    entries = classify_levels(D_HALF, 3)
    assert [e.n for e in entries] == [0, 1, 2, 3]
    assert entries[0].classification is Classification.IMAGINARY
    assert entries[0].e_squared == pytest.approx(E2_N0, rel=1e-12)
    # the n=1 radicand is positive here yet no bound state exists numerically;
    # classification only reports the sign of the radicand
    assert entries[1].classification is Classification.REAL
    assert entries[1].e_squared == pytest.approx(E2_N1, rel=1e-12)
    assert entries[2].e_squared == pytest.approx(E2_N2, rel=1e-12)
    assert entries[3].e_squared == pytest.approx(E2_N3, rel=1e-12)


def test_classify_levels_single_entry():
    assert len(classify_levels(D_HALF, 0)) == 1


def test_classify_levels_deep_scan_survives_near_pole():
    # delta1(1, 0.1) = (1 - sqrt(401))/2 = -9.5124... lies between integers,
    # so every n stays classified; the scan must not abort near n = 9, 10
    entries = classify_levels(DimensionlessParams(1.0, 0.1), 20)
    assert len(entries) == 21
    assert all(e.classification is not Classification.UNDEFINED for e in entries)
    d1 = entries[0].delta1
    assert d1 == pytest.approx((1.0 - math.sqrt(401.0)) / 2.0, rel=1e-14)


def test_parity_relations():
    rng = np.random.default_rng(5150)
    for _ in range(300):
        m0 = float(rng.uniform(0.2, 3.0))
        eta = float(rng.uniform(0.01, 1.0))
        alpha = float(rng.uniform(0.2, 3.0))
        x = float(rng.uniform(-10.0, 10.0))
        plus = PhysicalParams(m0, eta, alpha)
        minus = PhysicalParams(m0, -eta, alpha)
        # v_eff(-eta, x) = v_eff(eta, -x)
        assert effective_potential(minus, x) == pytest.approx(
            effective_potential(plus, -x), rel=1e-12
        )
        assert mass_profile(minus, x) == pytest.approx(mass_profile(plus, -x), rel=1e-12)
        lam = alpha / m0
        d_plus = delta1(DimensionlessParams(eta, lam))
        d_minus = delta1(DimensionlessParams(-eta, lam))
        assert d_plus == d_minus  # even in eta, bitwise (depends on eta^2 only)
        e_plus = level_energy(DimensionlessParams(eta, lam), 0, M0=m0).e_squared
        e_minus = level_energy(DimensionlessParams(-eta, lam), 0, M0=m0).e_squared
        assert e_plus == e_minus


def test_spectrum_entry_serialization():
    entry = level_energy(D_HALF, 0)
    doc = entry.to_dict()
    assert doc["n"] == 0
    assert doc["classification"] == "Imaginary"
    assert doc["e_squared"] == entry.e_squared


def test_level_energy_relative_accuracy_against_mpmath():
    """Every level, ground or excited, holds 1e-12 relative accuracy.

    Reference: the textbook radicand ``(1 + eta^2) - eta^2/y^2 - y^2`` with
    ``y = lam (n + delta1)`` in 60-digit mpmath, on seeded (eta, lam, n) with
    lam from 1e-8 to 1e8 and n up to 1000.  The ground level is never on the
    pole, however large lam makes ``|delta1|`` small.
    """
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(909)
    etas = rng.uniform(1e-3, 1.0, 2000) * rng.choice([-1.0, 1.0], 2000)
    lams = 10.0 ** rng.uniform(-8.0, 8.0, 2000)
    indices = rng.integers(0, 1001, 2000)
    worst = 0.0
    with mp.workdps(60):
        for eta, lam, n in zip(etas.tolist(), lams.tolist(), indices.tolist()):
            e, l = mp.mpf(eta), mp.mpf(lam)
            shift = (1 - mp.sqrt(1 + 4 * e * e / (l * l))) / 2
            for level in (0, n):
                entry = level_energy(DimensionlessParams(eta, lam), level)
                y = l * (level + shift)
                ref = (1 + e * e) - e * e / (y * y) - y * y
                if level == 0:
                    assert entry.classification is Classification.IMAGINARY
                elif entry.classification is Classification.UNDEFINED:
                    continue  # |lam n - u| <= ABS_TOL u: the formula's pole
                worst = max(worst, float(abs((entry.e_squared - ref) / ref)))
    assert worst <= 1e-12
