import json
import math

import pytest

from pdm_dirac import (
    ConfigKeyError,
    DimensionlessParams,
    EtaOutOfRange,
    LambdaZero,
    NegativeLambda,
    NonFinite,
    NonPositiveAlpha,
    NonPositiveMass,
    PhysicalParams,
    params_from_json,
    params_to_json,
    reduce_params,
)


def test_validate_accepts_slack_point():
    p = PhysicalParams(1.0, 0.5, 1.0)
    assert (p.M0, p.eta, p.alpha) == (1.0, 0.5, 1.0)


def test_validate_rejections():
    with pytest.raises(EtaOutOfRange):
        PhysicalParams(1.0, 1.5, 1.0)
    with pytest.raises(NonPositiveMass):
        PhysicalParams(0.0, 0.5, 1.0)
    with pytest.raises(NonPositiveMass):
        PhysicalParams(-2.0, 0.5, 1.0)
    with pytest.raises(NonPositiveAlpha):
        PhysicalParams(1.0, 0.5, 0.0)
    with pytest.raises(NonFinite):
        PhysicalParams(math.inf, 0.5, 1.0)
    with pytest.raises(NonFinite):
        PhysicalParams(1.0, math.nan, 1.0)


def test_boundary_eta_accepted():
    # |eta| = 1 is admissible: the mass touches zero only asymptotically
    assert PhysicalParams(1.0, 1.0, 2.0).eta == 1.0
    assert PhysicalParams(1.0, -1.0, 2.0).eta == -1.0


def test_eta_zero_accepted():
    # the constant-mass limit is admissible; the closed-form code rejects it
    assert PhysicalParams(1.0, 0.0, 1.0).eta == 0.0


def test_reduce_examples():
    assert reduce_params(PhysicalParams(1.0, 0.5, 1.0)) == DimensionlessParams(0.5, 1.0)
    assert reduce_params(PhysicalParams(2.0, -0.3, 1.0)) == DimensionlessParams(-0.3, 0.5)
    assert reduce_params(PhysicalParams(0.5, 1.0, 5.0)) == DimensionlessParams(1.0, 10.0)


def test_reduce_names_both_factors_when_the_quotient_leaves_the_double_range():
    with pytest.raises(NonFinite, match=r"^lambda = alpha / M0 overflows: alpha = 1e\+300, "
                                        r"M0 = 1e-300$"):
        reduce_params(PhysicalParams(1e-300, 0.5, 1e300))
    with pytest.raises(LambdaZero, match=r"^lambda = alpha / M0 underflows: alpha = 5e-324, "
                                         r"M0 = 2.0$"):
        reduce_params(PhysicalParams(2.0, 0.5, 5e-324))


def test_reduce_scale_invariance():
    import random

    rng = random.Random(20240817)
    for _ in range(200):
        m0 = rng.uniform(0.01, 50.0)
        eta = rng.uniform(-1.0, 1.0)
        alpha = rng.uniform(0.01, 50.0)
        c = rng.uniform(0.01, 100.0)
        base = reduce_params(PhysicalParams(m0, eta, alpha))
        scaled = reduce_params(PhysicalParams(c * m0, eta, c * alpha))
        assert scaled.eta == base.eta
        assert scaled.lam == pytest.approx(base.lam, rel=4e-16)
        assert scaled.lam >= 0.0 and abs(scaled.eta) <= 1.0


def test_dimensionless_validation():
    with pytest.raises(EtaOutOfRange):
        DimensionlessParams(1.2, 1.0)
    with pytest.raises(NonFinite):
        DimensionlessParams(0.5, math.inf)
    with pytest.raises(NegativeLambda):
        DimensionlessParams(0.5, -1.0)


def test_json_round_trip_physical():
    p = PhysicalParams(2.0, -0.25, 0.5)
    doc = params_to_json(p)
    assert json.loads(json.dumps(doc)) == doc
    q = params_from_json(doc)
    assert q == p


def test_json_round_trip_dimensionless():
    d = DimensionlessParams(0.5, 1.0)
    doc = params_to_json(d)
    assert params_from_json(doc) == d


def test_json_unknown_keys_are_errors():
    with pytest.raises(ConfigKeyError):
        params_from_json({"M0": 1.0, "eta": 0.5, "alpha": 1.0, "beta": 2.0})
    with pytest.raises(ConfigKeyError):
        params_from_json({"eta": 0.5})
    with pytest.raises(ConfigKeyError):
        params_from_json({"eta": 0.5, "lambda": 1.0, "alpha": 1.0})


def test_params_are_immutable():
    p = PhysicalParams(1.0, 0.5, 1.0)
    with pytest.raises(Exception):
        p.eta = 0.9  # type: ignore[misc]
