"""Validated parameter types, dimensionless reduction, and shared tolerances.

Conventions
-----------
Natural units (hbar = c = 1).  The mass profile is
``M(x) = M0 * (1 + eta * tanh(alpha * x))`` so three numbers fix the model:

* ``M0``    -- asymptotic mass scale, strictly positive,
* ``eta``   -- step depth, |eta| <= 1 (|eta| = 1 lets the mass touch zero),
* ``alpha`` -- step steepness, strictly positive.

Spectral statements depend on (M0, eta, alpha) only through ``eta`` and the
ratio ``lambda = alpha / M0``; :func:`reduce_params` performs that reduction.
Validation never clamps: out-of-range input raises, it is not repaired.

The tolerances that the other modules share are fixed module constants
(``ABS_TOL``, ``REL_TOL``, ``LAMBDA_MIN_SCAN``, ``ETA_ZERO_SNAP``), not
settings: no entry point takes them as arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Union

from .errors import (
    ConfigKeyError,
    EtaOutOfRange,
    NegativeLambda,
    NonFinite,
    NonPositiveAlpha,
    NonPositiveMass,
)

__all__ = [
    "PhysicalParams",
    "DimensionlessParams",
    "ABS_TOL",
    "REL_TOL",
    "LAMBDA_MIN_SCAN",
    "ETA_ZERO_SNAP",
    "validate_physical",
    "reduce_params",
    "params_from_json",
    "params_to_json",
]


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise NonFinite(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class PhysicalParams:
    """Dimensional model parameters (M0, eta, alpha), validated on construction."""

    M0: float
    eta: float
    alpha: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "M0", _require_finite("M0", self.M0))
        object.__setattr__(self, "eta", _require_finite("eta", self.eta))
        object.__setattr__(self, "alpha", _require_finite("alpha", self.alpha))
        if self.M0 <= 0.0:
            raise NonPositiveMass(f"M0 must be > 0, got {self.M0}")
        if abs(self.eta) > 1.0:
            raise EtaOutOfRange(f"|eta| must be <= 1, got {self.eta}")
        if self.alpha <= 0.0:
            raise NonPositiveAlpha(f"alpha must be > 0, got {self.alpha}")

    @property
    def mass_touches_zero(self) -> bool:
        """True when |eta| = 1: the mass profile reaches zero at one infinity."""
        return abs(self.eta) == 1.0

    @property
    def hermitian_degenerate(self) -> bool:
        """True when eta = 0: constant mass, the excluded Hermitian limit.

        Construction is allowed (the numeric solver still works there) but the
        closed-form level and feasibility operations reject this flag.
        """
        return self.eta == 0.0


@dataclass(frozen=True)
class DimensionlessParams:
    """Reduced parameters: step depth eta and steepness ratio lam = alpha / M0."""

    eta: float
    lam: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "eta", _require_finite("eta", self.eta))
        object.__setattr__(self, "lam", _require_finite("lambda", self.lam))
        if abs(self.eta) > 1.0:
            raise EtaOutOfRange(f"|eta| must be <= 1, got {self.eta}")
        if self.lam < 0.0:
            raise NegativeLambda(f"lambda must be >= 0, got {self.lam}")

    @property
    def hermitian_degenerate(self) -> bool:
        return self.eta == 0.0


# Shared tolerances (dimensionless).  An energy-squared value within
# ABS_TOL * M0^2 of zero counts as the threshold case, and a level index
# within ABS_TOL of a formula pole is rejected as such.  REL_TOL bounds the
# disagreement between the two routes to f.
ABS_TOL = 1e-12
REL_TOL = 1e-10
# Smallest lambda of the verdict's default scan box (f is 0 at lambda = 0).
LAMBDA_MIN_SCAN = 1e-3
# Scan gridlines with |eta| below this snap onto the excluded eta = 0 line
# (linspace over a symmetric range lands ~1 ulp off zero).
ETA_ZERO_SNAP = 1e-12


def validate_physical(M0: float, eta: float, alpha: float) -> PhysicalParams:
    """Validate raw numbers into :class:`PhysicalParams` (raises, never clamps)."""
    return PhysicalParams(M0=M0, eta=eta, alpha=alpha)


def reduce_params(params: PhysicalParams) -> DimensionlessParams:
    """Reduce dimensional parameters to (eta, lambda) with lambda = alpha / M0."""
    return DimensionlessParams(eta=params.eta, lam=params.alpha / params.M0)


_PHYSICAL_KEYS = frozenset({"M0", "eta", "alpha"})
_REDUCED_KEYS = frozenset({"eta", "lambda"})

Params = Union[PhysicalParams, DimensionlessParams]


def params_from_json(doc: Mapping) -> Params:
    """Build parameters from a JSON-style mapping.

    Exactly one of two key sets is accepted: ``{"M0", "eta", "alpha"}`` for
    dimensional input or ``{"eta", "lambda"}`` for reduced input.  Unknown or
    missing keys raise :class:`~pdm_dirac.errors.ConfigKeyError`.
    """
    keys = set(doc.keys())
    if keys == _PHYSICAL_KEYS:
        return validate_physical(doc["M0"], doc["eta"], doc["alpha"])
    if keys == _REDUCED_KEYS:
        return DimensionlessParams(eta=doc["eta"], lam=doc["lambda"])
    expected = sorted(_PHYSICAL_KEYS), sorted(_REDUCED_KEYS)
    raise ConfigKeyError(
        f"parameter document keys {sorted(keys)} match neither {expected[0]} nor {expected[1]}"
    )


def params_to_json(params: Params) -> dict:
    """Inverse of :func:`params_from_json` (keys in deterministic order)."""
    if isinstance(params, PhysicalParams):
        return {"M0": params.M0, "alpha": params.alpha, "eta": params.eta}
    return {"eta": params.eta, "lambda": params.lam}
