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
Constructing :class:`PhysicalParams` or :class:`DimensionlessParams` validates:
out-of-range input raises, it is never clamped.  eta = 0 is admissible; the
closed-form level and feasibility code rejects it itself.

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
    LambdaZero,
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
        # M0 first: a document may hold a bad M0 and a bad alpha at once
        # ({"M0": 0, "alpha": NaN}), and its error names the scale either way
        object.__setattr__(self, "M0", _require_finite("M0", self.M0))
        if self.M0 <= 0.0:
            raise NonPositiveMass(f"M0 must be > 0, got {self.M0}")
        object.__setattr__(self, "eta", _require_finite("eta", self.eta))
        object.__setattr__(self, "alpha", _require_finite("alpha", self.alpha))
        if abs(self.eta) > 1.0:
            raise EtaOutOfRange(f"|eta| must be <= 1, got {self.eta}")
        if self.alpha <= 0.0:
            raise NonPositiveAlpha(f"alpha must be > 0, got {self.alpha}")


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


def reduce_params(params: PhysicalParams) -> DimensionlessParams:
    """Reduce dimensional parameters to (eta, lambda) with lambda = alpha / M0.

    A quotient that leaves the double range names both factors, the values
    the user gave, rather than the ``inf`` or ``0`` they make: overflow
    raises :class:`NonFinite`, underflow :class:`LambdaZero` (alpha > 0, so
    lambda = 0 is only ever a rounded one).
    """
    lam = params.alpha / params.M0
    if lam == math.inf or lam == 0.0:
        way, error = ("overflows", NonFinite) if lam else ("underflows", LambdaZero)
        raise error(f"lambda = alpha / M0 {way}: alpha = {params.alpha!r}, M0 = {params.M0!r}")
    return DimensionlessParams(eta=params.eta, lam=lam)


_PHYSICAL_KEYS = frozenset({"M0", "eta", "alpha"})
_REDUCED_KEYS = frozenset({"eta", "lambda"})

Params = Union[PhysicalParams, DimensionlessParams]


def number_from_json(name: str, value) -> float:
    """A JSON number as a double; a bool, string, null, list or object is refused.

    A JSON integer too large for a double is refused as well.  Both raise
    :class:`~pdm_dirac.errors.ConfigKeyError`; range checks are the caller's.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigKeyError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigKeyError(f"{name} does not fit in a double") from None


def params_from_json(doc: Mapping) -> Params:
    """Build parameters from a JSON-style mapping.

    Exactly one of two key sets is accepted: ``{"M0", "eta", "alpha"}`` for
    dimensional input or ``{"eta", "lambda"}`` for reduced input.  Unknown or
    missing keys, and values that are not numbers (see
    :func:`number_from_json`), raise :class:`~pdm_dirac.errors.ConfigKeyError`.
    """
    keys = set(doc.keys())
    if keys == _PHYSICAL_KEYS:
        return PhysicalParams(*(number_from_json(k, doc[k]) for k in ("M0", "eta", "alpha")))
    if keys == _REDUCED_KEYS:
        return DimensionlessParams(*(number_from_json(k, doc[k]) for k in ("eta", "lambda")))
    expected = sorted(_PHYSICAL_KEYS), sorted(_REDUCED_KEYS)
    raise ConfigKeyError(
        f"parameter document keys {sorted(keys)} match neither {expected[0]} nor {expected[1]}"
    )


def params_to_json(params: Params) -> dict:
    """Inverse of :func:`params_from_json` (keys in deterministic order)."""
    if isinstance(params, PhysicalParams):
        return {"M0": params.M0, "alpha": params.alpha, "eta": params.eta}
    return {"eta": params.eta, "lambda": params.lam}
