"""Closed-form mass profile, complex vector potential, and level spectrum.

The model couples a Dirac particle to a smooth mass step
``M(x) = M0 * (1 + eta * tanh(alpha x))`` together with the purely imaginary
Lorentz-vector potential ``V(x) = (i/2) * M'(x) / M(x)``.  Squaring the Dirac
operator then leaves a Schrodinger-like problem

    -phi'' + M(x)^2 phi = E^2 phi,

whose effective potential ``M(x)^2`` is of Rosen-Morse form

    M0^2 (1 + eta^2) + 2 eta M0^2 tanh(alpha x) - eta^2 M0^2 sech^2(alpha x).

Solvability of that form gives candidate squared energies

    E_n^2 = M0^2 [ (1 + eta^2) - eta^2 / (lam^2 (n + delta1)^2)
                                - lam^2 (n + delta1)^2 ],
    delta1 = (1 - sqrt(1 + 4 eta^2 / lam^2)) / 2,   lam = alpha / M0.

This module evaluates those expressions and classifies each level's squared
energy as real-positive, imaginary (E^2 < 0), threshold, or undefined (level
index on a formula pole).  A classification only describes the sign of the
radicand; whether a level belongs to the true spectrum is settled by the
independent finite-difference solver in :mod:`pdm_dirac.solver`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMass, EtaZeroDegenerate, LambdaZero, LevelAtPole
from .params import ABS_TOL, DimensionlessParams, PhysicalParams

__all__ = [
    "Classification",
    "PotentialSample",
    "SpectrumEntry",
    "sech_squared",
    "mass_profile",
    "mass_profile_derivative",
    "vector_potential",
    "effective_potential",
    "rosen_morse_terms",
    "potential_sample",
    "delta1",
    "level_energy",
    "classify_levels",
]

# cosh(x) overflows a double near x ~ 710; well before that, sech^2 underflows
# to exactly 0, so beyond this cutoff we return 0 without touching cosh.
_SECH_CUTOFF = 400.0


class Classification(str, enum.Enum):
    """Sign class of a squared level energy."""

    REAL = "Real"
    IMAGINARY = "Imaginary"
    ZERO_THRESHOLD = "ZeroThreshold"
    UNDEFINED = "Undefined"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class PotentialSample:
    """Profile values at one spatial point, or arrays of them on a grid."""

    x: float
    mass: float
    vector_potential: complex  # purely imaginary by construction
    v_eff: float               # mass**2


@dataclass(frozen=True)
class SpectrumEntry:
    """One candidate level of the closed-form spectrum.

    ``e_squared`` is E_n^2 in absolute units; ``energy_magnitude`` is
    sqrt(|E_n^2|), the magnitude shared by the +/- energy branches.  Both are
    NaN when the classification is UNDEFINED (level index on a pole).
    """

    n: int
    delta1: float
    e_squared: float
    classification: Classification
    energy_magnitude: float

    def to_dict(self) -> dict:
        def _num(v: float):
            return None if math.isnan(v) else v

        return {
            "n": self.n,
            "delta1": self.delta1,
            "e_squared": _num(self.e_squared),
            "classification": self.classification.value,
            "energy_magnitude": _num(self.energy_magnitude),
        }


def _scalar_or_array(values: np.ndarray, scalar_type=float):
    if values.ndim == 0:
        return scalar_type(values[()])
    return values


def sech_squared(z):
    """Overflow-safe sech(z)**2 = (1/cosh(z))**2 for scalars or arrays."""
    arr = np.asarray(z, dtype=float)
    out = np.zeros_like(arr)
    small = np.abs(arr) < _SECH_CUTOFF
    np.divide(1.0, np.cosh(arr, where=small, out=np.ones_like(arr)) ** 2,
              where=small, out=out)
    return _scalar_or_array(out)


def mass_profile(params: PhysicalParams, x):
    """M(x) = M0 * (1 + eta * tanh(alpha x)); accepts scalars or arrays."""
    arr = np.asarray(x, dtype=float)
    return _scalar_or_array(params.M0 * (1.0 + params.eta * np.tanh(params.alpha * arr)))


def mass_profile_derivative(params: PhysicalParams, x):
    """Closed-form M'(x) = M0 * eta * alpha * sech^2(alpha x)."""
    arr = np.asarray(x, dtype=float)
    return _scalar_or_array(params.M0 * params.eta * params.alpha
                            * np.asarray(sech_squared(params.alpha * arr)))


def vector_potential(params: PhysicalParams, x):
    """Purely imaginary vector potential (i/2) * M'(x) / M(x).

    Evaluated in the closed form
    ``i * alpha * eta * sech^2(alpha x) / (2 * (1 + eta * tanh(alpha x)))``.
    Raises :class:`DegenerateMass` where the denominator underflows to zero,
    which can only happen at |eta| = 1 deep on the vanishing-mass side.
    """
    arr = np.asarray(x, dtype=float)
    den = 1.0 + params.eta * np.tanh(params.alpha * arr)
    if np.any(den == 0.0):
        raise DegenerateMass(
            "mass profile underflowed to zero inside the requested range; "
            "the vector potential is undefined there"
        )
    imag = 0.5 * params.alpha * params.eta * np.asarray(sech_squared(params.alpha * arr)) / den
    out = 1j * imag
    if np.asarray(out).ndim == 0:
        return complex(out)
    return out


def effective_potential(params: PhysicalParams, x):
    """V_eff(x) = M(x)^2, the potential of the squared (Schrodinger-like) problem."""
    m = np.asarray(mass_profile(params, x))
    return _scalar_or_array(m * m)


def rosen_morse_terms(params: PhysicalParams, x):
    """Decomposition of V_eff into (constant, tanh term, sech^2 term).

    Returns the triple ``(M0^2 (1+eta^2), 2 eta M0^2 tanh(alpha x),
    -eta^2 M0^2 sech^2(alpha x))`` whose sum equals
    :func:`effective_potential` identically.
    """
    arr = np.asarray(x, dtype=float)
    m2 = params.M0 * params.M0
    const = m2 * (1.0 + params.eta * params.eta)
    tanh_term = 2.0 * params.eta * m2 * np.tanh(params.alpha * arr)
    sech_term = -params.eta * params.eta * m2 * np.asarray(sech_squared(params.alpha * arr))
    if arr.ndim == 0:
        return const, float(tanh_term), float(sech_term)
    return np.full_like(arr, const), tanh_term, sech_term


def potential_sample(params: PhysicalParams, x) -> PotentialSample:
    """All profile values at x, for tables and CSV emission.

    A scalar x gives Python scalars; an array gives one array per field.
    """
    arr = np.asarray(x, dtype=float)
    return PotentialSample(
        x=_scalar_or_array(arr),
        mass=mass_profile(params, arr),
        vector_potential=vector_potential(params, arr),
        v_eff=effective_potential(params, arr),
    )


def delta1(params: DimensionlessParams) -> float:
    """Level shift ``(1 - sqrt(1 + 4 eta^2 / lam^2)) / 2``; always <= 0.

    Evaluated as ``-2 q / (1 + sqrt(1 + 4 q))`` with ``q = (eta/lam)^2``, which
    is the same quantity without subtractive cancellation when q is tiny.
    Raises :class:`LambdaZero` in the abrupt-step limit lam = 0, and where
    ``4 q`` overflows (lam is 0 in doubles).
    """
    if params.lam == 0.0:
        raise LambdaZero("delta1 diverges as lambda -> 0 (abrupt-step limit)")
    r = params.eta / params.lam
    if 4.0 * r * r == math.inf:
        raise LambdaZero(f"(eta/lambda)^2 overflows at lambda={params.lam!r}")
    q = r ** 2
    return -2.0 * q / (1.0 + math.sqrt(1.0 + 4.0 * q))


def _classify(e_squared: float, band: float) -> Classification:
    if e_squared > band:
        return Classification.REAL
    if e_squared < -band:
        return Classification.IMAGINARY
    return Classification.ZERO_THRESHOLD


def level_energy(params: DimensionlessParams, n: int, M0: float = 1.0) -> SpectrumEntry:
    """Squared energy of candidate level ``n`` with sign classification.

    ``E_n^2 = M0^2 [(1 + eta^2) - eta^2/(lam (n + delta1))^2 - (lam (n + delta1))^2]``.

    The classification band is ``ABS_TOL * M0^2``.  Raises
    :class:`EtaZeroDegenerate` at eta = 0 (constant-mass limit, excluded),
    :class:`LambdaZero` at lam = 0 (or where ``lam (n + delta1)`` squares
    to 0), and :class:`LevelAtPole` when
    ``|n + delta1| <= ABS_TOL`` puts the index on the formula's pole.
    """
    if n < 0:
        raise ValueError(f"level index must be >= 0, got {n}")
    if params.eta == 0.0:
        raise EtaZeroDegenerate(
            "eta = 0 is the constant-mass limit; the level formula degenerates"
        )
    shift = delta1(params)
    offset = n + shift
    if abs(offset) <= ABS_TOL:
        raise LevelAtPole(f"level n={n} sits on the formula pole (n + delta1 = {offset:.3e})")
    eta2 = params.eta * params.eta
    v = params.lam * offset
    v2 = v * v
    if v2 == 0.0:
        raise LambdaZero(f"(lambda (n + delta1))^2 underflows at lambda={params.lam!r}")
    m2 = M0 * M0
    e_squared = m2 * ((1.0 + eta2) - eta2 / v2 - v2)
    return SpectrumEntry(
        n=n,
        delta1=shift,
        e_squared=e_squared,
        classification=_classify(e_squared, ABS_TOL * m2),
        energy_magnitude=math.sqrt(abs(e_squared)),
    )


def classify_levels(
    params: DimensionlessParams, n_max: int, M0: float = 1.0
) -> list[SpectrumEntry]:
    """Entries for n = 0 .. n_max; indices on a pole become UNDEFINED rows.

    Propagates :class:`EtaZeroDegenerate` and :class:`LambdaZero` (the whole
    table is meaningless there); a :class:`LevelAtPole` on an individual index
    is recorded in place instead of aborting the table.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    entries: list[SpectrumEntry] = []
    for n in range(n_max + 1):
        try:
            entries.append(level_energy(params, n, M0=M0))
        except LevelAtPole:
            entries.append(
                SpectrumEntry(
                    n=n,
                    delta1=delta1(params),
                    e_squared=float("nan"),
                    classification=Classification.UNDEFINED,
                    energy_magnitude=float("nan"),
                )
            )
    return entries
