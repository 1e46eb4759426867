"""Closed-form mass profile, complex vector potential, and level spectrum.

The model couples a Dirac particle to a smooth mass step
``M(x) = M0 * (1 + eta * tanh(alpha x))`` together with the purely imaginary
Lorentz-vector potential ``V(x) = (i/2) * M'(x) / M(x)``.  Jia and Dutra
(J. Phys. A 39 (2006) 11877) map it onto the Schrodinger-like problem

    -phi'' + M(x)^2 phi = E^2 phi,

which this module takes as given: squaring the textbook operator
``sigma_x p + sigma_y M`` gives ``p^2 + M^2 + sigma_z M'`` instead, whose
components carry ``M^2 +- M'``.  The effective potential ``M(x)^2`` is of
Rosen-Morse form

    M0^2 (1 + eta^2) + 2 eta M0^2 tanh(alpha x) - eta^2 M0^2 sech^2(alpha x).

Solvability of that form gives candidate squared energies

    E_n^2 = M0^2 [ (1 + eta^2) - eta^2 / y_n^2 - y_n^2 ],
    y_n = lam (n + delta1),
    delta1 = (1 - sqrt(1 + 4 eta^2 / lam^2)) / 2,   lam = alpha / M0.

Since ``lam delta1 = -u`` (:func:`pdm_dirac.feasibility.aux_root`), ``y_n =
lam n - u`` and every level is evaluated in the exact factored form
``(1 - y_n^2)(y_n^2 - eta^2) / y_n^2`` by :func:`pdm_dirac.feasibility.f_factored`,
whose n = 0 case is the feasibility function f.

This module evaluates those expressions and classifies each level's squared
energy as real-positive, imaginary (E^2 < 0), threshold, or undefined (level
index on a formula pole).  The profile functions take an array of x (a float
gives a numpy scalar), each quantity with one expression;
:func:`potential_sample` evaluates the step factor ``1 + eta tanh(alpha x)``
once for all of its columns.  A classification only describes the sign of the
radicand; whether a level belongs to the true spectrum is settled by the
independent finite-difference solver in :mod:`pdm_dirac.solver`.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMass, EtaZeroDegenerate, EvaluationError, LambdaZero, ParameterError
from .feasibility import aux_root, f_factored
from .params import ABS_TOL, DimensionlessParams, PhysicalParams

__all__ = [
    "Classification",
    "PotentialSample",
    "SpectrumEntry",
    "sech_squared",
    "mass_profile",
    "vector_potential",
    "effective_potential",
    "potential_sample",
    "delta1",
    "level_energy",
    "classify_levels",
]

class Classification(str, enum.Enum):
    """Sign class of a squared level energy."""

    REAL = "Real"
    IMAGINARY = "Imaginary"
    ZERO_THRESHOLD = "ZeroThreshold"
    UNDEFINED = "Undefined"


@dataclass(frozen=True)
class PotentialSample:
    """Profile values on a grid of x, one float array per table column."""

    x: np.ndarray
    mass: np.ndarray
    im_v: np.ndarray   # Im V; the vector potential is purely imaginary
    v_eff: np.ndarray  # mass**2


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

    @property
    def energy_magnitude(self) -> float:
        return math.sqrt(abs(self.e_squared))

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


def sech_squared(z):
    """sech(z)**2 = 1 / cosh(z)**2; 0.0 where the square overflows (|z| > ~355)."""
    with np.errstate(over="ignore"):
        return 1.0 / np.cosh(z) ** 2


def _step(params: PhysicalParams, x):
    """The step factor 1 + eta * tanh(alpha x), so that M(x) = M0 * _step(x)."""
    return 1.0 + params.eta * np.tanh(params.alpha * x)


def _im_v(params: PhysicalParams, x, step):
    """Im V(x) = alpha * eta * sech^2(alpha x) / (2 * step), the closed form of
    M'(x) / (2 M(x)); raises :class:`DegenerateMass` where ``step`` is 0, which
    can only happen at |eta| = 1 deep on the vanishing-mass side."""
    if np.any(step == 0.0):
        raise DegenerateMass(
            "mass profile underflowed to zero inside the requested range; "
            "the vector potential is undefined there"
        )
    return 0.5 * params.alpha * params.eta * sech_squared(params.alpha * x) / step


def mass_profile(params: PhysicalParams, x):
    """M(x) = M0 * (1 + eta * tanh(alpha x))."""
    return params.M0 * _step(params, x)


def vector_potential(params: PhysicalParams, x):
    """The purely imaginary vector potential (i/2) * M'(x) / M(x)."""
    return 1j * _im_v(params, x, _step(params, x))


def effective_potential(params: PhysicalParams, x):
    """V_eff(x) = M(x)^2, the potential of the squared (Schrodinger-like) problem."""
    m = mass_profile(params, x)
    return m * m


def potential_sample(params: PhysicalParams, x) -> PotentialSample:
    """The table columns at the points x: M(x), Im V(x) and V_eff(x)."""
    step = _step(params, x)
    mass = params.M0 * step
    return PotentialSample(x=x, mass=mass, im_v=_im_v(params, x, step), v_eff=mass * mass)


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

    ``E_n^2 = M0^2 f_factored(eta, lam, n)``; the classification band is
    ``ABS_TOL * M0^2``.  An index with ``|lam n - u| <= ABS_TOL * u`` sits on
    the formula's pole ``y_n = 0`` and gives an UNDEFINED entry (n = 0 never
    does).  Raises :class:`ParameterError` when ``M0^2`` is not a normal double
    (the band would not scale with the level), :class:`EtaZeroDegenerate` at
    eta = 0 (constant-mass limit, excluded), :class:`LambdaZero` where
    :func:`delta1` diverges, :class:`EtaZeroSingular` where ``u^2`` underflows
    (eta is 0 in doubles), and :class:`EvaluationError` where ``E_n^2`` leaves
    the double range.
    """
    if n < 0:
        raise ValueError(f"level index must be >= 0, got {n}")
    m2 = M0 * M0
    if not sys.float_info.min <= m2 < math.inf:
        raise ParameterError(f"M0 = {M0:.3g}: M0^2 is not a normal double")
    if params.eta == 0.0:
        raise EtaZeroDegenerate(
            "eta = 0 is the constant-mass limit; the level formula degenerates"
        )
    shift = delta1(params)
    u = aux_root(params.eta, params.lam)
    if abs(u - params.lam * n) <= ABS_TOL * u:
        return SpectrumEntry(n, shift, math.nan, Classification.UNDEFINED)
    e_squared = m2 * f_factored(params.eta, params.lam, n)
    if not math.isfinite(e_squared):
        raise EvaluationError(
            f"E_n^2 leaves the double range at n={n}, M0={M0!r}, lambda={params.lam!r}"
        )
    return SpectrumEntry(
        n=n,
        delta1=shift,
        e_squared=e_squared,
        classification=_classify(e_squared, ABS_TOL * m2),
    )


def classify_levels(
    params: DimensionlessParams, n_max: int, M0: float = 1.0
) -> list[SpectrumEntry]:
    """Entries for n = 0 .. n_max; errors of :func:`level_energy` propagate."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    return [level_energy(params, n, M0=M0) for n in range(n_max + 1)]
