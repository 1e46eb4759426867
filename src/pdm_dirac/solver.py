"""Finite-difference cross-check: does the squared problem bind any state?

The closed-form spectrum module reports candidate levels; this module answers
the independent question numerically.  On ``[-L, L]`` with Dirichlet walls and
``N`` interior points (spacing ``h = 2L/(N+1)``), second-order central
differences turn ``-phi'' + V_eff(x) phi = E^2 phi`` into a symmetric
tridiagonal eigenproblem

    diagonal      2/h^2 + V_eff(x_i)
    off-diagonal  -1/h^2.

A genuine bound state must sit below the continuum edge
``min(V_eff(-inf), V_eff(+inf)) = M0^2 (1 - |eta|)^2`` *and* be localized away
from the artificial walls; everything else below the edge is a box artifact.
Model and control well share one edge path, :func:`continuum_edge`.  The
number of eigenvalues below a threshold is the integer-exact
Sturm-sequence negative-pivot count, returned as 0 without the pivot loop
when the shifted diagonal is at least twice the off-diagonal's size in every
row, which rules out a negative pivot (the model's count at its edge); only
the values counted below the edge are computed, with their eigenvectors.
The same count locates the values (:func:`eigenvalues_below`).  It is 0 at
the Gershgorin lower bound ``min d_i - 2|e|`` (moved out by a rounding
margin, where the shortcut applies) and k at the threshold, and one loop
splits that interval at midpoints by counts.  A part that holds one value
is refined by shift-and-invert iteration, with Rayleigh-quotient shifts once
the residual interval ``[rho - r, rho + r]`` lies inside it, so the
eigenvalue it encloses is the counted one; it stops at ``r <= eps (max|d_i|
+ 2|e|)``, the tolerance of LAPACK ``dstebz``, and then ``|lambda - rho| <=
r`` up to rounding.  Where the iteration does not settle, the loop splits
the part on, down to that width.  Values and eigenvectors share one step, a
LAPACK ``dgtsv`` solve from a fixed start vector (:func:`_solve`); an
eigenvector is two steps at its value.

The count at the edge is certified in closed form.  The operator is ``T/h^2
+ diag(V_eff)`` with ``lambda_min(T) = 4 sin^2(pi/(2(N+1)))``, so by Weyl's
inequality every eigenvalue clears the edge by at least ``min(V_eff) - edge
+ lambda_min(T)/h^2`` (:func:`_weyl_certificate`).  For the model ``V_eff =
M^2 >= M0^2 (1 - |eta|)^2`` at every node, in doubles too (proof in
:func:`bound_state_report`), so that margin is positive and the count must be
0; a margin above the count's rounding error together with a counted
eigenvalue is a contradiction, not evidence.

SciPy's ``dgtsv`` is imported inside the kernel, which runs only past a
nonzero count: a run whose count finds nothing below the edge, as for the
model's step profile, never loads SciPy.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    CertificateViolation,
    DomainTooSmall,
    EvaluationError,
    GridTooCoarse,
    ParameterError,
)
from .params import PhysicalParams
from .spectrum import effective_potential, sech_squared

__all__ = [
    "Discretization",
    "TridiagonalOperator",
    "LocalizationMetric",
    "BoundCandidate",
    "DiscreteSpectrum",
    "build_hamiltonian",
    "sturm_count",
    "eigenvalues_below",
    "eigenvector",
    "localization_metric",
    "continuum_edge",
    "poschl_teller_well",
    "bound_state_report",
]

# Production defaults: L = 25/alpha puts the step ~25 decay lengths from each
# wall; N = 8000 keeps h*alpha ~ 0.006, far below the resolution bound.
DEFAULT_HALF_WIDTH_STEPS = 25.0
DEFAULT_NUM_POINTS = 8000

# Resolution and domain guards (dimensionless, in units of the step scale).
_MAX_H_ALPHA = 0.2
_MIN_ALPHA_L_ERROR = 3.0
_MIN_ALPHA_L_WARN = 10.0

# Localization gate for bound-state candidates.
INTERIOR_MASS_MIN = 0.99
EDGE_AMPLITUDE_MAX = 1e-4


@dataclass(frozen=True)
class Discretization:
    """Dirichlet box [-L, L] with N interior points, h = 2L/(N+1)."""

    half_width: float
    num_points: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.half_width) and self.half_width > 0.0):
            raise ParameterError(f"half_width must be positive and finite, got {self.half_width}")
        if self.num_points < 3:
            raise ParameterError(f"num_points must be >= 3, got {self.num_points}")
        h2 = self.spacing * self.spacing
        if not sys.float_info.min <= h2 < math.inf:
            raise ParameterError(f"spacing h = {self.spacing:.3g}: h^2 is not a normal double")
        # a bound on the spacing, no longer a need of the solver: the count
        # scales the diagonal by |e| = 1/h^2 and the kernel solves with the
        # entries, so nothing squares them
        if (2.0 / h2) * (2.0 / h2) == math.inf:
            raise ParameterError(f"spacing h = {self.spacing:.3g}: (2/h^2)^2 overflows")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.num_points + 1)

    def grid(self) -> np.ndarray:
        """Interior nodes x_i = -L + i*h, i = 1..N."""
        return -self.half_width + self.spacing * np.arange(1, self.num_points + 1)


@dataclass
class TridiagonalOperator:
    """Assembled symmetric tridiagonal Hamiltonian of the squared problem."""

    diag: np.ndarray            # 2/h^2 + V_eff(x_i)
    off: float                  # -1/h^2 (constant for central differences)
    x: np.ndarray
    v_eff: np.ndarray

    @property
    def size(self) -> int:
        return self.diag.size

    def dense(self) -> np.ndarray:
        """Dense matrix, for small-N reference diagonalization only."""
        mat = np.diag(self.diag)
        idx = np.arange(self.size - 1)
        mat[idx, idx + 1] = self.off
        mat[idx + 1, idx] = self.off
        return mat


def build_hamiltonian(
    params: PhysicalParams,
    disc: Discretization,
    potential: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> TridiagonalOperator:
    """Assemble the tridiagonal operator for V_eff (or a supplied test well).

    ``potential`` overrides V_eff(x) = M(x)^2; it exists for control cases
    such as :func:`poschl_teller_well` and takes the grid array.  Any grid is
    assembled; whether it resolves the step is :func:`bound_state_report`'s
    question.  A non-finite diagonal entry raises :class:`ParameterError`.
    """
    h = disc.spacing
    x = disc.grid()
    inv_h2 = 1.0 / (h * h)
    with np.errstate(all="ignore"):  # non-finite entries are rejected below
        v = np.asarray(effective_potential(params, x) if potential is None else potential(x),
                       dtype=float)
        diag = 2.0 * inv_h2 + v
    if v.shape != x.shape or not np.all(np.isfinite(diag)):
        raise ParameterError("potential must give finite operator entries matching the grid")
    return TridiagonalOperator(diag=diag, off=-inv_h2, x=x, v_eff=v)


def sturm_count(op: TridiagonalOperator, sigma: float) -> int:
    """Number of eigenvalues strictly below sigma (Sturm-sequence pivots).

    Runs the LDL^T pivot recurrence on the operator scaled to a unit
    off-diagonal, as LAPACK ``dstebz`` does: q_i = s_i - 1 / q_{i-1} with s_i
    = (d_i - sigma) / |e|, the diagonal shifted and scaled once.  Unscaled,
    e^2 underflows for |e| below about 1.5e-154 and the count would be the
    diagonal's alone.  Negative pivots are counted; a vanishing pivot (below
    the smallest normal double) is replaced by -pivmin, the conventional
    tie-break that counts a value exactly at sigma as below it.  The
    recurrence starts from q_0 = inf, so the first pivot is s_1 itself.  With
    e = 0 the eigenvalues are the diagonal entries, counted with the same
    tie-break.

    When every s_i >= 2 the count is 0 without running the recurrence, and
    that holds in floating point, not only in exact arithmetic: q_1 = s_1 >=
    2, and if q_{i-1} >= 1 then fl(1/q_{i-1}) <= 1, so s_i - fl(1/q_{i-1}) >=
    1 and, rounding being monotone, q_i >= 1.  No pivot is ever negative.  A
    NaN entry fails the test and goes through the recurrence.  The model's
    operator usually meets the test at its continuum edge: V_eff >= edge
    holds in doubles (:func:`bound_state_report`), so the scaled diagonal is
    2 + (V_eff - edge) h^2 up to rounding, 2.0 exactly at its minimum for the
    default verdict.  Where the rounding of 2/h^2 + V_eff - edge leaves that
    minimum an ulp below 2, the recurrence runs as before.
    """
    pivmin = sys.float_info.min
    scale = abs(op.off)
    # an entry that overflows becomes -inf or inf silently, as per entry
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = op.diag - sigma
        if scale == 0.0:
            return int(np.count_nonzero(shifted < pivmin))
        shifted /= scale
    if shifted.size == 0 or shifted.min() >= 2.0:
        return 0
    count = 0
    q = math.inf
    for s in shifted.tolist():
        q = s - 1.0 / q
        if q < pivmin:
            if q > -pivmin:
                q = -pivmin
            count += 1
    return count


def eigenvalues_below(op: TridiagonalOperator, threshold: float) -> np.ndarray:
    """All eigenvalues strictly below ``threshold``, ascending.

    The count is :func:`sturm_count` at the threshold (every eigenvalue at
    ``+inf``, none at ``-inf`` or NaN), exact up to floating comparisons at
    the threshold itself.  Each counted value is isolated by the same count
    and refined by shift-and-invert iteration (:func:`_locate`).

    With ``tol = eps (max|d_i| + 2|e|)``, the tolerance of LAPACK ``dstebz``,
    every value ``rho`` comes with a radius ``r`` and an interval ``(a, b)``
    whose Sturm counts differ by one, so ``(a, b)`` holds exactly one
    eigenvalue.  A refined value has ``r <= tol`` and ``[rho - r, rho + r]``
    inside ``(a, b)``; ``r`` is the residual ``|| T z - rho z ||`` of a unit
    vector ``z``, so that interval holds an eigenvalue, and it is the one
    counted in ``(a, b)``: ``|lambda - rho| <= r``, up to rounding.  A value
    the iteration does not settle before the count's bisection has narrowed
    its interval to ``tol``, and each value of a cluster (counts that differ
    by more than one across an interval no wider than ``tol``), is the
    midpoint of its interval, as ``dstebz`` gives it.  A count that is not 0
    at the Gershgorin end, or not monotone, raises :class:`EvaluationError`.
    """
    return np.array([value for value, _, _, _ in _locate(op, threshold)], dtype=float)


# Shift-and-invert solves spent on one isolating interval before it is
# bisected; the control wells, the Rosen-Morse II well and the box modes of
# the tests take two to five a value.
_SOLVES_PER_BISECTION = 6


def _locate(op: TridiagonalOperator, threshold: float) -> list[tuple[float, float, float, float]]:
    """``(value, radius, a, b)`` for each eigenvalue below ``threshold``, ascending.

    Isolation: the Gershgorin interval ``[min d_i - 2|e|, max d_i + 2|e|]``
    holds every eigenvalue; its ends are moved out by ``2 tol`` so that the
    rounding of ``d_i - a`` and of the scaling cannot bring a scaled diagonal
    entry below 2, and :func:`sturm_count`'s shortcut proves the count 0 at
    ``a`` with no pivot loop.  One loop bisects intervals with counts: an
    interval that holds one eigenvalue (counts ``j`` at ``a``, ``j + 1`` at
    ``b``) is first given to :func:`_refine`, and is bisected only if that
    finds no value, until the interval is no wider than ``tol``.  With one
    value below the threshold, ``(a, threshold)`` isolates it already.
    """
    k = sturm_count(op, threshold)
    if k == 0:
        return []
    d, scale = op.diag, abs(op.off)
    tol = max(sys.float_info.epsilon * (float(np.max(np.abs(d))) + 2.0 * scale),
              sys.float_info.min)
    lower = float(d.min()) - 2.0 * scale - 2.0 * tol
    upper = min(threshold, float(d.max()) + 2.0 * scale + 2.0 * tol)
    if not (math.isfinite(lower) and math.isfinite(upper)):
        raise EvaluationError(f"the Gershgorin interval of the operator overflows (tol {tol!r})")
    _check_count(op, lower, 0, 0)
    if upper < threshold:
        _check_count(op, upper, k, k)

    located = []
    pending = [(lower, upper, 0, k)]  # (a, b, count at a, count at b), lowest last
    while pending:
        a, b, count_a, count_b = pending.pop()
        mid = 0.5 * a + 0.5 * b
        if not (b - a > tol and a < mid < b):
            located += [(mid, 0.5 * (b - a), a, b)] * (count_b - count_a)
        elif count_b - count_a == 1 and (refined := _refine(op, a, b, tol)):
            located.append((*refined, a, b))
        else:
            count_mid = _check_count(op, mid, count_a, count_b)
            for half in ((mid, b, count_mid, count_b), (a, mid, count_a, count_mid)):
                if half[3] > half[2]:
                    pending.append(half)
    return located


def _check_count(op: TridiagonalOperator, sigma: float, low: int, high: int) -> int:
    """:func:`sturm_count` at sigma, which must lie in ``[low, high]``."""
    count = sturm_count(op, sigma)
    if not low <= count <= high:
        raise EvaluationError(
            f"inconsistent Sturm count {count} at {sigma!r}, outside [{low}, {high}]"
        )
    return count


def _refine(
    op: TridiagonalOperator, a: float, b: float, tol: float
) -> Optional[tuple[float, float]]:
    """``(value, radius)`` of the one eigenvalue in ``(a, b)``, or None (:func:`_locate`).

    Iterates :func:`_solve`, shifted at the midpoint and, once ``[rho - r,
    rho + r]`` lies inside ``(a, b)``, at ``rho``, until also ``r <= tol``.
    A refused solve, a ``rho`` outside ``(a, b)`` or ``_SOLVES_PER_BISECTION``
    solves without an answer give None.
    """
    sigma, z = 0.5 * a + 0.5 * b, None
    for _ in range(_SOLVES_PER_BISECTION):
        step = _solve(op, sigma, z)
        if step is None or not a < step[1] < b:
            return None
        z, rho, r = step
        if a < rho - r and rho + r < b:
            if r <= tol:
                return rho, r
            sigma = rho
    return None


def _solve(
    op: TridiagonalOperator, sigma: float, x: Optional[np.ndarray] = None
) -> Optional[tuple[np.ndarray, float, float]]:
    """One shift-and-invert step: ``(z, rho, r)``, or None where the solve is refused.

    Solves ``(T - sigma) y = x`` (LAPACK ``dgtsv``, partial pivoting) for a
    unit vector ``x``, by default a fixed pseudo-random one, and with ``z = y
    / ||y||`` gives

        rho = sigma + (x . y) / (y . y),    r = || x / ||y|| - (rho - sigma) z ||,

    the Rayleigh quotient of ``z`` and its residual ``|| T z - rho z ||``
    computed from the solve instead of from ``T``, which spares the
    cancellation of ``T z`` against ``rho z``.  The solve's backward error
    (about ``eps || T - sigma ||``) is what separates ``r`` from the true
    residual.  A singular solve, or a norm of ``y`` that is zero or not
    finite, is refused.
    """
    n = op.size
    if n == 1:  # SciPy's dgtsv refuses an empty off-diagonal; the pair is exact
        return np.ones(1), float(op.diag[0]), 0.0
    from scipy.linalg.lapack import dgtsv

    if x is None:
        x = np.random.default_rng(0).uniform(-1.0, 1.0, n)
        x /= np.linalg.norm(x)
    off = np.full(n - 1, op.off)
    _, _, _, y, info = dgtsv(off, op.diag - sigma, off, x)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite norm is refused
        y_norm = float(np.linalg.norm(y))
    if info != 0 or not 0.0 < y_norm < math.inf:
        return None
    z = y / y_norm
    step = float(x @ z) / y_norm
    return z, sigma + step, float(np.linalg.norm(x / y_norm - step * z))


def eigenvector(op: TridiagonalOperator, value: float) -> np.ndarray:
    """Unit-norm eigenvector for an eigenvalue from :func:`eigenvalues_below`.

    Two :func:`_solve` steps at ``value`` from the fixed start vector, so the
    result is deterministic, with its largest-magnitude entry made positive.
    A refused solve raises :class:`EvaluationError`.
    """
    z = None
    for _ in range(2):
        step = _solve(op, value, z)
        if step is None:
            raise EvaluationError(f"the shift-and-invert solve at E^2 = {value!r} was refused")
        z = step[0]
    return z if z[np.argmax(np.abs(z))] > 0.0 else -z


@dataclass(frozen=True)
class LocalizationMetric:
    """How concentrated an eigenvector is, away from the artificial walls."""

    interior_mass_fraction: float  # share of |phi|^2 inside |x| <= L/2
    edge_amplitude: float          # max |phi| on |x| >= 0.9 L over max |phi|

    @property
    def localized(self) -> bool:
        return (
            self.interior_mass_fraction >= INTERIOR_MASS_MIN
            and self.edge_amplitude <= EDGE_AMPLITUDE_MAX
        )

    def to_dict(self) -> dict:
        return {
            "interior_mass_fraction": self.interior_mass_fraction,
            "edge_amplitude": self.edge_amplitude,
            "localized": self.localized,
        }


def localization_metric(x: np.ndarray, phi: np.ndarray, half_width: float) -> LocalizationMetric:
    """Interior-mass and wall-amplitude statistics of a grid eigenvector."""
    weight = phi * phi
    total = float(weight.sum())
    interior = float(weight[np.abs(x) <= 0.5 * half_width].sum())
    peak = float(np.max(np.abs(phi)))
    edge_zone = np.abs(x) >= 0.9 * half_width
    edge_peak = float(np.max(np.abs(phi[edge_zone]))) if np.any(edge_zone) else 0.0
    return LocalizationMetric(
        interior_mass_fraction=interior / total if total > 0.0 else 0.0,
        edge_amplitude=edge_peak / peak if peak > 0.0 else 0.0,
    )


def _weyl_certificate(
    op: TridiagonalOperator, v_eff_min: float, edge: float
) -> tuple[float, float]:
    """``(weyl_margin, count_error_bound)``: how far every eigenvalue clears ``edge``.

    The operator is ``|e| T + diag(d_i - 2|e|)`` with ``|e| = 1/h^2`` its
    off-diagonal size and ``T = tridiag(-1, 2, -1)``, whose smallest
    eigenvalue is ``4 sin^2(pi/(2(N+1)))``.  By Weyl's inequality
    ``lambda_min >= |e| lambda_min(T) + min_i (d_i - 2|e|)``, so

        weyl_margin = v_eff_min - edge + 4 sin^2(pi/(2(N+1))) / h^2

    bounds ``lambda_min - edge`` from below, up to rounding.  With u the unit
    roundoff, ``D = max |d_i|`` and ``E = |edge|``, three roundings separate
    it from the count at the edge: forming ``d_i = fl(2|e| + V_eff(x_i))``
    (at most ``u D``); the Sturm count, which is exact for a matrix whose
    scaled diagonal moved by ``2u`` relatively and whose off-diagonal moved by
    ``u`` relatively (Kahan 1966; Demmel, *Applied Numerical Linear
    Algebra*, sec. 5.3), at most ``2u (D + E) + 2u |e|`` in norm; and the
    margin's own arithmetic (``sin`` within an ulp), at most ``2u (D + 2|e|
    + E) + 45u |e|``.  Their sum is below ``13u (D + E + 4|e|)``, and

        count_error_bound = 16 eps (D + E + 4|e|)

    with ``eps = 2u`` leaves room for the bound's own rounding.  So where
    ``weyl_margin > count_error_bound`` the Sturm count at the edge is 0.
    Each term is scaled before the sum, so the bound stays finite.
    """
    scale = abs(op.off)
    lowest_t = 4.0 * math.sin(math.pi / (2 * (op.size + 1))) ** 2
    margin = (v_eff_min - edge) + lowest_t * scale
    k = 16.0 * sys.float_info.epsilon
    largest = max(float(op.diag.max()), -float(op.diag.min()))
    return margin, k * largest + k * abs(edge) + 4.0 * k * scale


def poschl_teller_well(x: np.ndarray) -> np.ndarray:
    """Control well 1 - 2 sech^2(x): exactly one bound state, at E^2 = 0.

    A detector sanity check, not part of the physical model; its continuum
    edge is 1 and its single localized level sits at a closed-form zero.
    """
    return 1.0 - 2.0 * sech_squared(x)


@dataclass
class BoundCandidate:
    """Eigenvalue below the continuum edge plus its localization verdict."""

    e_squared: float
    localization: LocalizationMetric

    @property
    def localized(self) -> bool:
        return self.localization.localized

    def to_dict(self) -> dict:
        return {
            "e_squared": self.e_squared,
            "energy_magnitude": math.sqrt(abs(self.e_squared)),
            "energy_branch": "real_pair" if self.e_squared >= 0.0 else "imaginary_pair",
            "localization": self.localization.to_dict(),
        }


@dataclass
class DiscreteSpectrum:
    """Numeric spectrum scan below the continuum edge.

    ``bound_candidates`` holds every eigenvalue below the edge, so the Sturm
    count at the edge is its length.  ``weyl_margin`` bounds how far every
    eigenvalue lies above the edge, and ``count_error_bound`` how far rounding
    can move that bound (:func:`_weyl_certificate`): where the margin is the
    larger, the count at the edge is certified to be 0.  A negative margin
    certifies nothing, as for a well that dips below its edge.
    """

    weyl_margin: float
    count_error_bound: float
    continuum_edge: float
    bound_candidates: list[BoundCandidate]
    v_eff_min: float
    v_eff_monotone: bool
    disc: Discretization
    domain_warning: bool               # scale*L < 10: tail truncation may be visible

    @property
    def empty_real_spectrum(self) -> bool:
        """No candidate passes the localization gate."""
        return not any(c.localized for c in self.bound_candidates)

    def to_dict(self) -> dict:
        return {
            "weyl_margin": self.weyl_margin,
            "count_error_bound": self.count_error_bound,
            "continuum_edge": self.continuum_edge,
            "bound_candidates": [c.to_dict() for c in self.bound_candidates],
            "v_eff_min": self.v_eff_min,
            "v_eff_monotone": self.v_eff_monotone,
            "empty_real_spectrum": self.empty_real_spectrum,
            "grid": {
                "half_width": self.disc.half_width,
                "num_points": self.disc.num_points,
                "spacing": self.disc.spacing,
            },
            "domain_warning": self.domain_warning,
        }


def _monotone_nonconstant(v: np.ndarray) -> bool:
    # tanh saturates in doubles beyond |alpha x| ~ 19, flattening the grid
    # tails exactly; test weak monotonicity with at least one strict step.
    d = np.diff(v)
    return bool(((np.all(d >= 0.0)) or (np.all(d <= 0.0))) and np.any(d != 0.0))


def continuum_edge(potential: Callable[[np.ndarray], np.ndarray]) -> float:
    """Bottom of the essential spectrum: the lower of the potential's values at
    -inf and +inf, which must be finite (:class:`ParameterError`); the upper
    one may overflow, and a NaN makes the lower one NaN."""
    with np.errstate(all="ignore"):  # a non-finite edge is rejected below
        limits = np.asarray(potential(np.array([-math.inf, math.inf])), dtype=float)
    edge = float(np.min(limits))
    if not math.isfinite(edge):
        raise ParameterError(f"continuum edge must be finite, got the limits {limits.tolist()!r}")
    return edge


def bound_state_report(
    params: PhysicalParams,
    disc: Discretization,
    potential: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> DiscreteSpectrum:
    """Scan for genuine bound states below the continuum edge.

    Only the eigenvalues below the edge are computed: each is a candidate,
    kept or dismissed by the localization metrics of its eigenvector, and
    their number is the Sturm count at the edge.  ``empty_real_spectrum`` is
    True iff no candidate passes the gate.  The report carries the Weyl
    margin and its error bound (:func:`_weyl_certificate`); a margin above
    the bound with any eigenvalue counted below the edge raises
    :class:`CertificateViolation` before any value is located, and only an
    uncertified edge count goes to :func:`eigenvalues_below`, whose own
    count checks then raise :class:`EvaluationError` on a count that
    contradicts itself.  For the model the margin is positive and
    the count takes :func:`sturm_count`'s diagonal shortcut, so the report
    runs no pivot loop.

    The model resolves once to its potential, ``V_eff`` with ``params``
    bound, at scale ``alpha``; ``potential`` replaces it for control cases
    such as :func:`poschl_teller_well`, of unit width, so scale 1.  The
    operator and :func:`continuum_edge` both evaluate that potential.

    So ``V_eff(x_i) >= edge`` holds in doubles at every node: the edge is
    V_eff at ``x = -inf`` or ``+inf``, through the same operations ``t =
    np.tanh(alpha x)``, ``1 + eta t``, ``M0 *`` and ``m * m``.  At the lower
    limit ``eta t = -|eta|`` exactly, while a node's ``t`` lies in ``[-1,
    1]``; each later step is correctly rounded and monotone in that operand,
    and ``1 - |eta| >= 0`` and ``M0 > 0`` keep the order through the product
    and the square.  Where tanh saturates at a node (``|alpha x|`` above
    about 19, as at the ends of the default box ``L = 25/alpha``), ``min
    V_eff == edge``.

    The grid must resolve the step: ``h * scale > 0.2`` raises
    :class:`GridTooCoarse` and ``scale * L < 3`` raises
    :class:`DomainTooSmall`, while ``scale * L < 10`` only sets
    ``domain_warning`` in the report.
    """
    scale = 1.0
    if potential is None:
        potential, scale = functools.partial(effective_potential, params), params.alpha
    h_alpha = disc.spacing * scale
    if h_alpha > _MAX_H_ALPHA:
        raise GridTooCoarse(
            f"h*alpha = {h_alpha:.3g} > {_MAX_H_ALPHA}: grid cannot resolve the step"
        )
    alpha_l = scale * disc.half_width
    if alpha_l < _MIN_ALPHA_L_ERROR:
        raise DomainTooSmall(
            f"alpha*L = {alpha_l:.3g} < {_MIN_ALPHA_L_ERROR}: box does not contain the step"
        )
    # assemble first: a V_eff that overflows on the grid is the assembly's error
    op = build_hamiltonian(params, disc, potential=potential)
    edge = continuum_edge(potential)
    v_eff_min = float(np.min(op.v_eff))
    margin, error_bound = _weyl_certificate(op, v_eff_min, edge)
    if margin > error_bound:
        count = sturm_count(op, edge)
        if count:
            raise CertificateViolation(
                f"Weyl margin {margin!r} exceeds the count error bound {error_bound!r}, "
                f"yet {count} eigenvalue(s) counted below the edge {edge!r}"
            )
        values = np.empty(0)
    else:
        values = eigenvalues_below(op, edge)
    candidates = [
        BoundCandidate(
            e_squared=value,
            localization=localization_metric(op.x, eigenvector(op, value), disc.half_width),
        )
        for value in values.tolist()
    ]
    return DiscreteSpectrum(
        weyl_margin=margin,
        count_error_bound=error_bound,
        continuum_edge=edge,
        bound_candidates=candidates,
        v_eff_min=v_eff_min,
        v_eff_monotone=_monotone_nonconstant(op.v_eff),
        disc=disc,
        domain_warning=alpha_l < _MIN_ALPHA_L_WARN,
    )
