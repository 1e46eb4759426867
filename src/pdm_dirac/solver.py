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
The number of eigenvalues below a threshold is the integer-exact
Sturm-sequence negative-pivot count; only the values counted below the edge
are computed (LAPACK ``dstebz``, Kahan bisection), with their eigenvectors
(LAPACK ``dstein``, inverse iteration), and the near-edge slice is reported
by its count.  Both the count and the bisection square entries of size
``2/h^2``, so a spacing for which that square overflows is rejected.  By
the Rayleigh bound every eigenvalue exceeds the grid minimum of V_eff, which
for the monotone step profile already rules the discrete spectrum out.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.linalg.lapack import dstein

from .errors import (
    DomainTooSmall,
    EtaZeroDegenerate,
    EvaluationError,
    GridTooCoarse,
    LambdaZero,
    ParameterError,
)
from .params import PhysicalParams, reduce_params
from .spectrum import (
    Classification,
    SpectrumEntry,
    classify_levels,
    effective_potential,
    sech_squared,
)

__all__ = [
    "Discretization",
    "TridiagonalOperator",
    "LocalizationMetric",
    "BoundCandidate",
    "DiscreteSpectrum",
    "ComparisonReport",
    "DomainResolutionWarning",
    "build_hamiltonian",
    "sturm_count",
    "eigenvalues_below",
    "eigenvector",
    "localization_metric",
    "continuum_edge",
    "poschl_teller_well",
    "bound_state_report",
    "analytic_vs_numeric",
    "DEFAULT_HALF_WIDTH_STEPS",
    "DEFAULT_NUM_POINTS",
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

# Eigenvalues are counted slightly above the continuum edge so that near-edge
# box modes are still seen; only values strictly below the edge are candidates.
_EDGE_SLACK = 1.1


class DomainResolutionWarning(UserWarning):
    """Domain is usable but shorter than the recommended alpha*L >= 10."""


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
        # the Sturm recurrence squares the off-diagonal 1/h^2, and LAPACK's
        # bisection multiplies neighbouring diagonal entries (about 2/h^2)
        if (2.0 / h2) * (2.0 / h2) == math.inf:
            raise ParameterError(f"spacing h = {self.spacing:.3g}: (2/h^2)^2 overflows")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.num_points + 1)

    def grid(self) -> np.ndarray:
        """Interior nodes x_i = -L + i*h, i = 1..N."""
        return -self.half_width + self.spacing * np.arange(1, self.num_points + 1)

    @classmethod
    def for_params(
        cls,
        params: PhysicalParams,
        half_width: Optional[float] = None,
        num_points: Optional[int] = None,
    ) -> "Discretization":
        """Production discretization: L = 25/alpha, N = 8000 unless overridden."""
        if half_width is None:
            half_width = DEFAULT_HALF_WIDTH_STEPS / params.alpha
        if num_points is None:
            num_points = DEFAULT_NUM_POINTS
        return cls(half_width=half_width, num_points=num_points)


@dataclass
class TridiagonalOperator:
    """Assembled symmetric tridiagonal Hamiltonian of the squared problem."""

    diag: np.ndarray            # 2/h^2 + V_eff(x_i)
    off: float                  # -1/h^2 (constant for central differences)
    x: np.ndarray
    v_eff: np.ndarray
    spacing: float
    half_width: float
    domain_warning: bool        # alpha*L below the recommended 10

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
    enforce_resolution: bool = True,
) -> TridiagonalOperator:
    """Assemble the tridiagonal operator for V_eff (or a supplied test well).

    ``potential`` overrides V_eff(x) = M(x)^2; it exists for control cases
    such as :func:`poschl_teller_well` and takes the grid array.

    With ``enforce_resolution`` (the default) the step must be resolved:
    ``h * alpha > 0.2`` raises :class:`GridTooCoarse` and ``alpha * L < 3``
    raises :class:`DomainTooSmall`, while ``alpha * L < 10`` only warns and
    flags the result.  Tiny toy grids used for dense-reference comparisons
    may opt out.  A non-finite diagonal entry raises :class:`ParameterError`.
    """
    h = disc.spacing
    alpha_l = params.alpha * disc.half_width
    if enforce_resolution:
        if h * params.alpha > _MAX_H_ALPHA:
            raise GridTooCoarse(
                f"h*alpha = {h * params.alpha:.3g} > {_MAX_H_ALPHA}: grid cannot resolve the step"
            )
        if alpha_l < _MIN_ALPHA_L_ERROR:
            raise DomainTooSmall(
                f"alpha*L = {alpha_l:.3g} < {_MIN_ALPHA_L_ERROR}: box does not contain the step"
            )
    domain_warning = alpha_l < _MIN_ALPHA_L_WARN
    if enforce_resolution and domain_warning:
        warnings.warn(
            f"alpha*L = {alpha_l:.3g} is below the recommended {_MIN_ALPHA_L_WARN}; "
            "tail truncation may be visible",
            DomainResolutionWarning,
            stacklevel=2,
        )
    x = disc.grid()
    inv_h2 = 1.0 / (h * h)
    with np.errstate(all="ignore"):  # non-finite entries are rejected below
        v = np.asarray(effective_potential(params, x) if potential is None else potential(x),
                       dtype=float)
        diag = 2.0 * inv_h2 + v
    if v.shape != x.shape or not np.all(np.isfinite(diag)):
        raise ParameterError("potential must give finite operator entries matching the grid")
    return TridiagonalOperator(
        diag=diag,
        off=-inv_h2,
        x=x,
        v_eff=v,
        spacing=h,
        half_width=disc.half_width,
        domain_warning=domain_warning,
    )


def sturm_count(op: TridiagonalOperator, sigma: float) -> int:
    """Number of eigenvalues strictly below sigma (Sturm-sequence pivots).

    Runs the LDL^T pivot recurrence q_i = (d_i - sigma) - e^2 / q_{i-1} and
    counts negative pivots; a vanishing pivot is replaced by -pivmin, the
    conventional tie-break that counts a value exactly at sigma as below it.
    """
    e2 = op.off * op.off
    pivmin = sys.float_info.min * max(1.0, e2)
    count = 0
    q = 1.0
    first = True
    for d in op.diag.tolist():
        if first:
            q = d - sigma
            first = False
        else:
            q = (d - sigma) - e2 / q
        if abs(q) < pivmin:
            q = -pivmin
        if q < 0.0:
            count += 1
    return count


def eigenvalues_below(op: TridiagonalOperator, threshold: float) -> np.ndarray:
    """All eigenvalues strictly below ``threshold``, ascending.

    The count is :func:`sturm_count` at the threshold (every eigenvalue for an
    infinite threshold), exact up to floating comparisons at the threshold
    itself; the values are the lowest that many eigenvalues from LAPACK
    ``dstebz``.
    """
    k = sturm_count(op, threshold) if math.isfinite(threshold) else op.size
    if k == 0:
        return np.empty(0)
    return eigvalsh_tridiagonal(
        op.diag, np.full(op.size - 1, op.off), select="i", select_range=(0, k - 1)
    )


def eigenvector(op: TridiagonalOperator, value: float) -> np.ndarray:
    """Unit-norm eigenvector for an eigenvalue from :func:`eigenvalues_below`.

    LAPACK ``dstein`` (inverse iteration from its fixed-seed start vector) on
    the whole operator as one block; deterministic, and ``dstein`` itself
    makes the largest-magnitude entry positive.  A nonzero ``info`` (no
    convergence) raises :class:`EvaluationError`.
    """
    n = op.size
    z, info = dstein(
        op.diag, np.full(n - 1, op.off), np.array([value]),
        np.ones(n, dtype=np.int32), np.full(n, n, dtype=np.int32),
    )
    if info != 0:
        raise EvaluationError(f"LAPACK dstein failed (info={info}) at E^2 = {value!r}")
    return z[:, 0]


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


def continuum_edge(params: PhysicalParams) -> float:
    """Bottom of the essential spectrum: M0^2 (1 - |eta|)^2."""
    return (params.M0 * (1.0 - abs(params.eta))) ** 2


def poschl_teller_well(x: np.ndarray) -> np.ndarray:
    """Control well 1 - 2 sech^2(x): exactly one bound state, at E^2 = 0.

    A detector sanity check, not part of the physical model; its continuum
    edge is 1 and its single localized level sits at a closed-form zero.
    """
    return 1.0 - 2.0 * np.asarray(sech_squared(x))


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
    """Numeric spectrum scan below (just above) the continuum edge."""

    slice_count: int                   # eigenvalues below edge*1.1 (Sturm count)
    continuum_edge: float
    bound_candidates: list[BoundCandidate]
    v_eff_min: float
    v_eff_monotone: bool
    empty_real_spectrum: bool
    spacing: float
    half_width: float
    num_points: int
    domain_warning: bool

    def to_dict(self) -> dict:
        return {
            "slice_count": self.slice_count,
            "continuum_edge": self.continuum_edge,
            "bound_candidates": [c.to_dict() for c in self.bound_candidates],
            "v_eff_min": self.v_eff_min,
            "v_eff_monotone": self.v_eff_monotone,
            "empty_real_spectrum": self.empty_real_spectrum,
            "grid": {
                "half_width": self.half_width,
                "num_points": self.num_points,
                "spacing": self.spacing,
            },
            "domain_warning": self.domain_warning,
        }


def _monotone_nonconstant(v: np.ndarray) -> bool:
    # tanh saturates in doubles beyond |alpha x| ~ 19, flattening the grid
    # tails exactly; test weak monotonicity with at least one strict step.
    d = np.diff(v)
    return bool(((np.all(d >= 0.0)) or (np.all(d <= 0.0))) and np.any(d != 0.0))


def bound_state_report(
    params: PhysicalParams,
    disc: Optional[Discretization] = None,
    potential: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    edge: Optional[float] = None,
) -> DiscreteSpectrum:
    """Scan for genuine bound states below the continuum edge.

    Only the eigenvalues below the edge are computed: each is a candidate,
    kept or dismissed by the localization metrics of its eigenvector.  The
    slice up to ``edge * 1.1`` is only counted (``slice_count``), so near-edge
    box modes stay visible.  ``empty_real_spectrum`` is True iff no candidate
    passes the gate.

    ``potential``/``edge`` override the model profile for control cases; the
    default edge is ``M0^2 (1 - |eta|)^2``.
    """
    if disc is None:
        disc = Discretization.for_params(params)
    if potential is not None and edge is None:
        raise ValueError("a custom potential needs an explicit continuum edge")
    # assemble first: it rejects an overflowing V_eff before the edge squares M0
    op = build_hamiltonian(params, disc, potential=potential)
    if edge is None:
        edge = continuum_edge(params)
    candidates = [
        BoundCandidate(
            e_squared=value,
            localization=localization_metric(op.x, eigenvector(op, value), disc.half_width),
        )
        for value in eigenvalues_below(op, edge).tolist()
    ]
    return DiscreteSpectrum(
        slice_count=sturm_count(op, edge * _EDGE_SLACK),
        continuum_edge=edge,
        bound_candidates=candidates,
        v_eff_min=float(np.min(op.v_eff)),
        v_eff_monotone=_monotone_nonconstant(op.v_eff),
        empty_real_spectrum=not any(c.localized for c in candidates),
        spacing=disc.spacing,
        half_width=disc.half_width,
        num_points=disc.num_points,
        domain_warning=op.domain_warning,
    )


@dataclass
class ComparisonReport:
    """Closed-form classifications set against the numeric scan."""

    analytic_entries: list[SpectrumEntry]
    analytic_error: Optional[str]
    numeric: DiscreteSpectrum
    imaginary_levels_consistent: bool    # every Imaginary level has E^2 < 0 < min V_eff
    real_levels_unbound: bool            # Real-classified radicands have no numeric state
    consistent: bool

    def to_dict(self) -> dict:
        return {
            "analytic_entries": [e.to_dict() for e in self.analytic_entries],
            "analytic_error": self.analytic_error,
            "numeric": self.numeric.to_dict(),
            "imaginary_levels_consistent": self.imaginary_levels_consistent,
            "real_levels_unbound": self.real_levels_unbound,
            "consistent": self.consistent,
        }


def analytic_vs_numeric(
    params: PhysicalParams,
    disc: Optional[Discretization] = None,
    n_max: int = 5,
    potential: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    edge: Optional[float] = None,
) -> ComparisonReport:
    """Juxtapose closed-form level classifications with the numeric scan.

    Consistency means: every Imaginary-classified level has ``E^2 < 0 <
    min(V_eff)`` on the grid, so it cannot belong to the numeric operator's
    spectrum (Rayleigh bound); and every Real-classified radicand finds no
    localized numeric state, i.e. the candidate set it suggests is empty.
    At eta = 0 the analytic side is degenerate by construction; the report
    then carries the numeric side only.  ``potential``/``edge`` pass through
    to :func:`bound_state_report` for control cases.
    """
    if disc is None:
        disc = Discretization.for_params(params)
    entries: list[SpectrumEntry] = []
    analytic_error: Optional[str] = None
    try:
        entries = classify_levels(reduce_params(params), n_max, M0=params.M0)
    except (EtaZeroDegenerate, LambdaZero) as exc:
        analytic_error = f"{type(exc).__name__}: {exc}"
    numeric = bound_state_report(params, disc, potential=potential, edge=edge)
    imag_ok = all(
        entry.e_squared < 0.0 < numeric.v_eff_min
        for entry in entries
        if entry.classification is Classification.IMAGINARY
    )
    real_unbound = numeric.empty_real_spectrum
    return ComparisonReport(
        analytic_entries=entries,
        analytic_error=analytic_error,
        numeric=numeric,
        imaginary_levels_consistent=imag_ok,
        real_levels_unbound=real_unbound,
        consistent=imag_ok and real_unbound,
    )

