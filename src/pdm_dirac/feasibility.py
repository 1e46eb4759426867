"""Ground-level feasibility function f(eta, lam): two routes, sign certificate,
and a deterministic supremum scan.

A real ground level requires the radicand of the closed-form energy to be
nonnegative, which after reduction is

    f(eta, lam) = (1 + eta^2) - 4 eta^2 / t^2 - t^2 / 4,
    t = lam - sqrt(lam^2 + 4 eta^2).

Writing ``u = -t/2`` (so u is the positive root of ``u^2 + lam*u = eta^2``),
the same quantity factors exactly as

    f = (1 - u^2) * (u^2 - eta^2) / u^2,

and the factor signs settle the question without inspecting float values:
``0 < u <= |eta| <= 1`` with ``u = |eta|`` iff lam = 0, so ``u^2 - eta^2 =
-lam*u < 0`` whenever lam > 0 while ``1 - u^2 >= 0`` throughout.  Hence f < 0
strictly for every eta != 0, lam > 0, and f = 0 exactly on the lam = 0
boundary.  Both routes evaluate ``sqrt(lam^2 + 4 eta^2) - lam`` through the
rationalized form ``4 eta^2 / (lam + sqrt(lam^2 + 4 eta^2))``; the literal
subtraction loses about half the significant digits once |eta| << lam, far
outside the 1e-10 route-agreement budget.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BothZero,
    BoxIncludesEtaZero,
    CertificateViolation,
    EmptyBox,
    EtaOutOfRange,
    EtaZeroSingular,
    InvalidBox,
    NegativeLambda,
)
from .params import ABS_TOL, ETA_ZERO_SNAP, REL_TOL, DimensionlessParams
from .spectrum import level_energy

__all__ = [
    "SignVerdict",
    "FeasibilityResult",
    "Box",
    "SupremumReport",
    "aux_root",
    "f_direct",
    "f_factored",
    "sign_certificate",
    "evaluate_point",
    "feasibility_inequality",
    "supremum_scan",
]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # golden-section shrink ratio
_SEEDS = 5  # best grid nodes that the scan refines


class SignVerdict(str, enum.Enum):
    """Certified sign of f at a point."""

    NEGATIVE = "Negative"
    ZERO_BOUNDARY = "ZeroBoundary"
    UNDEFINED = "Undefined"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class FeasibilityResult:
    """Both routes, the auxiliary root, and the certified sign at one point."""

    eta: float
    lam: float
    f_direct: float
    f_factored: float
    u: float
    sign_verdict: SignVerdict

    def to_dict(self) -> dict:
        return {
            "eta": self.eta,
            "lambda": self.lam,
            "f_direct": self.f_direct,
            "f_factored": self.f_factored,
            "u": self.u,
            "sign_verdict": self.sign_verdict.value,
        }


def _check_domain(eta: float, lam: float) -> None:
    if abs(eta) > 1.0:
        raise EtaOutOfRange(f"|eta| must be <= 1, got {eta}")
    if lam < 0.0:
        raise NegativeLambda(f"lambda must be >= 0, got {lam}")
    if eta == 0.0:
        if lam == 0.0:
            raise BothZero("f is undefined at eta = lambda = 0")
        raise EtaZeroSingular("f is 0/0 along the eta = 0 line")


def aux_root(eta: float, lam: float) -> float:
    """Positive root u of ``u^2 + lam*u = eta^2``; equals |eta| iff lam = 0.

    Rationalized form ``2 eta^2 / (lam + sqrt(lam^2 + 4 eta^2))``, stable for
    all admissible (eta, lam); where ``u^2`` underflows the point is eta = 0
    in doubles and :class:`EtaZeroSingular` is raised.
    """
    _check_domain(eta, lam)
    u = 2.0 * eta * eta / (lam + math.hypot(lam, 2.0 * eta))
    if u * u == 0.0:
        raise EtaZeroSingular(f"u^2 underflows at eta={eta!r}, lambda={lam!r}")
    return u


def f_direct(eta: float, lam: float) -> float:
    """Feasibility function in its direct (unfactored) arrangement, t = -2u."""
    t = -2.0 * aux_root(eta, lam)
    t2 = t * t
    return (1.0 + eta * eta) - 4.0 * eta * eta / t2 - 0.25 * t2


def f_factored(eta: float, lam: float) -> float:
    """Feasibility function via the exact factorization (1-u^2)(u^2-eta^2)/u^2."""
    u = aux_root(eta, lam)
    u2 = u * u
    return (1.0 - u2) * (u2 - eta * eta) / u2


def sign_certificate(eta: float, lam: float) -> SignVerdict:
    """Sign of f certified from the factor signs, not from a float value.

    lam > 0 forces ``u < |eta|`` (strict) and ``u <= 1``, so both nontrivial
    factors have known sign: the verdict is NEGATIVE.  lam = 0 collapses
    ``u = |eta|`` and the verdict is ZERO_BOUNDARY.  The float value of
    :func:`f_factored` is still checked for consistency as a guard against
    evaluation bugs.
    """
    _check_domain(eta, lam)
    if lam > 0.0:
        verdict = SignVerdict.NEGATIVE
        if f_factored(eta, lam) > 0.0:
            raise CertificateViolation(
                f"sign certificate contradicts f_factored at eta={eta}, lam={lam}"
            )
    else:
        verdict = SignVerdict.ZERO_BOUNDARY
        if abs(f_factored(eta, lam)) > 1e-12:
            raise CertificateViolation(
                f"boundary identity f(eta, 0) = 0 violated at eta={eta}"
            )
    return verdict


def evaluate_point(eta: float, lam: float) -> FeasibilityResult:
    """Bundle both routes, the auxiliary root, and the certified sign.

    Raises CertificateViolation if the routes disagree beyond ``REL_TOL *
    max(1, |f|)``; they are algebraically identical, so that is an error.
    """
    fd = f_direct(eta, lam)
    ff = f_factored(eta, lam)
    if abs(fd - ff) > REL_TOL * max(1.0, abs(fd)):
        raise CertificateViolation(
            f"route disagreement at eta={eta}, lam={lam}: direct={fd!r} factored={ff!r}"
        )
    return FeasibilityResult(
        eta=float(eta),
        lam=float(lam),
        f_direct=fd,
        f_factored=ff,
        u=aux_root(eta, lam),
        sign_verdict=sign_certificate(eta, lam),
    )


def feasibility_inequality(
    params: DimensionlessParams, n: int = 0, M0: float = 1.0
) -> tuple[bool, float]:
    """Whether level n's radicand is nonnegative, plus the signed margin.

    The margin is ``E_n^2`` itself; "satisfied" means the margin clears
    ``-ABS_TOL * M0^2``, i.e. the level is classified Real or
    ZeroThreshold by :func:`pdm_dirac.spectrum.level_energy`.
    """
    margin = level_energy(params, n, M0=M0).e_squared
    return margin >= -ABS_TOL * M0 * M0, margin


# --- supremum scan ---------------------------------------------------------


@dataclass(frozen=True)
class Box:
    """Closed (eta, lambda) rectangle for scans."""

    eta_min: float
    eta_max: float
    lam_min: float
    lam_max: float

    def __post_init__(self) -> None:
        for v in (self.eta_min, self.eta_max, self.lam_min, self.lam_max):
            if not math.isfinite(v):
                raise InvalidBox(f"box bounds must be finite, got {v!r}")
        if self.eta_min > self.eta_max or self.lam_min > self.lam_max:
            raise EmptyBox(
                f"box has no interior: eta [{self.eta_min}, {self.eta_max}], "
                f"lambda [{self.lam_min}, {self.lam_max}]"
            )
        if max(abs(self.eta_min), abs(self.eta_max)) > 1.0:
            raise InvalidBox("box must satisfy |eta| <= 1")
        if self.lam_min < 0.0:
            raise NegativeLambda(f"lambda must be >= 0, got {self.lam_min}")

    def as_list(self) -> list[float]:
        return [self.eta_min, self.eta_max, self.lam_min, self.lam_max]


@dataclass
class SupremumReport:
    """Outcome of a grid scan plus golden-section refinement."""

    box: Box
    grid_shape: tuple[int, int]          # (eta nodes, lambda nodes) requested
    sup_estimate: float                  # max of every evaluated f value
    argmax: tuple[float, float]          # one (eta, lambda) attaining it
    skipped_eta_nodes: list[float]       # gridlines excluded as eta = 0
    refinement_trace: list[tuple[float, float, float]] = field(default_factory=list)

    @property
    def all_nodes_negative(self) -> bool:
        """Every evaluated value is < 0 (the supremum is the largest of them)."""
        return self.sup_estimate < 0.0

    def to_dict(self) -> dict:
        """Summary for reports: the refinement trace is given by its length."""
        return {
            "box": self.box.as_list(),
            "grid_shape": list(self.grid_shape),
            "sup_estimate": self.sup_estimate,
            "argmax": list(self.argmax),
            "skipped_eta_nodes": self.skipped_eta_nodes,
            "refinement_evaluations": len(self.refinement_trace),
            "all_nodes_negative": self.all_nodes_negative,
        }


def _f_grid(eta_nodes: np.ndarray, lam_nodes: np.ndarray) -> np.ndarray:
    """Vectorized factored route on the (eta, lambda) product grid.

    Rows follow ``eta_nodes`` and columns ``lam_nodes``; callers drop eta = 0
    nodes themselves.  A non-finite value (u^2 underflows) raises InvalidBox.
    """
    e2 = (eta_nodes * eta_nodes)[:, None]
    lam = lam_nodes[None, :]
    with np.errstate(all="ignore"):  # non-finite values are rejected below
        u = 2.0 * e2 / (lam + np.hypot(lam, 2.0 * np.abs(eta_nodes)[:, None]))
        u2 = u * u
        values = (1.0 - u2) * (u2 - e2) / u2
    # f <= 0 on the admissible domain, so only -inf (u^2 = 0) or NaN can
    # appear; min() catches both without a full-size boolean temporary
    if not math.isfinite(values.min()):
        raise InvalidBox("f is not finite on the box: it leaves the representable range")
    return values


def _rank(point: tuple[float, float, float]) -> tuple[float, float, float, float]:
    """Sort key of an (eta, lam, f) candidate; the smallest key wins.

    Maximize f; break ties toward the smallest lambda, then the smallest
    |eta|, then the negative-eta member of an (+eta, -eta) pair.
    """
    eta, lam, value = point
    return (-value, lam, abs(eta), eta)


def _golden_max(fn, lo: float, hi: float, steps: int, trace: list) -> tuple[float, float]:
    """Golden-section maximization of fn on [lo, hi]; appends evaluations to trace."""
    if hi - lo <= 0.0:
        value = fn(lo)
        trace.append((lo, value))
        return lo, value
    a, b = lo, hi
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1, f2 = fn(x1), fn(x2)
    trace.append((x1, f1))
    trace.append((x2, f2))
    for _ in range(steps):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = fn(x2)
            trace.append((x2, f2))
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = fn(x1)
            trace.append((x1, f1))
    if f1 >= f2:
        return x1, f1
    return x2, f2


def supremum_scan(
    box: Box,
    grid: tuple[int, int] = (101, 101),
    refine_steps: int = 60,
) -> SupremumReport:
    """Estimate sup f over the box: product grid, then local refinement.

    The grid is ``grid[0]`` eta nodes times ``grid[1]`` lambda nodes.  Eta
    gridlines within ``ETA_ZERO_SNAP`` of zero are excluded (f is singular
    along eta = 0) and recorded; a box whose every eta node collapses there
    raises :class:`BoxIncludesEtaZero`.  From the best five grid nodes,
    coordinate-wise golden-section refinement (about ``refine_steps`` shrink
    steps per seed) searches the surrounding grid cells.  The reported
    supremum is the best of the grid maximum and every refinement evaluation
    under the one deterministic order of :func:`_rank`, so the result is
    independent of evaluation order.
    """
    if grid[0] < 2 or grid[1] < 2:
        raise InvalidBox(f"grid must be at least 2x2, got {grid}")
    if box.lam_min <= 0.0:
        raise InvalidBox(
            "scan requires lam_min > 0; the lam = 0 boundary is handled by "
            "the exact identity f(eta, 0) = 0"
        )

    eta_all = np.linspace(box.eta_min, box.eta_max, grid[0])
    eta_all[np.abs(eta_all) <= ETA_ZERO_SNAP] = 0.0
    keep = eta_all != 0.0
    skipped = [float(v) for v in np.linspace(box.eta_min, box.eta_max, grid[0])[~keep]]
    eta_nodes = eta_all[keep]
    if eta_nodes.size == 0:
        raise BoxIncludesEtaZero(
            "every eta gridline of the box lies on the excluded eta = 0 line"
        )
    with np.errstate(over="ignore"):  # only the last node can overflow; linspace pins it
        lam_nodes = np.linspace(box.lam_min, box.lam_max, grid[1])

    values = _f_grid(eta_nodes, lam_nodes)

    # Grid best with deterministic tie-break: among exact maxima, order by
    # (lambda, |eta|, eta) and take the first.
    vmax = values.max()
    ii, jj = np.nonzero(values == vmax)
    order = np.lexsort((eta_nodes[ii], np.abs(eta_nodes[ii]), lam_nodes[jj]))
    best = (float(eta_nodes[ii[order[0]]]), float(lam_nodes[jj[order[0]]]), float(vmax))

    # Seeds for refinement: the best _SEEDS node values, same ordering.
    flat = values.ravel()
    k = min(_SEEDS, flat.size)
    top_idx = np.argpartition(flat, flat.size - k)[flat.size - k:]
    seed_eta = eta_nodes[top_idx // lam_nodes.size]
    seed_lam = lam_nodes[top_idx % lam_nodes.size]
    seed_order = np.lexsort((seed_eta, np.abs(seed_eta), seed_lam, -flat[top_idx]))
    seeds = [(float(seed_eta[s]), float(seed_lam[s])) for s in seed_order]

    d_eta = (box.eta_max - box.eta_min) / (grid[0] - 1)
    d_lam = (box.lam_max - box.lam_min) / (grid[1] - 1)

    def f_or_neg_inf(eta: float, lam: float) -> float:
        # Refinement probes never sit on a bracket endpoint, but guard the
        # singular line anyway so a pathological probe cannot poison the max.
        if eta == 0.0:
            return -math.inf
        return f_factored(eta, lam)

    trace: list[tuple[float, float, float]] = []
    per_coord = max(1, refine_steps // 4)
    for eta_c, lam_c in seeds:
        for _ in range(2):  # two alternating coordinate sweeps
            lam_lo = max(box.lam_min, lam_c - d_lam)
            lam_hi = min(box.lam_max, lam_c + d_lam)
            sub: list[tuple[float, float]] = []
            lam_c, _ = _golden_max(
                lambda l: f_or_neg_inf(eta_c, l), lam_lo, lam_hi, per_coord, sub
            )
            trace.extend((eta_c, l, v) for l, v in sub)
            eta_lo = max(box.eta_min, eta_c - d_eta)
            eta_hi = min(box.eta_max, eta_c + d_eta)
            sub = []
            eta_c, _ = _golden_max(
                lambda e: f_or_neg_inf(e, lam_c), eta_lo, eta_hi, per_coord, sub
            )
            trace.extend((e, lam_c, v) for e, v in sub)
    # each seed's final point is one of its evaluations, so it is in trace
    overall = min([best, *trace], key=_rank)

    return SupremumReport(
        box=box,
        grid_shape=(int(grid[0]), int(grid[1])),
        sup_estimate=overall[2],
        argmax=(overall[0], overall[1]),
        skipped_eta_nodes=skipped,
        refinement_trace=trace,
    )
