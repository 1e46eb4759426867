"""Ground-level feasibility function f(eta, lam): two routes, sign certificate,
and a supremum scan certified at the box corner.

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
outside the 1e-10 route-agreement budget.  :func:`f_factored` also takes a
level index n: the same factorization gives every level's ``E_n^2 / M0^2``.

No route returns a non-finite f: where f leaves the double range, the scalar
routes raise :class:`EvaluationError` and the grid evaluator :class:`InvalidBox`.

The supremum scan evaluates f only at the extreme nodes of its grid, the
2x2 grid of the smallest and largest kept |eta| and the box's lambda bounds:
f is monotone in both (see :func:`supremum_scan`), so those nodes hold the
grid's largest and smallest values.  ``surface`` runs the same grid
evaluator, :func:`_f_grid`, on each piece of its table before formatting it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BothZero,
    BoxIncludesEtaZero,
    CertificateViolation,
    EmptyBox,
    EtaOutOfRange,
    EtaZeroSingular,
    EvaluationError,
    InvalidBox,
    NegativeLambda,
)
from .params import ETA_ZERO_SNAP, REL_TOL

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
    "supremum_scan",
]


class SignVerdict(str, enum.Enum):
    """Certified sign of f at a point: Negative for lam > 0, ZeroBoundary at lam = 0."""

    NEGATIVE = "Negative"
    ZERO_BOUNDARY = "ZeroBoundary"


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
    f = (1.0 + eta * eta) - 4.0 * eta * eta / t2 - 0.25 * t2
    if not math.isfinite(f):
        raise EvaluationError(f"f_direct leaves the double range at eta={eta!r}, lambda={lam!r}")
    return f


def f_factored(eta: float, lam: float, n: int = 0) -> float:
    """Level radicand ``E_n^2 / M0^2`` in factored form; f is its n = 0 case.

    With ``k = lam n`` and ``w = u - k = -lam (n + delta1)``, the Rosen-Morse
    II level ``(1 - w^2)(w^2 - eta^2) / w^2`` is ``-lam (1 - u + k)(1 + w)
    ((2n+1) u - k n) / w^2`` by ``u^2 + lam u = eta^2``; at n = 0 these are the
    operations of ``-lam (1-u)(1+u) / u``.  ``1 - u`` is summed from
    nonnegative terms, ``(lam + lam^2/(s + 2|eta|) + 2|eta|(1-|eta|)) / (lam +
    s)`` with ``s = hypot(lam, 2 eta)``, so no factor cancels at tiny lambda or
    at |eta| near 1, and f < 0 for every lam > 0.  The exact pole ``w = 0``
    raises :class:`EvaluationError`; next to it the radicand is huge but
    finite, so callers that classify levels test the pole themselves
    (:func:`~pdm_dirac.spectrum.classify_levels` uses ``|w| <= ABS_TOL u``).
    n = 0 is never a pole.

    :func:`_f_grid` repeats the n = 0 arithmetic for arrays: on Python floats
    this route is over ten times faster a call than on numpy scalars.
    """
    u = aux_root(eta, lam)
    a = abs(eta)
    s = math.hypot(lam, 2.0 * a)
    one_minus_u = (lam + lam * (lam / (s + 2.0 * a)) + 2.0 * a * (1.0 - a)) / (lam + s)
    k = lam * n
    w = u - k
    if w == 0.0:
        raise EvaluationError(
            f"level n={n} sits on the pole lam n = u at eta={eta!r}, lambda={lam!r}"
        )
    f = -lam * (one_minus_u + k) / w * (1.0 + w) * (((2 * n + 1) * u - k * n) / w)
    if not math.isfinite(f):
        raise EvaluationError(f"f_factored leaves the double range at eta={eta!r}, lambda={lam!r}")
    return f


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
    """Outcome of a supremum scan: the grid maximum, checked against the corner."""

    box: Box
    grid_shape: tuple[int, int]          # (eta nodes, lambda nodes) requested
    sup_estimate: float                  # max of f on the grid's extreme nodes
    argmax: tuple[float, float]          # the certified corner (max|eta|, lam_min)
    skipped_eta_nodes: list[float]       # gridlines excluded as eta = 0

    @property
    def all_nodes_negative(self) -> bool:
        """Every grid value is < 0 (the supremum is the largest of them).

        Read from the sign bit: where f underflows at |eta| = 1 the grid
        maximum is -0.0, a negative f rounded to zero (every factor of the
        product keeps its sign), not a zero of f.
        """
        return math.copysign(1.0, self.sup_estimate) < 0.0

    def to_dict(self) -> dict:
        return {
            "box": self.box.as_list(),
            "grid_shape": list(self.grid_shape),
            "sup_estimate": self.sup_estimate,
            "argmax": list(self.argmax),
            "skipped_eta_nodes": self.skipped_eta_nodes,
            "all_nodes_negative": self.all_nodes_negative,
        }


def _f_grid(eta_nodes: np.ndarray, lam_nodes: np.ndarray) -> np.ndarray:
    """Vectorized factored route on the (eta, lambda) product grid.

    Rows follow ``eta_nodes`` and columns ``lam_nodes``; ``surface`` passes
    the piece of its table it is about to format (a few eta rows, or a chunk
    of one long row), the supremum scan its extreme nodes, and both drop
    eta = 0 nodes themselves.  The arithmetic is that of :func:`f_factored`
    at n = 0 (its last factor, ``u/u = 1``, skipped), done in place on two
    arrays of the block's size.  Where u^2 underflows (the
    scalar route's EtaZeroSingular) or f is not finite, InvalidBox is raised.

    ``s = sqrt(lam^2 + (2 eta)^2)`` is a sum of squares and one square root,
    where the scalar route calls ``math.hypot``: numpy runs ``np.hypot`` as a
    libm call per element, with no SIMD path, which cost over a third of a
    2001x2001 grid, and libm's last bit can differ between glibc versions.
    Squaring, adding and ``sqrt`` are correctly rounded IEEE operations, so
    the grid's bytes depend on neither libm nor numpy's CPU dispatch.  The
    domain is that of hypot.  ``lam * lam`` overflows only where f does
    (``|f| = lam (1/u - u) > lam^2 - lam``, as ``u < eta^2/lam``), and an
    overflowed node has u = 0, so the box is refused.  Callers pass ``|eta| >
    ETA_ZERO_SNAP``, so ``(2 eta)^2 >= 4e-24`` is a normal double, and where
    ``lam * lam`` underflows it lies below half an ulp of it: s is ``2|eta|``
    exactly, as hypot gives.  Elsewhere s is within an ulp of hypot's, and f
    keeps its accuracy: against 90-digit mpmath, on ten seeds of the accuracy
    test's draw, the largest relative error is 5.2e-16 with either s.

    Kept apart from :func:`f_factored`: each measured merge slowed the scan
    or the scalar routes (see ROADMAP.md).
    """
    a = np.abs(eta_nodes)[:, None]
    lam = lam_nodes[None, :]
    with np.errstate(all="ignore"):  # non-finite values are rejected below
        s = (2.0 * a) * (2.0 * a) + lam * lam  # squared on the broadcast vectors
        np.sqrt(s, out=s)
        values = s + 2.0 * a
        np.divide(lam, values, out=values)
        values *= lam
        values += lam
        values += 2.0 * a * (1.0 - a)
        s += lam
        values /= s  # 1 - u
        u = np.divide(2.0 * a * a, s, out=s)
        values *= -lam
        values /= u
        u_min = float(u.min())
        u += 1.0
        values *= u
    # f <= 0 on the admissible domain, so only -inf or NaN can appear; min()
    # catches both without a full-size boolean temporary
    if u_min * u_min == 0.0 or not math.isfinite(values.min()):
        raise InvalidBox("f is not finite on the box: it leaves the representable range")
    return values


def _scan_eta_nodes(box: Box, count: int) -> np.ndarray:
    """The scan's ``count`` eta nodes: ``np.linspace``, mirrored exactly on a symmetric box."""
    eta = np.linspace(box.eta_min, box.eta_max, count)
    if box.eta_min == -box.eta_max:
        half = count // 2
        eta[:half] = -eta[::-1][:half]
    return eta


def supremum_scan(box: Box, grid: tuple[int, int]) -> SupremumReport:
    """Supremum of f over the box: the certified corner, evaluated at the grid's extremes.

    The supremum is attained at the corner ``(max|eta|, lam_min)``.  With ``a =
    |eta|`` and lam > 0, the root u of ``u^2 + lam u = a^2`` has ``du/da =
    2a / (2u + lam) > 0`` and ``du/dlam = -u / (2u + lam) < 0``, and ``f = -lam
    (1/u - u)`` where ``1/u - u`` falls as u rises and is positive (``u < a <=
    1``).  So f strictly increases in |eta| and strictly decreases in lambda.
    :func:`sign_certificate` certifies f < 0 at the corner, hence on the whole
    box.

    The grid is ``grid[0]`` eta nodes times ``grid[1]`` lambda nodes; both
    axes pin their endpoints, so the corner is a node.  Eta gridlines within
    ``ETA_ZERO_SNAP`` of zero are excluded (f is singular along eta = 0) and
    recorded; a box whose every eta node collapses there raises
    :class:`BoxIncludesEtaZero`.  By the same monotonicity every node's f lies
    between its values at the extreme nodes: the largest at the largest kept
    |eta| and ``lam_min``, the smallest, where u is smallest too, at the
    smallest kept |eta| and ``lam_max`` (``np.linspace`` pins both ends, so
    these are the first and last lambda nodes bit for bit, and the lambda
    axis itself is never built).  So :func:`_f_grid` runs once, on the 2x2
    grid of those rows and columns (a one-value axis repeats its value, which
    changes neither the maximum nor a refusal); its maximum is the reported
    supremum, and its refusal of a non-finite f or an underflowing u^2 is the
    box's :class:`InvalidBox`.
    That these equal, bit for bit, the maximum over every node and the
    refusal of any node needs ``_f_grid`` to round as monotonically as f
    rises and falls; that is tested (``tests/test_feasibility.py``), not
    proven here.

    A symmetric box (``eta_min == -eta_max``) has its lower-half eta nodes set
    to the exact negatives of the upper half (the middle node of an odd count
    stays), where ``np.linspace(-1, 1, 2001)`` rounds mirror nodes apart.
    That fixes the bytes ``skipped_eta_nodes`` reports and the smallest kept
    |eta|, which decides a refusal.  ``surface`` keeps plain ``np.linspace``
    nodes, since its rows are an output.  The reported argmax is the
    certified corner, its negative member when ``eta_min == -max|eta|``.  A
    supremum above the scalar corner value by more than ``REL_TOL * max(1,
    |f|)`` contradicts the monotonicity and raises
    :class:`CertificateViolation`.
    """
    if grid[0] < 2 or grid[1] < 2:
        raise InvalidBox(f"grid must be at least 2x2, got {grid}")
    if box.lam_min <= 0.0:
        raise InvalidBox(
            "scan requires lam_min > 0; the lam = 0 boundary is handled by "
            "the exact identity f(eta, 0) = 0"
        )

    eta_all = _scan_eta_nodes(box, grid[0])
    keep = np.abs(eta_all) > ETA_ZERO_SNAP
    skipped = [float(v) for v in eta_all[~keep]]
    eta_nodes = eta_all[keep]
    if eta_nodes.size == 0:
        raise BoxIncludesEtaZero(
            "every eta gridline of the box lies on the excluded eta = 0 line"
        )

    a = np.abs(eta_nodes)
    sup = float(_f_grid(np.array([a.min(), a.max()]),
                        np.array([box.lam_min, box.lam_max])).max())
    corner_eta = max(abs(box.eta_min), abs(box.eta_max))
    sign_certificate(corner_eta, box.lam_min)
    corner = f_factored(corner_eta, box.lam_min)
    if sup > corner + REL_TOL * max(1.0, abs(corner)):
        raise CertificateViolation(
            f"grid value {sup!r} exceeds the certified supremum {corner!r} "
            f"at the corner eta={corner_eta}, lam={box.lam_min}"
        )

    return SupremumReport(
        box=box,
        grid_shape=(int(grid[0]), int(grid[1])),
        sup_estimate=sup,
        argmax=(-corner_eta if box.eta_min == -corner_eta else corner_eta, box.lam_min),
        skipped_eta_nodes=skipped,
    )
