"""Command-line interface: surface, spectrum, verdict, potential.

Exit statuses
-------------
0   run succeeded; for ``verdict``, the spectrum is imaginary or empty
2   bad parameters or config
3   ``verdict`` found claim-contradicting evidence (a real, localized state
    or a nonnegative feasibility certificate inside the scan box)
4   ``verdict`` was inconclusive (a component failed; see the error trail)

All file output is deterministic byte-for-byte for a fixed config: floats are
written with 17 significant digits, lines end with LF, and files appear
atomically (temp file + rename) so an error never leaves a partial file.
``surface`` evaluates f one eta row at a time through the vectorized grid
evaluator that the verdict's supremum scan also uses; ``potential`` samples
the profile on its whole x grid in one call.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigKeyError, ParameterError, PdmDiracError
from .feasibility import (
    Box,
    _f_grid,
    evaluate_point,
    f_direct,
    f_factored,
    supremum_scan,
)
from .params import (
    ETA_ZERO_SNAP,
    LAMBDA_MIN_SCAN,
    REL_TOL,
    DimensionlessParams,
    PhysicalParams,
    params_from_json,
    reduce_params,
    validate_physical,
)
from .solver import (
    Discretization,
    analytic_vs_numeric,
    poschl_teller_well,
)
from .spectrum import classify_levels, potential_sample

__all__ = ["main", "RunConfig", "resolve_config"]

_SIG = ".17g"

_RUN_KEYS = frozenset(
    {"subcommand", "n_max", "L", "N", "box", "grid", "out", "format", "control_well", "seed"}
)
_DEFAULT_OUT = {
    "surface": "surface.csv",
    "spectrum": "-",
    "verdict": "verdict.json",
    "potential": "potential.csv",
}
_DEFAULT_FORMAT = {
    "surface": "csv",
    "spectrum": "csv",
    "verdict": "json",
    "potential": "csv",
}
_ALLOWED_FORMATS = {
    "surface": ("csv",),
    "spectrum": ("csv", "json"),
    "verdict": ("json",),
    "potential": ("csv",),
}
_NEEDS_PARAMS = {"spectrum", "verdict", "potential"}
# The level table is built row by row; this keeps it to about a second.
_N_MAX_CEILING = 100_000


def _fmt(value: float) -> str:
    return format(float(value), _SIG)


def _atomic_write(path: str, text: str) -> None:
    """Write text with LF endings; no partial file is ever visible."""
    target = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=str(target.parent) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp_name, str(target))
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _emit(out: str, text: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        _atomic_write(out, text)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description; serializes to a round-trippable JSON doc."""

    subcommand: str
    eta: Optional[float] = None
    lam: Optional[float] = None          # set iff reduced parameterization
    M0: Optional[float] = None
    alpha: Optional[float] = None        # set iff physical parameterization
    n_max: int = 5
    half_width: Optional[float] = None   # solver L (absolute units)
    num_points: Optional[int] = None     # solver N
    box: Optional[tuple[float, float, float, float]] = None
    grid: Optional[tuple[int, int]] = None
    out: str = "-"
    fmt: str = "csv"
    control_well: bool = False
    seed: int = 0

    def physical(self) -> PhysicalParams:
        m0 = 1.0 if self.M0 is None else self.M0
        if self.alpha is not None:
            return validate_physical(m0, self.eta, self.alpha)
        return validate_physical(m0, self.eta, self.lam * m0)

    def dimensionless(self) -> DimensionlessParams:
        return reduce_params(self.physical())

    def to_json_doc(self) -> dict:
        doc: dict = {"subcommand": self.subcommand}
        if self.eta is not None:
            if self.lam is not None and (self.M0 is None or self.M0 == 1.0):
                doc["eta"] = self.eta
                doc["lambda"] = self.lam
            else:
                p = self.physical()
                doc["M0"] = p.M0
                doc["eta"] = p.eta
                doc["alpha"] = p.alpha
        if self.subcommand in ("spectrum", "verdict"):
            doc["n_max"] = self.n_max
        if self.subcommand in ("verdict", "potential"):
            if self.half_width is not None:
                doc["L"] = self.half_width
            if self.num_points is not None:
                doc["N"] = self.num_points
        if self.subcommand in ("surface", "verdict"):
            if self.box is not None:
                doc["box"] = list(self.box)
            if self.grid is not None:
                doc["grid"] = list(self.grid)
        if self.subcommand == "verdict":
            doc["control_well"] = self.control_well
            doc["seed"] = self.seed
        doc["out"] = self.out
        doc["format"] = self.fmt
        return doc

    def dump(self) -> str:
        return json.dumps(self.to_json_doc(), sort_keys=True, indent=2) + "\n"


def _parse_values(text: str, count: int, what: str, cast) -> tuple:
    parts = text.split(",")
    if len(parts) != count:
        raise ConfigKeyError(f"{what} needs {count} comma-separated values, got {text!r}")
    try:
        return tuple(cast(p) for p in parts)
    except ValueError as exc:
        raise ConfigKeyError(f"bad {what} value in {text!r}: {exc}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdm-dirac",
        description="Spectral feasibility checks for a smooth-step "
        "position-dependent-mass Dirac model.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser, params: bool) -> None:
        if params:
            p.add_argument("--M0", type=float, default=None, help="mass scale (default 1)")
            p.add_argument("--eta", type=float, default=None, help="step depth, |eta| <= 1")
            p.add_argument("--alpha", type=float, default=None, help="step steepness")
            p.add_argument("--lambda", dest="lam", type=float, default=None,
                           help="dimensionless steepness alpha/M0 (alternative to --alpha)")
        p.add_argument("--config", type=str, default=None,
                       help="JSON config document (exclusive with parameter flags)")
        p.add_argument("--dump-config", action="store_true",
                       help="print the resolved config as JSON and exit")
        p.add_argument("--out", type=str, default=None,
                       help="output path ('-' for stdout)")
        p.add_argument("--format", dest="fmt", type=str, default=None,
                       choices=("csv", "json"), help="output format")

    p_surface = sub.add_parser("surface", help="tabulate f(eta, lambda) over a box")
    add_common(p_surface, params=False)
    p_surface.add_argument("--box", type=str, default=None,
                           help="etamin,etamax,lammin,lammax (default -1,1,0,10)")
    p_surface.add_argument("--grid", type=str, default=None,
                           help="eta nodes,lambda nodes (default 101,101)")

    p_spectrum = sub.add_parser("spectrum", help="closed-form level table")
    add_common(p_spectrum, params=True)
    p_spectrum.add_argument("--n-max", type=int, default=None, help="highest level index (default 5)")

    p_verdict = sub.add_parser("verdict", help="full feasibility verdict with numeric cross-check")
    add_common(p_verdict, params=True)
    p_verdict.add_argument("--n-max", type=int, default=None, help="highest level index (default 5)")
    p_verdict.add_argument("--L", type=float, default=None,
                           help="solver box half-width (default 25/alpha)")
    p_verdict.add_argument("--N", type=int, default=None,
                           help="solver interior points (default 8000)")
    p_verdict.add_argument("--box", type=str, default=None,
                           help="scan box etamin,etamax,lammin,lammax (default -1,1,1e-3,10)")
    p_verdict.add_argument("--grid", type=str, default=None,
                           help="scan grid (default 201,201)")
    p_verdict.add_argument("--control-well", action="store_true", default=None,
                           help="replace V_eff by the test well 1 - 2 sech^2 x (detector check)")
    p_verdict.add_argument("--seed", type=int, default=None,
                           help="seed for the route-agreement spot check (default 0)")

    p_potential = sub.add_parser("potential", help="sample mass, vector potential, V_eff")
    add_common(p_potential, params=True)
    p_potential.add_argument("--L", type=float, default=None,
                             help="sampling half-width (default 10/alpha)")
    p_potential.add_argument("--N", type=int, default=None,
                             help="sample count (default 401)")
    return parser


def _load_config_doc(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ConfigKeyError(f"cannot read config {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigKeyError(f"config {path!r} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigKeyError(f"config {path!r} must be a JSON object")
    return doc


def resolve_config(ns: argparse.Namespace) -> RunConfig:
    """Merge flags and optional JSON config into a fully resolved RunConfig.

    Parameters come from exactly one source: flags or the config document.
    Run keys in the config may be overridden by explicitly given flags.
    """
    sub = ns.subcommand
    has_params = sub in _NEEDS_PARAMS

    flag_params = {}
    if has_params:
        for key in ("M0", "eta", "alpha", "lam"):
            value = getattr(ns, key)
            if value is not None:
                flag_params[key] = value

    cfg_doc = {}
    if ns.config is not None:
        if flag_params:
            raise ConfigKeyError(
                "give parameters either as flags or in --config, not both"
            )
        cfg_doc = _load_config_doc(ns.config)
        if "subcommand" in cfg_doc and cfg_doc["subcommand"] != sub:
            raise ConfigKeyError(
                f"config is for subcommand {cfg_doc['subcommand']!r}, invoked {sub!r}"
            )

    eta = lam = m0 = alpha = None
    if ns.config is not None:
        param_doc = {k: v for k, v in cfg_doc.items() if k not in _RUN_KEYS}
        if param_doc:
            params = params_from_json(param_doc)
            if isinstance(params, PhysicalParams):
                m0, eta, alpha = params.M0, params.eta, params.alpha
            else:
                eta, lam = params.eta, params.lam
        elif has_params:
            raise ConfigKeyError(f"subcommand {sub!r} needs parameters in the config")
    elif has_params:
        if "eta" not in flag_params:
            raise ConfigKeyError(f"subcommand {sub!r} needs --eta (or --config)")
        eta = flag_params["eta"]
        m0 = flag_params.get("M0")
        if "alpha" in flag_params and "lam" in flag_params:
            raise ConfigKeyError("give either --alpha or --lambda, not both")
        if "alpha" in flag_params:
            alpha = flag_params["alpha"]
        elif "lam" in flag_params:
            lam = flag_params["lam"]
        else:
            raise ConfigKeyError(f"subcommand {sub!r} needs --alpha or --lambda")

    def run_key(flag_value, cfg_key, default):
        if flag_value is not None:
            return flag_value
        if cfg_key in cfg_doc:
            return cfg_doc[cfg_key]
        return default

    box = run_key(getattr(ns, "box", None), "box", None)
    if isinstance(box, str):
        box = _parse_values(box, 4, "--box", float)
    elif isinstance(box, list):
        box = tuple(float(v) for v in box)
    grid = run_key(getattr(ns, "grid", None), "grid", None)
    if isinstance(grid, str):
        grid = _parse_values(grid, 2, "--grid", int)
    elif isinstance(grid, list):
        grid = tuple(int(v) for v in grid)

    n_max = int(run_key(getattr(ns, "n_max", None), "n_max", 5))
    if not 0 <= n_max <= _N_MAX_CEILING:
        raise ConfigKeyError(f"n_max must be in [0, {_N_MAX_CEILING}], got {n_max}")
    half_width = run_key(getattr(ns, "L", None), "L", None)
    if half_width is not None:
        half_width = float(half_width)
    num_points = run_key(getattr(ns, "N", None), "N", None)
    if num_points is not None:
        num_points = int(num_points)
    control = bool(run_key(getattr(ns, "control_well", None), "control_well", False))
    seed = int(run_key(getattr(ns, "seed", None), "seed", 0))
    out = str(run_key(ns.out, "out", _DEFAULT_OUT[sub]))
    fmt = str(run_key(ns.fmt, "format", _DEFAULT_FORMAT[sub]))
    if fmt not in _ALLOWED_FORMATS[sub]:
        raise ConfigKeyError(
            f"subcommand {sub!r} supports formats {_ALLOWED_FORMATS[sub]}, got {fmt!r}"
        )

    cfg = RunConfig(
        subcommand=sub,
        eta=eta,
        lam=lam,
        M0=m0,
        alpha=alpha,
        n_max=n_max,
        half_width=half_width,
        num_points=num_points,
        box=box,
        grid=grid,
        out=out,
        fmt=fmt,
        control_well=control,
        seed=seed,
    )
    if has_params:
        cfg.physical()  # validate eagerly: bad parameters exit with status 2
    return cfg


# --- subcommands ------------------------------------------------------------


def cmd_surface(cfg: RunConfig) -> int:
    box = cfg.box if cfg.box is not None else (-1.0, 1.0, 0.0, 10.0)
    grid = cfg.grid if cfg.grid is not None else (101, 101)
    scan_box = Box(*box)  # validates bounds, lambda >= 0 included
    if grid[0] < 2 or grid[1] < 2:
        raise ConfigKeyError(f"surface grid must be at least 2x2, got {grid}")
    # unique() collapses a degenerate axis (min == max) to one node
    eta_nodes = np.unique(np.linspace(scan_box.eta_min, scan_box.eta_max, grid[0]))
    with np.errstate(over="ignore"):  # only the last node can overflow; linspace pins it
        lam_nodes = np.unique(np.linspace(scan_box.lam_min, scan_box.lam_max, grid[1]))
    lam_text = [_fmt(lam) for lam in lam_nodes]
    boundary = lam_nodes == 0.0
    lines = ["eta,lambda,f"]
    rows = 0
    for eta in eta_nodes.tolist():
        if abs(eta) <= ETA_ZERO_SNAP:
            lines.append(f"# eta node {_fmt(eta)} skipped: f undefined on the eta=0 line")
            continue
        # row by row: whole-grid temporaries would raise the peak memory
        values = _f_grid(np.array([eta]), lam_nodes)[0]
        values[boundary] = 0.0  # exact boundary identity f(eta, 0) = 0
        eta_text = _fmt(eta)
        lines.extend(f"{eta_text},{lam},{_fmt(v)}" for lam, v in zip(lam_text, values.tolist()))
        rows += values.size
    _emit(cfg.out, "\n".join(lines) + "\n")
    if cfg.out != "-":
        print(f"wrote {cfg.out} ({rows} rows)")
    return 0


def _spectrum_lines(cfg: RunConfig) -> str:
    entries = classify_levels(
        cfg.dimensionless(), cfg.n_max, M0=cfg.physical().M0
    )
    if cfg.fmt == "json":
        doc = {
            "params": cfg.to_json_doc(),
            "entries": [e.to_dict() for e in entries],
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    lines = ["n,delta1,e_squared,classification,energy_magnitude"]
    for e in entries:
        e2 = "nan" if math.isnan(e.e_squared) else _fmt(e.e_squared)
        mag = "nan" if math.isnan(e.energy_magnitude) else _fmt(e.energy_magnitude)
        lines.append(f"{e.n},{_fmt(e.delta1)},{e2},{e.classification.value},{mag}")
    return "\n".join(lines) + "\n"


def cmd_spectrum(cfg: RunConfig) -> int:
    _emit(cfg.out, _spectrum_lines(cfg))
    return 0


def cmd_potential(cfg: RunConfig) -> int:
    params = cfg.physical()
    half_width = cfg.half_width if cfg.half_width is not None else 10.0 / params.alpha
    count = cfg.num_points if cfg.num_points is not None else 401
    if count < 2:
        raise ConfigKeyError(f"potential sampling needs N >= 2, got {count}")
    with np.errstate(all="ignore"):  # non-finite tables are rejected below
        s = potential_sample(params, np.linspace(-half_width, half_width, count))
    columns = (s.x, s.mass, s.vector_potential.imag, s.v_eff)
    if not all(np.isfinite(c).all() for c in columns):
        raise ConfigKeyError(
            f"potential table leaves the double range (L={half_width!r}, M0={params.M0!r})"
        )
    lines = ["x,mass,im_v,v_eff"]
    lines.extend(",".join(map(_fmt, row)) for row in zip(*(c.tolist() for c in columns)))
    _emit(cfg.out, "\n".join(lines) + "\n")
    if cfg.out != "-":
        print(f"wrote {cfg.out} ({count} rows)")
    return 0


def _route_agreement_check(box: Box, seed: int, samples: int = 256) -> dict:
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_at = (0.0, 0.0)
    lam_hi = box.lam_max
    lam_lo = min(max(box.lam_min, 1e-6), lam_hi)  # a box below 1e-6 samples lam_max
    for _ in range(samples):
        eta = float(rng.uniform(1e-3, 1.0))
        if rng.random() < 0.5:
            eta = -eta
        lam = float(rng.uniform(lam_lo, lam_hi))
        fd = f_direct(eta, lam)
        ff = f_factored(eta, lam)
        rel = abs(fd - ff) / max(1.0, abs(fd))
        if rel > worst:
            worst, worst_at = rel, (eta, lam)
    return {
        "seed": seed,
        "samples": samples,
        "max_rel_discrepancy": worst,
        "worst_at": list(worst_at),
        "tolerance": REL_TOL,
        "ok": worst <= REL_TOL,
    }


def cmd_verdict(cfg: RunConfig) -> int:
    report: dict = {"config": cfg.to_json_doc()}
    errors: list[str] = []
    evidence_points: list[list[float]] = []
    localized_states: list[dict] = []

    params = cfg.physical()
    dless = cfg.dimensionless()
    box_values = cfg.box if cfg.box is not None else (-1.0, 1.0, LAMBDA_MIN_SCAN, 10.0)
    grid = cfg.grid if cfg.grid is not None else (201, 201)

    # 1. feasibility: supremum scan, point certificate, route spot check
    try:
        scan_box = Box(*box_values)
        scan = supremum_scan(scan_box, grid=grid)
        if scan.sup_estimate >= 0.0:
            evidence_points.append([scan.argmax[0], scan.argmax[1], scan.sup_estimate])
        point_cert = None
        if dless.eta != 0.0:
            point_cert = evaluate_point(dless.eta, dless.lam).to_dict()
            if dless.lam > 0.0 and point_cert["sign_verdict"] != "Negative":
                evidence_points.append([dless.eta, dless.lam, point_cert["f_factored"]])
        report["feasibility"] = {
            "supremum": scan.to_dict(),
            "point_certificate": point_cert,
            "route_agreement": _route_agreement_check(scan_box, cfg.seed),
        }
    except PdmDiracError as exc:
        errors.append(f"feasibility: {type(exc).__name__}: {exc}")

    # 2. closed-form levels vs numeric scan (optionally on the control well)
    try:
        disc = Discretization.for_params(
            params, half_width=cfg.half_width, num_points=cfg.num_points
        )
        if cfg.control_well:
            comparison = analytic_vs_numeric(
                params, disc, n_max=cfg.n_max,
                potential=poschl_teller_well, edge=1.0,
            )
        else:
            comparison = analytic_vs_numeric(params, disc, n_max=cfg.n_max)
        report["comparison"] = comparison.to_dict()
        for cand in comparison.numeric.bound_candidates:
            if cand.localized:
                localized_states.append(cand.to_dict())
    except PdmDiracError as exc:
        errors.append(f"solver: {type(exc).__name__}: {exc}")

    report["evidence"] = {
        "certificate_nonnegative_points": evidence_points,
        "localized_bound_states": localized_states,
    }
    report["error_trail"] = errors

    if errors:
        statement, status = "Inconclusive", 4
    elif evidence_points or localized_states:
        statement, status = "SpectrumRealFound", 3
    else:
        statement, status = "SpectrumImaginaryOrEmpty", 0
    report["statement"] = statement

    _emit(cfg.out, json.dumps(report, sort_keys=True, indent=2) + "\n")
    print(f"verdict: {statement}")
    return status


_COMMANDS = {
    "surface": cmd_surface,
    "spectrum": cmd_spectrum,
    "verdict": cmd_verdict,
    "potential": cmd_potential,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        cfg = resolve_config(ns)
    except PdmDiracError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if ns.dump_config:
        sys.stdout.write(cfg.dump())
        return 0
    try:
        return _COMMANDS[cfg.subcommand](cfg)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PdmDiracError as exc:
        # Degenerate evaluation on otherwise valid input (eta = 0 tables, ...)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
