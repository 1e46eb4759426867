"""Output oracles that do not call the code under test.

Each oracle takes the op and the bytes it wrote and returns a list of
problems (empty when the output is right).  Reference values come from this
file's own NumPy evaluation of the closed forms in README.md, and from the
paper's claims: ``f < 0`` for every ``lambda > 0``, no real discrete level for
the physical profile, and exactly one bound state at ``E^2 = 0`` for the
control well (acceptance criterion 7, ``|E^2| <= 2e-3``).
"""

from __future__ import annotations

import json

import numpy as np

F_REL_TOL = 1e-12        # own direct route vs the program's f
V_EFF_REL_TOL = 1e-12    # v_eff = mass^2
PROFILE_REL_TOL = 1e-12  # mass and im_v vs own closed forms
CONTROL_E2_TOL = 2e-3    # acceptance criterion 7
ETA_ZERO_SNAP = 1e-12    # surface skips eta gridlines this close to zero (README)
_CHUNK_BYTES = 1 << 20


def f_direct(eta, lam):
    """Direct route ``(1 + eta^2) - 4 eta^2 / t^2 - t^2 / 4`` with t in rationalized form."""
    eta = np.asarray(eta, dtype=float)
    lam = np.asarray(lam, dtype=float)
    t = -4.0 * eta * eta / (lam + np.hypot(lam, 2.0 * eta))
    t2 = t * t
    return (1.0 + eta * eta) - 4.0 * eta * eta / t2 - 0.25 * t2


def _f_problems(got, eta, lam, what: str) -> list[str]:
    want = f_direct(eta, lam)
    bad = np.abs(got - want) > F_REL_TOL * np.maximum(1.0, np.abs(want))
    if np.any(bad):
        k = int(np.argmax(bad))
        return [f"{what}: f={float(np.ravel(got)[k])!r} vs own {float(np.ravel(want)[k])!r}"]
    return []


def _load_json(data: bytes) -> dict:
    return json.loads(data.decode("utf-8"))


def _verdict_problems(doc: dict, op) -> list[str]:
    """Physical profile: imaginary-or-empty spectrum, both routes agreeing."""
    problems = []
    if doc.get("statement") != "SpectrumImaginaryOrEmpty":
        problems.append(f"statement {doc.get('statement')!r}")
    if doc.get("error_trail"):
        problems.append(f"error trail {doc['error_trail'][:1]}")
    if not doc.get("comparison", {}).get("consistent", False):
        problems.append("comparison not consistent")
    evidence = doc.get("evidence", {})
    if evidence.get("certificate_nonnegative_points") or evidence.get("localized_bound_states"):
        problems.append("evidence not empty")
    if doc.get("config", {}).get("eta") != op.spec["eta"]:
        problems.append("config does not echo eta")
    cert = doc.get("feasibility", {}).get("point_certificate")
    if cert is None:
        problems.append("no point certificate")
    else:
        f = cert.get("f_factored")
        problems += _f_problems(f, op.spec["eta"], op.spec["lam"], "point certificate")
        if not f < 0.0:
            problems.append(f"point certificate f={f!r} is not negative")
    return problems


def check_verdict(op, data: bytes) -> list[str]:
    return _verdict_problems(_load_json(data), op)


def check_control(op, data: bytes) -> list[str]:
    doc = _load_json(data)
    problems = []
    if doc.get("statement") != "SpectrumRealFound":
        problems.append(f"statement {doc.get('statement')!r}")
    if doc.get("error_trail"):
        problems.append(f"error trail {doc['error_trail'][:1]}")
    evidence = doc.get("evidence", {})
    states = evidence.get("localized_bound_states", [])
    if len(states) != 1:
        problems.append(f"{len(states)} localized states, want exactly 1")
    elif not abs(states[0].get("e_squared", float("inf"))) <= CONTROL_E2_TOL:
        problems.append(f"control state E^2={states[0].get('e_squared')!r}")
    if evidence.get("certificate_nonnegative_points"):
        problems.append("nonnegative certificate points on the physical scan")
    return problems


def check_finescan(op, data: bytes) -> list[str]:
    """Physical verdict plus criterion 3: all nodes negative, argmax at |eta|=1, lam_min."""
    doc = _load_json(data)
    problems = _verdict_problems(doc, op)
    sup = doc.get("feasibility", {}).get("supremum", {})
    if sup.get("grid_shape") != [op.spec["grid"], op.spec["grid"]]:
        problems.append(f"grid shape {sup.get('grid_shape')}")
    if sup.get("all_nodes_negative") is not True:
        problems.append("not all scan nodes negative")
    argmax = sup.get("argmax", [0.0, 0.0])
    if abs(argmax[0]) != 1.0 or argmax[1] != op.spec["lam_min"]:
        problems.append(f"argmax {argmax} not at |eta| = 1, lambda = lambda_min")
    problems += _f_problems(sup.get("sup_estimate"), 1.0, op.spec["lam_min"], "supremum")
    return problems


def _csv_rows(data: bytes, header: str, width: int) -> tuple[np.ndarray, int, list[str]]:
    """Numeric rows, comment-line count, problems.

    Parses about 1 MB at a time with ``np.fromstring``, so the check never
    holds more than one extra copy of a chunk: its memory stays below the
    program's own for the same table, and peak RSS measures the program.
    """
    end = data.find(b"\n")
    problems = [] if data[:end].decode("ascii") == header else [f"header {data[:end]!r}"]
    view = memoryview(data)
    chunks = []
    comments = 0
    start = end + 1
    while start < len(data):
        end = data.find(b"\n", min(start + _CHUNK_BYTES, len(data) - 1))
        end = len(data) if end < 0 else end
        chunk = bytes(view[start:end])
        if b"#" in chunk:
            lines = chunk.split(b"\n")
            kept = [line for line in lines if not line.startswith(b"#")]
            comments += len(lines) - len(kept)
            chunk = b"\n".join(kept)
        if chunk:
            chunks.append(np.fromstring(chunk.replace(b"\n", b","), sep=","))
        start = end + 1
    values = np.concatenate(chunks) if chunks else np.empty(0)
    if values.size % width:
        return np.empty((0, width)), comments, problems + ["ragged rows"]
    return values.reshape(-1, width), comments, problems


def check_surface(op, data: bytes) -> list[str]:
    box, grid = op.spec["box"], op.spec["grid"]
    rows, comments, problems = _csv_rows(data, "eta,lambda,f", 3)
    eta_nodes = np.unique(np.linspace(box[0], box[1], grid[0]))
    lam_nodes = np.unique(np.linspace(box[2], box[3], grid[1]))
    kept = eta_nodes[np.abs(eta_nodes) > ETA_ZERO_SNAP]
    if comments != eta_nodes.size - kept.size:
        problems.append(f"{comments} skipped gridlines, want {eta_nodes.size - kept.size}")
    if rows.shape[0] != kept.size * lam_nodes.size:
        return problems + [f"{rows.shape[0]} rows, want {kept.size * lam_nodes.size}"]
    eta, lam, f = rows.T
    if not (np.array_equal(eta, np.repeat(kept, lam_nodes.size))
            and np.array_equal(lam, np.tile(lam_nodes, kept.size))):
        problems.append("rows are not the requested grid")
    problems += _f_problems(f, eta, lam, "surface")
    if np.any(f[lam > 0.0] >= 0.0):
        problems.append("f >= 0 at lambda > 0")
    if np.any(f[lam == 0.0] != 0.0):
        problems.append("f != 0 on the lambda = 0 boundary")
    return problems


def _rel_problem(got, want, tol: float, what: str) -> list[str]:
    bad = np.abs(got - want) > tol * np.abs(want)
    if np.any(bad):
        k = int(np.argmax(bad))
        return [f"{what}={float(got[k])!r} vs own {float(want[k])!r}"]
    return []


def check_potential(op, data: bytes) -> list[str]:
    """Mass ``M0 (1 + eta tanh(alpha x))``, Im V ``M'/(2M)`` and ``v_eff = mass^2``."""
    s = op.spec
    rows, _, problems = _csv_rows(data, "x,mass,im_v,v_eff", 4)
    if rows.shape[0] != s["N"]:
        return problems + [f"{rows.shape[0]} rows, want {s['N']}"]
    x, mass, im_v, v_eff = rows.T
    half_width = 10.0 / s["alpha"]  # README default sampling half-width
    if not np.array_equal(x, np.linspace(-half_width, half_width, s["N"])):
        problems.append("x is not the requested grid")
    z = s["alpha"] * x
    den = 1.0 + s["eta"] * np.tanh(z)
    problems += _rel_problem(mass, s["M0"] * den, PROFILE_REL_TOL, "mass")
    problems += _rel_problem(im_v, s["alpha"] * s["eta"] / np.cosh(z) ** 2 / (2.0 * den),
                             PROFILE_REL_TOL, "im_v")
    problems += _rel_problem(v_eff, mass * mass, V_EFF_REL_TOL, "v_eff vs mass^2")
    return problems


CHECKS = {
    "verdict": check_verdict,
    "control": check_control,
    "finescan": check_finescan,
    "surface": check_surface,
    "potential": check_potential,
}


def error_kind(data: bytes) -> str:
    """`` (ErrorType)`` of the first error-trail entry of a verdict report, else ``""``."""
    try:
        trail = json.loads(data).get("error_trail") or []
        return f" ({trail[0].split(': ')[1]})" if trail else ""
    except (ValueError, AttributeError, IndexError):
        return ""


def check(op, data: bytes) -> list[str]:
    """Problems with ``data`` as the output of ``op``; malformed output is one problem."""
    try:
        return CHECKS[op.kind](op, data)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
