"""Checks of the benchmark itself: ``python3 perfbench/run.py --self-test``.

Covers failure accounting (an exception escaping ``main`` is counted, never
fatal; only tolerated failures leave a run correct), the oracles (real outputs
pass, tampered ones fail), folding repeated runs of an op into one counted
outcome, the tracer (rebinding, restoring, exactly repeating counts) and the
refusal to run without program sources.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import types

import oracles
import workloads
from run import ROOT, Outcome, apply_tolerance, fold_repeat, run_op
from tracer import Tracer

# Known traceback input: u underflows to zero in aux_root and f_factored divides by it.
CRASH_ARGV = ("verdict", "--eta", "1e-200", "--lambda", "1")
WORK = ROOT / ".perfbench_work"


class _Report:
    def __init__(self) -> None:
        self.failures = 0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))


def _replace(old: str, new: str):
    def tamper(data: bytes) -> bytes:
        text = data.decode()
        assert old in text, old
        return text.replace(old, new, 1).encode()
    return tamper


def _nudge_surface_f(data: bytes) -> bytes:
    lines = data.decode().split("\n")
    eta, lam, f = lines[2].split(",")  # lines[1] sits on lambda = 0, where f = 0
    lines[2] = f"{eta},{lam},{format(float(f) * (1.0 + 1e-9), '.17g')}"
    return "\n".join(lines).encode()


def _potential_row_edit(edit):
    """Tamper with the row at x = 1 of the self-test potential table.

    ``edit(x, mass, im_v)`` gives the new ``(mass, im_v)``; ``v_eff`` is
    rewritten as the new mass squared, so only the closed-form checks can
    see the change.
    """
    def tamper(data: bytes) -> bytes:
        lines = data.decode().split("\n")
        k = 241  # header, then x = -5 + 0.025 (k - 1)
        x, mass, im_v, _ = lines[k].split(",")
        assert float(x) == 1.0, x
        mass, im_v = edit(float(x), float(mass), float(im_v))
        lines[k] = ",".join([x, *(format(v, ".17g") for v in (mass, im_v, mass * mass))])
        return "\n".join(lines).encode()
    return tamper


def _shift_control_level(data: bytes) -> bytes:
    doc = json.loads(data)
    doc["evidence"]["localized_bound_states"][0]["e_squared"] = 0.01
    return json.dumps(doc).encode()


def _failure_accounting(cli, report: _Report) -> None:
    out = workloads._out("verdict")
    crash = workloads.Op("verdict", CRASH_ARGV + ("--out", out), 0, out,
                         {"eta": 1e-200, "lam": 1.0})
    outcome = run_op(cli, crash)
    report.check("known traceback input is counted as failed, run continues",
                 outcome.failure is not None and not outcome.wrong, str(outcome.failure))

    def boom(argv):
        raise RuntimeError("injected")

    outcome = run_op(types.SimpleNamespace(main=boom), workloads.WARMUP["verdict-sweep"]())
    report.check("injected exception is counted as failed, not wrong",
                 outcome.failure == "exception:RuntimeError" and not outcome.wrong)
    outcome = run_op(cli, workloads.WARMUP["verdict-sweep"]())
    report.check("next op after a failure passes", outcome.failure is None, str(outcome.failure))


def _oracles(cli, report: _Report) -> None:
    cases = {
        "verdict": (workloads._verdict(0.5, 1.0, None),
                    _replace('"SpectrumImaginaryOrEmpty"', '"SpectrumRealFound"')),
        "control": (workloads._control(0.5, 1.0), _shift_control_level),
        "finescan": (workloads._finescan(0.5, 1.0, 801, 2000),
                     _replace('"all_nodes_negative": true', '"all_nodes_negative": false')),
        "surface": (workloads._surface((-1.0, 1.0, 0.0, 10.0), (21, 21)),
                    _nudge_surface_f),
        "potential": (workloads._potential(1.5, -0.3, 2.0, 401), _replace("\n", "\n0,1,0,1\n")),
    }
    for kind, (op, tamper) in cases.items():
        outcome = run_op(cli, op)
        report.check(f"oracle accepts the real {kind} output", outcome.failure is None,
                     str(outcome.failure))
        data = (ROOT / op.out).read_bytes()
        problems = oracles.check(op, tamper(data))
        report.check(f"oracle rejects a tampered {kind} output", bool(problems),
                     problems[0] if problems else "accepted")
    potential = cases["potential"][0]
    data = (ROOT / potential.out).read_bytes()
    tampered = {  # the op samples M0 = 1.5, eta = -0.3, alpha = 2
        "mass scaled by 1+1e-9": _potential_row_edit(lambda x, m, v: (m * (1.0 + 1e-9), v)),
        "mass with the sign of eta flipped": _potential_row_edit(
            lambda x, m, v: (1.5 * (1.0 + 0.3 * math.tanh(2.0 * x)), v)),
        "mass with tanh(x) for tanh(alpha x)": _potential_row_edit(
            lambda x, m, v: (1.5 * (1.0 - 0.3 * math.tanh(x)), v)),
        "im_v scaled by 1+1e-9": _potential_row_edit(lambda x, m, v: (m, v * (1.0 + 1e-9))),
    }
    for what, tamper in tampered.items():
        problems = oracles.check(potential, tamper(data))
        report.check(f"potential oracle rejects {what}", bool(problems),
                     problems[0] if problems else "accepted")
    surface = cases["surface"][0]
    rows = (ROOT / surface.out).read_bytes().decode().splitlines()
    problems = oracles.check(surface, ("\n".join(rows[:-1]) + "\n").encode())
    report.check("oracle rejects a surface with a row missing", bool(problems))


def _digests(cli, report: _Report) -> None:
    for name in workloads.WORKLOADS:
        ops = next(workloads.blocks(name, 7))[:4]
        first = [run_op(cli, op).digest for op in ops]
        second = [run_op(cli, op).digest for op in ops]
        report.check(f"{name}: same seed, same digests", first == second)
        again = [op.argv for op in next(workloads.blocks(name, 7))[:4]]
        report.check(f"{name}: op list is a pure function of the seed",
                     again == [op.argv for op in ops])
    first = [Outcome(0.0, "a", 1), Outcome(0.0, "b", 1), Outcome(0.0, "d", 1)]
    again = [Outcome(0.0, "a", 1), Outcome(0.0, "c", 1), Outcome(0.0, "d", 1)]
    again[2].fail("exit4", wrong=False)
    fold_repeat(first, again)
    report.check("a digest differing between two runs of an op fails the op",
                 first[1].failure is not None and first[1].wrong)
    report.check("a failed repeat fails the op, which is counted once",
                 [o.failure for o in first] == [None, first[1].failure, "exit4"]
                 and not first[2].wrong)


def _tolerance(report: _Report) -> None:
    def outcomes():
        ops = [Outcome(0.0, "-", 0) for _ in range(3)]
        ops[0].fail("exit4 (TooManyRequested)", wrong=False)
        ops[1].fail("exception:ZeroDivisionError", wrong=False)
        return ops

    sweep = outcomes()
    apply_tolerance("verdict-sweep", sweep)
    report.check("verdict-sweep tolerates exit 4 only",
                 [o.wrong for o in sweep] == [False, True, False])
    for name in ("tables", "verdict-finescan"):
        ops = outcomes()
        apply_tolerance(name, ops)
        report.check(f"{name} tolerates no failure", [o.wrong for o in ops] == [True, True, False])


def _tracer(cli, report: _Report) -> None:
    import pdm_dirac.cli
    import pdm_dirac.feasibility
    import pdm_dirac.solver
    import pdm_dirac.spectrum

    scan = pdm_dirac.feasibility.supremum_scan
    veff = pdm_dirac.spectrum.effective_potential
    ops = [workloads._verdict(-0.4, 0.3, 4000), workloads._control(0.2, 1.0),
           workloads._surface(None, (31, 31)), workloads._potential(1.0, 0.5, 1.0, 401)]
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            rebound = (pdm_dirac.cli.supremum_scan.__wrapped__ is scan
                       and pdm_dirac.solver.effective_potential.__wrapped__ is veff
                       and pdm_dirac.feasibility.supremum_scan is pdm_dirac.cli.supremum_scan)
            failures = [run_op(cli, op).failure for op in ops]
        finally:
            tracer.uninstall()
        counts.append(tracer.work_counts())
    report.check("tracer rebinds where defined and where imported by name", rebound)
    report.check("traced ops pass their oracles", failures == [None] * len(ops), str(failures))
    report.check("tracer restores the original functions",
                 tracer.originals_restored() and pdm_dirac.cli.supremum_scan is scan
                 and pdm_dirac.solver.effective_potential is veff)
    report.check("work counts repeat exactly", counts[0] == counts[1])
    metrics = tracer.metrics()
    nonzero = ("feasibility.grid_nodes", "feasibility.f_factored.calls",
               "spectrum.potential_sample.calls", "solver.sturm_count.calls",
               "solver.eigenvector.calls", "solver.slice_eigenvalues", "solver.grid_points")
    zero = [name for name in nonzero if not metrics[name]]
    report.check("every layer records work", not zero, f"zero: {zero}" if zero else "")


def _checkout_guard(report: _Report) -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tables",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare)
    report.check("refuses to run without program sources",
                 proc.returncode != 0 and "{" not in proc.stdout, proc.stderr.strip())


def main(cli) -> int:
    os.chdir(ROOT)
    (ROOT / workloads.OUT_DIR).mkdir(parents=True, exist_ok=True)
    report = _Report()
    _failure_accounting(cli, report)
    _oracles(cli, report)
    _digests(cli, report)
    _tolerance(report)
    _tracer(cli, report)
    _checkout_guard(report)
    print(f"{report.failures} self-test check(s) failed")
    return 1 if report.failures else 0
