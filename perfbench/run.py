#!/usr/bin/env python3
"""Benchmark for pdm-dirac: three CLI workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verdict-sweep --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table
    python3 perfbench/run.py --self-test                  # checks of the benchmark itself

Ops are seeded ``pdm-dirac`` command lines (see ``workloads.py``) passed to
``pdm_dirac.cli.main`` in this process: a closed loop with one client, no
extra threads, ``PDM_DIRAC_THREADS`` unset, and every op writing its output
through the program's own ``--out`` atomic write.  Each output is checked by
an oracle (``oracles.py``), and ops are run more than once in the same run so
that the sha256 digests of their outputs can be compared; no state is kept
between runs.

The ops a run counts are a fixed list, a pure function of the workload and
the seed: the warm-up op, the set-up probes and one 100-op pass (``--trace
0``), or the warm-up op, one 20-op block and the work-count check (``--trace
1``).  Runs of a seed therefore attempt the same ops and fail the same ones,
however fast the host is.  Time left after the list is spent repeating its
blocks; a repeat adds timing samples, and an op fails if any of its runs fails
or gives other output bytes than its first run.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, with op times
scaled to a nominal host speed (``calibration.py``), set-up times scaled by a
reference import (``REFERENCE``), and percentiles taken as Harrell-Davis
estimates.  ``--trace 1`` runs the first
block of ops untraced and traced in turn and reports the per-layer metrics
(``tracer.py``).  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print every metric by name with its unit and the run's provenance.

An op fails on an exit status other than the one its oracle expects, an
exception escaping ``main``, a failed oracle, or a digest that differs between
the two runs of the op.  ``correct`` is false when an op gave a wrong answer (a
failed oracle or digest, or exit 0 and 3 swapped) and when an op gave no
answer (exit 2 or 4, or an exception) in a way its workload does not tolerate:
only ``verdict-sweep`` tolerates exit 4 (``workloads.TOLERATED_FAILURES``).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.special import betainc

import calibration
import oracles
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_PROBES = 8
IMPORTTIME_PROBES = 3
LAST_BLOCK_START_S = 120.0   # keeps a run of a much slower program under 180 s
THREAD_VARS = ("PDM_DIRAC_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")
IMPORT_MODULES = ("pdm_dirac", "pdm_dirac.errors", "pdm_dirac.params", "pdm_dirac.spectrum",
                  "pdm_dirac.feasibility", "pdm_dirac.solver", "pdm_dirac.cli",
                  "numpy", "scipy.linalg")
PROBE = "import sys\nimport pdm_dirac.cli as cli\nsys.exit(cli.main(sys.argv[1:]))\n"
# A fresh interpreter that imports the program's heavy dependencies and nothing
# of the program.  Timed between set-up probes, it gives the host's speed at
# starting a process and loading extension modules, which the calibration
# kernel does not follow: scaled by the kernel, the setup_s medians of four
# ten-seed sets differed by up to 19% while their op metrics agreed within 3%.
REFERENCE = "import numpy, scipy.linalg"
REFERENCE_NOMINAL_S = 0.59   # about its median on the host named in calibration.py


def _heap_trimmer():
    """glibc ``malloc_trim``, or a no-op where the C library has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return lambda pad: 0
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


# Returning freed heap to the system before each op starts it from the memory
# state of a fresh CLI process, so peak RSS is the largest op's own peak and
# not the fragmentation history of the loop (tables: 97.1-97.7 MB over five
# seeds with it, 104.6-113.8 MB without).
_TRIM_HEAP = _heap_trimmer()


class CheckoutError(Exception):
    """The directory holds no pdm_dirac sources to benchmark."""


def declared_metrics() -> tuple[dict, dict]:
    """(end_to_end, per_layer) name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def load_program():
    """Import ``pdm_dirac.cli`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "pdm_dirac" / "cli.py").is_file():
        raise CheckoutError(f"no pdm_dirac sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pdm_dirac.cli as cli

    if SRC not in Path(cli.__file__).resolve().parents:
        raise CheckoutError(f"pdm_dirac was imported from {cli.__file__}, not {SRC}")
    return cli


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PDM_DIRAC_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# --- one op -----------------------------------------------------------------


@dataclass
class Outcome:
    seconds: float
    digest: str
    nbytes: int
    failure: Optional[str] = None   # None when the op passed
    wrong: bool = False             # a wrong answer, or a failure the workload does not tolerate
    scaled: float = 0.0             # seconds at nominal host speed (calibration.py)

    def fail(self, reason: str, wrong: bool) -> None:
        if self.failure is None:
            self.failure, self.wrong = reason, wrong


def run_op(cli, op: workloads.Op) -> Outcome:
    """Run one op through ``cli.main``; nothing it raises stops the run."""
    out = ROOT / op.out
    out.unlink(missing_ok=True)
    _TRIM_HEAP(0)
    sink = io.StringIO()
    error = None
    status = None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            status = cli.main(list(op.argv))
        except SystemExit as exc:       # argparse rejected the command line
            error = f"exit{exc.code}"
        except Exception as exc:        # noqa: BLE001 - counted, never fatal
            error = f"exception:{type(exc).__name__}"
        seconds = time.perf_counter() - start
    data = out.read_bytes() if out.is_file() else b""
    outcome = Outcome(seconds, hashlib.sha256(data).hexdigest() if data else "-", len(data))
    if error is not None:
        outcome.fail(error, wrong=False)
    elif status not in (0, 3):
        outcome.fail(f"exit{status}{oracles.error_kind(data)}", wrong=False)
    elif status != op.expect:
        outcome.fail(f"exit{status}", wrong=True)
    elif not data:
        outcome.fail("no output", wrong=True)
    else:
        problems = oracles.check(op, data)
        if problems:
            outcome.fail("oracle: " + problems[0], wrong=True)
    return outcome


def run_calibrated(cli, ops: list) -> list[Outcome]:
    """Run ops in order, timing the calibration kernel between consecutive ops."""
    outcomes = []
    before = calibration.kernel_seconds()
    for op in ops:
        outcome = run_op(cli, op)
        after = calibration.kernel_seconds()
        outcome.scaled = calibration.scale(outcome.seconds, before, after)
        outcomes.append(outcome)
        before = after
    return outcomes


def fold_repeat(first: list[Outcome], again: list[Outcome]) -> None:
    """Fold a repeat of ops into their first outcomes.

    An op fails if its repeat fails, or if the repeat's output digest differs
    from the first run's.  The op is still counted once.
    """
    for a, b in zip(first, again, strict=True):
        if b.failure is not None:
            a.fail(b.failure, b.wrong)
        elif a.digest != b.digest:
            a.fail("digest differs between two runs of the op", wrong=True)


def digest_list_sha256(outcomes: list[Outcome]) -> str:
    """One hash of the ops' digests in order, printed so runs of a seed can be compared."""
    return hashlib.sha256(" ".join(o.digest for o in outcomes).encode()).hexdigest()


def apply_tolerance(workload: str, outcomes: list[Outcome]) -> None:
    """Mark as wrong every failure that the workload does not tolerate."""
    tolerated = workloads.TOLERATED_FAILURES.get(workload, ())
    for o in outcomes:
        if o.failure is not None and not o.failure.startswith(tolerated):
            o.wrong = True


# --- set-up -----------------------------------------------------------------


def fresh_interpreter(code: str, *args: str) -> tuple[float, int]:
    """Wall time and exit status of ``python -c code args`` in the checkout."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT, env=child_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - start, proc.returncode


def setup_probes(op: workloads.Op) -> tuple[list[float], list[float], list[Outcome]]:
    """Raw and scaled times of fresh interpreters that import the CLI and run ``op``; outcomes.

    Probes alternate with runs of ``REFERENCE``, and each probe is scaled by
    the mean of the two reference times around it.
    """
    def reference() -> float:
        seconds, status = fresh_interpreter(REFERENCE)
        if status != 0:
            raise RuntimeError(f"reference import exited with {status}")
        return seconds

    before = reference()
    raw, scaled, outcomes = [], [], []
    for _ in range(SETUP_PROBES):
        seconds, status = fresh_interpreter(PROBE, *op.argv)
        after = reference()
        raw.append(seconds)
        scaled.append(seconds * REFERENCE_NOMINAL_S / (0.5 * (before + after)))
        outcomes.append(Outcome(seconds, "-", 0))
        if status != op.expect:
            outcomes[-1].fail(f"setup probe exit{status}", wrong=False)
        before = after
    return raw, scaled, outcomes


def import_times() -> dict[str, float]:
    """Cumulative import time per module, median of fresh ``-X importtime`` runs."""
    samples: dict[str, list[float]] = {m: [] for m in IMPORT_MODULES}
    for _ in range(IMPORTTIME_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import pdm_dirac.cli"],
                              cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120, check=True)
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() in samples:
                samples[fields[2].strip()].append(int(fields[1]) / 1e3)
    return {f"setup.import_ms.{m}": statistics.median(v) if v else 0.0
            for m, v in samples.items()}


# --- provenance -------------------------------------------------------------


def provenance(args, found_env: dict) -> dict:
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    source = hashlib.sha256()
    for path in sorted((SRC / "pdm_dirac").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_env": found_env,
    }


# --- the two kinds of run ---------------------------------------------------


def failure_summary(outcomes: list[Outcome]) -> str:
    """Failure counts by reason, without the per-op detail after a second colon."""
    reasons: dict[str, int] = {}
    for o in outcomes:
        if o.failure is not None:
            reason = ":".join(o.failure.split(":")[:2])
            reasons[reason] = reasons.get(reason, 0) + 1
    return ", ".join(f"{n} x {r}" for r, n in sorted(reasons.items())) or "none"


def quantile(values: np.ndarray, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a beta-weighted mean of all order statistics.

    Near the tail of ``verdict-sweep`` neighbouring ranks differ by 10-20%, so
    the plain sample percentile jumps with single ops; averaging the ranks
    around it cut the run-to-run spread of p90 from 0.13 to 0.02 (five seeds).
    """
    ordered = np.sort(values)
    n = ordered.size
    weights = np.diff(betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ ordered)


def latency(seconds: np.ndarray) -> dict:
    return {
        "ops_per_s": seconds.size / seconds.sum(),
        "op_p50_ms": 1e3 * quantile(seconds, 0.5),
        "op_p90_ms": 1e3 * quantile(seconds, 0.9),
    }


def end_to_end(cli, args) -> tuple[list[Outcome], dict, list[str]]:
    warmup = workloads.WARMUP[args.workload]()
    outcomes = [run_op(cli, warmup)]   # finishes lazy set-up; not timed
    probe_raw, probe_scaled, probe_outcomes = setup_probes(warmup)

    pass_ops = list(itertools.islice(workloads.blocks(args.workload, args.seed),
                                     workloads.BLOCKS_PER_PASS))
    runs: list[list[list[Outcome]]] = []   # every timed run of each block; the first is counted
    start = time.perf_counter()
    n_blocks = 0
    while True:
        k = n_blocks % len(pass_ops)
        block = run_calibrated(cli, pass_ops[k])
        if n_blocks < len(pass_ops):
            runs.append([block])
        else:
            fold_repeat(runs[k][0], block)
            runs[k].append(block)
        n_blocks += 1
        if n_blocks == len(pass_ops):
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - start
        if elapsed >= LAST_BLOCK_START_S or (
                n_blocks >= len(pass_ops) and elapsed >= args.seconds):
            break
    if n_blocks < len(pass_ops):
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    repeated = n_blocks - len(runs)
    if repeated == 0:   # every op ran once: run the first block again, untimed
        fold_repeat(runs[0][0], [run_op(cli, op) for op in pass_ops[0]])
        repeated = 1
    counted = [o for block_runs in runs for o in block_runs[0]]
    outcomes += probe_outcomes + counted
    # An op's time is the median of its timed runs, so the percentiles are
    # taken over the fixed op list however many blocks the time allowed to
    # repeat: with every run a sample, the repeated blocks' ops weighed more
    # and op_p50_ms moved with the number of repeats.
    per_op = [runs_of_op for block_runs in runs for runs_of_op in zip(*block_runs)]
    timed = [o for runs_of_op in per_op for o in runs_of_op]
    scaled = np.array([statistics.median(o.scaled for o in r) for r in per_op])

    failed = sum(o.failure is not None for o in outcomes)
    metrics = {
        **latency(scaled),
        "setup_s": statistics.median(probe_scaled),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - failed / len(outcomes),
    }
    raw = latency(np.array([statistics.median(o.seconds for o in r) for r in per_op]))
    speed = statistics.median(o.seconds / o.scaled for o in timed)
    beyond = int(np.sum(1e3 * scaled > metrics["op_p90_ms"]))
    notes = [
        f"{len(counted)} ops run as {n_blocks} timed blocks over {elapsed:.1f} s, "
        f"{len(timed)} timed runs; {beyond} ops beyond p90; {SETUP_PROBES} set-up probes",
        f"{repeated} block(s) run again; digest list sha256 {digest_list_sha256(counted)}",
        f"failed_frac {failed / len(outcomes):.4f} ({failed} of {len(outcomes)}: "
        f"{failure_summary(outcomes)})",
        f"host slowdown vs nominal (median) {speed:.3f}; raw wall time: "
        + ", ".join(f"{k} {v:.6g}" for k, v in raw.items())
        + f", setup_s {statistics.median(probe_raw):.6g}",
    ]
    return outcomes, metrics, notes


def traced(cli, args) -> tuple[list[Outcome], dict, list[str]]:
    from tracer import Tracer

    block = next(workloads.blocks(args.workload, args.seed))
    warmup = run_op(cli, workloads.WARMUP[args.workload]())   # same warm state as --trace 0
    tracer = Tracer()
    first_plain: Optional[list[Outcome]] = None
    counts_check = Outcome(0.0, "-", 0)
    samples: list[dict] = []
    reference = None
    start = time.perf_counter()
    while not samples or (time.perf_counter() - start < args.seconds
                          and time.perf_counter() - start < LAST_BLOCK_START_S):
        plain = run_calibrated(cli, block)
        tracer.reset()
        tracer.install()
        try:
            spanned = run_calibrated(cli, block)
        finally:
            tracer.uninstall()
        if not tracer.originals_restored():
            raise RuntimeError("tracer left a wrapper bound")
        if first_plain is None:
            first_plain = plain
        else:
            fold_repeat(first_plain, plain)
        fold_repeat(first_plain, spanned)
        output_bytes = sum(o.nbytes for o in spanned)
        counts = (tracer.work_counts(), output_bytes)
        if reference is None:
            reference = counts
        elif counts != reference:
            counts_check.fail("work counts differ between passes", wrong=True)
        sample = tracer.metrics()
        sample["cli.output_bytes"] = output_bytes
        sample["trace.ops"] = len(block)
        sample["trace.overhead_frac"] = (sum(o.scaled for o in spanned)
                                         / sum(o.scaled for o in plain) - 1.0)
        samples.append(sample)
    # counts are equal in every pass (checked above); times take the median
    metrics = {key: value if isinstance(value, int) else statistics.median(s[key] for s in samples)
               for key, value in samples[0].items()}
    metrics.update(import_times())
    outcomes = [warmup, *first_plain, counts_check]
    failed = sum(o.failure is not None for o in outcomes)
    notes = [
        f"block of {len(block)} ops run {len(samples)} times untraced and traced; "
        f"times are medians of the traced passes, totals over the block",
        f"digest list sha256 {digest_list_sha256(first_plain)}",
        f"failed_frac {failed / len(outcomes):.4f} ({failed} of {len(outcomes)}: "
        f"{failure_summary(outcomes)})",
    ]
    return outcomes, metrics, notes


def fmt_value(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def run_one(args) -> int:
    found_env = {k: os.environ.get(k) for k in THREAD_VARS}
    os.environ.pop("PDM_DIRAC_THREADS", None)
    cli = load_program()
    os.chdir(ROOT)
    (ROOT / workloads.OUT_DIR).mkdir(parents=True, exist_ok=True)
    e2e_units, layer_units = declared_metrics()
    units = layer_units if args.trace else e2e_units
    outcomes, metrics, notes = (traced if args.trace else end_to_end)(cli, args)
    apply_tolerance(args.workload, outcomes)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print("  " + note)
    for name, unit in units.items():
        print(f"  {name:<42} {fmt_value(metrics[name]):>14} {unit}")
    print("provenance " + json.dumps(provenance(args, found_env), sort_keys=True))
    result = {
        "correct": not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.failure is not None for o in outcomes),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own process (peak RSS is per process), then one table."""
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{'metric':<42}" + "".join(f"{w:>18}" for w in results) + "  unit")
    for metric, entry in next(iter(results.values()))["metrics"].items():
        row = "".join(f"{fmt_value(r['metrics'][metric]['value']):>18}" for r in results.values())
        print(f"{metric:<42}{row}  {entry['unit']}")
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the benchmark's runner, oracles and tracer, then exit")
    args = parser.parse_args(argv)
    try:
        if args.self_test:
            import selftest

            return selftest.main(load_program())
        if args.workload is None:
            parser.error("--workload is required")
        return run_all(args) if args.workload == "all" else run_one(args)
    except CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
