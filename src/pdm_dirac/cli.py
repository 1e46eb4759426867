"""Command-line interface: surface, spectrum, verdict, potential.

Exit statuses
-------------
0   run succeeded; for ``verdict``, the spectrum is imaginary or empty
2   bad parameters or config
3   ``verdict`` found claim-contradicting evidence: a localized numeric state
    below the continuum edge (a feasibility certificate that contradicts its
    float value is exit 4)
4   ``verdict`` was inconclusive (a component failed; see the error trail)

A verdict reads only its input: it scans f over the box, certifies the sign
of f at the given (eta, lambda), where :func:`evaluate_point` also compares
the two f routes, compares the closed-form levels with the numeric spectrum,
and writes the report once.  The routes' agreement over many points is
checked by the test suite (acceptance criterion 2), not on every run.

Run keys
--------
``_SUBCOMMANDS`` declares which run keys each subcommand takes, with the
output path and format defaults; the argument parser, the ``--config``
reader and :meth:`RunConfig.to_json_doc` all read it.  Each key has one
check in ``_KEYS`` (type, count, range) that its value passes whether it came
from a flag or from a config document; a flag overrides the config key.  A
value that fails its check, a config key the subcommand does not take, and
flag text the parser cannot read exit 2 with
:class:`~pdm_dirac.errors.ConfigKeyError`.  Parameter flags stand for the
parameter document with their keys (``--alpha`` brings M0 = 1 if no ``--M0``
is given, and ``--lambda`` drops an ``--M0 1``), so they pass the config
document's checks, with its error text, and before any run key; no flag
derives a parameter from another.

Each subcommand's flags are declared once, in ``_FLAGS``, which is built from
``_SUBCOMMANDS`` and ``_KEYS``: the argument parser declares them and
:func:`_read_plain` reads them.  A plain command line (the subcommand, then
exact option strings, each valued flag given its value as ``--flag=value``
or followed by one that argparse reads as a value, and the flag's type
converting it) is read from that table and builds no parser.  Any other
command line (help, an abbreviation, a typo, no argv, an unreadable value)
is read by the full parser, whose help text, error text and exit status
are the reference.

All file output is deterministic byte-for-byte for a fixed config: table
(CSV) floats are written with 17 significant digits (``%.17g``), JSON floats
as Python's shortest round-trip ``repr`` (``0.25``, ``1e-06``), lines end
with LF, and files appear atomically (temp file + rename) so an error never
leaves a partial file.  JSON output (the verdict report, ``spectrum --format
json`` and ``--dump-config``) is written by :func:`_json_text`.  A written
file gets the mode a plain ``open`` gives a new file, ``0o666`` less the
umask or what the directory's default ACL sets; a write error names the
``--out`` path, and a symlink at ``--out`` is replaced, not written through.
Every CSV float (``surface``, ``potential`` and ``spectrum --format csv``)
is written by :func:`~pdm_dirac.csvtext.g17`, which computes the ``%.17g``
text of a float64 array with numpy, exactly and with no per-value ``%``
(``potential`` and ``spectrum`` format all the float columns of a block in
one call); :func:`~pdm_dirac.csvtext.csv_text` joins a block of rows as
bytes, each field in the 24-byte slot that ``g17`` gives it, with its
separator in the slot's last byte (a fourth word only in a block with a
24-character text).
Each table is one loop over blocks of at most ``_FORMAT_ROWS`` rows that
computes a block and formats it: ``surface`` evaluates f on a few eta rows,
or a chunk of one long row, with the vectorized evaluator that the verdict's
supremum scan runs on its extreme nodes; ``potential`` samples the profile
and checks it is finite.  The tables are streamed: each block goes to the
temp file as soon as it is formatted, so a table never stands whole in
memory.  With ``--out -`` the pieces are joined and written in one call, so
an error prints nothing.
"""

from __future__ import annotations

import argparse
import errno
import itertools
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .csvtext import csv_text, g17, text_words
from .errors import (
    ConfigKeyError,
    EvaluationError,
    ParameterError,
    PdmDiracError,
)
from .feasibility import (
    Box,
    _f_grid,
    evaluate_point,
    supremum_scan,
)
from .params import (
    ETA_ZERO_SNAP,
    LAMBDA_MIN_SCAN,
    DimensionlessParams,
    Params,
    PhysicalParams,
    number_from_json,
    params_from_json,
    params_to_json,
    reduce_params,
)
from .solver import (
    DEFAULT_HALF_WIDTH_STEPS,
    DEFAULT_NUM_POINTS,
    Discretization,
    bound_state_report,
    poschl_teller_well,
)
from .spectrum import Classification, classify_levels, potential_sample

__all__ = ["main", "RunConfig", "resolve_config"]

# Level table rows (n = 0..n_max), each classified on its own:
# the ceiling bounds the table at 100,001 rows, which a fresh `spectrum` run
# writes in 0.7 to 1.0 s and a fresh `verdict` in 1.5 to 2.1 s (five runs
# each at eta 0.5, lambda 1, 2 cores).
_N_MAX_CEILING = 100_000
# Solver and sampling points: each costs several doubles of memory, so an
# unbounded N ends in a MemoryError.  Tests and benchmark use at most 16000.
_N_CEILING = 1_000_000
# Surface and scan nodes (eta nodes x lambda nodes); admits a 2001 x 2001 grid.
_GRID_NODES_CEILING = 4_100_000
# table rows computed and formatted into one piece of text (a block of rows,
# not the table); a surface piece holds at most this many nodes
_FORMAT_ROWS = 4096


def _atomic_write(path: str, pieces: Iterable[str]) -> None:
    """Write the text pieces in order with LF endings; no partial file is ever visible.

    The temp file is created as ``open(path, "w")`` creates a file, so it has
    the mode a plain ``open`` gives: ``0o666`` less the umask, or what the
    directory's default ACL sets.  A symlink at ``path`` is replaced, not
    written through.  An ``OSError`` names ``path``, as ``open``'s would.
    """
    tmp = os.path.join(os.path.dirname(path), "tmp" + os.urandom(8).hex() + ".tmp")
    try:
        if path[-1:] in (os.sep, os.altsep):
            # open refuses a name that ends in a separator once the directories
            # before it resolve; stat with a trailing separator resolves them
            parent = os.path.dirname(path.rstrip(os.sep + (os.altsep or "")))
            os.stat(os.path.join(parent or os.curdir, ""))
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        # no retry: O_EXCL refuses a clash, and 64 random bits make one negligible
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0),
                     0o666)
        try:
            with os.fdopen(fd, "w", newline="\n") as handle:
                handle.writelines(pieces)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def _emit(out: str, pieces: Iterable[str]) -> None:
    """Write the text pieces to ``out``; stdout gets them joined, in one call,
    so an error while producing them prints nothing there either."""
    if out == "-":
        sys.stdout.write("".join(pieces))
    else:
        _atomic_write(out, pieces)


# --- JSON text --------------------------------------------------------------

_quote = json.encoder.encode_basestring_ascii  # json's own (C) string encoder
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # json's names


def _json_text(doc) -> str:
    """``doc`` as json's ``dumps(doc, sort_keys=True, indent=2)`` writes it.

    With an ``indent``, json runs its pure-Python generators instead of its C
    encoder; this builds the same text into one list and joins it once.  It
    takes json's types in json's order (str, None, True, False, int, float,
    list or tuple, dict), writes them with json's string encoder,
    ``int.__repr__`` and ``float.__repr__`` (``NaN``, ``Infinity``,
    ``-Infinity``), sorts dict items as json does and raises ``TypeError``
    where json does.  A document is a tree: this does not look for cycles.
    """
    out: list[str] = []
    _json_append(doc, "\n", out)
    return "".join(out)


def _json_key(key) -> str:
    """A dict key as json writes it: a float, int, bool or None key as its JSON text, quoted."""
    if isinstance(key, str):
        return _quote(key)
    if isinstance(key, (int, float)) or key is None:  # a bool is an int
        return _quote(_json_text(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _json_append(value, newline: str, out: list) -> None:
    """Append the text of ``value`` to ``out``; ``newline`` starts a line at its depth."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        text = float.__repr__(value)
        out.append(_NON_FINITE.get(text, text))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        comma = "," + inner
        out.append("[" + inner)
        for item in value:
            _json_append(item, inner, out)
            out.append(comma)
        out[-1] = newline + "]"  # the last comma's place closes the array
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        comma = "," + inner
        out.append("{" + inner)
        for key, item in sorted(value.items()):
            out.append(_json_key(key) + ": ")
            _json_append(item, inner, out)
            out.append(comma)
        out[-1] = newline + "}"
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


# --- run keys ---------------------------------------------------------------


def _integer(low, high):
    """Check: an integer (a bool is not one) in [low, high]."""
    def check(key: str, value) -> int:
        if type(value) is not int or not low <= value <= high:
            raise ConfigKeyError(f"{key} must be an integer in [{low}, {high}], got {value!r}")
        return value
    return check


def _of_type(kind: type, what: str):
    def check(key: str, value):
        if type(value) is not kind:
            raise ConfigKeyError(f"{key} must be {what}, got {value!r}")
        return value
    return check


def _list_of(count: int, item):
    def check(key: str, value) -> tuple:
        if type(value) is not list or len(value) != count:
            raise ConfigKeyError(f"{key} must be a list of {count} values, got {value!r}")
        return tuple(item(f"each {key} value", v) for v in value)
    return check


def _finite(key: str, value) -> float:
    value = number_from_json(key, value)
    if not math.isfinite(value):
        raise ConfigKeyError(f"{key} must be finite, got {value!r}")
    return value


def _positive(key: str, value) -> float:
    value = number_from_json(key, value)
    if not 0.0 < value < math.inf:
        raise ConfigKeyError(f"{key} must be > 0 and finite, got {value!r}")
    return value


def _grid(key: str, value) -> tuple[int, int]:
    nodes = _list_of(2, _integer(2, _GRID_NODES_CEILING))(key, value)
    if nodes[0] * nodes[1] > _GRID_NODES_CEILING:
        raise ConfigKeyError(f"{key} must have at most {_GRID_NODES_CEILING} nodes, got {nodes}")
    return nodes


def _comma_list(cast):
    def read(text: str) -> list:
        return [cast(part) for part in text.split(",")]
    read.__name__ = f"comma-separated {cast.__name__}"  # argparse names it in errors
    return read


# Run key (= RunConfig field) -> (argparse type of its flag, or None for a
# switch; the check that every value passes, from a flag or a config document).
_KEYS = {
    "n_max": (int, _integer(0, _N_MAX_CEILING)),
    "L": (float, _positive),
    "N": (int, _integer(2, _N_CEILING)),
    "box": (_comma_list(float), _list_of(4, _finite)),
    "grid": (_comma_list(int), _grid),
    "control_well": (None, _of_type(bool, "true or false")),
    "out": (str, _of_type(str, "a path")),
    "format": (str, _of_type(str, "a format name")),
}


@dataclass(frozen=True)
class _Subcommand:
    help: str
    params: bool                # takes M0, eta, alpha or eta, lambda
    out: str                    # default output path
    formats: tuple[str, ...]    # accepted formats, the default first
    flags: dict                 # run keys besides out and format -> flag help

    @property
    def keys(self) -> tuple[str, ...]:
        return ("out", "format", *self.flags)


_N_MAX_HELP = "highest level index (default 5)"
_SUBCOMMANDS = {
    "surface": _Subcommand(
        "tabulate f(eta, lambda) over a box", False, "surface.csv", ("csv",),
        {"box": "etamin,etamax,lammin,lammax (default -1,1,0,10)",
         "grid": "eta nodes,lambda nodes (default 101,101)"},
    ),
    "spectrum": _Subcommand(
        "closed-form level table", True, "-", ("csv", "json"), {"n_max": _N_MAX_HELP},
    ),
    "verdict": _Subcommand(
        "full feasibility verdict with numeric cross-check", True, "verdict.json", ("json",),
        {"n_max": _N_MAX_HELP,
         "L": "solver box half-width (default 25/alpha; 25 with --control-well)",
         "N": "solver interior points (default 8000)",
         "box": "scan box etamin,etamax,lammin,lammax (default -1,1,1e-3,10)",
         "grid": "scan grid (default 201,201)",
         "control_well": "replace V_eff by the test well 1 - 2 sech^2 x (detector check)"},
    ),
    "potential": _Subcommand(
        "sample mass, vector potential, V_eff", True, "potential.csv", ("csv",),
        {"L": "sampling half-width (default 10/alpha)", "N": "sample count (default 401)"},
    ),
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description; serializes to a round-trippable JSON doc."""

    subcommand: str
    params: Optional[Params] = None      # None iff the subcommand takes no parameters
    n_max: int = 5
    L: Optional[float] = None            # solver or sampling half-width
    N: Optional[int] = None              # solver or sampling points
    box: Optional[tuple[float, float, float, float]] = None
    grid: Optional[tuple[int, int]] = None
    out: str = "-"
    format: str = "csv"
    control_well: bool = False

    def physical(self) -> PhysicalParams:
        """The parameters as physical ones; reduced ones are read at M0 = 1."""
        if isinstance(self.params, PhysicalParams):
            return self.params
        return PhysicalParams(1.0, self.params.eta, self.params.lam)

    def dimensionless(self) -> DimensionlessParams:
        return reduce_params(self.physical())

    def half_width(self, steps: float) -> float:
        """``L``, or by default ``steps / alpha``; a default that overflows names alpha.

        The control well ``1 - 2 sech^2 x`` has unit width whatever the step's,
        so its default box is ``steps`` for every alpha.
        """
        if self.L is not None:
            return self.L
        if self.control_well:
            return steps
        alpha = self.physical().alpha
        half_width = steps / alpha
        if half_width == math.inf:
            raise ParameterError(f"default half-width {steps:g}/alpha overflows: "
                                 f"alpha = {alpha!r}; give --L")
        return half_width

    def to_json_doc(self) -> dict:
        doc: dict = {"subcommand": self.subcommand}
        if self.params is not None:
            doc.update(params_to_json(self.params))
        for key in _SUBCOMMANDS[self.subcommand].keys:
            value = getattr(self, key)
            if value is not None:
                doc[key] = list(value) if isinstance(value, tuple) else value
        return doc

    def dump(self) -> str:
        return _json_text(self.to_json_doc()) + "\n"


@dataclass(frozen=True)
class _Flag:
    """One flag as its parser declares it; a switch (``type`` None) stores True."""

    dest: str
    type: Optional[Callable[[str], object]]
    default: object
    help: str


def _flag_table(spec: _Subcommand) -> dict[str, _Flag]:
    """The flags of the subcommand that ``spec`` declares, by option string,
    in the order its parser declares them."""
    flags = {}
    if spec.params:
        flags["--M0"] = _Flag("M0", float, None, "mass scale (default 1)")
        flags["--eta"] = _Flag("eta", float, None, "step depth, |eta| <= 1")
        flags["--alpha"] = _Flag("alpha", float, None, "step steepness")
        flags["--lambda"] = _Flag("lam", float, None,
                                  "dimensionless steepness alpha/M0 (alternative to --alpha)")
    flags["--config"] = _Flag("config", str, None,
                              "JSON config document (exclusive with parameter flags)")
    flags["--dump-config"] = _Flag("dump_config", None, False,
                                   "print the resolved config as JSON and exit")
    helps = {
        "out": f"output path ('-' for stdout; default {spec.out})",
        "format": f"output format: {', '.join(spec.formats)} (default {spec.formats[0]})",
        **spec.flags,
    }
    for key, text in helps.items():
        flags["--" + key.replace("_", "-")] = _Flag(key, _KEYS[key][0], None, text)
    return flags


# Subcommand -> its flags: the parser declares them and _read_plain reads them.
_FLAGS = {name: _flag_table(spec) for name, spec in _SUBCOMMANDS.items()}


class _Parser(argparse.ArgumentParser):
    """Raises on unreadable flag text, so :func:`main` returns 2 instead of
    exiting, and reads an explicit value ``--`` (``--out=--``, ``--eta=--``)
    as argparse 3.13.0 does: converted with its flag's type, and reported as
    any unreadable value is.  argparse 3.10 to 3.12 drop it and store ``[]``,
    which neither a flag's type nor its default gives."""

    def error(self, message: str):
        raise ConfigKeyError(f"{self.prog}: {message}")

    def parse_args(self, args=None, namespace=None):
        ns = super().parse_args(args, namespace)
        for option, flag in _FLAGS[ns.subcommand].items():
            if getattr(ns, flag.dest) == []:
                try:
                    setattr(ns, flag.dest, flag.type("--"))
                except (TypeError, ValueError):
                    raise ConfigKeyError(f"{self.prog} {ns.subcommand}: argument {option}: "
                                         f"invalid {flag.type.__name__} value: '--'") from None
        return ns


def _build_parser() -> argparse.ArgumentParser:
    """The full parser: ``pdm-dirac`` with one subparser per subcommand, each
    declaring that subcommand's flags from ``_FLAGS``."""
    parser = _Parser(
        prog="pdm-dirac",
        description="Spectral feasibility checks for a smooth-step "
        "position-dependent-mass Dirac model.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, spec in _SUBCOMMANDS.items():
        subparser = sub.add_parser(name, help=spec.help)
        for option, flag in _FLAGS[name].items():
            kind = {"action": "store_true"} if flag.type is None else {"type": flag.type}
            subparser.add_argument(option, dest=flag.dest, default=flag.default,
                                   help=flag.help, **kind)
    return parser


# the negative numbers that argparse reads as values, not options, on Python
# 3.10 to 3.13.0; later releases also read exponent forms such as -1e-3
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _read_plain(argv: Sequence[str]) -> Optional[argparse.Namespace]:
    """The full parser's namespace for a plain ``argv``, read with no parser; else None.

    A plain argv is a subcommand followed by exact option strings of its
    flags, a switch alone and any other flag with one value.  The value is
    either the text after the flag's first ``=`` (``--box=-1,1,0,10``; it may
    start with ``-`` or be empty, but not be ``--``, which argparse 3.10 to
    3.12 drop and the full parser restores), or the next token when that
    does not start with ``-``, is ``-`` or is a negative number that every
    supported argparse reads as one; the flag's type must convert it.  A
    repeated flag keeps its last value.  Anything else (help, an
    abbreviation, a switch with ``=``, ``--``, an unknown flag or an
    unreadable value) returns None, for the full parser to read or report.
    """
    if not argv or argv[0] not in _FLAGS:
        return None
    flags = _FLAGS[argv[0]]
    values = {flag.dest: flag.default for flag in flags.values()}
    tokens = iter(argv[1:])
    for token in tokens:
        option, explicit, value = token.partition("=")
        flag = flags.get(option)
        if flag is None:
            return None
        if flag.type is None:
            if explicit:
                return None
            values[flag.dest] = True
            continue
        if not explicit:
            value = next(tokens, None)
            if value is None or (value[:1] == "-" and value != "-"
                                 and not _NEGATIVE_NUMBER.match(value)):
                return None
        elif value == "--":
            return None
        try:
            values[flag.dest] = flag.type(value)
        except Exception:  # argparse would report it, or raise it
            return None
    return argparse.Namespace(subcommand=argv[0], **values)


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """Read ``argv`` as the full parser reads it: :func:`_read_plain` reads a
    plain command line with no parser, and the full parser reads any other."""
    ns = _read_plain(argv)
    return ns if ns is not None else _build_parser().parse_args(argv)


def _load_config_doc(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ConfigKeyError(f"cannot read config {path!r}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, a huge int, deep nesting
        raise ConfigKeyError(f"config {path!r} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigKeyError(f"config {path!r} must be a JSON object")
    return doc


def _flag_doc(ns: argparse.Namespace) -> dict:
    """The parameter document with the keys of the given parameter flags.

    Two rules fill in a scale: ``--lambda`` drops an ``--M0 1``, the reduced
    document's own scale, and ``--alpha`` without ``--M0`` stands for M0 = 1.
    Any other set of flags keeps the keys it names, which
    :func:`params_from_json` refuses as it refuses such a config document.
    """
    given = (("M0", ns.M0), ("eta", ns.eta), ("alpha", ns.alpha), ("lambda", ns.lam))
    doc = {key: value for key, value in given if value is not None}
    if "lambda" in doc and doc.get("M0", 1.0) == 1.0:
        doc.pop("M0", None)
    elif "alpha" in doc:
        doc.setdefault("M0", 1.0)
    return doc


def resolve_config(ns: argparse.Namespace) -> RunConfig:
    """Merge flags and optional JSON config into a fully resolved RunConfig.

    Parameters come from exactly one source: the flags, read as the document
    they stand for (:func:`_flag_doc`), or the config document; either way
    :func:`params_from_json` reads them, before any run key is checked.  Run
    keys in the config may be overridden by explicitly given flags; every
    given run-key value, from either source, passes its key's check.
    """
    sub = ns.subcommand
    spec = _SUBCOMMANDS[sub]

    doc = _flag_doc(ns) if spec.params else {}
    if ns.config is not None:
        if doc:
            raise ConfigKeyError("give parameters either as flags or in --config, not both")
        doc = _load_config_doc(ns.config)
        claimed = doc.pop("subcommand", sub)
        if claimed != sub:
            raise ConfigKeyError(f"config is for subcommand {claimed!r}, invoked {sub!r}")

    # keys other than the run keys are parameters, which params_from_json checks
    param_doc = {k: v for k, v in doc.items() if k not in spec.keys}
    if param_doc and not spec.params:
        raise ConfigKeyError(f"subcommand {sub!r} takes no config keys {sorted(param_doc)}")
    params = None
    if spec.params:
        params = params_from_json(param_doc)
        # a run reads a reduced lambda as alpha at M0 = 1, and alpha must be > 0
        if isinstance(params, DimensionlessParams) and params.lam == 0.0:
            raise ParameterError(f"lambda must be > 0, got {params.lam}")

    given = [(key, value) for key, value in doc.items() if key in spec.keys]
    given += [(key, getattr(ns, key)) for key in spec.keys if getattr(ns, key) is not None]
    run = {"out": spec.out, "format": spec.formats[0]}
    for key, value in given:  # flags come last, so they override the config
        run[key] = _KEYS[key][1](key, value)
    if run["format"] not in spec.formats:
        raise ConfigKeyError(
            f"subcommand {sub!r} supports formats {spec.formats}, got {run['format']!r}"
        )
    return RunConfig(subcommand=sub, params=params, **run)


# --- subcommands ------------------------------------------------------------


def _distinct_sorted(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values, kept as plain ``np.unique`` keeps them.

    The same sort and neighbour compare as ``np.unique``'s float path, whose
    first call in a process imports ``numpy.ma`` (about 18 ms).
    """
    ordered = np.sort(values)
    return ordered[np.append(True, ordered[1:] != ordered[:-1])]


def cmd_surface(cfg: RunConfig) -> int:
    box = cfg.box if cfg.box is not None else (-1.0, 1.0, 0.0, 10.0)
    grid = cfg.grid if cfg.grid is not None else (101, 101)
    scan_box = Box(*box)  # validates bounds, lambda >= 0 included
    # a degenerate axis (min == max) collapses to one node
    eta_nodes = _distinct_sorted(np.linspace(scan_box.eta_min, scan_box.eta_max, grid[0]))
    with np.errstate(over="ignore"):  # only the last node can overflow; linspace pins it
        lam_nodes = _distinct_sorted(np.linspace(scan_box.lam_min, scan_box.lam_max, grid[1]))
    keep = np.abs(eta_nodes) > ETA_ZERO_SNAP
    boundary = lam_nodes == 0.0
    eta_text = g17(eta_nodes)
    # a piece is a few eta rows, or a chunk of one long row; a long row's
    # lambda text is formatted a chunk at a time, as the axis text (24 bytes
    # a node) would outweigh the pieces
    rows_per_piece = max(1, _FORMAT_ROWS // lam_nodes.size)
    lam_text = g17(lam_nodes) if lam_nodes.size <= _FORMAT_ROWS else None

    def lines():
        yield "eta,lambda,f\n"
        for kept, run in itertools.groupby(range(eta_nodes.size), keep.__getitem__):
            run = list(run)
            if not kept:
                for eta in eta_nodes[run].tolist():
                    yield f"# eta node {eta:.17g} skipped: f undefined on the eta=0 line\n"
                continue
            stop = run[-1] + 1
            for start in range(run[0], stop, rows_per_piece):
                rows = slice(start, min(start + rows_per_piece, stop))
                for j in range(0, lam_nodes.size, _FORMAT_ROWS):
                    columns = slice(j, j + _FORMAT_ROWS)
                    f = _f_grid(eta_nodes[rows], lam_nodes[columns])
                    f[:, boundary[columns]] = 0.0  # the exact identity f(eta, 0) = 0
                    chunk = g17(lam_nodes[columns]) if lam_text is None else lam_text[columns]
                    yield csv_text(eta_text[rows, None], chunk[None],
                                   g17(f.ravel()).reshape(*f.shape, 3))

    _emit(cfg.out, lines())
    if cfg.out != "-":
        print(f"wrote {cfg.out} ({int(keep.sum()) * lam_nodes.size} rows)")
    return 0


def _spectrum_lines(cfg: RunConfig) -> Iterable[str]:
    entries = classify_levels(cfg.dimensionless(), cfg.n_max, M0=cfg.physical().M0)
    if cfg.format == "json":
        doc = {
            "params": cfg.to_json_doc(),
            "entries": [e.to_dict() for e in entries],
        }
        return [_json_text(doc) + "\n"]
    return _level_table(entries)


def _level_table(entries) -> Iterable[str]:
    """The CSV level table, a block of rows at a time.  An Undefined row's NaN
    values are written as nan; n goes through :func:`~pdm_dirac.csvtext.g17`
    as a float64, whose ``%.17g`` text is its digits (n <= ``_N_MAX_CEILING``)."""
    yield "n,delta1,e_squared,classification,energy_magnitude\n"
    for start in range(0, len(entries), _FORMAT_ROWS):
        block = entries[start:start + _FORMAT_ROWS]
        values = np.array([(e.n, e.delta1, e.e_squared, e.energy_magnitude) for e in block])
        n, delta1, e_squared, energy = g17(values.ravel()).reshape(-1, 4, 3).swapaxes(0, 1)
        names = text_words([e.classification.value for e in block])
        yield csv_text(n, delta1, e_squared, names, energy)


def cmd_spectrum(cfg: RunConfig) -> int:
    _emit(cfg.out, _spectrum_lines(cfg))
    return 0


def cmd_potential(cfg: RunConfig) -> int:
    params = cfg.physical()
    half_width = cfg.half_width(10.0)
    count = cfg.N if cfg.N is not None else 401
    with np.errstate(all="ignore"):  # an overflowing grid fails the block check below
        x = np.linspace(-half_width, half_width, count)

    def lines():
        yield "x,mass,im_v,v_eff\n"
        for start in range(0, count, _FORMAT_ROWS):
            with np.errstate(all="ignore"):
                s = potential_sample(params, x[start:start + _FORMAT_ROWS])
            columns = (s.x, s.mass, s.im_v, s.v_eff)
            if not all(np.isfinite(column).all() for column in columns):
                raise ConfigKeyError(
                    f"potential table leaves the double range (L={half_width!r}, M0={params.M0!r})"
                )
            texts = g17(np.stack(columns, axis=1).ravel()).reshape(-1, 4, 3)
            yield csv_text(*texts.swapaxes(0, 1))

    _emit(cfg.out, lines())
    if cfg.out != "-":
        print(f"wrote {cfg.out} ({count} rows)")
    return 0


def cmd_verdict(cfg: RunConfig) -> int:
    """Scan f, certify its sign at the point, and set the closed-form levels
    against :func:`~pdm_dirac.solver.bound_state_report`'s numeric scan.

    The numeric side runs on the model's ``V_eff`` or, with
    ``--control-well``, on :func:`~pdm_dirac.solver.poschl_teller_well`, in
    the box :meth:`RunConfig.half_width` gives.  Either edge is the lower of
    the potential's limits (:func:`~pdm_dirac.solver.continuum_edge`): ``M0^2
    (1 - |eta|)^2``, which no V_eff node lies below in doubles, or 1.
    """
    report: dict = {"config": cfg.to_json_doc()}
    errors: list[str] = []
    localized_states: list[dict] = []

    params = cfg.physical()
    dless = cfg.dimensionless()
    box_values = cfg.box if cfg.box is not None else (-1.0, 1.0, LAMBDA_MIN_SCAN, 10.0)
    grid = cfg.grid if cfg.grid is not None else (201, 201)

    # 1. feasibility: supremum scan over the box, then the point certificate,
    # which compares the two f routes at the user's point
    try:
        scan = supremum_scan(Box(*box_values), grid=grid)
        point_cert = None
        if dless.eta != 0.0:
            point_cert = evaluate_point(dless.eta, dless.lam).to_dict()
        report["feasibility"] = {"supremum": scan.to_dict(), "point_certificate": point_cert}
    except PdmDiracError as exc:
        errors.append(f"feasibility: {type(exc).__name__}: {exc}")

    # 2. closed-form levels vs numeric scan (optionally on the control well)
    try:
        disc = Discretization(cfg.half_width(DEFAULT_HALF_WIDTH_STEPS),
                              DEFAULT_NUM_POINTS if cfg.N is None else cfg.N)
        entries, analytic_failure = [], None
        try:
            entries = classify_levels(dless, cfg.n_max, M0=params.M0)
        except EvaluationError as exc:  # the report carries it; the numeric side runs
            analytic_failure = exc
        numeric = bound_state_report(
            params, disc, potential=poschl_teller_well if cfg.control_well else None
        )
        analytic_error = (None if analytic_failure is None
                          else f"{type(analytic_failure).__name__}: {analytic_failure}")
        # consistent: every Imaginary level lies below min V_eff, so no numeric
        # eigenvalue is one (Rayleigh bound), and no candidate is localized
        imaginary_consistent = all(
            entry.e_squared < numeric.v_eff_min
            for entry in entries
            if entry.classification is Classification.IMAGINARY
        )
        report["comparison"] = {
            "analytic_entries": [entry.to_dict() for entry in entries],
            "analytic_error": analytic_error,
            "numeric": numeric.to_dict(),
            "imaginary_levels_consistent": imaginary_consistent,
            "real_levels_unbound": numeric.empty_real_spectrum,
            "consistent": imaginary_consistent and numeric.empty_real_spectrum,
        }
        # a plain EvaluationError: the closed form applies here but left the
        # double range, so the run is inconclusive (its subclasses mark points
        # outside the formula's domain, which the report states)
        if type(analytic_failure) is EvaluationError:
            errors.append(f"solver: {analytic_error}")
        localized_states = [c.to_dict() for c in numeric.bound_candidates if c.localized]
    except PdmDiracError as exc:
        errors.append(f"solver: {type(exc).__name__}: {exc}")

    # the sign certificate decides f: it is Negative for every lambda > 0 or
    # raises CertificateViolation, so only the numeric route can dissent
    report["evidence"] = {"localized_bound_states": localized_states}
    report["error_trail"] = errors

    if errors:
        statement, status = "Inconclusive", 4
    elif localized_states:
        statement, status = "SpectrumRealFound", 3
    else:
        statement, status = "SpectrumImaginaryOrEmpty", 0
    report["statement"] = statement

    _emit(cfg.out, [_json_text(report) + "\n"])
    if cfg.out != "-":
        print(f"verdict: {statement}")
    return status


_COMMANDS = {
    "surface": cmd_surface,
    "spectrum": cmd_spectrum,
    "verdict": cmd_verdict,
    "potential": cmd_potential,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        ns = _parse_args(argv)
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
