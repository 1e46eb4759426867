"""Exit-status contract, determinism, and file formats of the CLI."""

import argparse
import contextlib
import functools
import io
import itertools
import json
import math
import os
import stat
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

import pdm_dirac
from pdm_dirac import (
    CertificateViolation,
    ConfigKeyError,
    EvaluationError,
    PhysicalParams,
    f_direct,
    f_factored,
    potential_sample,
)
from pdm_dirac import feasibility, solver
from pdm_dirac.cli import (
    _FLAGS,
    _SUBCOMMANDS,
    _build_parser,
    _parse_args,
    _read_plain,
    main,
    resolve_config,
)


def run(args, capsys):
    rc = main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_spectrum_table(capsys):
    rc, out, _ = run(["spectrum", "--eta", "0.5", "--lambda", "1", "--n-max", "3"], capsys)
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,delta1,e_squared,classification,energy_magnitude"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[2]) == pytest.approx(-4.6213203435596426, rel=1e-12)
    assert first[3] == "Imaginary"


def test_spectrum_exact_rational_row(capsys):
    eta = repr(3.0**0.5 / 2.0)
    rc, out, _ = run(["spectrum", "--eta", eta, "--lambda", "1", "--n-max", "0"], capsys)
    assert rc == 0
    row = out.strip().splitlines()[1].split(",")
    assert float(row[1]) == pytest.approx(-0.5, abs=1e-12)
    assert float(row[2]) == pytest.approx(-1.5, abs=1e-12)


def test_spectrum_pole_row_is_nan(capsys):
    # at eta = 1, lambda = 1/sqrt(2) delta1 is -1, so index 1 sits on the pole
    args = ["spectrum", "--eta", "1", "--lambda", repr(0.5**0.5), "--n-max", "1"]
    rc, out, _ = run(args, capsys)
    assert rc == 0
    row = out.strip().splitlines()[2].split(",")
    assert row[0] == "1" and row[2:] == ["nan", "Undefined", "nan"]


def test_spectrum_ground_row_at_large_lambda(capsys):
    # the pole test is relative to u, so n = 0 is never on it however small u is
    rc, out, _ = run(["spectrum", "--eta", "1", "--lambda", "1e6", "--n-max", "0"], capsys)
    assert rc == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[3] == "Imaginary"
    assert float(row[2]) == f_factored(1.0, 1e6)
    # its JSON holds a finite Imaginary row, not a pole: strict JSON, no NaN or Infinity
    rc, out, _ = run(["spectrum", "--eta", "1", "--lambda", "1e6", "--n-max", "3",
                      "--format", "json"], capsys)
    assert rc == 0
    doc = json.loads(out, parse_constant=_refuse_constant)
    assert doc["entries"][0]["classification"] == "Imaginary"


def test_spectrum_json_format(capsys):
    rc, out, _ = run(["spectrum", "--eta", "0.5", "--lambda", "1", "--format", "json"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["entries"]) == 6
    assert doc["entries"][0]["classification"] == "Imaginary"


def test_spectrum_eta_zero_exits_2(capsys):
    rc, _, err = run(["spectrum", "--eta", "0", "--lambda", "1"], capsys)
    assert rc == 2
    assert "EtaZeroDegenerate" in err


def test_bad_parameters_exit_2(capsys):
    rc, _, err = run(["spectrum", "--eta", "1.5", "--lambda", "1"], capsys)
    assert rc == 2
    assert err.startswith("error:")
    rc, _, _ = run(["spectrum", "--eta", "0.5"], capsys)  # missing steepness
    assert rc == 2
    rc, _, _ = run(
        ["spectrum", "--eta", "0.5", "--alpha", "1", "--lambda", "1"], capsys
    )  # both steepness forms
    assert rc == 2


def test_unwritable_output_exits_2(tmp_path, capsys):
    out = tmp_path / "missing_dir" / "s.csv"
    rc, _, err = run(["spectrum", "--eta", "0.5", "--lambda", "1", "--out", str(out)], capsys)
    assert rc == 2
    assert "error" in err
    assert not out.exists()


def test_surface_defaults_shape(tmp_path, capsys):
    out = tmp_path / "surface.csv"
    rc, _, _ = run(["surface", "--out", str(out)], capsys)
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "eta,lambda,f"
    comments = [ln for ln in lines if ln.startswith("#")]
    assert len(comments) == 1  # the skipped eta = 0 gridline
    rows = [ln.split(",") for ln in lines[1:] if not ln.startswith("#")]
    assert len(rows) == 100 * 101
    values = {(r[0], r[1]): float(r[2]) for r in rows}
    # maximum is 0, attained exactly on the lambda = 0 boundary
    assert max(values.values()) == 0.0
    for (eta, lam), v in values.items():
        if float(lam) == 0.0:
            assert v == 0.0
        else:
            assert v < 0.0
            # the grid evaluator agrees with the scalar factored route
            scalar = f_factored(float(eta), float(lam))
            assert abs(v - scalar) <= 1e-14 * abs(scalar)


def test_surface_degenerate_box_single_row(capsys):
    rc, out, _ = run(
        ["surface", "--box", "0.5,0.5,1,1", "--grid", "2,2", "--out", "-"], capsys
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    eta, lam, f = lines[1].split(",")
    assert (eta, lam) == ("0.5", "1")
    assert float(f) == pytest.approx(-4.6213203435596426, rel=1e-12)


def test_surface_interior_box_strictly_negative(tmp_path, capsys):
    out = tmp_path / "s.csv"
    rc, _, _ = run(
        ["surface", "--box=-1,1,1,10", "--grid", "21,11", "--out", str(out)], capsys
    )
    assert rc == 0
    rows = [ln for ln in out.read_text().splitlines()[1:] if not ln.startswith("#")]
    assert max(float(r.split(",")[2]) for r in rows) < 0.0


def test_surface_unrepresentable_box_exits_2(tmp_path, capsys):
    rc, out, err = run(["surface", "--box=-1,1,-1,1", "--out", "-"], capsys)
    assert rc == 2
    assert out == ""
    assert "lambda must be >= 0" in err
    # u underflows at lambda = 1e300 and at the top of the double range:
    # rejected, never written as inf or nan, and no file or temp file is left
    for box, grid in [("0.5,0.6,1e300,1e300", "3,3"), ("0.5,0.5,0,1.7976931348623157e308", "2,4")]:
        for out_arg in ["-", str(tmp_path / "s.csv")]:
            rc, out, err = run(["surface", f"--box={box}", "--grid", grid, "--out", out_arg],
                               capsys)
            assert rc == 2
            assert out == ""
            assert "InvalidBox" in err
            assert list(tmp_path.iterdir()) == []


def test_potential_origin_row(capsys):
    rc, out, _ = run(
        ["potential", "--eta", "0.5", "--alpha", "1", "--N", "3", "--L", "2", "--out", "-"],
        capsys,
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,mass,im_v,v_eff"
    origin = lines[2].split(",")
    assert [float(v) for v in origin] == [0.0, 1.0, 0.25, 1.0]
    # every row is bitwise the scalar sample at its x
    rc, out, _ = run(
        ["potential", "--eta=-0.7", "--alpha", "1.3", "--N", "1001", "--out", "-"], capsys
    )
    assert rc == 0
    params = PhysicalParams(1.0, -0.7, 1.3)
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 1001
    for line in rows:
        s = potential_sample(params, float(line.split(",")[0]))
        fields = (s.x, s.mass, s.im_v, s.v_eff)
        assert line == ",".join(format(v, ".17g") for v in fields)


def test_potential_hermitian_limit_rows(capsys):
    rc, out, _ = run(
        ["potential", "--eta", "0", "--alpha", "1", "--N", "5", "--out", "-"], capsys
    )
    assert rc == 0
    for line in out.strip().splitlines()[1:]:
        _, mass, im_v, v_eff = (float(v) for v in line.split(","))
        assert im_v == 0.0
        assert mass == 1.0
        assert v_eff == 1.0


def test_dump_config_round_trip(tmp_path, capsys):
    runs = [
        ["verdict", "--eta", "0.5", "--lambda", "1"],
        ["verdict", "--eta", "0.5", "--alpha", "1", "--M0", "2", "--L", "30", "--N", "4000",
         "--box=-1,1,0.01,5", "--grid", "41,41", "--control-well"],
        ["surface", "--box=-1,1,1,10", "--grid", "21,11"],
        ["surface"],
        ["spectrum", "--eta", "0.5", "--lambda", "1", "--format", "json", "--n-max", "7"],
        ["potential", "--eta", "0.7", "--alpha", "2", "--N", "1001", "--L", "5"],
    ]
    cfg_path = tmp_path / "cfg.json"
    for args in runs:
        rc, out, _ = run(args + ["--dump-config"], capsys)
        assert rc == 0
        cfg_path.write_text(out)
        rc, out2, _ = run([args[0], "--config", str(cfg_path), "--dump-config"], capsys)
        assert rc == 0
        assert out2 == out


def test_config_and_flags_conflict(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"eta": 0.5, "lambda": 1.0}))
    rc, _, err = run(
        ["spectrum", "--eta", "0.4", "--lambda", "1", "--config", str(cfg_path)], capsys
    )
    assert rc == 2
    assert "not both" in err


def test_config_subcommand_mismatch(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"subcommand": "surface", "eta": 0.5, "lambda": 1.0}))
    rc, _, _ = run(["spectrum", "--config", str(cfg_path)], capsys)
    assert rc == 2


def test_config_unknown_keys_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"eta": 0.5, "lambda": 1.0, "mystery": 7}))
    rc, _, _ = run(["spectrum", "--config", str(cfg_path)], capsys)
    assert rc == 2


def test_config_n_max_ceiling(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    for n_max, status in ((100_000, 0), (100_001, 2)):
        cfg_path.write_text(json.dumps({"eta": 0.5, "lambda": 1.0, "n_max": n_max}))
        rc, _, _ = run(["spectrum", "--config", str(cfg_path), "--dump-config"], capsys)
        assert rc == status


# Config documents whose values are wrong-typed, out of range, or keys the
# subcommand does not take: each exits 2 with ConfigKeyError and writes nothing.
CONFIG_CASES = [
    ("verdict", '{"eta": 0.5, "lambda": 1, "box": 5}'),
    ("verdict", '{"eta": 0.5, "lambda": 1, "grid": [3]}'),
    ("verdict", '{"eta": 0.5, "lambda": 1, "n_max": "abc"}'),
    ("verdict", '{"eta": 0.5, "lambda": 1, "L": "x"}'),
    ("verdict", '{"eta": 0.5, "lambda": 1, "seed": -1}'),
    ("verdict", '{"seed": 0, "eta": 0.5, "lambda": 1}'),  # a verdict takes no seed
    ("verdict", '{"eta": 0.5, "lambda": 1, "box": [0.1, 0.2, "a", 1]}'),
    ("verdict", '{"eta": 0.5, "lambda": 1, "box": [0.1, 1, 1, Infinity]}'),
    ("surface", '{"box": [0.1, 1, 0, NaN]}'),
    ("verdict", '{"eta": 0.5, "lambda": 1, "L": Infinity}'),
    ("potential", '{"eta": 0.5, "lambda": 1, "L": Infinity}'),
    ("verdict", '{"eta": 0.5, "lambda": 1, "n_max": NaN}'),
    ("verdict", '{"eta": 0.5, "lambda": 1, "N": 1e400}'),
    ("verdict", '{"eta": 0.5, "lambda": 1, "control_well": "false"}'),
    ("verdict", '{"eta": 0.5, "lambda": 1, "out": null}'),
    ("verdict", '{"eta": 0.5, "lambda": 1, "grid": [2.7, 3.9]}'),
    ("verdict", '{"eta": true, "lambda": 1}'),
    ("spectrum", '{"eta": 0.5, "lambda": 1, "seed": 0}'),
    ("surface", '{"eta": 0.5, "lambda": 1}'),
    ("potential", '{"eta": 0.5, "lambda": 1, "N": 1000001}'),
    ("surface", '{"grid": [1000000, 1000000]}'),
    ("spectrum", '{"eta": 0.5, "alpha": 1, "M0": ' + "9" * 400 + "}"),
    ("spectrum", '{"eta": 0.5, "lambda": 1, "n_max": ' + "9" * 5000 + "}"),
    ("spectrum", "[" * 100_000),
]


@pytest.mark.parametrize("sub,text", CONFIG_CASES, ids=[text[:60] for _, text in CONFIG_CASES])
def test_config_value_rejected(sub, text, tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    with pytest.raises(ConfigKeyError):
        resolve_config(_build_parser().parse_args([sub, "--config", str(cfg_path)]))
    workdir = tmp_path / "run"
    workdir.mkdir()
    monkeypatch.chdir(workdir)  # default output paths and "None" would land here
    rc, _, err = run([sub, "--config", str(cfg_path)], capsys)
    assert rc == 2
    assert err.startswith("error:")
    assert list(workdir.iterdir()) == []


def test_flags_override_config_keys(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"eta": 0.5, "lambda": 1, "n_max": 3, "format": "json"}))
    rc, out, _ = run(["spectrum", "--config", str(cfg_path), "--n-max", "1", "--dump-config"],
                     capsys)
    assert rc == 0
    assert json.loads(out)["n_max"] == 1
    assert json.loads(out)["format"] == "json"


def _flag_rules(flags: dict) -> dict:
    """The config document that a set of parameter flags stands for: the one
    with their keys, after the two rules that fill in a scale."""
    doc = dict(flags)
    if "lambda" in doc and doc.get("M0", 1.0) == 1.0:
        doc.pop("M0", None)  # 1 is the reduced document's scale
    elif "alpha" in doc:
        doc.setdefault("M0", 1.0)
    return doc


@pytest.mark.parametrize("lam", [0.5, 0.0, -1.0, math.inf, math.nan])
@pytest.mark.parametrize("eta", [0.5, 2.0])
def test_flags_and_config_share_one_parameter_path(eta, lam, tmp_path, capsys):
    # every subset of --M0, --eta, --alpha, --lambda (alpha and lambda take
    # lam, M0 is 1 or 2) gives the status, stdout, stderr and written bytes of
    # the config document with its keys
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "out.json"
    names = ("M0", "eta", "alpha", "lambda")
    statuses = {}
    for keys in itertools.chain.from_iterable(
            itertools.combinations(names, size) for size in range(len(names) + 1)):
        for m0 in (1.0, 2.0) if "M0" in keys else (None,):
            values = {"M0": m0, "eta": eta, "alpha": lam, "lambda": lam}
            flags = {key: values[key] for key in keys}
            cfg_path.write_text(json.dumps(_flag_rules(flags)))
            results = []
            for source in ([f"--{key}={value!r}" for key, value in flags.items()],
                           ["--config", str(cfg_path)]):
                results.append((*run(["spectrum", *source, "--format", "json",
                                      "--out", str(out)], capsys),
                                out.read_bytes() if out.exists() else None))
                out.unlink(missing_ok=True)
            assert results[0] == results[1], flags
            statuses[keys, m0] = results[0][0]
    # at a valid point exactly the two documents run, whatever the flags spell
    runs = {(("eta", "alpha"), None), (("M0", "eta", "alpha"), 1.0),
            (("M0", "eta", "alpha"), 2.0), (("eta", "lambda"), None),
            (("M0", "eta", "lambda"), 1.0)}
    valid = eta == 0.5 and lam == 0.5
    assert {case for case, status in statuses.items() if status == 0} == (runs if valid else set())
    assert set(statuses.values()) <= {0, 2}


@pytest.mark.parametrize("source", ["flags", "config"])
def test_parameters_are_checked_before_run_keys(source, tmp_path, capsys):
    # a negative lambda is refused alone, and before a bad run key
    cfg_path = tmp_path / "cfg.json"
    for run_keys in ({}, {"n_max": -1}):
        cfg_path.write_text(json.dumps({"eta": 0.5, "lambda": -1, **run_keys}))
        flags = ["--eta", "0.5", "--lambda", "-1", *(["--n-max", "-1"] if run_keys else [])]
        args = ["spectrum", *(flags if source == "flags" else ["--config", str(cfg_path)])]
        assert run(args, capsys) == (2, "", "error: lambda must be >= 0, got -1.0\n")


@pytest.mark.parametrize("source", ["flags", "config"])
def test_m0_is_checked_before_the_alpha_it_scales(source, tmp_path, capsys):
    # both M0 and alpha are bad: the error names the scale
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"M0": 0, "eta": 0.5, "alpha": math.nan}))
    args = (["spectrum", "--eta", "0.5", "--alpha", "nan", "--M0", "0"]
            if source == "flags" else ["spectrum", "--config", str(cfg_path)])
    assert run(args, capsys) == (2, "", "error: M0 must be > 0, got 0.0\n")


@pytest.mark.parametrize("flags", [
    ["--lambda", "inf", "--M0", "2"],
    ["--lambda", "-1", "--M0", "2"],
    ["--lambda", "1e300", "--M0", "1e10"],
    ["--lambda", "1e-300", "--M0", "1e-100"],
    ["--lambda", "0.25", "--M0", "2"],
])
def test_lambda_beside_an_m0_other_than_1_is_refused_by_its_keys(flags, tmp_path, capsys):
    # no flag derives alpha = lambda * M0: the keys are refused as a config's are
    keys = ("error: parameter document keys {} match neither ['M0', 'alpha', 'eta'] "
            "nor ['eta', 'lambda']\n")
    refused = (2, "", keys.format("['M0', 'eta', 'lambda']"))
    assert run(["spectrum", "--eta", "0.5", *flags], capsys) == refused
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"M0": float(flags[3]), "eta": 0.5, "lambda": float(flags[1])}))
    assert run(["spectrum", "--config", str(cfg_path)], capsys) == refused
    assert run(["spectrum", *flags], capsys) == (2, "", keys.format("['M0', 'lambda']"))


@pytest.mark.parametrize("sub", ["spectrum", "verdict"])
@pytest.mark.parametrize("source", ["flags", "config"])
def test_lambda_quotient_names_alpha_and_m0(sub, source, tmp_path, capsys):
    # lambda = alpha / M0 leaves the double range: the error names the two
    # values given, not the inf or 0 they make
    def args(m0, alpha):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"M0": m0, "eta": 0.5, "alpha": alpha}))
        if source == "config":
            return [sub, "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        return [sub, "--eta", "0.5", "--alpha", repr(alpha), "--M0", repr(m0),
                "--out", str(tmp_path / "out")]

    overflow = "error: lambda = alpha / M0 overflows: alpha = 1e+300, M0 = 1e-300\n"
    assert run(args(1e-300, 1e300), capsys) == (2, "", overflow)
    assert not (tmp_path / "out").exists()
    underflow = "error: LambdaZero: lambda = alpha / M0 underflows: alpha = 5e-324, M0 = 2.0\n"
    assert run(args(2.0, 5e-324), capsys) == (2, "", underflow)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sub", ["spectrum", "verdict", "potential"])
@pytest.mark.parametrize("source", ["flags", "config"])
def test_a_reduced_lambda_of_0_is_named_as_lambda(sub, source, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"eta": 0.5, "lambda": 0}))
    params = (["--eta", "0.5", "--lambda", "0"] if source == "flags"
              else ["--config", str(cfg_path)])
    out = tmp_path / "out"
    assert run([sub, *params, "--out", str(out)], capsys) == (
        2, "", "error: lambda must be > 0, got 0.0\n")
    assert not out.exists()


def test_an_overflowing_default_half_width_names_alpha(tmp_path, capsys):
    out = tmp_path / "v.json"
    assert run(["verdict", "--eta", "0.5", "--lambda", "5e-324", "--out", str(out)], capsys) == (
        4, "verdict: Inconclusive\n", "")
    assert json.loads(out.read_text())["error_trail"] == [
        "solver: ParameterError: default half-width 25/alpha overflows: alpha = 5e-324; give --L"]
    assert run(["potential", "--eta", "0.5", "--lambda", "1e-320", "--N", "3"], capsys) == (
        2, "", "error: default half-width 10/alpha overflows: alpha = 1e-320; give --L\n")


@pytest.mark.parametrize("flags,echo", [
    (["--lambda", "0.25"], {"eta": 0.5, "lambda": 0.25}),
    (["--M0", "1", "--lambda", "0.25"], {"eta": 0.5, "lambda": 0.25}),
    (["--M0", "2", "--alpha", "0.5"], {"M0": 2.0, "alpha": 0.5, "eta": 0.5}),
    (["--alpha", "0.25"], {"M0": 1.0, "alpha": 0.25, "eta": 0.5}),
])
def test_dump_config_echoes_the_document_the_flags_stand_for(flags, echo, capsys):
    rc, out, _ = run(["spectrum", "--eta", "0.5", *flags, "--dump-config"], capsys)
    assert rc == 0
    assert json.loads(out) == {"subcommand": "spectrum", **echo, "format": "csv", "n_max": 5,
                               "out": "-"}


def test_verdict_confirming_run(tmp_path, capsys):
    out = tmp_path / "verdict.json"
    rc, stdout, _ = run(
        [
            "verdict", "--eta", "0.5", "--lambda", "1",
            "--N", "1500", "--grid", "41,41", "--out", str(out),
        ],
        capsys,
    )
    assert rc == 0
    assert "SpectrumImaginaryOrEmpty" in stdout
    doc = json.loads(out.read_text())
    assert doc["statement"] == "SpectrumImaginaryOrEmpty"
    assert doc["error_trail"] == []
    assert doc["evidence"] == {"localized_bound_states": []}
    assert set(doc["feasibility"]) == {"supremum", "point_certificate"}
    # the scan evaluates its extreme nodes alone: no refinement_evaluations
    assert set(doc["feasibility"]["supremum"]) == {
        "all_nodes_negative", "argmax", "box", "grid_shape", "skipped_eta_nodes", "sup_estimate"}
    assert doc["feasibility"]["supremum"]["all_nodes_negative"] is True
    assert doc["feasibility"]["point_certificate"]["sign_verdict"] == "Negative"
    assert doc["comparison"]["consistent"] is True


@pytest.mark.parametrize("eta,lam", [("1", "1"), ("-1", "0.5")])
def test_verdict_consistent_where_the_mass_vanishes(eta, lam, tmp_path, capsys):
    # at |eta| = 1 tanh saturates on the grid, so min V_eff is exactly 0.0;
    # every Imaginary level still lies below it (the Rayleigh bound)
    out = tmp_path / "verdict.json"
    rc, _, _ = run(["verdict", f"--eta={eta}", "--lambda", lam, "--out", str(out)], capsys)
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["error_trail"] == []
    assert doc["evidence"]["localized_bound_states"] == []
    assert doc["comparison"]["numeric"]["v_eff_min"] == 0.0
    assert doc["comparison"]["imaginary_levels_consistent"] is True
    assert doc["comparison"]["consistent"] is True


def test_verdict_reads_an_underflowed_grid_maximum_as_negative(tmp_path, capsys):
    # f underflows to -0.0 at |eta| = 1 on this box; the sign bit keeps f < 0
    out = tmp_path / "verdict.json"
    rc, _, _ = run(["verdict", "--eta", "0.5", "--lambda", "1", "--box=-1,1,1e-200,1e-3",
                    "--grid", "3,3", "--out", str(out)], capsys)
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["error_trail"] == []
    assert doc["evidence"]["localized_bound_states"] == []
    assert doc["comparison"]["consistent"] is True
    sup = doc["feasibility"]["supremum"]
    assert repr(sup["sup_estimate"]) == "-0.0"
    assert sup["all_nodes_negative"] is True


def test_the_ceiling_scan_grid_reports_the_certified_corner(tmp_path, capsys):
    # the scan evaluates only its extreme nodes, so a 2x2 grid reports the
    # supremum of the 2001 x 2001 ceiling grid; the argmax is the certified
    # corner (max |eta|, lam_min), negative eta first
    sups = {}
    for grid in ("2001,2001", "2000,2000", "2,2"):
        out = tmp_path / f"{grid}.json"
        rc, _, _ = run(["verdict", "--eta", "0.5", "--lambda", "1", "--grid", grid,
                        "--out", str(out)], capsys)
        assert rc == 0
        doc = json.loads(out.read_text(), parse_constant=_refuse_constant)
        sups[grid] = doc["feasibility"]["supremum"]
    keys = ("sup_estimate", "argmax", "all_nodes_negative")
    assert [sups["2,2"][key] for key in keys] == [sups["2001,2001"][key] for key in keys]
    # 2001 eta nodes skip the middle one, eta = 0; 2000 have no middle node
    for grid, skipped in (("2001,2001", [0.0]), ("2000,2000", [])):
        sup = sups[grid]
        assert sup["all_nodes_negative"] is True
        assert sup["argmax"] == [-1.0, 0.001]
        assert sup["sup_estimate"] < 0.0
        assert "refinement_evaluations" not in sup
        assert sup["skipped_eta_nodes"] == skipped


def test_a_short_domain_is_reported_in_the_verdict_alone(tmp_path, capsys):
    out = tmp_path / "verdict.json"
    rc, _, err = run(["verdict", "--eta", "0.5", "--alpha", "1", "--L", "5", "--out", str(out)],
                     capsys)
    assert (rc, err) == (0, "")
    assert json.loads(out.read_text())["comparison"]["numeric"]["domain_warning"] is True


@pytest.mark.parametrize("argv", [["--eta", "0.5", "--lambda", "1"],
                                  ["--eta", "-0.5", "--lambda", "1", "--N", "16000"]],
                         ids=" ".join)
def test_a_model_verdict_is_certified_by_its_weyl_margin(argv, tmp_path, capsys):
    # the margin replaced slice_count; the edge count is len(bound_candidates)
    out = tmp_path / "verdict.json"
    rc, _, _ = run(["verdict", *argv, "--out", str(out)], capsys)
    assert rc == 0
    numeric = json.loads(out.read_text())["comparison"]["numeric"]
    assert "slice_count" not in numeric
    assert numeric["weyl_margin"] > numeric["count_error_bound"] > 0
    assert numeric["bound_candidates"] == []


def test_the_control_well_margin_certifies_nothing(tmp_path, capsys):
    # the control well dips below its edge: its margin is negative
    out = tmp_path / "verdict.json"
    rc, _, _ = run(["verdict", "--eta", "0.5", "--lambda", "1", "--control-well",
                    "--out", str(out)], capsys)
    assert rc == 3
    assert json.loads(out.read_text())["comparison"]["numeric"]["weyl_margin"] < 0


def test_verdict_to_stdout_is_one_json_document(capsys):
    rc, stdout, _ = run(["verdict", "--eta", "0.5", "--lambda", "1", "--box=-1,1,5e-324,1e-323",
                         "--grid", "3,3", "--out", "-"], capsys)
    assert rc == 0
    assert json.loads(stdout)["statement"] == "SpectrumImaginaryOrEmpty"


def test_verdict_control_well_exits_3(tmp_path, capsys):
    out = tmp_path / "verdict.json"
    rc, stdout, _ = run(
        [
            "verdict", "--eta", "0.5", "--lambda", "1", "--control-well",
            "--N", "1500", "--grid", "21,21", "--out", str(out),
        ],
        capsys,
    )
    assert rc == 3
    assert "SpectrumRealFound" in stdout
    doc = json.loads(out.read_text())
    assert doc["statement"] == "SpectrumRealFound"
    # the dissenting statement must carry its evidence
    states = doc["evidence"]["localized_bound_states"]
    assert len(states) == 1
    assert abs(states[0]["e_squared"]) < 2e-3
    assert states[0]["localization"]["interior_mass_fraction"] >= 0.99


def test_verdict_byte_deterministic(tmp_path, capsys):
    args = [
        "verdict", "--eta", "0.5", "--lambda", "1",
        "--N", "800", "--grid", "31,31",
    ]
    out_a = tmp_path / "a" / "verdict.json"
    out_b = tmp_path / "b" / "verdict.json"
    out_a.parent.mkdir()
    out_b.parent.mkdir()
    rc, _, _ = run(args + ["--out", str(out_a)], capsys)
    assert rc == 0
    rc, _, _ = run(args + ["--out", str(out_b)], capsys)
    assert rc == 0
    a = out_a.read_bytes().replace(str(out_a).encode(), b"OUT")
    b = out_b.read_bytes().replace(str(out_b).encode(), b"OUT")
    assert a == b


def test_verdict_physical_parameterization(tmp_path, capsys):
    out = tmp_path / "verdict.json"
    rc, _, _ = run(
        [
            "verdict", "--M0", "1", "--eta", "0.9", "--alpha", "0.2",
            "--N", "1500", "--grid", "21,21", "--out", str(out),
        ],
        capsys,
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["statement"] == "SpectrumImaginaryOrEmpty"
    assert doc["comparison"]["numeric"]["continuum_edge"] == pytest.approx(0.01)


# Inputs that validation accepts but doubles cannot represent, and scan boxes
# the Box type rejects: each ends in a fixed status with a structured error
# (or, for the box wholly below the spot check's lambda floor, succeeds).
EXIT_CASES = [
    (["verdict", "--eta", "1e-200", "--lambda", "1"], 4, ["EtaZeroSingular"]),
    (["verdict", "--eta", "1e-160", "--lambda", "1"], 4, ["EtaZeroSingular"]),
    (["verdict", "--eta", "1", "--lambda", "1e300"], 4, ["EtaZeroSingular", "ParameterError"]),
    (["verdict", "--eta", "0.5", "--lambda", "1e-300"], 4, ["ParameterError"]),
    (["verdict", "--eta", "1e-300", "--lambda", "1e-300"], 4,
     ["EtaZeroSingular", "ParameterError"]),
    (["verdict", "--eta", "1", "--lambda", "1e-320"], 4, ["ParameterError"]),
    (["verdict", "--eta", "0.5", "--lambda", "1", "--N", "2"], 4, ["ParameterError"]),
    (["verdict", "--eta", "0.5", "--lambda", "1", "--box=0.5,0.6,1e300,1e300",
      "--grid", "3,3"], 4, ["InvalidBox"]),
    (["verdict", "--eta", "0.5", "--lambda", "1", "--box=-1,1,-1,1"], 4, ["NegativeLambda"]),
    (["verdict", "--eta", "0", "--lambda", "7.236101064699175e74"], 4, ["ParameterError"]),
    (["verdict", "--eta", "0.5", "--lambda", "1", "--box=0.5,1,1e-9,1e-8", "--grid", "2,2",
      "--N", "800"], 0, []),
    (["verdict", "--eta", "0.5", "--M0", "1e200", "--alpha", "1"], 4, ["ParameterError"]),
    # the control well has unit width whatever alpha: its box is 25/min(alpha, 1)
    *[(["verdict", "--eta", "0.5", "--alpha", alpha, "--control-well"], 3, [])
      for alpha in ("2.5", "3", "10", "30")],
    (["surface", "--box=0,0,-1,1"], 2, ["lambda must be >= 0"]),
    (["surface", "--box=0.1,0.1,-1,1"], 2, ["lambda must be >= 0"]),
    (["surface", "--box=0.5,0.6,1e300,1e300", "--grid", "3,3"], 2, ["InvalidBox"]),
    (["surface", "--box=0.5,0.5,0,1.7976931348623157e308", "--grid", "2,4"], 2,
     ["InvalidBox"]),
    (["spectrum", "--eta", "0.5", "--lambda", "1e-300"], 2, ["LambdaZero"]),
    (["spectrum", "--eta", "1e-300", "--lambda", "1e-300"], 2, ["EtaZeroSingular"]),
    (["potential", "--eta", "0.5", "--lambda", "1", "--L", "1e308", "--N", "3"], 2,
     ["leaves the double range"]),
    (["potential", "--eta=-1", "--alpha", "1", "--L", "1000", "--N", "10001"], 2,
     ["DegenerateMass"]),
    # blocks are checked in x order: the first leaves the double range before
    # the last reaches the vanishing mass
    (["potential", "--eta", "-1", "--M0", "1e300", "--alpha", "1", "--L", "1000", "--N", "10001"],
     2, ["leaves the double range"]),
    # the verdict records the solver's spacing error in its trail instead
    (["verdict", "--eta", "0.5", "--lambda", "1", "--L", "1e308"], 4, ["ParameterError"]),
    # f leaves the double range: an error, not -Infinity
    (["verdict", "--eta", "1", "--lambda", "1e160"], 4, ["EvaluationError", "ParameterError"]),
    # f is finite on this box, and no verdict step reads f outside the box or
    # away from the given (eta, lambda)
    (["verdict", "--eta", "0.5", "--lambda", "1", "--box=0.9,1,1,1e153", "--grid", "3,3"], 0,
     []),
    # a level energy leaves the double range: before or after the M0^2 scaling
    (["spectrum", "--eta", "1", "--lambda", "1e160", "--n-max", "1", "--format", "json"], 2,
     ["EvaluationError"]),
    (["spectrum", "--eta", "0.5", "--M0", "1e150", "--alpha", "1e160", "--n-max", "1"], 2,
     ["EvaluationError"]),
    (["verdict", "--eta", "1", "--M0", "1e-100", "--alpha", "1e60"], 4,
     ["feasibility: EvaluationError", "solver: EvaluationError"]),
    (["spectrum", "--eta", "0.5", "--lambda", "1", "--n-max", "100001"], 2, ["n_max"]),
    (["verdict", "--eta", "0.5", "--lambda", "1", "--n-max", "100001"], 2, ["n_max"]),
    # at tiny lambda f once rounded to 0 or above and claimed a real spectrum
    (["verdict", "--eta", "0.5", "--lambda", "1", "--grid", "3,3", "--box=0.5,0.9,1e-30,1e-3"],
     0, []),
    (["verdict", "--eta", "0.5", "--lambda", "1", "--grid", "3,3", "--box=0.9,1,1e-30,1e-3"],
     0, []),
    (["verdict", "--eta", "0.5", "--lambda", "1", "--grid", "3,3", "--box=-1,1,1e-20,1e-3"],
     0, []),
    # f underflows to -0.0 at |eta| = 1: the sign certificate still says Negative
    (["verdict", "--eta", "0.5", "--lambda", "1", "--grid", "3,3", "--box=-1,1,1e-200,1e-3"],
     0, []),
    (["verdict", "--eta", "0.5", "--lambda", "1", "--grid", "3,3", "--box=-1,1,5e-324,1e-323"],
     0, []),
    (["spectrum", "--eta", "0.5", "--M0", "1e200", "--alpha", "1e200", "--n-max", "1"], 2,
     ["M0^2 is not a normal double"]),
    (["spectrum", "--eta", "0.5", "--M0", "1e-200", "--alpha", "1e-200", "--n-max", "1"], 2,
     ["M0^2 is not a normal double"]),
    (["verdict", "--eta", "0.5", "--lambda", "1", "--seed", "-1"], 2, ["seed"]),
    (["verdict", "--eta", "0.5", "--lambda", "1", "--seed", "0"], 2,
     ["unrecognized arguments: --seed 0"]),
    (["verdict", "--eta", "0.5", "--lambda", "1", "--N", "1000000000000"], 2, ["N must be"]),
    (["potential", "--eta", "0.5", "--lambda", "1", "--N", "1000001"], 2, ["N must be"]),
    (["verdict", "--eta", "0.5", "--lambda", "1", "--grid", "2001,2050"], 2, ["nodes"]),
    (["surface", "--grid", "1000000,1000000"], 2, ["nodes"]),
    (["spectrum", "--eta", "0.5", "--lambda", "1", "--format", "xml"], 2, ["formats"]),
    # a bad run key is exit 2, whichever subcommand takes it
    (["verdict", "--eta", "0.5", "--lambda", "1", "--L=-1"], 2, ["L must be > 0"]),
    (["verdict", "--eta", "0.5", "--lambda", "1", "--L", "nan"], 2, ["L must be > 0"]),
    (["potential", "--eta", "0.5", "--lambda", "1", "--L", "0"], 2, ["L must be > 0"]),
    (["potential", "--eta", "0.5", "--lambda", "1", "--L=-1"], 2, ["L must be > 0"]),
    (["verdict", "--eta", "0.5", "--lambda", "1", "--L", "inf"], 2, ["L must be > 0 and finite"]),
    (["potential", "--eta", "0.5", "--lambda", "1", "--L", "inf"], 2,
     ["L must be > 0 and finite"]),
    (["verdict", "--eta", "0.5", "--lambda", "1", "--box=0.1,1,1,inf"], 2, ["must be finite"]),
    (["surface", "--box=0.1,1,1,inf"], 2, ["must be finite"]),
    (["surface", "--box=-inf,1,0,1"], 2, ["must be finite"]),
    # flag text the parser cannot read is returned as exit 2, not raised
    (["verdict", "--eta", "0.5", "--lambda", "1", "--N", "abc"], 2, ["invalid int value"]),
    (["verdict", "--eta", "x", "--lambda", "1"], 2, ["invalid float value"]),
    (["surface", "--grid", "2.5,3"], 2, ["invalid comma-separated int value"]),
    (["verdict", "--eta", "0.5", "--lambda", "1", "--no-such-flag"], 2, ["unrecognized"]),
    (["no-such-subcommand"], 2, ["invalid choice"]),
]


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize(
    "args,status,errors", EXIT_CASES, ids=[" ".join(case[0]) for case in EXIT_CASES]
)
def test_exit_status_contract(args, status, errors, tmp_path, capsys):
    out = tmp_path / "out.txt"
    rc, _, err = run(args + ["--out", str(out)], capsys)
    assert rc == status
    if status == 2:
        assert list(tmp_path.iterdir()) == []  # nothing written, not even a temp file
        for name in errors:
            assert name in err
    else:
        # strict JSON: NaN, Infinity and -Infinity are refused
        trail = json.loads(out.read_text(), parse_constant=_refuse_constant)["error_trail"]
        assert [name for name in errors if any(name in entry for entry in trail)] == errors
        assert len(trail) == len(errors)


@pytest.mark.parametrize("args", [["--help"], ["verdict", "--help"], ["verdict", "-h"]])
def test_help_exits_0(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(" ".join(["usage: pdm-dirac", *args[:-1]]))


# argparse words these the same on every supported Python
@pytest.mark.parametrize("args,err", [
    (["verdict", "--eta", "0.5", "--lambda", "1", "--no-such-flag"],
     "error: pdm-dirac: unrecognized arguments: --no-such-flag\n"),
    (["verdict", "--eta", "x", "--lambda", "1"],
     "error: pdm-dirac verdict: argument --eta: invalid float value: 'x'\n"),
])
def test_the_full_parser_reports_an_unreadable_line(args, err, capsys):
    assert run(args, capsys) == (2, "", err)


def test_plain_equals_and_abbreviated_lines_run_alike(tmp_path, capsys):
    # the plain reader reads spaced values and "=" forms alike, and argparse
    # reads the abbreviation --lamb: the same exit status, stdout and report
    # bytes on all three (one --out path, which the report's config records)
    out = tmp_path / "plain.json"

    def verdict(*argv):
        outcome = (*run(["verdict", *argv], capsys), out.read_bytes())
        out.unlink()
        return outcome

    plain = verdict("--eta", "0.5", "--lambda", "1", "--out", str(out))
    assert verdict("--eta=0.5", "--lambda=1", f"--out={out}") == plain
    assert verdict("--eta", "0.5", "--lamb", "1", "--out", str(out)) == plain


def _parse_outcome(parse, argv, capsys):
    """parse(argv) as main sees it: the parsed namespace or the exit status, an
    unreadable flag reported as main reports it, and stdout and stderr."""
    try:
        result = vars(parse(argv))
    except SystemExit as exc:
        result = exc.code
    except ConfigKeyError as exc:
        result = f"error: {exc}"
    captured = capsys.readouterr()
    return result, captured.out, captured.err


SUBCOMMANDS = ["surface", "spectrum", "verdict", "potential"]
_POINT = ["--eta", "0.5", "--lambda", "1"]
# command lines the plain reader reads in their "=" form, or declines
_EQUALS_CASES = [["surface", "--box=-1,1,0,10"],
                 ["verdict", "--eta=-1e-05", "--lambda", "1"],
                 ["spectrum", *_POINT, "--out="],
                 ["spectrum", *_POINT, "--out=="],
                 ["spectrum", "--eta=", "--lambda", "1"],
                 ["spectrum", "--eta=0.5=1", "--lambda", "1"],
                 ["verdict", *_POINT, "--control-well="],
                 ["spectrum", *_POINT, "--out=--"],
                 ["spectrum", *_POINT, "--dump-config="]]
PARSE_CASES = [["-h"], *([sub, "-h"] for sub in SUBCOMMANDS), ["surfac", "--eta", "1"],
               ["surface", "--eta", "1"], [],
               *([sub, "--no-such-flag"] for sub in SUBCOMMANDS),
               ["verdict", "--eta", "x", "--lambda", "1"],
               ["verdict", "verdict", *_POINT],
               ["verdict", "--et", "0.5", "--lambda", "1"],
               ["verdict", *_POINT, "--", "--out", "x"],
               ["spectrum", *_POINT, "--dump-config"],
               ["--", "verdict", *_POINT],
               *_EQUALS_CASES]


@pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
def test_parser_for_argv_reads_as_the_full_parser(argv, capsys):
    outcome = _parse_outcome(_parse_args, argv, capsys)
    assert outcome == _parse_outcome(_build_parser().parse_args, argv, capsys)


def _options(parser):
    return {s for action in parser._actions for s in action.option_strings}


def _parsers_built(argv, monkeypatch):
    """The argument parsers that reading argv constructs, in order."""
    built = []
    init = argparse.ArgumentParser.__init__

    def record(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(argparse.ArgumentParser, "__init__", record)
        try:
            _parse_args(argv)
        except (SystemExit, ConfigKeyError):
            pass
    return built


def _subparsers(parser):
    return parser._subparsers._group_actions[0].choices


def test_a_run_builds_no_parser_or_the_full_parser(monkeypatch):
    top, *subs = _parsers_built([], monkeypatch)
    assert top.prog == "pdm-dirac"
    assert [p.prog for p in subs] == [f"pdm-dirac {name}" for name in SUBCOMMANDS]
    for name, parser in zip(SUBCOMMANDS, subs):
        spec = _SUBCOMMANDS[name]
        params = {"--M0", "--eta", "--alpha", "--lambda"} if spec.params else set()
        flags = {"--" + key.replace("_", "-") for key in spec.keys}
        assert _options(parser) == {"-h", "--help", "--config", "--dump-config",
                                    *params, *flags}
    declined = [["--help"], ["surfac", "--eta", "1"], ["surfac"]]
    for name in SUBCOMMANDS:
        # a plain command line, its "=" forms included, is read from the flag table alone
        for rest in (["--out", "-"], ["--out=-"], ["--dump-config", "--out", "-"],
                     ["--dump-config", "--out=-"]):
            assert _parsers_built([name, *rest], monkeypatch) == []
        declined += ([name, *rest] for rest in (["-h"], ["--no-such-flag"], ["--eta", "x"],
                                                ["--et", "0.5"], ["--dump-config="]))
    for argv in declined:
        # any other is read by the full parser, built once
        built = _parsers_built(argv, monkeypatch)
        assert [p.prog for p in built] == [top.prog, *(p.prog for p in subs)], argv
        assert [_options(p) for p in built[1:]] == [_options(p) for p in subs], argv


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_the_parser_declares_the_flag_table(name):
    declared = [(action.option_strings, action.dest, action.type, action.default,
                 isinstance(action, argparse._StoreTrueAction), action.help)
                for action in _subparsers(_build_parser())[name]._actions
                if not isinstance(action, argparse._HelpAction)]
    assert declared == [([option], flag.dest, flag.type, flag.default, flag.type is None,
                         flag.help) for option, flag in _FLAGS[name].items()]


@pytest.mark.parametrize("eta", [["--eta", "-1e-05"], ["--eta=-1e-05"]], ids=" ".join)
def test_a_negative_exponent_value_reads_as_the_full_parser_reads_it(eta, capsys):
    # argparse on Python 3.10 to 3.13.0 reads a spaced -1e-05 as an option, so
    # --eta lacks its value; the "=" form reads it on every version
    argv = ["spectrum", *eta, "--lambda", "1"]
    outcome = _parse_outcome(_parse_args, argv, capsys)
    assert outcome == _parse_outcome(_build_parser().parse_args, argv, capsys)
    if len(eta) == 1:
        assert outcome[0]["eta"] == -1e-05


def test_an_explicit_double_dash_value_is_the_value(tmp_path, monkeypatch, capsys):
    # argparse 3.10 to 3.12 drop the "--" of --eta=-- and store []; the full
    # parser reads it as "--", as argparse 3.13.0 does
    assert main(["spectrum", "--eta=--", "--lambda", "1"]) == 2
    err = capsys.readouterr().err
    assert "'--'" in err and "[]" not in err
    monkeypatch.chdir(tmp_path)
    assert main(["spectrum", "--eta", "0.5", "--lambda", "1", "--out=--"]) == 0
    assert [path.name for path in tmp_path.iterdir()] == ["--"]
    assert (tmp_path / "--").read_text().startswith("n,delta1,")


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_an_explicit_double_dash_value_reads_as_any_other_value(sub, tmp_path, monkeypatch,
                                                                capsys):
    # each flag converts "--" with its type and reports it as it reports x, on
    # every supported Python
    monkeypatch.chdir(tmp_path)  # --out=x and --out=-- write there
    for option, flag in _FLAGS[sub].items():
        if flag.type is not None:
            rc, _, err = run([sub, *_OUT_RUNS[sub], f"{option}=x"], capsys)
            assert run([sub, *_OUT_RUNS[sub], f"{option}=--"], capsys)[::2] == (
                rc, err.replace("'x'", "'--'")), option


# Tokens only a parser reads: help, abbreviations, a switch with "=", "--", unknown flags.
_PARSER_ONLY = ["-h", "--help", "--et", "--co", "--ou", "--n", "--dump", "--et=0.5", "--ou=-",
                "--dump-config=1", "--", "--no-such-flag", "-e"]
_VALUES = ["0.5", "1", "0", "5", "-0.3", "-.5", "-5", "-1e-3", "-", "--", "", "=", "1.2.3", "x",
           "4_000", "nan", "-nan", "inf", "1e999", "2,3", "-1,1,0,10", "2.5,3", "1,2,3",
           "out.json", " 5", "-5 "]
# values each flag type converts, so that many drawn command lines are plain
_READABLE = {float: ["0.5", "1", "-0.3", "-.5", "-5", "-1e-3", "4_000", "nan", "1e999", " 5"],
             int: ["1", "5", "-5", "4_000"],
             str: ["-", "out.json", "", "=", "nan", "-5", "-x", "x"],
             _FLAGS["verdict"]["--box"].type: ["-1,1,0,10", "2,3", "nan,1", "-5"],
             _FLAGS["verdict"]["--grid"].type: ["2,3", "1,2,3", "-5,4"]}
_OPTIONS = sorted({option for flags in _FLAGS.values() for option in flags})


def _flag_and_value(option, flag):
    """A flag and a value, three times in four one that its type reads, as two
    tokens or as ``option=value``; a switch alone, or one time in two followed
    by a value or joined to one by ``=``."""
    if flag.type is None:
        values = st.sampled_from(_VALUES)
        alone = [st.just((option,))] * 2
    else:
        readable = st.sampled_from(_READABLE[flag.type])
        values = st.one_of(readable, readable, readable, st.sampled_from(_VALUES))
        alone = []
    return st.one_of(*alone, values.map(lambda value: (option, value)),
                     values.map(lambda value: (f"{option}={value}",)))


def _argv(sub):
    """``sub`` and up to six of its flags with values, between single tokens of any kind."""
    flags = sorted(_FLAGS.get(sub, _FLAGS["verdict"]).items())
    pair = st.one_of([_flag_and_value(option, flag) for option, flag in flags])
    single = st.sampled_from(_OPTIONS + _PARSER_ONLY + _VALUES).map(lambda token: (token,))
    items = st.lists(st.one_of(pair, pair, pair, pair, pair, single), max_size=6)
    return items.map(lambda items: [sub, *(token for item in items for token in item)])


def _plain_form(argv):
    """Whether ``argv`` is a subcommand and exact option strings of its flags,
    each switch alone and each other flag with a value: the text after its
    first "=" (not "--", which argparse drops), or a next token that does not
    start with "-"."""
    if not argv or argv[0] not in _FLAGS:
        return False
    flags = _FLAGS[argv[0]]
    tokens = iter(argv[1:])
    for token in tokens:
        option, *explicit = token.split("=", 1)
        flag = flags.get(option)
        if flag is None or (flag.type is None and explicit) or explicit == ["--"]:
            return False
        if flag.type is not None and not explicit and next(tokens, "-").startswith("-"):
            return False
    return True


@functools.lru_cache(maxsize=None)
def _full_parser():
    return _build_parser()


@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(st.one_of([_argv(sub) for sub in [*SUBCOMMANDS, *SUBCOMMANDS, "surfac", "-h"]]))
@example(["surface", "--box=-1,1,0,10"])
@example(["verdict", "--eta=-1e-05", "--lambda", "1"])
@example(["spectrum", *_POINT, "--out="])
@example(["spectrum", *_POINT, "--out=="])
@example(["spectrum", "--eta=", "--lambda", "1"])
@example(["spectrum", "--eta=0.5=1", "--lambda", "1"])
@example(["verdict", *_POINT, "--control-well="])
@example(["spectrum", *_POINT, "--out=--"])
@example(["spectrum", *_POINT, "--dump-config="])
@example(["verdict", *_POINT, "--dump-config=1"])
@example(["verdict", "--et=0.5", "--lambda", "1"])
def test_the_plain_reader_agrees_with_the_full_parser(argv):
    plain = _read_plain(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            full = vars(_full_parser().parse_args(argv))
    except (SystemExit, Exception):
        assert plain is None, argv
        return
    if _plain_form(argv):
        assert plain is not None, argv
    if plain is not None:
        # repr compares nan equal to nan, and list() keeps the key order
        assert repr(list(vars(plain).items())) == repr(list(full.items())), argv
    if any(token in _PARSER_ONLY for token in argv):
        assert plain is None, argv


def test_main_reads_sys_argv(monkeypatch, capsys):
    argv = ["spectrum", "--eta", "0.5", "--lambda", "1"]
    assert main(argv) == 0
    expected = capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["pdm-dirac", *argv])
    assert main() == 0
    assert capsys.readouterr() == expected


# small runs of each subcommand that write an --out file and exit 0
_OUT_RUNS = {
    "surface": ["--grid", "3,3"],
    "spectrum": ["--eta", "0.5", "--lambda", "1"],
    "verdict": ["--eta", "0.5", "--lambda", "1", "--N", "2000", "--grid", "11,11"],
    "potential": ["--eta", "0.5", "--lambda", "1", "--N", "5"],
}
_MODE_PROBE = f"""
import os, sys
os.umask(int(sys.argv[1], 8))
from pdm_dirac.cli import main
runs = {_OUT_RUNS!r}
for sub, args in runs.items():
    status = main([sub, *args, "--out", sub + ".out"])
    if status != 0:
        sys.exit(f"{{sub}} exited {{status}}")
"""


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
def test_out_files_get_the_mode_of_a_plain_open(umask, tmp_path):
    # the temp file is created as open creates a file, 0666 less the umask, and renamed
    subprocess.run([sys.executable, "-c", _MODE_PROBE, format(umask, "o")], env=_fresh_env(),
                   cwd=tmp_path, capture_output=True, timeout=120, check=True)
    modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in tmp_path.iterdir()}
    assert modes == {f"{sub}.out": 0o666 & ~umask for sub in SUBCOMMANDS}


def _acl_directory(path):
    """``path`` with the default ACL user::rw-, group::rw-, mask::rw-, other::r--
    (the xattr's version 2, then one tag, permission, id entry each), or a skip
    where the filesystem refuses it."""
    entries = ((0x01, 6), (0x04, 6), (0x10, 6), (0x20, 4))
    value = struct.pack("<I", 2) + b"".join(struct.pack("<HHI", tag, perm, 0xFFFFFFFF)
                                            for tag, perm in entries)
    try:
        os.setxattr(path, "system.posix_acl_default", value)
    except (AttributeError, OSError) as exc:
        pytest.skip(f"no default ACL here: {exc}")


def test_out_files_get_the_mode_of_a_plain_open_under_a_default_acl(tmp_path):
    # under a default ACL the kernel masks the mode asked for at creation with
    # the ACL, not the umask; a chmod to 0666 less the umask afterwards gives 0644
    _acl_directory(tmp_path)
    env = _fresh_env()
    subprocess.run([sys.executable, "-c", _MODE_PROBE, "022"], env=env, cwd=tmp_path,
                   capture_output=True, timeout=120, check=True)
    subprocess.run([sys.executable, "-c", "import os; os.umask(0o022); open('plain', 'w')"],
                   env=env, cwd=tmp_path, timeout=120, check=True)
    modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in tmp_path.iterdir()}
    assert modes.pop("plain") == 0o664
    assert modes == {f"{sub}.out": 0o664 for sub in SUBCOMMANDS}


def test_out_writes_leave_the_process_umask_alone(monkeypatch, tmp_path, capsys):
    def umask(mask):
        raise AssertionError("an --out write set the process umask")

    monkeypatch.setattr(os, "umask", umask)
    for sub, args in _OUT_RUNS.items():
        rc, _, err = run([sub, *args, "--out", str(tmp_path / f"{sub}.out")], capsys)
        assert (rc, err) == (0, ""), sub
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
        f"{sub}.out" for sub in SUBCOMMANDS)


# open raises EISDIR for a name that ends in a separator, missing or not, once
# the directories before it resolve (ENOENT, ENOTDIR where they do not)
@pytest.mark.parametrize("target", ["missing/x.csv", "directory", "", "nod/", "directory/",
                                    "missing/x/", "directory/inside/x/"])
@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_a_failed_write_reads_as_plain_open_error(sub, target, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)  # "" names no file in the working directory
    (tmp_path / "directory").mkdir()
    (tmp_path / "directory" / "inside").write_text("kept\n")
    out = os.path.join(tmp_path, target) if target else ""  # keeps a trailing "/"
    with pytest.raises(OSError) as opened:
        open(out, "w")
    before = sorted(tmp_path.rglob("*"))
    outcomes = [run([sub, *_OUT_RUNS[sub], "--out", out], capsys) for _ in range(2)]
    assert outcomes == [(2, "", f"error: cannot write output: {opened.value}\n")] * 2
    assert sorted(tmp_path.rglob("*")) == before


def test_a_symlink_at_out_is_replaced_not_written_through(tmp_path, capsys):
    (tmp_path / "target.csv").write_text("kept\n")
    (tmp_path / "link.csv").symlink_to("target.csv")
    rc, _, _ = run(["spectrum", *_OUT_RUNS["spectrum"], "--out", str(tmp_path / "link.csv")],
                   capsys)
    assert rc == 0
    assert not (tmp_path / "link.csv").is_symlink()
    assert (tmp_path / "link.csv").read_text().startswith("n,delta1,")
    assert (tmp_path / "target.csv").read_text() == "kept\n"


def test_error_while_streaming_a_table_writes_nothing(monkeypatch, tmp_path, capsys):
    # 2 x 5000 nodes are four pieces: two lambda chunks of each eta row
    calls = []

    def failing_f_grid(eta_nodes, lam_nodes):
        calls.append(eta_nodes.size * lam_nodes.size)
        if len(calls) == 2:
            raise EvaluationError("second piece failed")
        return np.zeros((eta_nodes.size, lam_nodes.size))

    monkeypatch.setattr("pdm_dirac.cli._f_grid", failing_f_grid)
    for out in (str(tmp_path / "s.csv"), "-"):
        calls.clear()
        rc, stdout, err = run(["surface", "--grid", "2,5000", "--out", out], capsys)
        assert rc == 2 and "second piece failed" in err
        assert stdout == ""
        assert calls == [4096, 904]
    assert list(tmp_path.iterdir()) == []  # the temp file is gone too


_MODULE_PROBE = """
import json, sys
import pdm_dirac.cli as cli
package = sys.argv[1]
status = cli.main(sys.argv[2:])
print(json.dumps([status, sorted(m for m in sys.modules
                                 if m == package or m.startswith(package + "."))]))
"""


def _fresh_env():
    """The environment of a fresh interpreter that imports this package."""
    src = str(Path(pdm_dirac.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def _fresh_run(package, argv, tmp_path):
    """Exit status of main(argv) in a fresh interpreter, and the modules of
    package it loaded (this interpreter has them all)."""
    proc = subprocess.run([sys.executable, "-c", _MODULE_PROBE, package, *argv], env=_fresh_env(),
                          cwd=tmp_path, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_surface_does_not_import_numpy_ma(tmp_path):
    # plain np.unique imports numpy.ma (about 18 ms) on its first call
    rc, loaded = _fresh_run("numpy.ma", ["surface", "--grid", "5,5", "--out", "-"], tmp_path)
    assert rc == 0
    assert loaded == []


@pytest.mark.parametrize("extra,status", [([], 0), (["--control-well"], 3)])
def test_scipy_loads_only_on_the_eigen_path(extra, status, tmp_path):
    argv = ["verdict", "--eta", "0.5", "--lambda", "1", *extra, "--out", str(tmp_path / "v.json")]
    rc, loaded = _fresh_run("scipy", argv, tmp_path)
    assert rc == status
    if extra:
        assert "scipy.linalg" in loaded  # the control well diagonalizes
    else:
        assert loaded == []  # the model's Sturm count finds nothing below the edge


def test_model_verdict_does_not_import_numpy_random(tmp_path):
    # a verdict draws no random numbers; importing numpy.random costs about 22 ms
    argv = ["verdict", "--eta", "0.5", "--lambda", "1", "--out", str(tmp_path / "v.json")]
    rc, loaded = _fresh_run("numpy.random", argv, tmp_path)
    assert rc == 0
    assert loaded == []


_DISPATCH_PROBE = """
import sys
from pdm_dirac.cli import main
runs = {
    "surface.csv": ["surface", "--grid", "201,201", "--box=-0.9,0.95,1e-3,7"],
    "verdict.json": ["verdict", "--eta", "0.5", "--lambda", "1", "--grid", "401,401"],
}
for name, argv in runs.items():
    status = main([*argv, "--out", name])
    if status != 0:
        sys.exit(f"{argv[0]} exited {status}")
"""


def _dispatch_levels():
    """``NPY_DISABLE_CPU_FEATURES`` values, one per SIMD level this host runs:
    all of its dispatch targets, none of AVX512 (numpy 2's ``X86_V4`` and the
    ``AVX512_*`` targets, numpy 1.x's ``AVX512F``, ``AVX512_SKX``, ...), and
    numpy's baseline alone."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    avx512 = [t for t in targets if t.startswith("AVX512") or t == "X86_V4"]
    return list(dict.fromkeys(["", " ".join(avx512), " ".join(targets)]))


def test_grid_outputs_do_not_depend_on_simd_dispatch(tmp_path):
    # numpy picks its tanh and cosh kernels from the CPU; f on grids uses only
    # correctly rounded IEEE operations, so surface and the model verdict at
    # the default L (where tanh saturates) keep their bytes at every level
    levels = _dispatch_levels()
    if len(levels) == 1:
        pytest.skip("this host has no numpy SIMD level above the baseline to compare with")
    for i, disabled in enumerate(levels):
        (tmp_path / str(i)).mkdir()  # the verdict records its --out path
        env = dict(_fresh_env(), NPY_DISABLE_CPU_FEATURES=disabled)
        subprocess.run([sys.executable, "-c", _DISPATCH_PROBE], env=env, cwd=tmp_path / str(i),
                       capture_output=True, timeout=120, check=True)
    for name in ("surface.csv", "verdict.json"):
        outputs = {(tmp_path / str(i) / name).read_bytes() for i in range(len(levels))}
        assert len(outputs) == 1, f"{name} differs across dispatch levels {levels}"


@pytest.mark.parametrize("eta,alpha,box_modes", [("0.01", "0.01", 441), ("0.1", "0.02", 109)])
def test_small_alpha_verdict_is_certified_above_the_box_modes(eta, alpha, box_modes, tmp_path,
                                                              capsys):
    # up to 1.1 * edge the operator holds hundreds of box modes; the Weyl
    # margin still certifies that none lies below the edge
    params = PhysicalParams(1.0, float(eta), float(alpha))
    op = solver.build_hamiltonian(params, solver.Discretization.for_params(params))
    assert solver.sturm_count(op, 1.1 * solver.continuum_edge(params)) == box_modes
    out = tmp_path / "verdict.json"
    rc, _, _ = run(["verdict", "--eta", eta, "--alpha", alpha, "--out", str(out)], capsys)
    assert rc == 0
    doc = json.loads(out.read_text(), parse_constant=_refuse_constant)
    assert doc["error_trail"] == []
    numeric = doc["comparison"]["numeric"]
    assert "slice_count" not in numeric
    assert numeric["weyl_margin"] > numeric["count_error_bound"]
    assert numeric["bound_candidates"] == []


def test_edge_count_that_contradicts_the_weyl_margin_is_inconclusive(monkeypatch, tmp_path,
                                                                     capsys):
    # a certified model operator whose edge count reads 1: the verdict does
    # not report a candidate, it reports the contradiction and exits 4
    monkeypatch.setattr(solver, "sturm_count", lambda op, sigma: 1)
    out = tmp_path / "verdict.json"
    rc, _, _ = run(["verdict", "--eta", "0.5", "--lambda", "1", "--out", str(out)], capsys)
    assert rc == 4
    doc = json.loads(out.read_text())
    [error] = doc["error_trail"]
    assert error.startswith("solver: CertificateViolation: Weyl margin ")
    assert error.endswith(" 1 eigenvalue(s) counted below the edge 0.25")
    assert "comparison" not in doc and doc["statement"] == "Inconclusive"


def test_an_inconsistent_count_in_the_locator_is_inconclusive(monkeypatch, tmp_path, capsys):
    # the control well's margin certifies nothing, so its edge count of 1
    # goes to the locator, which finds the count 1 at the Gershgorin end too
    monkeypatch.setattr(solver, "sturm_count", lambda op, sigma: 1)
    out = tmp_path / "verdict.json"
    rc, _, err = run(["verdict", "--eta", "0.5", "--lambda", "1", "--control-well", "--N", "2000",
                      "--grid", "11,11", "--out", str(out)], capsys)
    assert rc == 4 and "Traceback" not in err
    doc = json.loads(out.read_text())
    [error] = doc["error_trail"]
    assert error.startswith("solver: EvaluationError: inconsistent Sturm count 1 at ")
    assert "comparison" not in doc and doc["statement"] == "Inconclusive"


def test_level_energy_overflow_keeps_the_numeric_side(tmp_path, capsys):
    # E_0^2 leaves the double range: the run is inconclusive, but the numeric
    # route still runs and is reported beside the analytic error
    out = tmp_path / "verdict.json"
    rc, _, _ = run(["verdict", "--eta", "1", "--M0", "1e-100", "--alpha", "1e60",
                    "--out", str(out)], capsys)
    assert rc == 4
    doc = json.loads(out.read_text(), parse_constant=_refuse_constant)
    comparison = doc["comparison"]
    assert comparison["analytic_error"].startswith("EvaluationError: ")
    assert comparison["analytic_entries"] == []
    assert comparison["numeric"]["empty_real_spectrum"] is True
    assert "solver: " + comparison["analytic_error"] in doc["error_trail"]


def test_certificate_violation_lands_in_error_trail(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(feasibility, "f_factored", lambda eta, lam: 1.0)
    with pytest.raises(CertificateViolation):
        feasibility.sign_certificate(0.5, 1.0)
    with pytest.raises(CertificateViolation):
        feasibility.sign_certificate(0.5, 0.0)  # boundary identity f(eta, 0) = 0
    with pytest.raises(CertificateViolation):
        feasibility.evaluate_point(0.5, 1.0)  # the two routes disagree
    out = tmp_path / "verdict.json"
    rc, _, _ = run(
        ["verdict", "--eta", "0.5", "--lambda", "1", "--N", "800", "--grid", "11,11",
         "--out", str(out)],
        capsys,
    )
    assert rc == 4
    [entry] = json.loads(out.read_text())["error_trail"]
    assert entry.startswith("feasibility: CertificateViolation:")


def test_point_route_disagreement_lands_in_error_trail(monkeypatch, tmp_path, capsys):
    # off by 1e-8 at the given point alone: the sign certificate still holds,
    # the comparison of the two routes there does not
    monkeypatch.setattr(feasibility, "f_direct",
                        lambda eta, lam: f_direct(eta, lam) + 1e-8 * ((eta, lam) == (0.5, 1.0)))
    out = tmp_path / "verdict.json"
    rc, _, _ = run(
        ["verdict", "--eta", "0.5", "--lambda", "1", "--N", "800", "--grid", "11,11",
         "--out", str(out)],
        capsys,
    )
    assert rc == 4
    doc = json.loads(out.read_text())
    [entry] = doc["error_trail"]
    assert entry.startswith("feasibility: CertificateViolation: route disagreement")
    assert "feasibility" not in doc
    assert doc["statement"] == "Inconclusive"


def test_grid_above_certified_corner_lands_in_error_trail(monkeypatch, tmp_path, capsys):
    # halved, every grid value is still negative but above the corner value
    f_grid = feasibility._f_grid
    monkeypatch.setattr(feasibility, "_f_grid", lambda eta, lam: 0.5 * f_grid(eta, lam))
    out = tmp_path / "verdict.json"
    rc, _, _ = run(
        ["verdict", "--eta", "0.5", "--lambda", "1", "--N", "800", "--grid", "11,11",
         "--out", str(out)],
        capsys,
    )
    assert rc == 4
    doc = json.loads(out.read_text())
    [entry] = doc["error_trail"]
    assert entry.startswith("feasibility: CertificateViolation: grid value")
    assert "feasibility" not in doc
    assert doc["statement"] == "Inconclusive"


def test_a_box_where_f_overflows_lands_in_error_trail(tmp_path, capsys):
    # every node overflows at lambda = 1e160; the scan refuses the box on its
    # extreme nodes
    out = tmp_path / "verdict.json"
    rc, _, _ = run(["verdict", "--eta", "0.5", "--lambda", "1", "--box=0.1,0.9,1e150,1e160",
                    "--grid", "400,2001", "--out", str(out)], capsys)
    assert rc == 4
    trail = json.dumps(json.loads(out.read_text())["error_trail"])
    assert "feasibility: InvalidBox: f is not finite on the box" in trail


def test_a_refused_solve_lands_in_error_trail(monkeypatch, tmp_path, capsys):
    def singular_dgtsv(dl, d, du, b):
        return dl, d, du, np.zeros_like(b), 1

    # the shift-and-invert kernel imports dgtsv from scipy.linalg.lapack when
    # it is called: every refinement is refused, so the locator bisects with
    # counts, and the eigenvector cannot be computed
    monkeypatch.setattr(lapack, "dgtsv", singular_dgtsv)
    op = solver.build_hamiltonian(
        PhysicalParams(1.0, 0.5, 1.0), solver.Discretization(25.0, 2000),
        potential=solver.poschl_teller_well,
    )
    [value] = solver.eigenvalues_below(op, 1.0)
    assert abs(value) < 2e-3
    with pytest.raises(EvaluationError, match="shift-and-invert solve"):
        solver.eigenvector(op, value)
    out = tmp_path / "verdict.json"
    rc, _, err = run(
        ["verdict", "--eta", "0.5", "--lambda", "1", "--control-well", "--N", "2000",
         "--grid", "11,11", "--out", str(out)],
        capsys,
    )
    assert rc == 4 and "Traceback" not in err
    [entry] = json.loads(out.read_text())["error_trail"]
    assert entry.startswith("solver: EvaluationError: the shift-and-invert solve at E^2 = ")
