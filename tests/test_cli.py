"""Exit-status contract, determinism, and file formats of the CLI."""

import json

import numpy as np
import pytest

from pdm_dirac import (
    CertificateViolation,
    EvaluationError,
    PhysicalParams,
    f_factored,
    potential_sample,
)
from pdm_dirac import feasibility, solver
from pdm_dirac.cli import main


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


def test_surface_unrepresentable_box_exits_2(capsys):
    rc, out, err = run(["surface", "--box=-1,1,-1,1", "--out", "-"], capsys)
    assert rc == 2
    assert out == ""
    assert "lambda must be >= 0" in err
    # u underflows at lambda = 1e300: rejected, never written as inf or nan
    rc, out, err = run(
        ["surface", "--box=0.5,0.6,1e300,1e300", "--grid", "3,3", "--out", "-"], capsys
    )
    assert rc == 2
    assert out == ""
    assert "InvalidBox" in err


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
        fields = (s.x, s.mass, s.vector_potential.imag, s.v_eff)
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
    rc, out, _ = run(
        ["verdict", "--eta", "0.5", "--lambda", "1", "--dump-config"], capsys
    )
    assert rc == 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(out)
    rc, out2, _ = run(["verdict", "--config", str(cfg_path), "--dump-config"], capsys)
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
    assert doc["evidence"]["certificate_nonnegative_points"] == []
    assert doc["evidence"]["localized_bound_states"] == []
    assert doc["feasibility"]["supremum"]["all_nodes_negative"] is True
    assert doc["feasibility"]["point_certificate"]["sign_verdict"] == "Negative"
    assert doc["feasibility"]["route_agreement"]["ok"] is True
    assert doc["comparison"]["consistent"] is True


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
    (["verdict", "--eta", "0.5", "--lambda", "1", "--L=-1"], 4, ["ParameterError"]),
    (["verdict", "--eta", "0.5", "--lambda", "1", "--box=0.5,0.6,1e300,1e300",
      "--grid", "3,3"], 4, ["InvalidBox"]),
    (["verdict", "--eta", "0.5", "--lambda", "1", "--box=-1,1,-1,1"], 4, ["NegativeLambda"]),
    (["verdict", "--eta", "0", "--lambda", "7.236101064699175e74"], 4, ["ParameterError"]),
    (["verdict", "--eta", "0.5", "--lambda", "1", "--box=0.5,1,1e-9,1e-8", "--grid", "2,2",
      "--N", "800"], 0, []),
    (["verdict", "--eta", "0.5", "--M0", "1e200", "--alpha", "1"], 4, ["ParameterError"]),
    (["surface", "--box=0,0,-1,1"], 2, ["lambda must be >= 0"]),
    (["surface", "--box=0.1,0.1,-1,1"], 2, ["lambda must be >= 0"]),
    (["surface", "--box=0.5,0.6,1e300,1e300", "--grid", "3,3"], 2, ["InvalidBox"]),
    (["surface", "--box=0.5,0.5,0,1.7976931348623157e308", "--grid", "2,4"], 2,
     ["InvalidBox"]),
    (["spectrum", "--eta", "0.5", "--lambda", "1e-300"], 2, ["LambdaZero"]),
    (["spectrum", "--eta", "1e-300", "--lambda", "1e-300"], 2, ["LambdaZero"]),
    (["potential", "--eta", "0.5", "--lambda", "1", "--L", "1e308", "--N", "3"], 2,
     ["leaves the double range"]),
    (["spectrum", "--eta", "0.5", "--lambda", "1", "--n-max", "100001"], 2, ["n_max"]),
    (["verdict", "--eta", "0.5", "--lambda", "1", "--n-max", "100001"], 2, ["n_max"]),
]


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
        trail = json.loads(out.read_text())["error_trail"]
        assert [name for name in errors if any(name in entry for entry in trail)] == errors
        assert len(trail) == len(errors)


@pytest.mark.parametrize("eta,alpha,slice_count", [("0.01", "0.01", 441), ("0.1", "0.02", 109)])
def test_small_alpha_verdict_counts_the_slice(eta, alpha, slice_count, tmp_path, capsys):
    out = tmp_path / "verdict.json"
    rc, _, _ = run(["verdict", "--eta", eta, "--alpha", alpha, "--out", str(out)], capsys)
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["error_trail"] == []
    assert doc["comparison"]["numeric"]["slice_count"] == slice_count
    assert doc["comparison"]["numeric"]["bound_candidates"] == []


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


def test_dstein_failure_lands_in_error_trail(monkeypatch, tmp_path, capsys):
    def failing_dstein(d, e, w, iblock, isplit):
        return np.zeros((d.size, w.size), order="F"), 1

    monkeypatch.setattr(solver, "dstein", failing_dstein)
    op = solver.build_hamiltonian(
        PhysicalParams(1.0, 0.5, 1.0), solver.Discretization(25.0, 2000),
        potential=solver.poschl_teller_well,
    )
    with pytest.raises(EvaluationError):
        solver.eigenvector(op, 0.0)
    out = tmp_path / "verdict.json"
    rc, _, _ = run(
        ["verdict", "--eta", "0.5", "--lambda", "1", "--control-well", "--N", "2000",
         "--grid", "11,11", "--out", str(out)],
        capsys,
    )
    assert rc == 4
    [entry] = json.loads(out.read_text())["error_trail"]
    assert entry.startswith("solver: EvaluationError: LAPACK dstein failed (info=1)")
