import argparse
import json
import os
import resource
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from maxconf import (
    SymmetricFamily,
    build_symmetric_ensemble,
    cli,
    solver,
    square_root_measurement,
    verify_certificate,
)
from maxconf.cli import main
from maxconf.operators import CERT_TOL
from maxconf.serialize import (
    CSV_DIGITS,
    array_to_json,
    certificate_to_json,
    detection_from_json,
    dual_from_certificate_json,
    dump_json,
    ensemble_from_json,
    ensemble_to_json,
)
from conftest import pure_qubit_pair, random_ensemble, rank_raised_dual, short_budget


def write_ensemble(path, ensemble):
    path.write_text(dump_json(ensemble_to_json(ensemble)) + "\n", encoding="utf-8")


@pytest.fixture
def trine_file(tmp_path, trine):
    p = tmp_path / "trine.json"
    write_ensemble(p, trine)
    return p


def test_validate_ok(trine_file, capsys):
    assert main(["validate", "--input", str(trine_file)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True


def test_validate_reports_violations(tmp_path, capsys):
    obj = {
        "dim": 2,
        "states": [
            {"prior": 0.7, "matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]},
            {"prior": 0.7, "matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]},
        ],
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["validate", "--input", str(p)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert not out["ok"]


def test_state_whose_adjoint_sum_overflows_is_refused(tmp_path, capsys):
    # [[0.5, 1e308], [1e308, 0.5]] is finite with eigenvalue 0.5 - 1e308;
    # validate lists it and solve refuses it as an input error
    p = tmp_path / "overflow.json"
    state = [[0.5, 1e308], [1e308, 0.5]]
    p.write_text(json.dumps({"dim": 2, "states": [
        {"prior": 0.5, "matrix": [[[x, 0.0] for x in row] for row in state]}] * 2}), encoding="utf-8")
    assert main(["validate", "--input", str(p)]) == 1
    assert [v["name"] for v in json.loads(capsys.readouterr().out)["violations"]] == ["state_positivity"]
    assert main(["solve", "--input", str(p)]) == 2
    assert "ensemble fails validation: state_positivity" in capsys.readouterr().err


@pytest.mark.parametrize("state, violations", [
    ([[1.7e308, 1.7e308], [1.7e308, 1.7e308]], [("state_trace", None)]),
    ([[1e308, 1.7e308], [1.7e308, -1e308]], [("state_positivity", None), ("state_trace", 1.0)]),
], ids=["psd", "indefinite"])
def test_state_whose_eigenvalue_overflows_is_refused(tmp_path, capsys, state, violations):
    # a finite state with an eigenvalue past the float range: LAPACK returns
    # inf, a value and not its NaN failure mark, so validate lists the
    # violation (an inf magnitude is null in strict JSON) and solve refuses
    # the file as an input error
    p = tmp_path / "eigen_overflow.json"
    p.write_text(json.dumps({"dim": 2, "states": [
        {"prior": 0.5, "matrix": [[[x, 0.0] for x in row] for row in state]}] * 2}), encoding="utf-8")
    assert main(["validate", "--input", str(p)]) == 1
    assert [(v["name"], v["magnitude"]) for v in json.loads(capsys.readouterr().out)["violations"]] == violations
    assert main(["solve", "--input", str(p)]) == 2
    assert "ensemble fails validation: " in capsys.readouterr().err


def test_missing_file_is_input_error(tmp_path):
    assert main(["validate", "--input", str(tmp_path / "nope.json")]) == 2


def test_malformed_json_is_input_error(tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("{not json", encoding="utf-8")
    assert main(["solve", "--input", str(p)]) == 2


def test_solve_writes_solution_file(trine_file, tmp_path):
    out = tmp_path / "solution.json"
    rc = main(["solve", "--input", str(trine_file), "--output", str(out)])
    assert rc == 0
    obj = json.loads(out.read_text(encoding="utf-8"))
    for key in ("ensemble", "report", "detection", "certificate"):
        assert key in obj
    assert obj["report"]["mode"] == "analytic"
    assert obj["report"]["certified"] is True
    assert obj["certificate"]["accepted"] is True


def test_solve_numeric_mode(trine_file, tmp_path):
    out = tmp_path / "solution.json"
    rc = main(["solve", "--input", str(trine_file), "--mode", "numeric", "--output", str(out)])
    assert rc == 0
    obj = json.loads(out.read_text(encoding="utf-8"))
    assert obj["report"]["mode"] == "numeric"
    assert abs(obj["report"]["detection_rate"] - 1.0) < 1e-6
    assert 0.0 < obj["report"]["duality_gap"] <= 1e-8


def test_solve_check_cross_checks(trine_file, tmp_path):
    out = tmp_path / "solution.json"
    rc = main(["solve", "--input", str(trine_file), "--check", "--output", str(out)])
    assert rc == 0
    obj = json.loads(out.read_text(encoding="utf-8"))
    cc = obj["cross_check"]
    assert cc["available"] is True
    assert cc["rate_deviation"] < 1e-6
    # the other route's whole report, then the two deviations
    assert list(cc) == ["available", *obj["report"], "rate_deviation", "confidence_deviation"]
    assert cc["mode"] == "numeric" and cc["certified"] is True
    assert cc["rate_deviation"] == abs(cc["detection_rate"] - obj["report"]["detection_rate"])


def test_solve_unattainable_tolerance(trine_file, tmp_path):
    # a numeric solve certifies at CERT_TOL; verify judges its file at the
    # tolerance it is given, and the file itself keeps the solver's verdict
    solution, checked = tmp_path / "solution.json", tmp_path / "checked.json"
    assert main(["solve", "--input", str(trine_file), "--mode", "numeric", "--output", str(solution)]) == 0
    assert json.loads(solution.read_text(encoding="utf-8"))["report"]["certified"] is True
    assert main(["verify", "--input", str(solution), "--tol", "1e-16", "--output", str(checked)]) == 1
    cert = json.loads(checked.read_text(encoding="utf-8"))["certificate"]
    assert cert["accepted"] is False and cert["tol"] == 1e-16


def test_solve_not_converged_exits_three(trine_file, tmp_path, monkeypatch, capsys):
    argv = ["solve", "--input", str(trine_file), "--mode", "numeric", "--output", str(tmp_path / "solution.json")]
    monkeypatch.setattr(solver, "MAX_ITERATIONS", short_budget(monkeypatch, lambda: main(argv)))
    rc = main(argv)
    assert rc == 3
    assert "solver did not converge" in capsys.readouterr().err


def test_sweep_not_converged_exits_three(tmp_path, monkeypatch, capsys):
    p = tmp_path / "family.json"
    p.write_text(json.dumps({"family": "qubit-mixed", "order": 3}), encoding="utf-8")
    argv = ["sweep", "--input", str(p), "--grid", "angle:0.2:1.2:3", "--check"]
    monkeypatch.setattr(solver, "MAX_ITERATIONS", short_budget(monkeypatch, lambda: main(argv)))
    rc = main(argv)
    assert rc == 3
    assert "solver did not converge" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "solve", "sweep"])
def test_only_verify_takes_tol(command, trine_file, tmp_path, capsys):
    # a tolerance is a parameter of the certificate check, which only verify
    # runs at a tolerance other than CERT_TOL
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", str(trine_file), "--tol", "1e-3", "--output", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err
    assert not out.exists()


_IO = [
    (["-h", "--help"], "help", None, None, argparse.SUPPRESS, False, "_HelpAction"),
    (["--input"], "input", None, None, None, True, "_StoreAction"),
    (["--output"], "output", None, None, None, False, "_StoreAction"),
]
_TOL = (["--tol"], "tol", cli._tolerance, None, None, False, "_StoreAction")
_CHECK = (["--check"], "check", None, None, False, False, "_StoreTrueAction")


def test_each_subcommand_keeps_its_options():
    # flags, dest, type, choices, default, required and action of every option
    subcommands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    expected = {
        "validate": (cli.cmd_validate, _IO),
        "solve": (cli.cmd_solve, [*_IO, (["--mode"], "mode", None, ("auto", "analytic", "numeric"),
                                         "auto", False, "_StoreAction"), _CHECK]),
        "verify": (cli.cmd_verify, [*_IO, _TOL, (["--witness"], "witness", None, None, False, False,
                                                 "_StoreTrueAction")]),
        "sweep": (cli.cmd_sweep, [*_IO, _CHECK, (["--grid"], "grid", None, None, None, False, "_StoreAction")]),
    }
    assert list(subcommands.choices) == list(expected)
    for name, (func, options) in expected.items():
        parser = subcommands.choices[name]
        assert parser.get_default("func") is func
        assert [(a.option_strings, a.dest, a.type, a.choices, a.default, a.required, type(a).__name__)
                for a in parser._actions] == options, name


def test_non_integral_dim_and_order_are_input_errors(trine, tmp_path, capsys):
    obj = ensemble_to_json(trine)
    for bad in ({"dim": 2.7}, {"dim": True}, {"symmetry": dict(obj["symmetry"], order=3.5)},
                {"states": [dict(obj["states"][0], prior="0.5")] + obj["states"][1:]}):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(dict(obj, **bad)), encoding="utf-8")
        assert main(["solve", "--input", str(p)]) == 2
    p = tmp_path / "family.json"
    p.write_text(json.dumps({"family": "qubit-mixed", "order": True}), encoding="utf-8")
    assert main(["sweep", "--input", str(p), "--grid", "angle:0.2:1.2:3"]) == 2
    p.write_text(json.dumps({"family": "flat-mixed", "order": 4, "dim": 2.5}), encoding="utf-8")
    assert main(["sweep", "--input", str(p), "--grid", "purity:0.2:1.0:3"]) == 2
    assert "expected an integer" in capsys.readouterr().err


@pytest.mark.parametrize("dim", [0, -2])
def test_flat_family_of_dimension_below_one_is_an_input_error(tmp_path, capsys, dim):
    p = tmp_path / "family.json"
    p.write_text(json.dumps({"family": "flat-mixed", "order": 3, "dim": dim}), encoding="utf-8")
    assert main(["sweep", "--input", str(p), "--grid", "purity:0.1:0.9:2"]) == 2
    assert f"dimension must be at least 1, got {dim}" in capsys.readouterr().err


def test_solve_asymmetric_uses_numeric(tmp_path):
    rng = np.random.default_rng(5)
    e = random_ensemble(rng, 2, 3)
    p = tmp_path / "asym.json"
    write_ensemble(p, e)
    out = tmp_path / "solution.json"
    assert main(["solve", "--input", str(p), "--output", str(out)]) == 0
    obj = json.loads(out.read_text(encoding="utf-8"))
    assert obj["report"]["mode"] == "numeric"


def test_verify_roundtrip(trine_file, tmp_path):
    out = tmp_path / "solution.json"
    main(["solve", "--input", str(trine_file), "--output", str(out)])
    assert main(["verify", "--input", str(out)]) == 0


def test_verify_reads_an_ensemble_with_the_old_symmetry_reference(trine_file, tmp_path):
    # ensemble files once carried the orbit's first state again as
    # symmetry.reference; the key is ignored
    out = tmp_path / "solution.json"
    main(["solve", "--input", str(trine_file), "--output", str(out)])
    obj = json.loads(out.read_text(encoding="utf-8"))
    assert "reference" not in obj["ensemble"]["symmetry"]
    obj["ensemble"]["symmetry"]["reference"] = [[0.7071067811865475, 0.0], [0.7071067811865475, 0.0]]
    out.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["verify", "--input", str(out)]) == 0


def test_verify_refuses_non_hermitian_detection_operators(trine_file, tmp_path, capsys):
    # 0.3i sigma_x moved from Pi_2 to Pi_1 keeps the Hermitian parts and
    # every real part the certificate reads
    out = tmp_path / "solution.json"
    main(["solve", "--input", str(trine_file), "--output", str(out)])
    obj = json.loads(out.read_text(encoding="utf-8"))
    ops = detection_from_json(obj["detection"]).operators
    kick = 0.3j * np.array([[0.0, 1.0], [1.0, 0.0]])
    ops[1] += kick
    ops[2] -= kick
    obj["detection"]["operators"] = array_to_json(ops)
    out.write_text(json.dumps(obj), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", "--input", str(out)]) == 2
    assert "detection set deviates from Hermiticity" in capsys.readouterr().err


def test_verify_refuses_a_non_hermitian_dual(trine_file, tmp_path, capsys):
    # 0.3i sigma_x leaves Z's Hermitian part, all the certificate reads, as it is
    out = tmp_path / "solution.json"
    main(["solve", "--input", str(trine_file), "--output", str(out)])
    obj = json.loads(out.read_text(encoding="utf-8"))
    z = dual_from_certificate_json(obj["certificate"]) + 0.3j * np.array([[0.0, 1.0], [1.0, 0.0]])
    obj["certificate"]["z"] = array_to_json(z)
    out.write_text(json.dumps(obj), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", "--input", str(out), "--witness"]) == 2
    assert "dual Z deviates from Hermiticity" in capsys.readouterr().err


def test_verify_rejects_corrupted_dual(trine_file, tmp_path, capsys):
    # a witness is attached only to a rejection, and only with --witness
    out = tmp_path / "solution.json"
    main(["solve", "--input", str(trine_file), "--output", str(out)])
    capsys.readouterr()
    assert main(["verify", "--input", str(out), "--witness"]) == 0
    assert "witness" not in json.loads(capsys.readouterr().out)
    obj = json.loads(out.read_text(encoding="utf-8"))
    # shrink the dual: trace and slack conditions now fail
    z = obj["certificate"]["z"]
    for row in z:
        for entry in row:
            entry[0] *= 0.8
    out.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["verify", "--input", str(out)]) == 1
    assert "witness" not in json.loads(capsys.readouterr().out)
    rc = main(["verify", "--input", str(out), "--witness"])
    assert rc == 1
    result = json.loads(capsys.readouterr().out)
    assert result["certificate"]["accepted"] is False
    assert "witness" in result


def test_verify_witness_is_unavailable_when_only_the_rank_bound_fails(tmp_path, capsys):
    # no certificate eigenvalue is negative, so there is no direction to exploit
    p, out = tmp_path / "pair.json", tmp_path / "solution.json"
    write_ensemble(p, pure_qubit_pair(0.4, (0.5, 0.5)))
    assert main(["solve", "--input", str(p), "--output", str(out)]) == 0
    obj = json.loads(out.read_text(encoding="utf-8"))
    z = dual_from_certificate_json(obj["certificate"])
    pi0 = detection_from_json(obj["detection"]).inconclusive
    obj["certificate"]["z"] = array_to_json(rank_raised_dual(z, pi0))
    out.write_text(json.dumps(obj), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", "--input", str(out), "--witness"]) == 1
    result = json.loads(capsys.readouterr().out)
    assert result["certificate"]["failures"] == ["rank_bound"]
    assert result["witness"]["available"] is False


def test_verify_rejects_never_concluding_on_a_near_parallel_pair(tmp_path, capsys):
    # Pi_0 = 1 with Z = 0 meets every residual within CERT_TOL, since the
    # optimal R is 6.0e-9; rank Z = 0 < max_j m_j = 1 rejects it
    p, out = tmp_path / "pair.json", tmp_path / "solution.json"
    write_ensemble(p, pure_qubit_pair(1e-4))
    assert main(["solve", "--input", str(p), "--output", str(out)]) == 0
    obj = json.loads(out.read_text(encoding="utf-8"))
    obj["detection"]["operators"] = array_to_json(np.stack([np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))]))
    obj["certificate"]["z"] = array_to_json(np.zeros((2, 2)))
    out.write_text(json.dumps(obj), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", "--input", str(out)]) == 1
    assert json.loads(capsys.readouterr().out)["certificate"]["failures"] == ["rank_bound"]


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "infinity"])
@pytest.mark.parametrize("field", ["certificate z", "detection operators"])
def test_verify_names_non_finite_solution_arrays(trine_file, tmp_path, capsys, field, bad):
    out = tmp_path / "solution.json"
    main(["solve", "--input", str(trine_file), "--output", str(out)])
    obj = json.loads(out.read_text(encoding="utf-8"))
    section, key = field.split()
    pair = obj[section][key][-1]
    while isinstance(pair[0], list):
        pair = pair[0]
    pair[1] = bad  # an imaginary part in the last matrix
    out.write_text(json.dumps(obj), encoding="utf-8")  # writes the bare token NaN or Infinity
    capsys.readouterr()
    assert main(["verify", "--input", str(out)]) == 2
    assert f"{field}: entries must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("dim", [1, 3])
def test_verify_names_a_dual_of_the_wrong_shape(trine_file, tmp_path, capsys, dim):
    out = tmp_path / "solution.json"
    main(["solve", "--input", str(trine_file), "--output", str(out)])
    obj = json.loads(out.read_text(encoding="utf-8"))
    obj["certificate"]["z"] = array_to_json(np.eye(dim) / dim)
    out.write_text(json.dumps(obj), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", "--input", str(out), "--witness"]) == 2
    assert f"dual Z has shape ({dim}, {dim})" in capsys.readouterr().err


def test_verify_reads_a_certificate_with_the_two_old_tolerance_keys(trine_file, tmp_path):
    # solution files once stored pos_tol and eq_tol instead of tol; verify reads only z
    out = tmp_path / "solution.json"
    main(["solve", "--input", str(trine_file), "--output", str(out)])
    obj = json.loads(out.read_text(encoding="utf-8"))
    cert = obj["certificate"]
    del cert["tol"]
    cert["pos_tol"] = cert["eq_tol"] = 1e-8
    out.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["verify", "--input", str(out)]) == 0


def test_solve_writes_the_one_certificate_tolerance(trine_file, tmp_path):
    solution, checked = tmp_path / "solution.json", tmp_path / "checked.json"
    assert main(["solve", "--input", str(trine_file), "--output", str(solution)]) == 0
    assert json.loads(solution.read_text(encoding="utf-8"))["certificate"]["tol"] == CERT_TOL
    assert main(["verify", "--input", str(solution), "--tol", "1e-3", "--output", str(checked)]) == 0
    cert = json.loads(checked.read_text(encoding="utf-8"))["certificate"]
    assert cert["tol"] == 0.001
    assert "pos_tol" not in cert and "eq_tol" not in cert


@pytest.mark.parametrize("asymmetric", [False, True], ids=["trine-analytic", "random-numeric"])
def test_verify_tol_is_the_one_route_to_another_tolerance(asymmetric, trine_file, tmp_path):
    # verify --tol X writes exactly the certificate verify_certificate makes
    # of the solution file's measurement and dual at tol X
    p = trine_file
    if asymmetric:
        p = tmp_path / "asym.json"
        write_ensemble(p, random_ensemble(np.random.default_rng(5), 2, 3))
    solution, checked = tmp_path / "solution.json", tmp_path / "checked.json"
    assert main(["solve", "--input", str(p), "--output", str(solution)]) == 0
    obj = json.loads(solution.read_text(encoding="utf-8"))
    assert obj["report"]["mode"] == ("numeric" if asymmetric else "analytic")
    assert main(["verify", "--input", str(solution), "--tol", "1e-3", "--output", str(checked)]) == 0
    cert = verify_certificate(ensemble_from_json(obj["ensemble"]), detection_from_json(obj["detection"]),
                              dual_from_certificate_json(obj["certificate"]), tol=1e-3)
    assert checked.read_text(encoding="utf-8") == dump_json({"certificate": certificate_to_json(cert)}) + "\n"


def test_verify_needs_solution_file(trine_file, tmp_path, capsys):
    # a solved file without its certificate is named as such, not refused
    # later by a KeyError, and a JSON list is refused, not a traceback
    p, out, listed = tmp_path / "partial.json", tmp_path / "solution.json", tmp_path / "list.json"
    p.write_text(json.dumps({"ensemble": {}}), encoding="utf-8")
    listed.write_text("[1, 2]", encoding="utf-8")
    main(["solve", "--input", str(trine_file), "--output", str(out)])
    obj = json.loads(out.read_text(encoding="utf-8"))
    del obj["certificate"]
    out.write_text(json.dumps(obj), encoding="utf-8")
    for path in (p, out, listed):
        capsys.readouterr()
        assert main(["verify", "--input", str(path)]) == 2
        assert ("verify needs a solution file with 'ensemble', 'detection', and 'certificate'"
                in capsys.readouterr().err)


def test_sweep_writes_csv(tmp_path):
    spec = {"family": "qubit-mixed", "order": 3, "purity": 0.6}
    p = tmp_path / "family.json"
    p.write_text(json.dumps(spec), encoding="utf-8")
    out = tmp_path / "table.csv"
    rc = main(["sweep", "--input", str(p), "--grid", "angle:0.3:1.2:4",
               "--output", str(out)])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "family,angle,confidence,failure_probability,alpha,certified"
    assert len(lines) == 5
    assert all(line.split(",")[0] == "qubit-mixed" for line in lines[1:])


def test_sweep_check_adds_deviation_column(tmp_path):
    spec = {"family": "qubit-mixed", "order": 3, "purity": 0.6}
    p = tmp_path / "family.json"
    p.write_text(json.dumps(spec), encoding="utf-8")
    out = tmp_path / "table.csv"
    rc = main(["sweep", "--input", str(p), "--grid", "angle:0.4:1.3:3",
               "--check", "--output", str(out)])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0].endswith(",numeric_failure_deviation")
    for line in lines[1:]:
        assert float(line.split(",")[-1]) < 1e-6


def test_sweep_pure_family_reports_srm(tmp_path):
    spec = {"family": "pure-symmetric", "order": 4}
    p = tmp_path / "family.json"
    p.write_text(json.dumps(spec), encoding="utf-8")
    out = tmp_path / "table.csv"
    rc = main(["sweep", "--input", str(p), "--grid", "angle:0.5:1.4:3",
               "--output", str(out)])
    assert rc == 0
    header, *rows = (line.split(",") for line in out.read_text(encoding="utf-8").strip().split("\n"))
    assert "srm_confidence" in header
    assert len(rows) == 3
    for row, angle in zip(rows, np.linspace(0.5, 1.4, 3)):
        assert len(row) == len(header)
        fields = dict(zip(header, row))
        srm = square_root_measurement(SymmetricFamily.qubit(order=4, purity=1.0, angle=float(angle)))[1]
        assert fields["srm_confidence"] == f"{srm:.{CSV_DIGITS}g}"
        assert float(fields["srm_confidence"]) <= float(fields["confidence"])


def test_sweep_flat_family(tmp_path, capsys):
    p = tmp_path / "family.json"
    p.write_text(json.dumps({"family": "flat-mixed", "order": 4, "dim": 3}), encoding="utf-8")
    assert main(["sweep", "--input", str(p), "--grid", "purity:0.2:0.8:3", "--check"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("family,purity,")
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[0] == "flat-mixed" and float(fields[3]) == 0.0 and fields[5] == "true"
        assert float(fields[-1]) < 1e-6


def test_sweep_check_unattainable_tolerance_exits_one(tmp_path, monkeypatch, capsys):
    # sweep --check fails beyond CROSS_CHECK_TOL, the threshold of solve --check
    p = tmp_path / "family.json"
    p.write_text(json.dumps({"family": "qubit-mixed", "order": 3, "purity": 0.6}), encoding="utf-8")
    monkeypatch.setattr(cli, "CROSS_CHECK_TOL", 1e-30)
    assert main(["sweep", "--input", str(p), "--grid", "angle:0.4:1.3:2", "--check"]) == 1
    assert "numeric cross-check deviates" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", ["solve", "verify", "sweep"])
def test_tol_must_be_finite_and_nonnegative(command, tol, trine_file, capsys):
    # a NaN tolerance would pass every residual comparison and accept any dual;
    # verify range-checks its --tol, and solve and sweep refuse any --tol
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", str(trine_file), "--tol", tol])
    assert exc.value.code == 2
    expected = (f"finite nonnegative number, got {tol!r}" if command == "verify"
                else "unrecognized arguments: --tol")
    assert expected in capsys.readouterr().err


def test_sweep_rejects_bad_grid(tmp_path):
    spec = {"family": "qubit-mixed", "order": 3}
    p = tmp_path / "family.json"
    p.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["sweep", "--input", str(p), "--grid", "angle:0.1:0.9"]) == 2
    assert main(["sweep", "--input", str(p)]) == 2


@pytest.mark.parametrize("spec, grid, message", [
    ({"family": "qubit-mixed", "order": 3, "purity": "0.5"}, "angle:0.3:1.2:2", "'0.5' is not a number"),
    ({"family": "qubit-mixed", "order": 3, "purity": True}, "angle:0.3:1.2:2", "True is not a number"),
    ({"family": "qubit-mixed", "order": 3, "angle": None}, "purity:0.3:0.9:2", "None is not a number"),
    ({"family": "qubit-mixed", "order": 3}, "foo:0.3:1.2:3", "cannot sweep 'foo'"),
    ({"family": "flat-mixed", "order": 4, "dim": 2}, "angle:0.3:1.2:3", "cannot sweep 'angle'"),
    ({"family": "pure-symmetric", "order": 4, "angle": 0.7}, "purity:0.3:0.9:3", "cannot sweep 'purity'"),
    ({"family": "pure-symmetric", "order": 3, "coefficients": [[0.6, 0.0], [0.64, 0.0], [0.48, 0.0]]},
     "angle:0.3:1.2:3", "takes no 'coefficients'"),
    ({"family": "pure-symmetric", "order": 3, "purity": 0.5}, "angle:0.3:1.2:3", "takes no 'purity'"),
    ({"family": "qubit-mixed", "order": 3, "dim": 5, "phases": 7}, "angle:0.3:1.2:3",
     "takes no 'dim', 'phases'"),
    ({"family": "flat-mixed", "order": 4, "dim": 2}, "dim:2:4:3", "cannot sweep 'dim'"),
    ({"order": 3, "angle": 1.0}, "purity:0.3:0.9:3", "family input needs a 'family' field"),
    ({"family": "qubit-mixed", "order": 3}, "angle:0.3:1.2:0", "grid needs at least one step"),
    ({"family": "qubit-mixed", "order": 3}, "angle:inf:1:2", "grid bounds must be finite, got 'angle:inf:1:2'"),
    ({"family": "qubit-mixed", "order": 3}, "purity:nan:1:3", "grid bounds must be finite, got 'purity:nan:1:3'"),
    ({"family": "qubit-mixed", "order": 3}, "angle:0.3:inf:3", "grid bounds must be finite, got 'angle:0.3:inf:3'"),
    ({"family": "nope", "order": 3}, "angle:0.3:1.2:3", "unknown family 'nope'"),
], ids=["string-purity", "boolean-purity", "null-angle", "unknown-parameter", "flat-angle",
        "pure-purity", "pure-coefficients", "pure-fixed-purity", "qubit-extra-fields", "flat-dim",
        "no-family", "zero-steps", "infinite-bound", "nan-bound", "infinite-stop", "unknown-family"])
def test_sweep_refuses_parameters_it_would_misread_or_ignore(tmp_path, capsys, spec, grid, message):
    p = tmp_path / "family.json"
    p.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["sweep", "--input", str(p), "--grid", grid]) == 2
    assert message in capsys.readouterr().err


def test_sweep_refuses_an_infinite_fixed_angle_before_any_warning(tmp_path, capsys):
    # json reads 1e400 as inf; grid ends are refused up front, a fixed field
    # by the family, before cos and sin could warn
    p = tmp_path / "family.json"
    p.write_text('{"family": "qubit-mixed", "order": 3, "angle": 1e400}', encoding="utf-8")
    assert main(["sweep", "--input", str(p), "--grid", "purity:0.2:0.4:2"]) == 2
    assert capsys.readouterr().err == "error: family angle must be finite, got inf\n"


def test_sweep_reads_integral_numbers(tmp_path, capsys):
    p = tmp_path / "family.json"
    p.write_text(json.dumps({"family": "qubit-mixed", "order": 3, "purity": 1}), encoding="utf-8")
    assert main(["sweep", "--input", str(p), "--grid", "angle:0.3:1.2:2"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert len(rows) == 2 and rows[0] != rows[1]


def test_sweep_rejects_unknown_family(tmp_path):
    p = tmp_path / "family.json"
    p.write_text(json.dumps({"family": "qutrit-spiral", "order": 3}), encoding="utf-8")
    assert main(["sweep", "--input", str(p), "--grid", "angle:0.1:0.9:3"]) == 2


def test_compare_symmetric(trine_file, tmp_path):
    # solve --check compares the numeric solve with the closed form
    out = tmp_path / "solution.json"
    rc = main(["solve", "--input", str(trine_file), "--mode", "numeric", "--check",
               "--output", str(out)])
    assert rc == 0
    obj = json.loads(out.read_text(encoding="utf-8"))
    cc = obj["cross_check"]
    assert cc["mode"] == "analytic"
    assert cc["rate_deviation"] < 1e-6 and cc["confidence_deviation"] < 1e-6
    assert obj["report"]["certified"] and cc["certified"]


def _solve_close_pair(tmp_path):
    """The solve --check file of two nearly equal pure qubits, where no
    outcome fires: both routes certify R ~ 2e-16."""
    t = 1e-8
    p, out = tmp_path / "close.json", tmp_path / "solution.json"
    write_ensemble(p, build_symmetric_ensemble(np.array([np.cos(t), np.sin(t)]), 2))
    assert main(["solve", "--input", str(p), "--check", "--output", str(out)]) == 0
    return out.read_text(encoding="utf-8")


def test_cross_check_when_no_outcome_fires(tmp_path):
    # every confidence is undefined (nan) in both routes, written as null
    obj = json.loads(_solve_close_pair(tmp_path))
    assert obj["report"]["confidences"] == [None, None]
    cc = obj["cross_check"]
    assert cc["available"] is True and cc["confidences"] == [None, None]
    assert cc["confidence_deviation"] == 0.0


def test_solution_file_is_strict_json(tmp_path):
    # a strict parser has no NaN or Infinity token; the file must still load
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    obj = json.loads(_solve_close_pair(tmp_path), parse_constant=refuse)
    assert obj["report"]["certified"] and obj["cross_check"]["certified"]


def test_compare_needs_symmetry(tmp_path):
    rng = np.random.default_rng(7)
    e = random_ensemble(rng, 2, 2)
    p, out = tmp_path / "asym.json", tmp_path / "solution.json"
    write_ensemble(p, e)
    assert main(["solve", "--input", str(p), "--check", "--output", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["cross_check"]["available"] is False


def test_solve_check_disagreement_exits_one(trine_file, tmp_path, monkeypatch, capsys):
    solve = cli._solve

    def skewed(ensemble, geo, mode):
        report = solve(ensemble, geo, mode)
        if mode == "numeric":
            report = replace(report, detection_rate=report.detection_rate - 1e-3)
        return report

    monkeypatch.setattr(cli, "_solve", skewed)
    rc = main(["solve", "--input", str(trine_file), "--check", "--output", str(tmp_path / "s.json")])
    assert rc == 1
    assert capsys.readouterr().err == "cross-check deviates by 1.000e-03\n"


def _nan_prior_file(tmp_path):
    obj = {"dim": 2, "states": [
        {"prior": float("nan"), "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]},
        {"prior": 0.5, "matrix": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
    ]}
    p = tmp_path / "nan.json"
    p.write_text(json.dumps(obj), encoding="utf-8")  # writes the bare token NaN
    return p


def test_validate_rejects_nan_file(tmp_path, capsys):
    assert main(["validate", "--input", str(_nan_prior_file(tmp_path))]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is False
    assert [v["name"] for v in out["violations"]] == ["finite_values"]


def test_solve_names_non_finite_violation(tmp_path, capsys):
    assert main(["solve", "--input", str(_nan_prior_file(tmp_path))]) == 2
    assert "finite_values" in capsys.readouterr().err


def test_entry_point_installed(tmp_path):
    # the console script wraps main; exercising --help through argparse
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    # python -m maxconf.cli runs entry(), which exits with main's code
    proc = subprocess.run(
        [sys.executable, "-m", "maxconf.cli", "validate", "--input", str(tmp_path / "none.json")],
        env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])), capture_output=True, text=True,
    )
    assert proc.returncode == 2 and "error:" in proc.stderr


def _capped_child(args, cwd):
    # a child python under a 2 GiB address-space cap, one BLAS thread and a
    # 60 s timeout: an order that allocated until memory ran out would fail
    # this test rather than exhaust the machine
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, preexec_fn=cap,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("family, grid", [
    ({"family": "pure-symmetric"}, "angle:0.3:1.2:2"),
    ({"family": "qubit-mixed"}, "angle:0.3:1.2:2"),
    ({"family": "flat-mixed", "dim": 2}, "purity:0.3:0.9:2"),
], ids=["pure-symmetric", "qubit-mixed", "flat-mixed"])
def test_sweep_refuses_an_order_no_array_can_index(family, grid, tmp_path):
    # the phase table is sized before any power is taken, so numpy refuses
    # the order at once (ValueError, an input error) instead of filling
    # memory with one power per state
    (tmp_path / "huge.json").write_text(json.dumps({**family, "order": 1e300}), encoding="utf-8")
    proc = _capped_child(["-m", "maxconf.cli", "sweep", "--input", "huge.json", "--grid", grid], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("family, grid", [
    ({"family": "pure-symmetric", "order": 1e12}, "angle:0.3:1.2:2"),
    ({"family": "qubit-mixed", "order": 3, "angle": 1.0}, "purity:0.1:0.9:1000000000000"),
], ids=["phase-table", "grid"])
def test_sweep_refuses_an_input_no_memory_can_hold(family, grid, tmp_path):
    # numpy can index a (1e12, 2) phase table or a 1e12-point grid, but the
    # allocation fails (MemoryError, an input error); run only under the cap,
    # since without one overcommit may grant it and start a long fill
    (tmp_path / "huge.json").write_text(json.dumps(family), encoding="utf-8")
    proc = _capped_child(["-m", "maxconf.cli", "sweep", "--input", "huge.json", "--grid", grid], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_builders_refuse_an_order_no_array_can_index(tmp_path):
    code = """
import numpy as np
from maxconf import SymmetricFamily, build_symmetric_ensemble
for make in (lambda: build_symmetric_ensemble(np.array([0.6, 0.8]), 2**63),
             lambda: SymmetricFamily.qubit(10**300, 1.0, 1.0).ensemble()):
    try:
        make()
    except Exception as exc:
        print(type(exc).__name__)
"""
    proc = _capped_child(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ValueError", "ValueError"]
