import json
from dataclasses import replace

import numpy as np
import pytest

from maxconf import build_depolarized_family, build_symmetric_ensemble, cli, solver
from maxconf.cli import main
from maxconf.serialize import (
    array_to_json,
    detection_from_json,
    dual_from_certificate_json,
    dump_json,
    ensemble_to_json,
)
from conftest import pure_qubit_pair, random_ensemble, rank_raised_dual


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


def test_solve_unattainable_tolerance(trine_file, tmp_path):
    out = tmp_path / "solution.json"
    rc = main(["solve", "--input", str(trine_file), "--mode", "numeric",
               "--tol", "1e-16", "--output", str(out)])
    assert rc == 3
    obj = json.loads(out.read_text(encoding="utf-8"))
    assert obj["report"]["certified"] is False
    # the re-verified report keeps the fields of the solve
    assert obj["report"]["mode"] == "numeric"
    assert obj["report"]["iterations"] > 0


def test_solve_not_converged_exits_three(trine_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(solver, "MAX_ITERATIONS", 3)
    rc = main(["solve", "--input", str(trine_file), "--mode", "numeric",
               "--output", str(tmp_path / "solution.json")])
    assert rc == 3
    assert "solver did not converge" in capsys.readouterr().err


def test_sweep_not_converged_exits_three(tmp_path, monkeypatch, capsys):
    p = tmp_path / "family.json"
    p.write_text(json.dumps({"family": "qubit-mixed", "order": 3}), encoding="utf-8")
    monkeypatch.setattr(solver, "MAX_ITERATIONS", 3)
    rc = main(["sweep", "--input", str(p), "--grid", "angle:0.2:1.2:3", "--check"])
    assert rc == 3
    assert "solver did not converge" in capsys.readouterr().err


def test_validate_has_no_tol(trine_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--input", str(trine_file), "--tol", "123"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


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


def test_verify_rejects_corrupted_dual(trine_file, tmp_path, capsys):
    out = tmp_path / "solution.json"
    main(["solve", "--input", str(trine_file), "--output", str(out)])
    obj = json.loads(out.read_text(encoding="utf-8"))
    # shrink the dual: trace and slack conditions now fail
    z = obj["certificate"]["z"]
    for row in z:
        for entry in row:
            entry[0] *= 0.8
    out.write_text(json.dumps(obj), encoding="utf-8")
    capsys.readouterr()
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
    out = tmp_path / "solution.json"
    assert main(["solve", "--input", str(trine_file), "--tol", "1e-3", "--output", str(out)]) == 0
    cert = json.loads(out.read_text(encoding="utf-8"))["certificate"]
    assert cert["tol"] == 0.001
    assert "pos_tol" not in cert and "eq_tol" not in cert


def test_verify_needs_solution_file(tmp_path):
    p = tmp_path / "partial.json"
    p.write_text(json.dumps({"ensemble": {}}), encoding="utf-8")
    assert main(["verify", "--input", str(p)]) == 2


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
    header = out.read_text(encoding="utf-8").split("\n")[0]
    assert "srm_confidence" in header


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


def test_sweep_check_unattainable_tolerance_exits_one(tmp_path, capsys):
    p = tmp_path / "family.json"
    p.write_text(json.dumps({"family": "qubit-mixed", "order": 3, "purity": 0.6}), encoding="utf-8")
    assert main(["sweep", "--input", str(p), "--grid", "angle:0.4:1.3:2", "--check", "--tol", "1e-30"]) == 1
    assert "numeric cross-check deviates" in capsys.readouterr().err


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
], ids=["string-purity", "boolean-purity", "null-angle", "unknown-parameter", "flat-angle",
        "pure-purity", "pure-coefficients", "pure-fixed-purity", "qubit-extra-fields", "flat-dim"])
def test_sweep_refuses_parameters_it_would_misread_or_ignore(tmp_path, capsys, spec, grid, message):
    p = tmp_path / "family.json"
    p.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["sweep", "--input", str(p), "--grid", grid]) == 2
    assert message in capsys.readouterr().err


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


def test_compare_needs_symmetry(tmp_path):
    rng = np.random.default_rng(7)
    e = random_ensemble(rng, 2, 2)
    p, out = tmp_path / "asym.json", tmp_path / "solution.json"
    write_ensemble(p, e)
    assert main(["solve", "--input", str(p), "--check", "--output", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["cross_check"]["available"] is False


def test_solve_check_disagreement_exits_one(trine_file, tmp_path, monkeypatch):
    solve = cli._solve

    def skewed(ensemble, mode, tol):
        report = solve(ensemble, mode, tol)
        if mode == "numeric":
            report = replace(report, detection_rate=report.detection_rate - 1e-3)
        return report

    monkeypatch.setattr(cli, "_solve", skewed)
    rc = main(["solve", "--input", str(trine_file), "--check", "--output", str(tmp_path / "s.json")])
    assert rc == 1


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


def test_entry_point_installed():
    # the console script wraps main; exercising --help through argparse
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
