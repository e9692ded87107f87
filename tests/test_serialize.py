import json

import numpy as np
import pytest

from maxconf import (
    InfeasibleInputError,
    build_depolarized_family,
    perturbation_witness,
    solve_rank1_symmetric,
)
from maxconf.serialize import (
    certificate_to_json,
    detection_from_json,
    detection_to_json,
    dual_from_certificate_json,
    dump_json,
    ensemble_from_json,
    ensemble_to_json,
    format_csv_value,
    load_json,
    matrix_from_json,
    matrix_to_json,
    report_to_json,
    validation_to_json,
    vector_from_json,
    vector_to_json,
    witness_to_json,
    write_csv,
)
from maxconf.ensembles import validate
from conftest import random_ensemble


def test_matrix_roundtrip_is_exact():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    text = json.dumps(matrix_to_json(a))
    back = matrix_from_json(json.loads(text))
    # JSON floats round-trip binary64 exactly
    assert np.array_equal(back, a)


def test_vector_roundtrip_is_exact():
    v = np.array([1.0 / 3.0, np.pi, -2e-17 + 0.25j])
    back = vector_from_json(json.loads(json.dumps(vector_to_json(v))))
    assert np.array_equal(back, v)


def test_matrix_from_json_rejects_ragged():
    with pytest.raises(InfeasibleInputError):
        matrix_from_json([[[1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]]])
    with pytest.raises(InfeasibleInputError):
        matrix_from_json([[[1.0, 0.0], "junk"], [[1.0, 0.0], [2.0, 0.0]]])


def test_ensemble_roundtrip_with_symmetry():
    c = np.array([np.sqrt(0.7), np.sqrt(0.3) * 1j])
    e = build_depolarized_family(c, 4, 0.8)
    back = ensemble_from_json(json.loads(json.dumps(ensemble_to_json(e))))
    assert back.dim == e.dim
    assert np.array_equal(back.priors, e.priors)
    assert np.array_equal(np.asarray(back.states), np.asarray(e.states))
    assert back.symmetry is not None
    assert back.symmetry.order == 4
    assert np.array_equal(back.symmetry.phases, e.symmetry.phases)
    assert np.array_equal(back.symmetry.reference, e.symmetry.reference)


def test_ensemble_roundtrip_without_symmetry():
    rng = np.random.default_rng(1)
    e = random_ensemble(rng, 3, 2)
    back = ensemble_from_json(json.loads(json.dumps(ensemble_to_json(e))))
    assert back.symmetry is None
    assert np.array_equal(np.asarray(back.states), np.asarray(e.states))


def test_ensemble_from_json_errors():
    with pytest.raises(InfeasibleInputError):
        ensemble_from_json([1, 2, 3])
    with pytest.raises(InfeasibleInputError):
        ensemble_from_json({"dim": 2, "states": []})
    with pytest.raises(InfeasibleInputError):
        ensemble_from_json({"dim": 2, "states": [{"prior": 0.5}]})


def test_detection_roundtrip(trine):
    report = solve_rank1_symmetric(trine)
    det = report.detection
    back = detection_from_json(json.loads(json.dumps(detection_to_json(det))))
    assert np.array_equal(back.operators, det.operators)


def test_certificate_json_carries_dual(trine):
    report = solve_rank1_symmetric(trine)
    obj = json.loads(json.dumps(certificate_to_json(report.certificate)))
    z = dual_from_certificate_json(obj)
    assert np.array_equal(z, report.certificate.z)
    assert obj["accepted"] is True
    assert obj["rank_z"] == report.certificate.rank_z
    assert set(obj["conditions"]) == set(report.certificate.conditions)


def test_report_and_validation_json(trine):
    report = solve_rank1_symmetric(trine)
    obj = report_to_json(report)
    assert obj["mode"] == "analytic"
    assert obj["duality_gap"] == 0.0
    assert obj["certified"] is True
    assert len(obj["confidences"]) == 3
    vj = validation_to_json(validate(trine))
    assert vj["ok"] is True
    assert vj["violations"] == []


def test_witness_json(trine):
    report = solve_rank1_symmetric(trine)
    z_bad = np.diag([1.05, -0.05]).astype(complex)
    w = perturbation_witness(trine, report.detection, z_bad, 1e-3)
    obj = json.loads(json.dumps(witness_to_json(w)))
    assert obj["kind"] == "dual-negativity"
    assert obj["mu"] == pytest.approx(0.05)
    assert "detection" in obj


def test_dump_and_load_json(tmp_path):
    path = tmp_path / "obj.json"
    payload = {"x": 1.0 / 3.0, "items": [1, 2, 3]}
    with open(path, "w", encoding="utf-8") as fh:
        dump_json(payload, fh)
    assert load_json(str(path)) == payload


def test_format_csv_value():
    assert format_csv_value(True) == "true"
    assert format_csv_value(False) == "false"
    assert format_csv_value(7) == "7"
    assert format_csv_value(0.123456789123456) == "0.123456789"
    assert format_csv_value(1e-12) == "1e-12"
    assert format_csv_value("text") == "text"


def test_write_csv_layout():
    import io

    buf = io.StringIO()
    write_csv(buf, ["a", "b"], [[1.0, True], [0.5, False]])
    assert buf.getvalue() == "a,b\n1,true\n0.5,false\n"
