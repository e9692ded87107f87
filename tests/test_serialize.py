import dataclasses
import json
import re

import numpy as np
import pytest

from maxconf import (
    InfeasibleInputError,
    SymmetricFamily,
    perturbation_witness,
    solve_numeric,
    solve_rank1_symmetric,
    verify_certificate,
)
from maxconf.serialize import (
    array_from_json,
    array_to_json,
    certificate_to_json,
    detection_from_json,
    detection_to_json,
    dual_from_certificate_json,
    dump_json,
    ensemble_from_json,
    ensemble_to_json,
    format_csv_value,
    load_json,
    report_to_json,
    validation_to_json,
    witness_to_json,
    write_csv,
)
from maxconf.ensembles import StateEnsemble, SymmetrySpec, ValidationReport, Violation, validate
from maxconf.solver import (
    DetectionSet,
    OptimalityCertificate,
    PerturbationWitness,
    SolveReport,
)
from conftest import random_ensemble


def test_matrix_roundtrip_is_exact():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    text = json.dumps(array_to_json(a))
    back = array_from_json(json.loads(text), "matrix", 2)
    # JSON floats round-trip binary64 exactly
    assert np.array_equal(back, a)


def test_vector_roundtrip_is_exact():
    v = np.array([1.0 / 3.0, np.pi, -2e-17 + 0.25j, complex(-0.0, 1.0)])
    back = array_from_json(json.loads(json.dumps(array_to_json(v))), "vector", 1)
    assert np.array_equal(back, v)
    # the sign of a zero survives too
    assert np.signbit(back.real).tolist() == [False, False, True, True]


def test_matrix_from_json_rejects_ragged():
    with pytest.raises(InfeasibleInputError):
        array_from_json([[[1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]]], "matrix", 2)
    with pytest.raises(InfeasibleInputError):
        array_from_json([[[1.0, 0.0], "junk"], [[1.0, 0.0], [2.0, 0.0]]], "matrix", 2)


# ragged rows: test_matrix_from_json_rejects_ragged
@pytest.mark.parametrize("obj, ndims", [
    ([[1.0, 0.0], [2.0]], (1,)),  # ragged pair
    ([["1.0", "0.0"]], (1,)),  # strings
    ([[None, 0.0]], (1,)),  # null
    (None, (1,)),
    ([], (1,)),  # empty
    ([[]], (1,)),
    ([[[1.0, 0.0], [0.0, 0.0]]], (2,)),  # 1 x 2, not square
    ([[[[1.0, 0.0]]], [[[1.0, 0.0]]]], (2,)),  # one level too deep
    ([[1.0, 0.0, 0.0]], (1,)),  # a triple, not a pair
    ([1.0, 0.0], (1,)),  # one pair is a number, not a vector
    ([{"re": 1.0, "im": 0.0}], (1,)),  # objects
    ({"re": 1.0}, (1,)),
    ([[1.0, 0.0]], (2,)),  # a vector where a matrix is due
    ([[1.0, 0.0]], (3,)),  # a vector where a stack is due
    ([[[[1.0, 0.0]]], [[[1.0, 0.0]]]], (1,)),  # two levels too deep
])
def test_array_from_json_rejects(obj, ndims):
    with pytest.raises(InfeasibleInputError):
        array_from_json(obj, "input", *ndims)


def test_array_from_json_accepts_integers():
    assert array_from_json([[1, 2]], "vector", 1).tolist() == [1 + 2j]


def test_json_text_is_pinned():
    # the exact text of the codecs' output: [re, im] pairs, shortest
    # round-trip floats, the sign of a zero kept
    e = StateEnsemble(dim=2, priors=[1.0], states=[[[1 / 3, 0.25 - 0.5j], [0.25 + 0.5j, 2 / 3]]],
                      symmetry=SymmetrySpec(order=1, phases=[1.0, complex(1.0, -0.0)]))
    compact = {"separators": (",", ":")}
    assert json.dumps(ensemble_to_json(e), **compact) == (
        '{"dim":2,"states":[{"prior":1.0,"matrix":[[[0.3333333333333333,0.0],[0.25,-0.5]],'
        '[[0.25,0.5],[0.6666666666666666,0.0]]]}],"symmetry":{"order":1,'
        '"phases":[[1.0,0.0],[1.0,-0.0]]}}')
    # the file layout: one key per line, one matrix row per line
    assert dump_json(ensemble_to_json(e)) == """{
  "dim": 2,
  "states": [
    {
      "prior": 1.0,
      "matrix": [
        [[0.3333333333333333,0.0],[0.25,-0.5]],
        [[0.25,0.5],[0.6666666666666666,0.0]]
      ]
    }
  ],
  "symmetry": {
    "order": 1,
    "phases": [[1.0,0.0],[1.0,-0.0]]
  }
}"""
    t = 1e-17j
    det = DetectionSet(np.array([[[0.5, t], [t.conjugate(), 0.5]], [[0.5, t.conjugate()], [t, 0.5]]]))
    assert json.dumps(detection_to_json(det), **compact) == (
        '{"dim":2,"operators":[[[[0.5,0.0],[0.0,1e-17]],[[0.0,-1e-17],[0.5,0.0]]],'
        '[[[0.5,0.0],[0.0,-1e-17]],[[0.0,1e-17],[0.5,0.0]]]]}')


def test_ensemble_from_json_ignores_an_old_reference():
    # files written before the symmetry block lost its 'reference' still
    # decode, to the ensemble they were written from
    reference = ',"reference":[[1.0,0.0],[-0.0,0.0]]'
    old = ('{"dim":2,"states":[{"prior":1.0,"matrix":[[[0.3333333333333333,0.0],[0.25,-0.5]],'
           '[[0.25,0.5],[0.6666666666666666,0.0]]]}],"symmetry":{"order":1,'
           f'"phases":[[1.0,0.0],[1.0,0.0]]{reference}}}}}')
    back = ensemble_from_json(json.loads(old))
    assert np.array_equal(back.states, [[[1 / 3, 0.25 - 0.5j], [0.25 + 0.5j, 2 / 3]]])
    assert back.symmetry.order == 1 and np.array_equal(back.symmetry.phases, [1.0, 1.0])
    assert json.dumps(ensemble_to_json(back), separators=(",", ":")) == old.replace(reference, "")


def test_ensemble_roundtrip_with_symmetry():
    c = np.array([np.sqrt(0.7), np.sqrt(0.3) * 1j])
    e = SymmetricFamily(order=4, purity=0.8, coefficients=c).ensemble()
    back = ensemble_from_json(json.loads(json.dumps(ensemble_to_json(e))))
    assert back.dim == e.dim
    assert np.array_equal(back.priors, e.priors)
    assert np.array_equal(np.asarray(back.states), np.asarray(e.states))
    assert back.symmetry is not None
    assert back.symmetry.order == 4
    assert np.array_equal(back.symmetry.phases, e.symmetry.phases)


def test_ensemble_roundtrip_without_symmetry():
    rng = np.random.default_rng(1)
    e = random_ensemble(rng, 3, 2)
    back = ensemble_from_json(json.loads(json.dumps(ensemble_to_json(e))))
    assert back.symmetry is None
    assert np.array_equal(np.asarray(back.states), np.asarray(e.states))


def test_ensemble_from_json_errors():
    with pytest.raises(InfeasibleInputError):
        ensemble_from_json([1, 2, 3])
    with pytest.raises(InfeasibleInputError, match="ensemble: 'states' must be a nonempty list"):
        ensemble_from_json({"dim": 2, "states": []})
    with pytest.raises(InfeasibleInputError):
        ensemble_from_json({"dim": 2, "states": [{"prior": 0.5}]})
    one = {"prior": 1.0, "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}
    assert ensemble_from_json({"dim": 2.0, "states": [one]}).dim == 2  # integral
    for dim in (2.7, True, "2", None):
        with pytest.raises(InfeasibleInputError, match="ensemble dim"):
            ensemble_from_json({"dim": dim, "states": [one]})
    for prior in ("1.0", True, None, [1.0]):
        with pytest.raises(InfeasibleInputError, match="not a number"):
            ensemble_from_json({"dim": 2, "states": [dict(one, prior=prior)]})
    sym = {"order": 1, "phases": [[1.0, 0.0], [1.0, 0.0]]}
    assert ensemble_from_json({"dim": 2, "states": [one], "symmetry": sym}).symmetry.order == 1
    for order in (1.5, True, "1"):
        with pytest.raises(InfeasibleInputError, match="symmetry order"):
            ensemble_from_json({"dim": 2, "states": [one], "symmetry": dict(sym, order=order)})
    # the codec only parses; StateEnsemble refuses states of the wrong size
    with pytest.raises(InfeasibleInputError, match="states must have shape \\(N, 3, 3\\)"):
        ensemble_from_json({"dim": 3, "states": [one]})
    for partial in ({"order": 1}, {"phases": sym["phases"]}, [1]):
        with pytest.raises(InfeasibleInputError, match="symmetry: needs 'order' and 'phases'"):
            ensemble_from_json({"dim": 2, "states": [one], "symmetry": partial})


def test_detection_roundtrip(trine):
    report = solve_rank1_symmetric(trine)
    det = report.detection
    back = detection_from_json(json.loads(json.dumps(detection_to_json(det))))
    assert np.array_equal(back.operators, det.operators)
    # 'dim' is optional; given, it must match the operators
    back = detection_from_json({"operators": detection_to_json(det)["operators"]})
    assert np.array_equal(back.operators, det.operators)


def test_detection_and_certificate_from_json_errors(trine):
    report = solve_rank1_symmetric(trine)
    obj = detection_to_json(report.detection)
    with pytest.raises(InfeasibleInputError, match="detection: expected an object with 'operators'"):
        detection_from_json({"dim": obj["dim"]})
    with pytest.raises(InfeasibleInputError, match="detection: declared dim 3 != operator dim 2"):
        detection_from_json(dict(obj, dim=3))
    cert = certificate_to_json(report.certificate)
    del cert["z"]
    with pytest.raises(InfeasibleInputError, match="certificate: expected an object with field 'z'"):
        dual_from_certificate_json(cert)


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
    assert len(obj["outcome_probabilities"]) == 4
    assert obj["zero_probability_outcomes"] == []
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
    assert obj["certificate"] == json.loads(json.dumps(certificate_to_json(w.certificate)))


def _field_names(record_type):
    return [f.name for f in dataclasses.fields(record_type)]


def test_every_record_field_reaches_the_json(trine):
    report = solve_rank1_symmetric(trine)
    w = perturbation_witness(trine, report.detection, np.diag([1.05, -0.05]).astype(complex), 1e-3)
    bad = StateEnsemble(dim=2, priors=np.array([0.7, 0.7]), states=trine.states[:2])
    cert, rep, wit, val = (certificate_to_json(report.certificate), report_to_json(report),
                           witness_to_json(w), validation_to_json(validate(bad)))
    assert list(cert) == _field_names(OptimalityCertificate)  # every field, in declaration order
    assert list(rep) == [n for n in _field_names(SolveReport) if n not in ("detection", "certificate")]
    assert list(wit) == _field_names(PerturbationWitness)
    assert list(val) == ["ok", *_field_names(ValidationReport)]
    assert val["violations"] and all(list(v) == _field_names(Violation) for v in val["violations"])
    assert wit["detection"] == detection_to_json(w.detection)
    for obj in (cert, rep, wit, val):
        json.loads(dump_json(obj))  # only JSON values


def test_non_finite_floats_are_written_as_null(trine):
    report = solve_rank1_symmetric(trine)
    cert = dataclasses.replace(report.certificate, conditions={"trace_gap": float("nan")})
    report = dataclasses.replace(report, confidences=np.array([0.5, np.nan, np.inf]), certificate=cert)
    assert report_to_json(report)["confidences"] == [0.5, None, None]
    assert certificate_to_json(cert)["conditions"] == {"trace_gap": None}
    # a value no record walked fails the write instead of shipping a NaN token
    with pytest.raises(ValueError):
        dump_json({"x": float("nan")})


def _bits(a):
    return np.asarray(a).view(np.uint64)  # a complex entry as its two halves


def test_dump_json_is_exact():
    # a generic solution file reloads bit for bit, signed zeros included
    # (the conjugated states carry -0.0 imaginary parts), and still verifies
    e = random_ensemble(np.random.default_rng(3), 4, 5)
    e = StateEnsemble(dim=e.dim, priors=e.priors, states=np.conj(e.states))
    assert np.signbit(e.states.imag[e.states.imag == 0.0]).all()
    report = solve_numeric(e)
    assert report.mode == "numeric" and report.certified
    obj = json.loads(dump_json({
        "ensemble": ensemble_to_json(e),
        "report": report_to_json(report),
        "detection": detection_to_json(report.detection),
        "certificate": certificate_to_json(report.certificate),
    }))
    ensemble, detection = ensemble_from_json(obj["ensemble"]), detection_from_json(obj["detection"])
    z = dual_from_certificate_json(obj["certificate"])
    for back, sent in ((ensemble.priors, e.priors), (ensemble.states, e.states),
                       (detection.operators, report.detection.operators), (z, report.certificate.z),
                       (obj["report"]["confidences"], report.confidences)):
        assert np.array_equal(_bits(back), _bits(sent))
    assert obj["report"] == report_to_json(report)
    assert verify_certificate(ensemble, detection, z).accepted


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dump_json_refuses_non_finite_array_entries(bad):
    # inside a vector, a matrix row and a stack, not only as a bare value
    for shape in ((3,), (2, 2), (2, 2, 2)):
        a = np.zeros(shape, dtype=complex)
        a.flat[-1] = complex(0.5, bad)
        with pytest.raises(ValueError):
            dump_json({"array": array_to_json(a)})


def test_dump_json_layout(trine):
    # every record type reads back as json.dumps wrote it, with at most one
    # object key and one matrix row (a '[[' in compact form) per line
    report = solve_rank1_symmetric(trine)
    w = perturbation_witness(trine, report.detection, np.diag([1.05, -0.05]).astype(complex), 1e-3)
    bad = StateEnsemble(dim=2, priors=np.array([0.7, 0.7]), states=trine.states[:2])
    records = (report_to_json(report), certificate_to_json(report.certificate), witness_to_json(w),
               validation_to_json(validate(bad)), ensemble_to_json(trine), detection_to_json(report.detection))
    assert trine.symmetry is not None and records[3]["violations"]
    key = re.compile(r'"(?:[^"\\]|\\.)*":')
    for record in records:
        text = dump_json(record)
        assert json.loads(text) == json.loads(json.dumps(record))
        for line in text.splitlines():
            assert len(key.findall(line)) <= 1 and line.count("[[") <= 1, line
    # empty containers stay compact on their key's line
    assert dump_json({"none": {}, "empty": [[]]}) == '{\n  "none": {},\n  "empty": [[]]\n}'


def test_dump_and_load_json(tmp_path):
    path = tmp_path / "obj.json"
    payload = {"x": 1.0 / 3.0, "items": [1, 2, 3]}
    path.write_text(dump_json(payload) + "\n", encoding="utf-8")
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
