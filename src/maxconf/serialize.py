"""JSON and CSV codecs for ensembles, measurements, and certificates.

Complex matrices are encoded as nested lists of [re, im] pairs, row major.
Floats are written by Python's json module, i.e. the shortest decimal string
that round-trips to the exact float64, so files reload bit-for-bit. CSV
output uses 9 significant digits, '.' decimal point, ',' separator, LF
line endings.
"""

from __future__ import annotations

import csv
import json
from typing import Any, IO

import numpy as np

from .ensembles import StateEnsemble, SymmetrySpec, ValidationReport
from .errors import InfeasibleInputError
from .solver import (
    DetectionSet,
    OptimalityCertificate,
    PerturbationWitness,
    SolveReport,
)

CSV_DIGITS = 9


def matrix_to_json(a: np.ndarray) -> list:
    a = np.asarray(a, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in a]


def vector_to_json(v: np.ndarray) -> list:
    v = np.asarray(v, dtype=complex).reshape(-1)
    return [[float(x.real), float(x.imag)] for x in v]


def _pair(obj: Any, where: str) -> complex:
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(isinstance(x, (int, float)) for x in obj)
    ):
        raise InfeasibleInputError(f"{where}: expected a [re, im] pair, got {obj!r}")
    return complex(obj[0], obj[1])


def matrix_from_json(obj: Any, where: str = "matrix") -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise InfeasibleInputError(f"{where}: expected a nonempty list of rows")
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != len(obj):
            raise InfeasibleInputError(f"{where}: row {i} does not make the matrix square")
        rows.append([_pair(x, f"{where}[{i}]") for x in row])
    return np.array(rows, dtype=complex)


def vector_from_json(obj: Any, where: str = "vector") -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise InfeasibleInputError(f"{where}: expected a nonempty list of [re, im] pairs")
    return np.array([_pair(x, where) for x in obj], dtype=complex)


def ensemble_to_json(ensemble: StateEnsemble) -> dict:
    out: dict[str, Any] = {
        "dim": ensemble.dim,
        "states": [
            {
                "prior": float(ensemble.priors[j]),
                "matrix": matrix_to_json(ensemble.states[j]),
            }
            for j in range(ensemble.n_states)
        ],
    }
    if ensemble.symmetry is not None:
        s = ensemble.symmetry
        ref = (
            vector_to_json(s.reference)
            if s.reference.ndim == 1
            else matrix_to_json(s.reference)
        )
        out["symmetry"] = {
            "order": s.order,
            "phases": vector_to_json(s.phases),
            "reference": ref,
        }
    return out


def ensemble_from_json(obj: Any) -> StateEnsemble:
    if not isinstance(obj, dict):
        raise InfeasibleInputError("ensemble: expected a JSON object")
    try:
        dim = int(obj["dim"])
        entries = obj["states"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InfeasibleInputError(f"ensemble: missing or malformed field ({exc})") from exc
    if not isinstance(entries, list) or not entries:
        raise InfeasibleInputError("ensemble: 'states' must be a nonempty list")
    priors = []
    states = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "prior" not in entry or "matrix" not in entry:
            raise InfeasibleInputError(f"ensemble: state {i} needs 'prior' and 'matrix'")
        priors.append(float(entry["prior"]))
        m = matrix_from_json(entry["matrix"], where=f"state {i}")
        if m.shape != (dim, dim):
            raise InfeasibleInputError(f"ensemble: state {i} has shape {m.shape}, expected ({dim}, {dim})")
        states.append(m)

    symmetry = None
    if "symmetry" in obj and obj["symmetry"] is not None:
        s = obj["symmetry"]
        if not isinstance(s, dict) or "order" not in s or "phases" not in s:
            raise InfeasibleInputError("symmetry: needs 'order' and 'phases'")
        phases = vector_from_json(s["phases"], where="symmetry phases")
        ref_obj = s.get("reference")
        if ref_obj is None:
            reference = states[0]
        elif ref_obj and isinstance(ref_obj[0], list) and ref_obj[0] and isinstance(ref_obj[0][0], list):
            reference = matrix_from_json(ref_obj, where="symmetry reference")
        else:
            reference = vector_from_json(ref_obj, where="symmetry reference")
        symmetry = SymmetrySpec(order=int(s["order"]), phases=phases, reference=reference)

    return StateEnsemble(
        dim=dim, priors=np.array(priors), states=np.stack(states), symmetry=symmetry
    )


def detection_to_json(detection: DetectionSet) -> dict:
    return {
        "dim": detection.dim,
        "operators": [matrix_to_json(op) for op in detection.operators],
    }


def detection_from_json(obj: Any) -> DetectionSet:
    if not isinstance(obj, dict) or "operators" not in obj:
        raise InfeasibleInputError("detection: expected an object with 'operators'")
    ops = obj["operators"]
    if not isinstance(ops, list) or len(ops) < 2:
        raise InfeasibleInputError("detection: needs the inconclusive operator plus at least one conclusive one")
    mats = [matrix_from_json(m, where=f"operator {i}") for i, m in enumerate(ops)]
    dim = mats[0].shape[0]
    if any(m.shape != (dim, dim) for m in mats):
        raise InfeasibleInputError("detection: operators have mismatched dimensions")
    if "dim" in obj and int(obj["dim"]) != dim:
        raise InfeasibleInputError(f"detection: declared dim {obj['dim']} != operator dim {dim}")
    return DetectionSet(np.stack(mats))


def certificate_to_json(cert: OptimalityCertificate) -> dict:
    return {
        "z": matrix_to_json(cert.z),
        "rate": cert.rate,
        "accepted": cert.accepted,
        "conditions": {k: float(v) for k, v in cert.conditions.items()},
        "failures": list(cert.failures),
        "rank_z": cert.rank_z,
        "rank_inconclusive": cert.rank_inconclusive,
        "min_rank_required": cert.min_rank_required,
        "rank_bound_ok": cert.rank_bound_ok,
        "pos_tol": cert.pos_tol,
        "eq_tol": cert.eq_tol,
    }


def dual_from_certificate_json(obj: Any) -> np.ndarray:
    if not isinstance(obj, dict) or "z" not in obj:
        raise InfeasibleInputError("certificate: expected an object with field 'z'")
    return matrix_from_json(obj["z"], where="certificate z")


def witness_to_json(w: PerturbationWitness) -> dict:
    return {
        "kind": w.kind,
        "outcome": w.outcome,
        "mu": w.mu,
        "epsilon": w.epsilon,
        "gap": w.gap,
        "baseline_gap": w.baseline_gap,
        "predicted_first_order": w.predicted_first_order,
        "trace_minus_rate": w.trace_minus_rate,
        "completeness_residual": w.completeness_residual,
        "min_eigenvalue": w.min_eigenvalue,
        "detection": detection_to_json(w.detection),
    }


def report_to_json(report: SolveReport) -> dict:
    return {
        "mode": report.mode,
        "detection_rate": report.detection_rate,
        "failure_probability": report.failure_probability,
        "correct_probability": report.correct_probability,
        "confidences": [float(c) for c in report.confidences],
        "certified": report.certified,
        "iterations": report.iterations,
        "duality_gap": report.duality_gap,
    }


def validation_to_json(report: ValidationReport) -> dict:
    return {
        "ok": report.ok,
        "violations": [
            {"name": v.name, "magnitude": v.magnitude, "message": v.message}
            for v in report.violations
        ],
        "flags": list(report.flags),
    }


def dump_json(obj: Any, stream: IO[str] | None = None) -> str:
    text = json.dumps(obj, indent=2, allow_nan=True)
    if stream is not None:
        stream.write(text + "\n")
    return text


def load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def format_csv_value(x: Any) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.{CSV_DIGITS}g}"
    return str(x)


def write_csv(stream: IO[str], header: list[str], rows: list[list]) -> None:
    writer = csv.writer(stream, delimiter=",", lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_csv_value(x) for x in row])
