"""JSON and CSV codecs for ensembles, measurements, and certificates.

Complex arrays (vectors, matrices, stacks of matrices) are encoded as nested
lists with an [re, im] pair in place of each entry, row major.
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


def array_to_json(a: np.ndarray) -> list:
    """A complex array of any shape as nested lists with a [re, im] pair
    in place of each entry."""
    a = np.asarray(a, dtype=complex)
    return np.stack((a.real, a.imag), -1).tolist()


def array_from_json(obj: Any, where: str, *ndims: int) -> np.ndarray:
    """The complex array that array_to_json wrote, of one of the ranks
    ndims: nested lists of [re, im] number pairs, square in the last two
    axes when there are two or more. An empty list holds no pair and is
    refused like any other shape. Raises InfeasibleInputError for anything
    else."""
    try:
        a = np.array(obj)
    except ValueError:  # ragged nesting
        a = np.array(None)
    if not (a.dtype.kind in "iuf" and a.ndim - 1 in ndims and a.shape[-1] == 2
            and (a.ndim < 3 or a.shape[-2] == a.shape[-3])):
        rank = " or ".join(map(str, ndims))
        raise InfeasibleInputError(f"{where}: expected a rank-{rank} array of [re, im] number pairs "
                                   "(matrices square)")
    # reinterpret each pair as one complex128, so both parts keep every bit
    return a.astype(float).view(complex)[..., 0]


def integer_from_json(obj: Any, where: str) -> int:
    """A JSON integer; an integral float counts, a boolean does not."""
    integral = isinstance(obj, int) or isinstance(obj, float) and obj.is_integer()
    if isinstance(obj, bool) or not integral:
        raise InfeasibleInputError(f"{where}: expected an integer, got {obj!r}")
    return int(obj)


def number_from_json(obj: Any, where: str) -> float:
    """A JSON number as a float; a string or a boolean is not one."""
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise InfeasibleInputError(f"{where}: {obj!r} is not a number")
    return float(obj)


def ensemble_to_json(ensemble: StateEnsemble) -> dict:
    out: dict[str, Any] = {
        "dim": ensemble.dim,
        "states": [{"prior": prior, "matrix": matrix}
                   for prior, matrix in zip(ensemble.priors.tolist(), array_to_json(ensemble.states))],
    }
    if ensemble.symmetry is not None:
        s = ensemble.symmetry
        out["symmetry"] = {
            "order": s.order,
            "phases": array_to_json(s.phases),
            "reference": array_to_json(s.reference),
        }
    return out


def ensemble_from_json(obj: Any) -> StateEnsemble:
    if not isinstance(obj, dict) or "dim" not in obj or "states" not in obj:
        raise InfeasibleInputError("ensemble: expected a JSON object with 'dim' and 'states'")
    dim = integer_from_json(obj["dim"], "ensemble dim")
    entries = obj["states"]
    if not isinstance(entries, list) or not entries:
        raise InfeasibleInputError("ensemble: 'states' must be a nonempty list")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "prior" not in entry or "matrix" not in entry:
            raise InfeasibleInputError(f"ensemble: state {i} needs 'prior' and 'matrix'")
    priors = np.array([number_from_json(entry["prior"], f"ensemble state {i} prior")
                       for i, entry in enumerate(entries)])
    states = array_from_json([entry["matrix"] for entry in entries], "ensemble states", 3)
    if states.shape[1:] != (dim, dim):
        raise InfeasibleInputError(f"ensemble: states have shape {states.shape[1:]}, expected ({dim}, {dim})")

    symmetry = None
    if obj.get("symmetry") is not None:
        s = obj["symmetry"]
        if not isinstance(s, dict) or "order" not in s or "phases" not in s:
            raise InfeasibleInputError("symmetry: needs 'order' and 'phases'")
        ref = s.get("reference")
        symmetry = SymmetrySpec(
            order=integer_from_json(s["order"], "symmetry order"),
            phases=array_from_json(s["phases"], "symmetry phases", 1),
            reference=states[0] if ref is None else array_from_json(ref, "symmetry reference", 1, 2),
        )

    return StateEnsemble(dim=dim, priors=priors, states=states, symmetry=symmetry)


def detection_to_json(detection: DetectionSet) -> dict:
    return {"dim": detection.dim, "operators": array_to_json(detection.operators)}


def detection_from_json(obj: Any) -> DetectionSet:
    if not isinstance(obj, dict) or "operators" not in obj:
        raise InfeasibleInputError("detection: expected an object with 'operators'")
    ops = array_from_json(obj["operators"], "detection operators", 3)
    if not np.isfinite(ops).all():
        raise InfeasibleInputError("detection operators: entries must be finite")
    if len(ops) < 2:
        raise InfeasibleInputError("detection: needs the inconclusive operator plus at least one conclusive one")
    dim = ops.shape[-1]
    if "dim" in obj and integer_from_json(obj["dim"], "detection dim") != dim:
        raise InfeasibleInputError(f"detection: declared dim {obj['dim']} != operator dim {dim}")
    return DetectionSet(ops)


def certificate_to_json(cert: OptimalityCertificate) -> dict:
    return {
        "z": array_to_json(cert.z),
        "rate": cert.rate,
        "accepted": cert.accepted,
        "conditions": {k: float(v) for k, v in cert.conditions.items()},
        "failures": list(cert.failures),
        "rank_z": cert.rank_z,
        "rank_inconclusive": cert.rank_inconclusive,
        "min_rank_required": cert.min_rank_required,
        "rank_bound_ok": cert.rank_bound_ok,
        "tol": cert.tol,
    }


def dual_from_certificate_json(obj: Any) -> np.ndarray:
    if not isinstance(obj, dict) or "z" not in obj:
        raise InfeasibleInputError("certificate: expected an object with field 'z'")
    z = array_from_json(obj["z"], "certificate z", 2)
    if not np.isfinite(z).all():
        raise InfeasibleInputError("certificate z: entries must be finite")
    return z


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
