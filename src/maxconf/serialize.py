"""JSON and CSV codecs for ensembles, measurements, and certificates.

Complex arrays (vectors, matrices, stacks of matrices) are encoded as nested
lists with an [re, im] pair in place of each entry, row major.
Floats are written by Python's json module, i.e. the shortest decimal string
that round-trips to the exact float64, so files reload bit-for-bit; a
result record writes a non-finite float as null, and the output is strict
JSON, with no NaN or Infinity token.

dump_json writes one fixed layout. Objects, and lists of objects, are
indented two spaces, one key or item per line. Each numeric array is
written compactly, one matrix row of [re, im] pairs per line; a vector or a
scalar stays on its key's line. json.dumps writes each of those pieces with
its C encoder, which it uses only when no indent is given: indent=2 sends a
whole file through json's pure-Python encoder, about 2.5 times slower on a
24-state, d = 16 solution file, which it also makes twice as large. CSV
output uses 9 significant digits, '.' decimal point, ',' separator, LF
line endings.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
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


def array_from_json(obj: Any, where: str, ndim: int) -> np.ndarray:
    """The complex array of rank ndim that array_to_json wrote: nested
    lists of [re, im] number pairs, square in the last two axes when there
    are two or more. An empty list holds no pair and is refused like any
    other shape. Raises InfeasibleInputError for anything else."""
    try:
        a = np.array(obj)
    except ValueError:  # ragged nesting
        a = np.array(None)
    if not (a.dtype.kind in "iuf" and a.ndim - 1 == ndim and a.shape[-1] == 2
            and (a.ndim < 3 or a.shape[-2] == a.shape[-3])):
        raise InfeasibleInputError(f"{where}: expected a rank-{ndim} array of [re, im] number pairs "
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
        out["symmetry"] = {"order": s.order, "phases": array_to_json(s.phases)}
    return out


def ensemble_from_json(obj: Any) -> StateEnsemble:
    """Parses; StateEnsemble checks the shapes."""
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

    symmetry = None
    if obj.get("symmetry") is not None:
        s = obj["symmetry"]
        # older files also carry a 'reference'; the orbit starts at states[0]
        if not isinstance(s, dict) or "order" not in s or "phases" not in s:
            raise InfeasibleInputError("symmetry: needs 'order' and 'phases'")
        symmetry = SymmetrySpec(
            order=integer_from_json(s["order"], "symmetry order"),
            phases=array_from_json(s["phases"], "symmetry phases", 1),
        )

    return StateEnsemble(dim=dim, priors=priors, states=states, symmetry=symmetry)


def detection_to_json(detection: DetectionSet) -> dict:
    return {"dim": detection.dim, "operators": array_to_json(detection.operators)}


def detection_from_json(obj: Any) -> DetectionSet:
    """Parses; DetectionSet checks the operators."""
    if not isinstance(obj, dict) or "operators" not in obj:
        raise InfeasibleInputError("detection: expected an object with 'operators'")
    detection = DetectionSet(array_from_json(obj["operators"], "detection operators", 3))
    if "dim" in obj and integer_from_json(obj["dim"], "detection dim") != detection.dim:
        raise InfeasibleInputError(f"detection: declared dim {obj['dim']} != operator dim {detection.dim}")
    return detection


def _record(obj: Any, skip: tuple[str, ...] = ()) -> Any:
    """A result record as JSON: a dataclass's fields in declaration order
    (less skip), a DetectionSet through detection_to_json, a complex array
    through array_to_json, a real one as a list of floats, a list item by
    item, a dict value by value; a non-finite float (an outcome that never
    fires has confidence nan) as null, since strict JSON has no NaN;
    anything else as it is."""
    if isinstance(obj, DetectionSet):  # a dataclass too, with its own layout
        return detection_to_json(obj)
    if dataclasses.is_dataclass(obj):
        return {f.name: _record(getattr(obj, f.name)) for f in dataclasses.fields(obj) if f.name not in skip}
    if isinstance(obj, np.ndarray):
        return array_to_json(obj) if np.iscomplexobj(obj) else _record(obj.astype(float).tolist())
    if isinstance(obj, list):
        return [_record(item) for item in obj]
    if isinstance(obj, dict):
        return {key: _record(value) for key, value in obj.items()}
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def certificate_to_json(cert: OptimalityCertificate) -> dict:
    return _record(cert)


def dual_from_certificate_json(obj: Any) -> np.ndarray:
    """Parses; verify_certificate and perturbation_witness check Z."""
    if not isinstance(obj, dict) or "z" not in obj:
        raise InfeasibleInputError("certificate: expected an object with field 'z'")
    return array_from_json(obj["z"], "certificate z", 2)


def witness_to_json(w: PerturbationWitness) -> dict:
    return _record(w)


def report_to_json(report: SolveReport) -> dict:
    """The report less its detection set and certificate, which a solution
    file writes beside it."""
    return _record(report, skip=("detection", "certificate"))


def validation_to_json(report: ValidationReport) -> dict:
    return {"ok": report.ok, **_record(report)}


def _layout(obj: Any, indent: str) -> str:
    inner = indent + "  "
    first = obj[0] if isinstance(obj, list) and obj else None
    if isinstance(obj, dict) and obj:
        lines = [f"{json.dumps(key)}: {_layout(value, inner)}" for key, value in obj.items()]
    elif isinstance(first, dict) or isinstance(first, list) and first and isinstance(first[0], list):
        lines = [_layout(item, inner) for item in obj]  # objects, a stack's matrices or a matrix's rows
    else:  # a scalar, a vector or one matrix row, through json's C encoder
        return json.dumps(obj, allow_nan=False, separators=(",", ":"))
    opening, closing = "{}" if isinstance(obj, dict) else "[]"
    return f"{opening}\n{inner}" + f",\n{inner}".join(lines) + f"\n{indent}{closing}"


def dump_json(obj: Any) -> str:
    """Strict JSON in the layout the module docstring gives: a NaN or an
    infinity that no record turned into null fails the write (ValueError)
    rather than leave a file strict parsers refuse."""
    return _layout(obj, "")


def load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def format_csv_value(x: Any) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.{CSV_DIGITS}g}"
    return str(x)


def write_csv(stream: IO[str], header: list[str], rows: list[list]) -> None:
    writer = csv.writer(stream, delimiter=",", lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_csv_value(x) for x in row])
