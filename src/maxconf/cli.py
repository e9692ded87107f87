"""Command-line interface.

Subcommands:

    maxconf validate --input ensemble.json
    maxconf solve    --input ensemble.json [--mode auto|analytic|numeric]
                     [--tol X] [--check] [--output solution.json]
    maxconf verify   --input solution.json [--tol X] [--witness]
    maxconf sweep    --input family.json --grid param:start:stop:steps
                     [--check] [--output table.csv]

solve writes a self-contained solution file (ensemble, detection set,
certificate, report) that verify reads back; solve --check adds the other
route's solve (closed form or numeric) and its deviations. Exit codes:
0 success, 1 semantic failure (invalid ensemble, rejected certificate,
cross-check disagreement), 2 unusable input, 3 solve finished without a
certified optimum.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .ensembles import validate
from .errors import (
    DegenerateTopEigenvalueError,
    InvalidPhasesError,
    MaxconfError,
    NoNegativeEigenvalueError,
    NotConvergedError,
    NotSymmetricError,
)
from .families import (
    SymmetricFamily,
    flat_mixed_solution,
    pure_symmetric_solution,
    qubit_mixed_solution,
    square_root_measurement,
)
from .geometry import geometry
from .operators import CERT_TOL, CROSS_CHECK_TOL
from .serialize import (
    certificate_to_json,
    detection_from_json,
    detection_to_json,
    dual_from_certificate_json,
    dump_json,
    ensemble_from_json,
    ensemble_to_json,
    integer_from_json,
    load_json,
    number_from_json,
    report_to_json,
    validation_to_json,
    witness_to_json,
    write_csv,
)
from .solver import (
    perturbation_witness,
    solve_numeric,
    solve_rank1_symmetric,
    verify_certificate,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_UNCERTIFIED = 3

WITNESS_EPSILON = 1e-3

_ANALYTIC_BLOCKERS = (NotSymmetricError, InvalidPhasesError, DegenerateTopEigenvalueError)


def _emit_text(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _emit_json(obj, output: str | None) -> None:
    _emit_text(dump_json(obj), output)


def _parse_grid(spec: str) -> tuple[str, np.ndarray]:
    parts = spec.split(":")
    if len(parts) != 4:
        raise ValueError(f"grid must be param:start:stop:steps, got {spec!r}")
    name = parts[0]
    start, stop = float(parts[1]), float(parts[2])
    steps = int(parts[3])
    if steps < 1:
        raise ValueError("grid needs at least one step")
    return name, np.linspace(start, stop, steps)


def cmd_validate(args) -> int:
    ensemble = ensemble_from_json(load_json(args.input))
    report = validate(ensemble)
    _emit_json(validation_to_json(report), args.output)
    return EXIT_OK if report.ok else EXIT_FAIL


def _solve(ensemble, mode: str, tol: float | None):
    if mode == "analytic":
        report = solve_rank1_symmetric(ensemble)
    elif mode == "numeric":
        report = solve_numeric(ensemble)
    else:
        try:
            report = solve_rank1_symmetric(ensemble)
        except _ANALYTIC_BLOCKERS:
            report = solve_numeric(ensemble)
    if tol is not None:
        cert = verify_certificate(ensemble, report.detection, report.certificate.z, tol=tol)
        report = replace(report, certificate=cert, certified=cert.accepted)
    return report


def cmd_solve(args) -> int:
    ensemble = ensemble_from_json(load_json(args.input))
    report = _solve(ensemble, args.mode, args.tol)
    out = {
        "ensemble": ensemble_to_json(ensemble),
        "report": report_to_json(report),
        "detection": detection_to_json(report.detection),
        "certificate": certificate_to_json(report.certificate),
    }
    deviation = 0.0
    if args.check:
        other = "numeric" if report.mode == "analytic" else "analytic"
        try:
            cross = _solve(ensemble, other, args.tol)
            deviation = abs(cross.detection_rate - report.detection_rate)
            conf_deviation = float(np.nanmax(np.abs(cross.confidences - report.confidences)))
            out["cross_check"] = {
                "available": True,
                "mode": cross.mode,
                "detection_rate": cross.detection_rate,
                "failure_probability": cross.failure_probability,
                "rate_deviation": deviation,
                "confidence_deviation": conf_deviation,
                "certified": cross.certified,
            }
        except (*_ANALYTIC_BLOCKERS, NotConvergedError) as exc:
            out["cross_check"] = {"available": False, "reason": str(exc)}
    _emit_json(out, args.output)
    if deviation > CROSS_CHECK_TOL:
        print(f"cross-check deviates by {deviation:.3e}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK if report.certified else EXIT_UNCERTIFIED


def cmd_verify(args) -> int:
    obj = load_json(args.input)
    if not isinstance(obj, dict) or not {"ensemble", "detection", "certificate"} <= obj.keys():
        print("error: verify needs a solution file with 'ensemble', 'detection', "
              "and 'certificate'", file=sys.stderr)
        return EXIT_INPUT
    ensemble = ensemble_from_json(obj["ensemble"])
    detection = detection_from_json(obj["detection"])
    z = dual_from_certificate_json(obj["certificate"])
    tol = CERT_TOL if args.tol is None else args.tol
    geo = geometry(ensemble)
    cert = verify_certificate(ensemble, detection, z, geo=geo, tol=tol)
    out = {"certificate": certificate_to_json(cert)}
    if args.witness and not cert.accepted:
        try:
            w = perturbation_witness(ensemble, detection, z, WITNESS_EPSILON, geo=geo, tol=tol)
            out["witness"] = witness_to_json(w)
        except NoNegativeEigenvalueError as exc:
            out["witness"] = {"available": False, "reason": str(exc)}
    _emit_json(out, args.output)
    return EXIT_OK if cert.accepted else EXIT_FAIL


# the fields each family takes besides its order, all sweepable but dim; a
# pure-symmetric family is the qubit orbit of an angle at purity 1, with no fixed coefficients
_FIELDS = {"qubit-mixed": ("purity", "angle"), "flat-mixed": ("purity", "dim"), "pure-symmetric": ("angle",)}


def _family_from_json(obj) -> tuple[str, dict]:
    if not isinstance(obj, dict) or "family" not in obj:
        raise MaxconfError("family input needs a 'family' field")
    kind = obj["family"]
    if not isinstance(kind, str) or kind not in _FIELDS:
        raise MaxconfError(f"unknown family {kind!r}")
    ignored = sorted(obj.keys() - {"family", "order", *_FIELDS[kind]})
    if ignored:
        raise MaxconfError(f"{kind} family takes no {', '.join(map(repr, ignored))}")
    return kind, obj


def _family_instance(kind: str, obj: dict, param: str, value: float) -> SymmetricFamily:
    order = integer_from_json(obj.get("order"), "family order")
    if param not in _FIELDS[kind] or param == "dim":
        raise MaxconfError(f"{kind} family cannot sweep {param!r}")

    def number(name: str, default: float) -> float:
        return value if name == param else number_from_json(obj.get(name, default), f"family {name}")

    if kind == "flat-mixed":
        dim = integer_from_json(obj.get("dim"), "family dim")
        return SymmetricFamily.flat(order=order, dim=dim, purity=number("purity", 1.0))
    return SymmetricFamily.qubit(order=order, purity=number("purity", 1.0), angle=number("angle", np.pi / 2))


def _closed_form(kind: str, family: SymmetricFamily):
    if kind == "pure-symmetric":
        return pure_symmetric_solution(family)
    if kind == "qubit-mixed":
        return qubit_mixed_solution(family)
    return flat_mixed_solution(family)


def cmd_sweep(args) -> int:
    obj = load_json(args.input)
    kind, spec = _family_from_json(obj)
    if not args.grid:
        raise MaxconfError("sweep requires --grid param:start:stop:steps")
    param, values = _parse_grid(args.grid)

    header = ["family", param, "confidence", "failure_probability", "alpha", "certified"]
    if kind == "pure-symmetric":
        header.append("srm_confidence")
    if args.check:
        header.append("numeric_failure_deviation")

    rows = []
    worst_dev = 0.0
    for value in values:
        family = _family_instance(kind, spec, param, float(value))
        sol = _closed_form(kind, family)
        ensemble = family.ensemble()
        solved = _solve(ensemble, "auto", None)
        row = [kind, float(value), sol.confidence, sol.failure_probability, sol.alpha, solved.certified]
        if kind == "pure-symmetric":
            row.append(square_root_measurement(family)[1])
        if args.check:
            numeric = solved if solved.mode == "numeric" else solve_numeric(ensemble)
            dev = abs(numeric.failure_probability - sol.failure_probability)
            worst_dev = max(worst_dev, dev)
            row.append(dev)
        rows.append(row)

    buf = io.StringIO()
    write_csv(buf, header, rows)
    _emit_text(buf.getvalue().rstrip("\n"), args.output)
    threshold = args.tol if args.tol is not None else CROSS_CHECK_TOL
    if args.check and worst_dev > threshold:
        print(f"numeric cross-check deviates by {worst_dev:.3e}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxconf",
        description="Maximum-confidence discrimination: solve, certify, and explore ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol=True, mode=False, check=False, witness=False, grid=False):
        p.add_argument("--input", required=True, help="input JSON file")
        p.add_argument("--output", help="write the result here instead of stdout")
        if tol:
            p.add_argument("--tol", type=float, help="tolerance override")
        if mode:
            p.add_argument(
                "--mode", choices=("auto", "analytic", "numeric"), default="auto",
                help="solver selection (default: auto)",
            )
        if check:
            p.add_argument("--check", action="store_true", help="cross-check with the other route")
        if witness:
            p.add_argument(
                "--witness", action="store_true",
                help="on failure, attach a perturbation witness",
            )
        if grid:
            p.add_argument("--grid", help="parameter grid param:start:stop:steps")

    p = sub.add_parser("validate", help="check ensemble invariants")
    common(p, tol=False)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="compute an optimal measurement with certificate")
    common(p, mode=True, check=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="re-check a solution file's certificate")
    common(p, witness=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="tabulate closed-form values over a parameter grid")
    common(p, check=True, grid=True)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotConvergedError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return EXIT_UNCERTIFIED
    except (MaxconfError, json.JSONDecodeError, OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
