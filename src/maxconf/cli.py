"""Command-line interface.

Subcommands:

    maxconf validate --input ensemble.json
    maxconf solve    --input ensemble.json [--mode auto|analytic|numeric]
                     [--check] [--output solution.json]
    maxconf verify   --input solution.json [--tol X] [--witness]
    maxconf sweep    --input family.json --grid param:start:stop:steps
                     [--check] [--output table.csv]

solve writes a self-contained solution file (ensemble, detection set, report
and its solver's own certificate, at CERT_TOL); verify --tol X rechecks it at
tolerance X. solve --check adds the other route's solve and its deviations;
both --checks fail beyond CROSS_CHECK_TOL. Exit codes: 0 success, 1 semantic
failure (invalid ensemble, rejected certificate, cross-check disagreement),
2 unusable input, 3 solve finished without a certified optimum.
"""

from __future__ import annotations

import argparse
import io
import sys
from pathlib import Path

import numpy as np

from .ensembles import validate
from .errors import (
    DegenerateTopEigenvalueError,
    InfeasibleInputError,
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


def _parse_grid(spec: str) -> tuple[str, np.ndarray]:
    parts = spec.split(":")
    if len(parts) != 4:
        raise InfeasibleInputError(f"grid must be param:start:stop:steps, got {spec!r}")
    name = parts[0]
    start, stop = float(parts[1]), float(parts[2])
    steps = int(parts[3])
    if not (np.isfinite(start) and np.isfinite(stop)):
        raise InfeasibleInputError(f"grid bounds must be finite, got {spec!r}")
    if steps < 1:
        raise InfeasibleInputError("grid needs at least one step")
    return name, np.linspace(start, stop, steps)


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < np.inf:  # a NaN tolerance would pass every comparison
        raise argparse.ArgumentTypeError(f"tolerance must be a finite nonnegative number, got {text!r}")
    return value


def cmd_validate(args) -> int:
    ensemble = ensemble_from_json(load_json(args.input))
    report = validate(ensemble)
    _emit_text(dump_json(validation_to_json(report)), args.output)
    return EXIT_OK if report.ok else EXIT_FAIL


def _solve(ensemble, geo, mode: str):
    if mode == "numeric":
        return solve_numeric(ensemble, geo)
    if mode == "analytic":
        return solve_rank1_symmetric(ensemble, geo)
    try:
        return solve_rank1_symmetric(ensemble, geo)
    except _ANALYTIC_BLOCKERS:
        return solve_numeric(ensemble, geo)


def cmd_solve(args) -> int:
    ensemble = ensemble_from_json(load_json(args.input))
    geo = geometry(ensemble)
    report = _solve(ensemble, geo, args.mode)
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
            cross = _solve(ensemble, geo, other)
            deviation = abs(cross.detection_rate - report.detection_rate)
            # over the outcomes that fire in both routes; 0.0 when none does
            conf_gaps = np.abs(cross.confidences - report.confidences)
            out["cross_check"] = {
                "available": True,
                **report_to_json(cross),
                "rate_deviation": deviation,
                "confidence_deviation": float(np.max(conf_gaps[~np.isnan(conf_gaps)], initial=0.0)),
            }
        except (*_ANALYTIC_BLOCKERS, NotConvergedError) as exc:
            out["cross_check"] = {"available": False, "reason": str(exc)}
    _emit_text(dump_json(out), args.output)
    if deviation > CROSS_CHECK_TOL:
        print(f"cross-check deviates by {deviation:.3e}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK if report.certified else EXIT_UNCERTIFIED


def cmd_verify(args) -> int:
    obj = load_json(args.input)
    if not isinstance(obj, dict) or not {"ensemble", "detection", "certificate"} <= obj.keys():
        raise InfeasibleInputError("verify needs a solution file with 'ensemble', 'detection', and 'certificate'")
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
    _emit_text(dump_json(out), args.output)
    return EXIT_OK if cert.accepted else EXIT_FAIL


# each family kind's closed form and the fields it takes besides its order,
# all sweepable but dim; a pure-symmetric family is the qubit orbit of an
# angle at purity 1, with no fixed coefficients
_FAMILIES = {
    "qubit-mixed": (qubit_mixed_solution, ("purity", "angle")),
    "flat-mixed": (flat_mixed_solution, ("purity", "dim")),
    "pure-symmetric": (pure_symmetric_solution, ("angle",)),
}


def _family_kind(obj) -> str:
    if not isinstance(obj, dict) or "family" not in obj:
        raise InfeasibleInputError("family input needs a 'family' field")
    kind = obj["family"]
    if not isinstance(kind, str) or kind not in _FAMILIES:
        raise InfeasibleInputError(f"unknown family {kind!r}")
    ignored = sorted(obj.keys() - {"family", "order", *_FAMILIES[kind][1]})
    if ignored:
        raise InfeasibleInputError(f"{kind} family takes no {', '.join(map(repr, ignored))}")
    return kind


def _family_instance(kind: str, obj: dict, order: int, param: str, value: float) -> SymmetricFamily:
    def number(name: str, default: float) -> float:
        return value if name == param else number_from_json(obj.get(name, default), f"family {name}")

    if kind == "flat-mixed":
        dim = integer_from_json(obj.get("dim"), "family dim")
        return SymmetricFamily.flat(order=order, dim=dim, purity=number("purity", 1.0))
    return SymmetricFamily.qubit(order=order, purity=number("purity", 1.0), angle=number("angle", np.pi / 2))


def cmd_sweep(args) -> int:
    spec = load_json(args.input)
    kind = _family_kind(spec)
    if not args.grid:
        raise InfeasibleInputError("sweep requires --grid param:start:stop:steps")
    param, values = _parse_grid(args.grid)
    closed_form, fields = _FAMILIES[kind]
    order = integer_from_json(spec.get("order"), "family order")
    if param not in fields or param == "dim":
        raise InfeasibleInputError(f"{kind} family cannot sweep {param!r}")

    header = ["family", param, "confidence", "failure_probability", "alpha", "certified"]
    if kind == "pure-symmetric":
        header.append("srm_confidence")
    if args.check:
        header.append("numeric_failure_deviation")

    rows = []
    worst_dev = 0.0
    for value in values:
        family = _family_instance(kind, spec, order, param, float(value))
        sol = closed_form(family)
        ensemble = family.ensemble()
        geo = geometry(ensemble)
        solved = _solve(ensemble, geo, "auto")
        row = [kind, float(value), sol.confidence, sol.failure_probability, sol.alpha, solved.certified]
        if kind == "pure-symmetric":
            row.append(square_root_measurement(family)[1])
        if args.check:
            numeric = solved if solved.mode == "numeric" else solve_numeric(ensemble, geo)
            dev = abs(numeric.failure_probability - sol.failure_probability)
            worst_dev = max(worst_dev, dev)
            row.append(dev)
        rows.append(row)

    buf = io.StringIO()
    write_csv(buf, header, rows)
    _emit_text(buf.getvalue().rstrip("\n"), args.output)
    if worst_dev > CROSS_CHECK_TOL:
        print(f"numeric cross-check deviates by {worst_dev:.3e}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxconf",
        description="Maximum-confidence discrimination: solve, certify, and explore ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, func, text in (
        ("validate", cmd_validate, "check ensemble invariants"),
        ("solve", cmd_solve, "compute an optimal measurement with certificate"),
        ("verify", cmd_verify, "re-check a solution file's certificate"),
        ("sweep", cmd_sweep, "tabulate closed-form values over a parameter grid"),
    ):
        commands[name] = sub.add_parser(name, help=text)
        commands[name].set_defaults(func=func)
    # each option once, with the subcommands that take it, in --help order
    for names, flag, spec in (
        ("validate solve verify sweep", "--input", dict(required=True, help="input JSON file")),
        ("validate solve verify sweep", "--output", dict(help="write the result here instead of stdout")),
        ("verify", "--tol", dict(type=_tolerance, help="certificate tolerance, finite and nonnegative")),
        ("solve", "--mode", dict(choices=("auto", "analytic", "numeric"), default="auto",
                                 help="solver selection (default: auto)")),
        ("solve sweep", "--check", dict(action="store_true", help="cross-check with the other route")),
        ("verify", "--witness", dict(action="store_true", help="on failure, attach a perturbation witness")),
        ("sweep", "--grid", dict(help="parameter grid param:start:stop:steps")),
    ):
        for name in names.split():
            commands[name].add_argument(flag, **spec)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotConvergedError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return EXIT_UNCERTIFIED
    except (MaxconfError, OSError, ValueError, KeyError, TypeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
