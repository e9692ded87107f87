"""Workload corpora: one timed op per input, and the check of its answer.

Every corpus is built only from the seed; the program sees only the
generated inputs. An op is one user-visible call: one ensemble solved to a
certified answer, or one CLI command. Ops call ``maxconf`` through module
attributes, so the wrappers of ``tracing.install`` see them.

An op fails when it raises, when it returns ``certified=False`` (CLI exit
code 3), or when its answer disagrees with the reference (``wrong``). The
tolerances are the ones the acceptance tests use.

The timed ops of a corpus are inputs the program answers correctly today.
Inputs of known defects form the corpus's ``probe``: they are run and
checked once per run, outside the timed ops, and their failures are reported
next to the timings (see run.py).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import maxconf
import maxconf.cli
from maxconf import (
    StateEnsemble,
    SymmetricFamily,
    build_symmetric_ensemble,
    flat_mixed_solution,
    geometry,
    pure_symmetric_solution,
    qubit_mixed_solution,
    solve_rank1_symmetric,
    verify_certificate,
)
from maxconf.serialize import (
    certificate_to_json,
    detection_from_json,
    detection_to_json,
    dual_from_certificate_json,
    dump_json,
    ensemble_from_json,
    ensemble_to_json,
)

CLOSED_FORM_TOL = 1e-9  # closed form against its formula (criteria 1, 3, 4)
NUMERIC_TOL = 1e-6  # numeric solve against a closed form (criterion 3)
CONFIDENCE_TOL = 1e-8  # numeric confidences against the geometry

# numeric: (N, d) of random rank-2 states with all m_j = 1. Times differ
# from draw to draw, so the median and the tail op each sit inside a run of
# equal shapes whose Newton step counts barely depend on the draw: of the 45
# ops, the 16 fastest after the 15 small ones are 6x6 solves (the median),
# and 10x6 solves fill the ranks around the tail (7 ops slower than them).
GENERIC_SHAPES = ((3, 2), (4, 2), (5, 2), (3, 3), (4, 3), (5, 3)) * 2 + ((4, 4), (6, 4)) + (
    (6, 6),) * 16 + ((10, 6),) * 7 + ((12, 8), (16, 6), (16, 12), (24, 16), (40, 3))
# numeric: rho_j (x) 1/k on N = 4 states of base dimension 3, so m_j = k
DEGENERATE_K = (2, 3, 4)
# numeric probe: near-singular inputs the solver mishandles today (see
# ROADMAP.md, scale-aware tolerances); they are run and reported on every
# numeric run whether or not they fail
NEAR_SINGULAR_THETAS = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5)
NEAR_SINGULAR_PRIORS = (1e-7, 1e-11)

# acceptance criterion 3 grid
QUBIT_ORDERS = (2, 3, 4)
QUBIT_PURITIES = np.linspace(0.05, 1.0, 20)
QUBIT_ANGLES = np.linspace(np.pi / 2 / 20, np.pi / 2, 20)


@dataclass
class Op:
    subset: str
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]  # failure kind, or None for a correct answer
    solution: Path | None = None  # solution file the op writes


@dataclass
class Corpus:
    ops: list[Op]  # timed
    sha256: str  # of the inputs of ``ops`` and ``probe``
    probe: list[Op] = field(default_factory=list)  # known defects, untimed


class _Digest:
    """SHA-256 over the generated inputs, in corpus order."""

    def __init__(self):
        self._h = hashlib.sha256()

    def ensemble(self, e: StateEnsemble) -> None:
        self._h.update(np.ascontiguousarray(e.priors).tobytes())
        self._h.update(np.ascontiguousarray(e.states).tobytes())
        if e.symmetry is not None:
            self._h.update(str(e.symmetry.order).encode())
            self._h.update(np.ascontiguousarray(e.symmetry.phases).tobytes())

    def text(self, s: str | bytes) -> None:
        self._h.update(s.encode() if isinstance(s, str) else s)

    def hexdigest(self) -> str:
        return self._h.hexdigest()


# ---------------------------------------------------------------- inputs


def _rank2_density(rng, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2))
    s = g @ g.conj().T
    return s / np.trace(s).real


def _full_density(rng, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    s = g @ g.conj().T
    return s / np.trace(s).real


def _pure_density(rng, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def _coefficients(rng, dim: int, floor: float = 0.05) -> np.ndarray:
    """Normalized coefficients with every |c_l| >= floor (as in the tests)."""
    while True:
        c = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        c /= np.linalg.norm(c)
        if np.min(np.abs(c)) >= floor:
            return c


def _generic(rng, n: int, d: int) -> StateEnsemble:
    states = np.stack([_rank2_density(rng, d) for _ in range(n)])
    return StateEnsemble(dim=d, priors=rng.dirichlet(np.ones(n)), states=states)


def _degenerate(rng, n: int, base: int, k: int) -> StateEnsemble:
    states = np.stack([np.kron(_full_density(rng, base), np.eye(k) / k) for _ in range(n)])
    return StateEnsemble(dim=base * k, priors=rng.dirichlet(np.ones(n)), states=states)


def _two_qubits(theta: float) -> StateEnsemble:
    v = np.array([np.cos(theta), np.sin(theta)])
    states = np.stack([np.diag([1.0, 0.0]), np.outer(v, v)]).astype(complex)
    return StateEnsemble(dim=2, priors=np.array([0.5, 0.5]), states=states)


def _qubit_grid_sample(rng, count: int) -> list[SymmetricFamily]:
    grid = [(o, p, g) for o in QUBIT_ORDERS for p in QUBIT_PURITIES for g in QUBIT_ANGLES]
    picks = np.sort(rng.choice(len(grid), size=count, replace=False))
    return [SymmetricFamily.qubit(order=grid[i][0], purity=float(grid[i][1]),
                                  angle=float(grid[i][2])) for i in picks]


def _pure_families(rng, draws: int) -> list[SymmetricFamily]:
    """Criterion 1 families: every 2 <= dim <= order <= 8, ``draws`` each."""
    return [SymmetricFamily(order=order, purity=1.0, coefficients=_coefficients(rng, dim))
            for order in range(2, 9) for dim in range(2, order + 1) for _ in range(draws)]


# ---------------------------------------------------------------- checks


def _max_dev(a, b) -> float:
    """Largest |a - b| over entries defined in both; inf if none is."""
    dev = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
    dev = dev[~np.isnan(dev)]
    return float(dev.max()) if dev.size else np.inf


def _roundtrip_accepted(ens: StateEnsemble, rep) -> bool:
    """Whether the certificate still verifies after a JSON round trip."""
    text = dump_json({
        "ensemble": ensemble_to_json(ens),
        "detection": detection_to_json(rep.detection),
        "certificate": certificate_to_json(rep.certificate),
    })
    obj = json.loads(text)
    cert = verify_certificate(ensemble_from_json(obj["ensemble"]),
                              detection_from_json(obj["detection"]),
                              dual_from_certificate_json(obj["certificate"]))
    return cert.accepted


def _numeric_check(ens: StateEnsemble, exact: tuple[float, float] | None = None):
    def check(rep) -> str | None:
        if not rep.certified:
            return "uncertified"
        if exact is not None:
            conf, q = exact
            if (abs(rep.failure_probability - q) > NUMERIC_TOL
                    or _max_dev(rep.confidences, np.full(ens.n_states, conf)) > NUMERIC_TOL):
                return "wrong"
        if _max_dev(rep.confidences, geometry(ens).confidences) > CONFIDENCE_TOL:
            return "wrong"
        return None if _roundtrip_accepted(ens, rep) else "wrong"

    return check


def _reference_check(reference: Callable[[], tuple[Any, float]], tol: float):
    """Compare (confidences, Q) with a closed form computed on first use."""
    cache: list = []

    def check(rep) -> str | None:
        if not rep.certified:
            return "uncertified"
        if not cache:
            cache.append(reference())
        conf, q = cache[0]
        if abs(rep.failure_probability - q) > tol or _max_dev(rep.confidences, conf) > tol:
            return "wrong"
        return None

    return check


def _criterion1_reference(fam: SymmetricFamily):
    q = 1.0 - fam.dim * float(np.min(np.abs(fam.coefficients)) ** 2)
    return lambda: (np.full(fam.order, fam.dim / fam.order), q)


def _family_reference(fam: SymmetricFamily, kind: str):
    def reference():
        if kind == "pure":
            sol = pure_symmetric_solution(fam)
        elif kind == "qubit":
            sol = qubit_mixed_solution(fam)
        elif kind == "flat":
            sol = flat_mixed_solution(fam)
        else:  # mixed qudit: the closed-form solver is the reference
            rep = solve_rank1_symmetric(fam.ensemble())
            if not rep.certified:
                raise RuntimeError("closed-form reference is not certified")
            return rep.confidences, rep.failure_probability
        return np.full(fam.order, sol.confidence), sol.failure_probability

    return reference


# ---------------------------------------------------------------- corpora


def _solve_numeric(ens: StateEnsemble):
    return lambda: maxconf.solve_numeric(ens)


def _numeric(rng, digest: _Digest) -> list[Op]:
    ops = []
    for n, d in GENERIC_SHAPES:
        e = _generic(rng, n, d)
        digest.ensemble(e)
        ops.append(Op("generic", f"N={n} d={d}", _solve_numeric(e), _numeric_check(e)))
    for k in DEGENERATE_K:
        e = _degenerate(rng, 4, 3, k)
        digest.ensemble(e)
        ops.append(Op("degenerate", f"N=4 d={3 * k} m={k}", _solve_numeric(e), _numeric_check(e)))
    return ops


def _near_singular(rng, digest: _Digest) -> list[Op]:
    ops = []
    for theta in NEAR_SINGULAR_THETAS:
        # exact answer: the unambiguous limit, C = 1 and Q = cos(theta)
        e = _two_qubits(theta)
        digest.ensemble(e)
        ops.append(Op("near_singular", f"theta={theta:g}", _solve_numeric(e),
                      _numeric_check(e, exact=(1.0, float(np.cos(theta))))))
    qutrits = np.stack([_pure_density(rng, 3) for _ in range(3)])
    for p in NEAR_SINGULAR_PRIORS:
        e = StateEnsemble(dim=3, priors=np.array([p, 0.5, 0.5 - p]), states=qutrits)
        digest.ensemble(e)
        ops.append(Op("near_singular", f"qutrit prior={p:g}", _solve_numeric(e), _numeric_check(e)))
    return ops


def _symmetric_numeric(rng, digest: _Digest) -> list[Op]:
    families = [("qubit", f) for f in _qubit_grid_sample(rng, 30)]
    families += [("pure", f) for f in _pure_families(rng, 1)]
    families += [("mixed", SymmetricFamily(order=order, purity=p, coefficients=_coefficients(rng, dim)))
                 for dim in (3, 4) for order in (dim, 6, 8) for p in (0.3, 0.6, 0.9)]
    ops = []
    for kind, fam in families:
        e = fam.ensemble()
        digest.ensemble(e)
        ops.append(Op(kind, f"{kind} N={fam.order} d={fam.dim} p={fam.purity:.3g}",
                      _solve_numeric(e), _reference_check(_family_reference(fam, kind), NUMERIC_TOL)))
    return ops


def _closed_form_solve(ens: StateEnsemble):
    def call():
        geo = maxconf.geometry(ens)
        return maxconf.solve_rank1_symmetric(ens, geo)

    return call


def _closed_form(rng, digest: _Digest) -> list[Op]:
    families = [("pure", f) for f in _pure_families(rng, 4)]
    families += [("qubit", f) for f in _qubit_grid_sample(rng, 60)]
    families += [("flat", SymmetricFamily.flat(order=order, dim=dim, purity=p))
                 for dim in (2, 3, 4) for order in range(dim, 9) for p in (0.25, 0.5, 1.0)]
    ops = []
    for kind, fam in families:
        e = fam.ensemble()
        digest.ensemble(e)
        if kind == "pure":
            # criterion 1: Q = 1 - d min|c_l|^2 and C = d / N
            ref = _criterion1_reference(fam)
        else:
            ref = _family_reference(fam, kind)
        ops.append(Op(kind, f"{kind} N={fam.order} d={fam.dim} p={fam.purity:.3g}",
                      _closed_form_solve(e), _reference_check(ref, CLOSED_FORM_TOL)))
    return ops


# ---------------------------------------------------------------- CLI


def _cli_call(argv: list[str], root: Path, in_process: bool):
    if in_process:
        return lambda: (maxconf.cli.main(argv), "")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cmd = [sys.executable, "-m", "maxconf.cli", *argv]

    def call():
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        return proc.returncode, proc.stderr

    return call


def _exit_kind(code: int, stderr: str) -> str | None:
    if code == maxconf.cli.EXIT_OK:
        return None
    if code == maxconf.cli.EXIT_UNCERTIFIED:
        return "uncertified"
    if code == maxconf.cli.EXIT_FAIL and "Traceback" not in stderr:
        return "wrong"
    return "raised"


def _solve_check(path: Path, cross_check: bool):
    def check(outcome) -> str | None:
        kind = _exit_kind(*outcome)
        if kind is not None or not cross_check:
            return kind
        cross = json.loads(path.read_text(encoding="utf-8"))["cross_check"]
        ok = cross["available"] and cross["certified"] and cross["rate_deviation"] <= NUMERIC_TOL
        return None if ok else "wrong"

    return check


def _verify_check(path: Path):
    def check(outcome) -> str | None:
        kind = _exit_kind(*outcome)
        if kind is not None:
            return kind
        verdict = json.loads(path.read_text(encoding="utf-8"))["certificate"]["accepted"]
        return None if verdict else "wrong"

    return check


def _sweep_check(outcome) -> str | None:
    return _exit_kind(*outcome)


def _cli_ensembles(rng) -> list[tuple[str, StateEnsemble, bool]]:
    """(file stem, ensemble, solve with --check) for the solve/verify ops.

    Enough small files that at least ten commands are slower than the
    tail op, which is then an ordinary small solve or verify.
    """
    out = [
        ("trine", build_symmetric_ensemble(np.array([1.0, 1.0]) / np.sqrt(2.0), 3), True),
        ("generic_16x12", _generic(rng, 16, 12), False),
    ]
    out += [(f"generic_{n}x{d}", _generic(rng, n, d), False)
            for n, d in ((3, 2), (4, 3), (5, 3), (6, 4), (8, 6))]
    out += [(f"qubit_family_{order}", SymmetricFamily.qubit(
        order=order, purity=float(rng.uniform(0.2, 0.9)),
        angle=float(rng.uniform(0.3, 1.4))).ensemble(), False) for order in (2, 3, 4)]
    out += [(f"pure_qudit_{order}x{dim}", SymmetricFamily(
        order=order, purity=1.0, coefficients=_coefficients(rng, dim)).ensemble(), False)
        for order, dim in ((5, 3), (6, 4), (8, 2))]
    out += [(f"mixed_qudit_{order}x{dim}", SymmetricFamily(
        order=order, purity=float(rng.uniform(0.3, 0.9)),
        coefficients=_coefficients(rng, dim)).ensemble(), True)
        for order, dim in ((4, 3), (6, 4))]
    return out


def _cli(rng, digest: _Digest, root: Path, workdir: Path, in_process: bool) -> list[Op]:
    ops = []

    def add(subset, label, argv, check, solution=None):
        digest.text(json.dumps([a.replace(str(workdir), "") for a in argv]))
        ops.append(Op(subset, label, _cli_call(argv, root, in_process), check, solution))

    for stem, ens, cross in _cli_ensembles(rng):
        src, sol = workdir / f"{stem}.json", workdir / f"{stem}.solution.json"
        src.write_text(dump_json(ensemble_to_json(ens)) + "\n", encoding="utf-8")
        digest.text(src.read_bytes())
        argv = ["solve", "--input", str(src), "--output", str(sol)] + (["--check"] if cross else [])
        add("solve", f"solve {stem}", argv, _solve_check(sol, cross), sol)
        verdict = workdir / f"{stem}.verify.json"
        add("verify", f"verify {stem}", ["verify", "--input", str(sol), "--output", str(verdict)],
            _verify_check(verdict))

    family = {"family": "qubit-mixed", "order": int(rng.integers(2, 5)),
              "angle": float(rng.uniform(0.3, 1.4)), "purity": float(rng.uniform(0.2, 0.9))}
    spec = workdir / "qubit_family_sweep.json"
    spec.write_text(json.dumps(family) + "\n", encoding="utf-8")
    digest.text(spec.read_bytes())
    grid = "purity:0.05:1.0:40"
    add("sweep", f"sweep {grid}", ["sweep", "--input", str(spec), "--grid", grid, "--check",
                                   "--output", str(workdir / "sweep.csv")], _sweep_check)
    return ops


def build(workload: str, seed: int, root: Path, workdir: Path, in_process_cli: bool = False) -> Corpus:
    """The corpus of one workload, generated from ``seed`` alone.

    ``workdir`` receives the input files of ``cli_roundtrip``; with
    ``in_process_cli`` its commands call ``maxconf.cli.main`` in this
    process instead of starting ``python -m maxconf.cli``.
    """
    rng = np.random.default_rng(seed)
    digest = _Digest()
    digest.text(workload)
    probe = []
    if workload == "cli_roundtrip":
        ops = _cli(rng, digest, root, workdir, in_process_cli)
    else:
        ops = {"numeric": _numeric, "symmetric_numeric": _symmetric_numeric,
               "closed_form": _closed_form}[workload](rng, digest)
    if workload == "numeric":
        probe = _near_singular(rng, digest)
    return Corpus(ops=ops, sha256=digest.hexdigest(), probe=probe)
