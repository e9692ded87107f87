"""Mutation sweep: which one-statement or one-operand changes of the package
the tier-1 tests do not notice.

    python3 tools/mutants.py --root TREE [--module M ...]

For each module M of TREE's ``src/maxconf`` (every module by default;
``cli`` and ``cli.py`` both name one; ``--module`` may be repeated) it
makes two kinds of mutant, one change each:

- one ``if``, ``raise`` or expression statement replaced by ``pass``
  (docstrings excepted);
- one operand of an ``and`` or ``or`` dropped.

Each mutant writes its module by ``ast.unparse`` into a fresh copy of TREE
(under ``tempfile``'s directory, removed afterwards) and runs tier-1 there,
``python -m pytest -q -x``, two mutants at a time with one BLAS thread
each. A mutant is killed when a test fails or the run exceeds ten times
the baseline's time. The baseline is the same run with every selected
module unparsed unmutated; the sweep stops unless it passes. Progress,
with the first failing test of each killed mutant, goes to stderr; the
survivors and a tally go to stdout. It uses the standard library only and
stays out of CI, since its run time is the suite's times the mutants
(about 342 mutants over the seven modules, 20 to 45 minutes on two
shared cores; ``solver``, ``ensembles`` and ``cli`` alone give 219 and
take about 13 minutes).

Survivors at this commit, 16 of 342, by kind, so that a new run reads
only new ones (``cli`` and ``families`` alone give 81 mutants and 2
survivors, ``_family_kind``'s two, in about 5 minutes; ``solver`` alone
gives 74 and 1, ``DetectionSet``'s square test, in about 4 minutes;
``operators`` and ``ensembles`` alone give 95 and 1, ``all_finite``'s
fast path, in about 7 minutes, ``ensembles`` 80 of them and none):

- equivalent, no input tells them apart: ``operators.all_finite``'s fast
  path (``math.isfinite(np.vdot(a, a).real) or``, whose fallback gives the
  same answer); ``geometry.is_unambiguous``'s three tests, one operand of
  their ``and`` each, which agree in exact arithmetic;
- input checks that only their message tells apart: without them the
  input is still refused (exit 2 from the CLI), by a later ``KeyError`` or
  ``TypeError``, another codec check, or ``require_hermitian``'s "must be
  square": the ``isinstance`` and key tests of the codecs'
  ``ensemble_from_json`` (the object, its keys, the states list, each
  state), its symmetry, ``detection_from_json`` and
  ``dual_from_certificate_json``; ``cli._family_kind``'s two
  ``isinstance`` tests; ``DetectionSet``'s square test.

No survivor marks behaviour that no test pins: the last, the ``commuting``
term of ``_interior_point``'s stop rule, is killed by
``test_solve_numeric_random_ensembles``, which bounds ||Z Pi_0||_F by the
reported duality gap. ``SymmetrySpec.powers``, an allocation and a loop
of assignments, makes no mutant.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

STATEMENTS = (ast.If, ast.Raise, ast.Expr)
TIER1 = ("-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors")
WORKERS = 2


def _is_docstring(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str)


def mutants(source: str):
    """(line, description, mutated source) for every mutant of a module,
    in source order."""
    tree = ast.parse(source)
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BoolOp):
            sites += [(node.values[i], "drop", node, i) for i in range(len(node.values))]
        for _, value in ast.iter_fields(node):
            if isinstance(value, list):
                sites += [(stmt, "pass", value, i) for i, stmt in enumerate(value)
                          if isinstance(stmt, STATEMENTS) and not _is_docstring(stmt)]
    sites.sort(key=lambda site: (site[0].lineno, site[0].col_offset, site[1]))
    for target, kind, owner, i in sites:
        text = ast.get_source_segment(source, target).split("\n")[0]
        if kind == "pass":
            owner[i] = ast.Pass()
            yield target.lineno, f"pass <- {text}", ast.unparse(tree)
            owner[i] = target
        else:
            whole = ast.get_source_segment(source, owner).split("\n")[0]
            owner.values.pop(i)
            yield target.lineno, f"drop {text!r} from {whole!r}", ast.unparse(tree)
            owner.values.insert(i, target)


def _run(tree: Path, files: dict[str, str], timeout: float | None) -> tuple[bool, str, float]:
    """Tier-1 on a fresh copy of tree with files (path -> text) written:
    (passed, first failing test or "timeout", seconds)."""
    scratch = Path(tempfile.mkdtemp(prefix="mutant-"))
    try:
        copy = scratch / "tree"
        shutil.copytree(tree, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache"))
        for rel, text in files.items():
            (copy / rel).write_text(text, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1",
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, *TIER1, f"--basetemp={scratch / 'pytest'}"], cwd=copy,
                                  env=env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return False, "timeout", time.perf_counter() - start
        seconds = time.perf_counter() - start
        failed = [line.split(" - ")[0].split(" ", 1)[1] for line in proc.stdout.splitlines()
                  if line.startswith(("FAILED ", "ERROR "))]
        return proc.returncode == 0, (failed or [f"exit {proc.returncode}"])[0], seconds
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", required=True, help="the tree to mutate and test")
    parser.add_argument("--module", nargs="+", action="extend", help="modules of src/maxconf (default: all)")
    args = parser.parse_args(argv)
    tree = Path(args.root).resolve()
    package = tree / "src" / "maxconf"
    names = [m.removesuffix(".py") for m in args.module] if args.module else sorted(
        p.stem for p in package.glob("*.py"))
    sources = {f"src/maxconf/{name}.py": (package / f"{name}.py").read_text(encoding="utf-8") for name in names}

    baseline = {rel: ast.unparse(ast.parse(text)) for rel, text in sources.items()}
    passed, failed, seconds = _run(tree, baseline, None)
    if not passed:
        print(f"baseline fails ({failed}): the unmutated unparse must pass first", file=sys.stderr)
        return 1
    print(f"baseline passes in {seconds:.1f} s", file=sys.stderr)

    jobs = [(rel, line, what, text) for rel, source in sources.items() for line, what, text in mutants(source)]
    survivors = []

    def one(job):
        rel, line, what, text = job
        return job, _run(tree, {**baseline, rel: text}, 10.0 * seconds + 30.0)

    with ThreadPoolExecutor(WORKERS) as pool:
        for count, ((rel, line, what, _), (passed, failed, _)) in enumerate(pool.map(one, jobs), 1):
            where = f"{Path(rel).name}:{line}"
            print(f"[{count}/{len(jobs)}] {where} {what}: {'SURVIVED' if passed else 'killed by ' + failed}",
                  file=sys.stderr)
            if passed:
                survivors.append(f"{where} {what}")
    print("\n".join(survivors))
    print(f"{len(jobs)} mutants, {len(jobs) - len(survivors)} killed, {len(survivors)} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
