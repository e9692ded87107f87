"""Tally how the robustness corpus fails, to compare two trees.

    python3 tools/failure_tally.py --root TREE

Imports ``maxconf`` from TREE's ``src/``, and ``adversarial_ensembles`` and
``exact_copies`` from TREE's ``tests/test_robustness.py``. For seeds 0 and 1
it runs ``solve_numeric`` over ``adversarial_ensembles(100, seed)`` and
prints one line per seed and kind, in that order. The line counts:

- the draws, and the certified answers among them;
- the raised answers, by class: ``singular`` Newton system, ``(A,X1)`` or
  ``(S,Z)`` cone exit, ``step`` bound not computed, iteration ``budget``
  spent, and any other ``MaxconfError`` under its type's name (any other
  exception is a new fault, and stops the tally with its traceback);
- the uncertified answers, by failure list (joined by ``+``);
- ``moved=P/U/E``: the certified answers whose Q moves by more than
  2 CERT_TOL under an outcome permutation, a unitary and the embedding into
  d + 1 (``exact_copies``), with a copy that raises or is uncertified not
  counted. Each certified answer lies within its duality gap, at most
  CERT_TOL, of the optimum, and the three copies leave the optimum as it
  is. The permutation and the unitary of each certified draw are drawn, in
  corpus order, from ``default_rng(99)``, one stream per seed.

It gates nothing, since the counts depend on the BLAS build. It uses one
BLAS thread, as ``tools/same_answers.py`` does, and writes no file, not
even bytecode. Both seeds take about 30 s on two shared cores.
"""

from __future__ import annotations

import os
import sys

# one BLAS thread, as perfbench/run.py uses: the bits of a product may
# depend on how the work is split
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import collections  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

SEEDS = (0, 1)
PER_KIND = 100
# the NotConvergedError exits of the interior point, by a part of their message
EXITS = (("singular", "singular Newton system"), ("(A,X1)", "(A, X1) not positive definite"),
         ("(S,Z)", "(S, Z) not positive definite"), ("step", "step bound of"), ("budget", "iteration budget"))


def raised_class(exc: Exception) -> str:
    """The class of a MaxconfError that a solve raised."""
    return next((name for name, part in EXITS if part in str(exc)), type(exc).__name__)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="tree to import maxconf and the robustness corpus from (default: this one)")
    root = parser.parse_args().root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    import maxconf
    from maxconf.operators import CERT_TOL
    from test_robustness import KINDS, adversarial_ensembles, exact_copies

    if not Path(maxconf.__file__).resolve().is_relative_to(root):
        raise SystemExit(f"maxconf was imported from {maxconf.__file__}, not from {root}")

    def solved(e):
        """(report, None), or (None, the class of what the solve raised)."""
        try:
            return maxconf.solve_numeric(e), None
        except maxconf.MaxconfError as exc:
            return None, raised_class(exc)

    for seed in SEEDS:
        rng = np.random.default_rng(99)
        draws, certified, raised, uncertified = (collections.Counter() for _ in range(4))
        moved = collections.defaultdict(collections.Counter)
        for kind, e in adversarial_ensembles(PER_KIND, seed):
            draws[kind] += 1
            report, failure = solved(e)
            if report is None:
                raised[kind, failure] += 1
            elif not report.certified:
                uncertified[kind, "+".join(report.certificate.failures)] += 1
            else:
                certified[kind] += 1
                for change, copy in exact_copies(e, rng).items():
                    other, _ = solved(copy)
                    if other is not None and other.certified:
                        moved[kind][change] += abs(report.failure_probability - other.failure_probability) > 2.0 * CERT_TOL
        for kind in KINDS:
            fields = [f"{kind} seed={seed} draws={draws[kind]} certified={certified[kind]}"]
            for name, tally in (("raised", raised), ("uncertified", uncertified)):
                classes = {label: count for (k, label), count in sorted(tally.items()) if k == kind}
                fields += [f"{name}={sum(classes.values())}"] + [f"{label}={count}" for label, count in classes.items()]
            fields.append("moved=" + "/".join(str(moved[kind][change]) for change in ("permutation", "unitary", "embedding")))
            print(" ".join(fields), flush=True)


if __name__ == "__main__":
    main()
