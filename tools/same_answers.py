"""Fingerprint every answer of the solver corpora, to compare two trees.

    python3 tools/same_answers.py --root TREE

Imports ``maxconf`` and ``perfbench`` from TREE (its ``src/`` and its root),
builds the ``numeric`` (probe included), ``symmetric_numeric`` and
``closed_form`` corpora at seeds 1 and 2 through
``perfbench.workloads.build`` and solves every op once. It prints one line
per workload and seed: the op count, the total iterations, the certified
count and one SHA-256 over each op's iterations, certified flag, check
verdict, raw Z bytes and detection-operator bytes, in corpus order. An op
that raises contributes its exception type and message instead. A seventh
line, ``mixed``, is the same fingerprint of ``solve_numeric`` on the five
inputs of ``tools/layout_timing.py`` (two with blocks of two widths, three
with repeated phases), which no corpus reaches, checked as the ``numeric``
corpus checks its ops.

Run it on two trees and compare the lines: equal lines mean bitwise equal
answers. It gates nothing by itself, since the bits of Z depend on the BLAS
build. It writes no file, not even bytecode.
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
import hashlib  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from layout_timing import INPUTS  # noqa: E402

WORKLOADS = ("numeric", "symmetric_numeric", "closed_form")
SEEDS = (1, 2)


def fingerprint(ops) -> tuple[int, int, str]:
    """Total iterations, certified count and SHA-256 of the answers of ops."""
    h = hashlib.sha256()
    iterations = certified = 0
    for op in ops:
        try:
            rep = op.call()
            verdict = op.check(rep)
        except Exception as exc:  # the failure itself is the answer
            h.update(f"{type(exc).__name__}: {exc}".encode())
            continue
        iterations += rep.iterations
        certified += bool(rep.certified)
        h.update(f"{rep.iterations} {rep.certified} {verdict}".encode())
        h.update(np.ascontiguousarray(rep.certificate.z).tobytes())
        h.update(np.ascontiguousarray(rep.detection.operators).tobytes())
    return iterations, certified, h.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="tree to import maxconf and perfbench from (default: this one)")
    root = parser.parse_args().root.resolve()
    sys.path[:0] = [str(root / "src"), str(root)]
    import maxconf
    from perfbench.workloads import Op, _numeric_check, build

    if not Path(maxconf.__file__).resolve().is_relative_to(root):
        raise SystemExit(f"maxconf was imported from {maxconf.__file__}, not from {root}")
    for workload in WORKLOADS:
        for seed in SEEDS:
            # only cli_roundtrip writes into its workdir
            corpus = build(workload, seed, root, root)
            ops = corpus.ops + corpus.probe
            iterations, certified, digest = fingerprint(ops)
            print(f"{workload} seed={seed} ops={len(ops)} iterations={iterations} "
                  f"certified={certified} sha256={digest}", flush=True)
    # the mixed-width and repeated-phase layouts, which no corpus reaches,
    # under the numeric corpus's check
    ensembles = {label: build_input(maxconf) for label, build_input in INPUTS.items()}
    ops = [Op("mixed", label, lambda e=e: maxconf.solve_numeric(e), _numeric_check(e))
           for label, e in ensembles.items()]
    iterations, certified, digest = fingerprint(ops)
    print(f"mixed ops={len(ops)} iterations={iterations} certified={certified} sha256={digest}", flush=True)


if __name__ == "__main__":
    main()
