"""Time solve_numeric on two trees, op by op in turn, on the mixed layouts.

    python3 tools/layout_timing.py --root PARENT --root CHANGE [--rounds R]

Loads each tree's ``maxconf`` (its ``src/maxconf``) under its own module
name and solves fixed-seed inputs whose interior point holds blocks of
two widths or several clusters, which the perfbench corpora do not reach:

* 30 random full-rank states in d = 8, state 0 the prior-weighted average
  of the others (blocks of widths 1 and 8);
* 30 states in d = 6, states 0, 10 and 20 that average (widths 1 and 6);
* cyclic orbits of a random full-rank reference with repeated phases: d = 24
  of order 6 (six clusters of 4), d = 12 and d = 16 of order 4 (four
  clusters of 3 and of 4).

``tools/same_answers.py`` fingerprints the answers on the same inputs.
Each input is solved once per tree in each round, the first tree leading
in even rounds and the second in odd ones. For each input it prints the
layout (the block widths and cluster sizes, as count x size), the
iterations and the certified flag per tree, |dQ| between the trees and the
median milliseconds per solve of each, with their ratio. Ratios near 1
need a baseline: run it with the same tree given twice, which shows how
far the ratios stray on identical code on the machine at hand. It uses
the standard library and numpy only and writes no file, not even bytecode.
"""

from __future__ import annotations

import os
import sys

# one BLAS thread, as perfbench/run.py uses
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import collections  # noqa: E402
import importlib.util  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402


def load(root: Path, name: str):
    """The package root/src/maxconf imported as the module name."""
    package = root / "src" / "maxconf"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def density(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    s = g @ g.conj().T
    return s / np.trace(s).real


def averaged(seed, d, n, at):
    """(priors, states): n random full-rank states of C^d, those at the
    positions at replaced by the prior-weighted average of the others, so
    that their top eigenspace is all of C^d and every other one a line."""
    rng = np.random.default_rng(seed)
    others = np.setdiff1d(np.arange(n), at)
    priors, states = np.empty(n), np.empty((n, d, d), dtype=complex)
    priors[others] = 0.5 * rng.dirichlet(np.ones(others.size))
    states[others] = [density(rng, d) for _ in others]
    priors[at], states[at] = 0.5 / len(at), np.einsum("j,jab->ab", 2.0 * priors[others], states[others])
    return priors, states


INPUTS = {
    "30x8, one average": lambda mc: mc.StateEnsemble(8, *averaged(23, 8, 30, [0])),
    "30x6, three averages": lambda mc: mc.StateEnsemble(6, *averaged(23, 6, 30, [0, 10, 20])),
    "cyclic d=24, order 6": lambda mc: mc.build_symmetric_ensemble(
        density(np.random.default_rng(24), 24), 6, phases=np.repeat(mc.default_phases(6, 6), 4)),
    "cyclic d=12, order 4": lambda mc: mc.build_symmetric_ensemble(
        density(np.random.default_rng(12), 12), 4, phases=np.repeat(mc.default_phases(4, 4), 3)),
    "cyclic d=16, order 4": lambda mc: mc.build_symmetric_ensemble(
        density(np.random.default_rng(16), 16), 4, phases=np.repeat(mc.default_phases(4, 4), 4)),
}


def layout(mc, e) -> str:
    """The block widths and cluster sizes the interior point holds e in."""
    widths = mc.geometry(e).degeneracies
    sizes = [e.dim]
    if e.symmetry is not None:
        widths, sizes = widths[:1], e.symmetry.clusters.sum(axis=1)

    def counted(values):
        return " + ".join(f"{k}x{v}" for v, k in sorted(collections.Counter(np.asarray(values).tolist()).items()))

    return f"widths {counted(widths)}, clusters {counted(sizes)}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, action="append", required=True,
                        help="tree to load maxconf from; give it twice, the parent first")
    parser.add_argument("--rounds", type=int, default=30, help="solves of each input per tree")
    args = parser.parse_args()
    if len(args.root) != 2:
        parser.error("give --root exactly twice")
    trees = [load(root.resolve(), f"maxconf_tree{i}") for i, root in enumerate(args.root)]
    for label, build in INPUTS.items():
        ensembles = [build(mc) for mc in trees]
        reports = [mc.solve_numeric(e) for mc, e in zip(trees, ensembles)]
        times = [[], []]
        for r in range(args.rounds):
            for i in (0, 1) if r % 2 == 0 else (1, 0):
                start = time.perf_counter()
                trees[i].solve_numeric(ensembles[i])
                times[i].append(time.perf_counter() - start)
        ms = [1e3 * statistics.median(t) for t in times]
        dq = abs(reports[0].failure_probability - reports[1].failure_probability)
        print(f"{label}: {layout(trees[1], ensembles[1])}; "
              f"iterations {reports[0].iterations}/{reports[1].iterations}, "
              f"certified {reports[0].certified}/{reports[1].certified}, |dQ| {dq:.1e}, "
              f"median {ms[0]:.2f}/{ms[1]:.2f} ms (the second tree {ms[0] / ms[1]:.2f}x as fast)", flush=True)


if __name__ == "__main__":
    main()
