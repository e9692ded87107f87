"""maxconf benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload numeric --seed 1 --seconds 12 --trace 0

Run from the repository root. One caller runs the ops of the workload's
corpus one after another, in whole rounds over the corpus; CLI children run
one at a time. Every answer is checked after its op, outside the timed
region. The number of rounds R follows from ``--seconds`` alone (ROUNDS), so
a run does a fixed amount of work and the tail percentile is the same on
every run.

Times are scaled to the reference machine's undisturbed speed with a
calibration kernel timed next to the ops (see calibrate.py); the report line
also gives the unscaled wall-clock figures. An op's time is the median of
its R scaled executions, and the median and the tail are taken over the
corpus ops.

Inputs of known defects (the ``near_singular`` subset of ``numeric``) are
not timed: they run once per run, after the timed ops, and count towards
``correct_frac`` and the failures by kind, not towards ``attempted``,
``failed`` or ``correct``, which describe the timed ops.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the corpus
untraced for half the time and then traced for the other half, and prints
the per-layer metrics; the spans go to ``.bench_out/``. The last line of
standard output is the result object; the lines before it describe the run
(environment and input fingerprint, tail percentile, failures by kind).
"""

from __future__ import annotations

import os

# one BLAS thread: the process is a single caller, and the timings must not
# depend on how many cores the machine happens to have
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.calibrate import SAMPLE_EVERY_S, SpeedProbe  # noqa: E402

OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"

DEFAULT_SEED = 1
# never used while a change is developed; run it once to confirm a claim
HOLDOUT_SEED = 2

WORKLOADS = ("numeric", "symmetric_numeric", "closed_form", "cli_roundtrip")

# rounds over the corpus per ROUNDS_PER_S seconds of --seconds. On the
# reference machine (shared 2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4, one
# BLAS thread) a round takes about 6 s (numeric), 2.5 s (symmetric_numeric),
# 0.75 s (closed_form) and 10 s (cli_roundtrip) at its usual speed, and up to
# twice that in its slow phases; numeric and cli_roundtrip run fewer rounds
# than --seconds would fit so that a run stays under a minute at either speed
ROUNDS = {
    "numeric": 3,
    "symmetric_numeric": 8,
    "closed_form": 16,
    "cli_roundtrip": 2,
}
ROUNDS_PER_S = 12.0

SETUP_PROBES = 7  # fresh processes timed from start to the first timed op
IMPORT_PROBES = 5  # fresh processes timed for `import maxconf.cli`
TAIL_BEYOND = 10  # ops beyond the tail percentile

FAILURE_KINDS = ("raised", "uncertified", "wrong")

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "correct_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

NUMERIC_SUBSETS = ("generic", "degenerate", "near_singular")

PER_LAYER = {
    "ensembles.validate.calls": "count",
    "ensembles.validate.self_ms": "ms",
    "operators.eig_hermitian.calls": "count",
    "operators.eig_hermitian.self_ms": "ms",
    "operators.psd_power.self_ms": "ms",
    "geometry.geometry.calls": "count",
    "geometry.geometry.self_ms": "ms",
    "families.closed_form.self_ms": "ms",
    "solver.solve_numeric.self_ms": "ms",
    **{f"solver.solve_numeric.self_ms.{s}": "ms" for s in NUMERIC_SUBSETS},
    "solver.ms_per_newton_step": "ms",
    **{f"solver.ms_per_newton_step.{s}": "ms" for s in NUMERIC_SUBSETS},
    "solver.newton_steps": "count",
    "solver.newton_system_dim": "count",
    "solver.verify_per_solve": "ratio",
    "solver.solve_rank1_symmetric.self_ms": "ms",
    "solver.verify_certificate.calls": "count",
    "solver.verify_certificate.self_ms": "ms",
    "solver.evaluate_measurement.self_ms": "ms",
    "serialize.encode.self_ms": "ms",
    "serialize.decode.self_ms": "ms",
    "serialize.solution_kb": "KiB",
    "cli.import_ms": "ms",
    "cli.main.self_ms": "ms",
    **{f"failed.{k}": "count" for k in FAILURE_KINDS},
    "failed_frac": "frac",
    "trace.overhead": "ratio",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time one set-up in a fresh process (see _setup_seconds)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------- set-up


def _pin_to_one_cpu() -> int | None:
    """Keep this process and its children on one CPU of those it may use.

    The calibration kernel then runs on the core the ops run on; cores of a
    shared machine are disturbed independently.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _setup(workload: str, seed: int, workdir: Path, in_process_cli: bool):
    """Import the package, build the corpus and run one warm-up op.

    The warm-up also fills the solver's Hermitian-basis cache.
    """
    from perfbench import workloads

    corpus = workloads.build(workload, seed, ROOT, workdir, in_process_cli)
    corpus.ops[0].call()
    return corpus


def _child_seconds(cmd: list[str], count: int, ready=None, env=None) -> tuple[list[float], list[float]]:
    """(scaled, wall) seconds of ``count`` fresh processes, one at a time.

    ``ready`` maps a child's stdout to the time.monotonic() at which its
    timed part ended; by default the child's exit ends it.
    """
    probe = SpeedProbe()
    scaled, wall = [], []
    for _ in range(count):
        probe.sample()
        t0, p0 = time.monotonic(), time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        dt = (ready(proc.stdout) if ready else time.monotonic()) - t0
        probe.sample()
        wall.append(dt)
        scaled.append(dt * probe.factor(p0, p0 + dt))
    return scaled, wall


def _setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up times of fresh processes, from their start to the first timed op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    return _child_seconds(cmd, SETUP_PROBES, ready=lambda out: float(out.split()[-1]))


def _import_ms() -> float:
    """Median time of `python -c "import maxconf.cli"` in ms."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    scaled, _ = _child_seconds([sys.executable, "-c", "import maxconf.cli"], IMPORT_PROBES, env=env)
    return statistics.median(scaled) * 1e3


# ---------------------------------------------------------------- runs


class Pass:
    """Timings and verdicts of one closed-loop pass of R rounds over a corpus."""

    def __init__(self):
        self.times: list[float] = []  # scaled to the reference speed
        self.wall: list[float] = []
        self.factors: list[float] = []
        self.op_index: list[int] = []
        self.kinds: list[str | None] = []
        self.failures: dict[tuple[int, str], str] = {}
        self.solution_kib: list[float] = []
        self.rounds = 0

    @property
    def failed(self) -> int:
        return sum(k is not None for k in self.kinds)

    def per_op(self, wall: bool = False) -> list[float]:
        """Each corpus op's median time over the rounds, in seconds."""
        runs: dict[int, list[float]] = defaultdict(list)
        for i, t in zip(self.op_index, self.wall if wall else self.times):
            runs[i].append(t)
        return [statistics.median(ts) for ts in runs.values()]

    def p50_ms(self, wall: bool = False) -> float:
        return statistics.median(self.per_op(wall)) * 1e3

    def tail(self, wall: bool = False) -> tuple[float, float]:
        """(ms, percentile): the highest percentile with TAIL_BEYOND ops above it."""
        ordered = sorted(self.per_op(wall))
        n = len(ordered)
        idx = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1  # too few ops: the maximum
        return ordered[idx] * 1e3, 100.0 * (idx + 1) / n


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(ROUNDS[workload] * seconds / ROUNDS_PER_S))


def run_probe(corpus, tracer=None) -> Pass | None:
    """One untimed round over the corpus's known-defect inputs, if it has any."""
    from perfbench.workloads import Corpus

    if not corpus.probe:
        return None
    return run_pass(Corpus(ops=corpus.probe, sha256=corpus.sha256), 1, tracer)


def run_pass(corpus, rounds: int, tracer=None) -> Pass:
    res = Pass()
    probe = SpeedProbe()
    spans = []
    for _ in range(rounds):
        for i, op in enumerate(corpus.ops):
            probe.maybe_sample()
            if tracer is not None:
                tracer.begin_op(len(res.wall))
            t0 = time.perf_counter()
            try:
                result, error = op.call(), None
            except Exception as exc:  # op boundary: count the failure and go on
                result, error = None, exc
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_op()
            if dt >= SAMPLE_EVERY_S:
                probe.sample()
            spans.append((t0, t0 + dt))
            if error is not None:
                kind, detail = "raised", f"{type(error).__name__}: {error}"
            else:
                try:
                    kind, detail = op.check(result), None
                except Exception as exc:  # an answer that cannot be checked is not confirmed
                    kind, detail = "wrong", f"check raised {type(exc).__name__}: {exc}"
            if op.solution is not None and op.solution.exists():
                res.solution_kib.append(op.solution.stat().st_size / 1024.0)
            res.wall.append(dt)
            res.op_index.append(i)
            res.kinds.append(kind)
            if kind is not None:
                res.failures.setdefault((i, kind), f"{op.subset}: {op.label}" + (f" ({detail})" if detail else ""))
    probe.sample()
    res.factors = [probe.factor(a, b) for a, b in spans]
    res.times = [w * f for w, f in zip(res.wall, res.factors)]
    res.rounds = rounds
    return res


def _failure_summary(passes, corpus, probe: Pass | None = None) -> dict:
    """Failed executions of the timed ops; failed inputs, the probe's included.

    An input fails if any of its executions failed; it counts once per kind.
    """
    timed = {}
    for p in passes:
        timed.update(p.failures)
    probed = probe.failures if probe is not None else {}
    by_kind = Counter(kind for _, kind in timed) + Counter(kind for _, kind in probed)
    failed_inputs = len({i for i, _ in timed}) + len({i for i, _ in probed})
    return {
        "attempted": sum(len(p.times) for p in passes),
        "failed": sum(p.failed for p in passes),
        "corpus_inputs": len(corpus.ops),
        "probe_inputs": len(corpus.probe),
        "failed_input_frac": failed_inputs / (len(corpus.ops) + len(corpus.probe)),
        "failed_inputs_by_kind": {k: by_kind[k] for k in FAILURE_KINDS},
        "failed_inputs": sorted(f"{kind}: {label}" for (_, kind), label in timed.items()),
        "probe_failed_inputs": sorted(f"{kind}: {label}" for (_, kind), label in probed.items()),
    }


def end_to_end(workload: str, seed: int, corpus, seconds: float):
    run = run_pass(corpus, rounds_for(workload, seconds))
    # peak RSS of this process, or of the largest CLI child waited for so far
    who = resource.RUSAGE_CHILDREN if workload == "cli_roundtrip" else resource.RUSAGE_SELF
    peak_kib = resource.getrusage(who).ru_maxrss
    t0 = time.monotonic()
    probe = run_probe(corpus)
    probe_s = time.monotonic() - t0
    setups, setups_wall = _setup_seconds(workload, seed)
    tail_ms, tail_pct = run.tail()
    per_op, per_op_wall = run.per_op(), run.per_op(wall=True)
    metrics = {
        "ops_per_s": len(per_op) / sum(per_op),
        "op_p50_ms": run.p50_ms(),
        "op_tail_ms": tail_ms,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_kib / 1024.0,
    }
    notes = {"corpus_ops": len(per_op), "rounds": run.rounds,
             "op_tail_percentile": tail_pct,
             "op_tail_ops_beyond": len(per_op) - round(tail_pct * len(per_op) / 100),
             "speed_factor_median": statistics.median(run.factors),
             "wall": {"busy_s": sum(run.wall),
                      "ops_per_s_all_executions": len(run.wall) / sum(run.wall),
                      "ops_per_s": len(per_op_wall) / sum(per_op_wall),
                      "op_p50_ms": run.p50_ms(wall=True),
                      "op_tail_ms": run.tail(wall=True)[0],
                      "setup_s": statistics.median(setups_wall)},
             "setup_s_samples": setups,
             "probe_wall_s": probe_s}
    return metrics, [run], probe, notes


def _per_op_layers(spans, run: Pass, ops) -> dict:
    n = len(run.times)
    self_s = defaultdict(float)
    calls = Counter()
    by_id = {}
    last_geometry_note = {}  # solve span id -> note of its last direct geometry child
    for s in spans:
        self_s[s.name] += s.self_s * run.factors[s.op]
        calls[s.name] += 1
        by_id[s.id] = s
        if s.name == "geometry.geometry":
            last_geometry_note[s.parent] = s.note

    subset_of = [ops[i].subset for i in run.op_index]
    solve_self = defaultdict(float)
    solve_steps = defaultdict(int)
    system_dims = []
    for s in spans:
        if s.name == "solver.solve_numeric":
            sub = subset_of[s.op]
            solve_self[sub] += s.self_s * run.factors[s.op]
            solve_steps[sub] += s.note or 0
            if last_geometry_note.get(s.id) is not None:
                system_dims.append(last_geometry_note[s.id])
    verify_in_solve = 0
    for s in spans:
        if s.name == "solver.verify_certificate":
            parent = by_id.get(s.parent)
            while parent is not None and parent.name != "solver.solve_numeric":
                parent = by_id.get(parent.parent)
            verify_in_solve += parent is not None

    def ms(name):
        return self_s[name] * 1e3 / n

    def per_step(sub=None):
        secs = sum(solve_self.values()) if sub is None else solve_self[sub]
        steps = sum(solve_steps.values()) if sub is None else solve_steps[sub]
        return secs * 1e3 / steps if steps else 0.0

    solves = calls["solver.solve_numeric"]
    out = {
        "ensembles.validate.calls": calls["ensembles.validate"] / n,
        "ensembles.validate.self_ms": ms("ensembles.validate"),
        "operators.eig_hermitian.calls": calls["operators.eig_hermitian"] / n,
        "operators.eig_hermitian.self_ms": ms("operators.eig_hermitian"),
        "operators.psd_power.self_ms": ms("operators.psd_power"),
        "geometry.geometry.calls": calls["geometry.geometry"] / n,
        "geometry.geometry.self_ms": ms("geometry.geometry"),
        "families.closed_form.self_ms": ms("families.closed_form"),
        "solver.solve_numeric.self_ms": ms("solver.solve_numeric"),
        "solver.ms_per_newton_step": per_step(),
        "solver.newton_steps": sum(solve_steps.values()) / n,
        "solver.newton_system_dim": statistics.fmean(system_dims) if system_dims else 0.0,
        "solver.verify_per_solve": verify_in_solve / solves if solves else 0.0,
        "solver.solve_rank1_symmetric.self_ms": ms("solver.solve_rank1_symmetric"),
        "solver.verify_certificate.calls": calls["solver.verify_certificate"] / n,
        "solver.verify_certificate.self_ms": ms("solver.verify_certificate"),
        "solver.evaluate_measurement.self_ms": ms("solver.evaluate_measurement"),
        "serialize.encode.self_ms": ms("serialize.encode"),
        "serialize.decode.self_ms": ms("serialize.decode"),
        "serialize.solution_kb": statistics.fmean(run.solution_kib) if run.solution_kib else 0.0,
        "cli.main.self_ms": ms("cli.main"),
    }
    for sub in NUMERIC_SUBSETS:
        ops_in = sum(1 for x in subset_of if x == sub)
        out[f"solver.solve_numeric.self_ms.{sub}"] = solve_self[sub] * 1e3 / ops_in if ops_in else 0.0
        out[f"solver.ms_per_newton_step.{sub}"] = per_step(sub)
    return out


def per_layer(workload: str, seed: int, corpus, seconds: float):
    from perfbench import tracing

    rounds = rounds_for(workload, seconds / 2)
    plain = run_pass(corpus, rounds)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        traced = run_pass(corpus, rounds, tracer)
    finally:
        uninstall()
    probe_tracer = tracing.Tracer()
    uninstall = tracing.install(probe_tracer)
    try:
        probe = run_probe(corpus, probe_tracer)
    finally:
        uninstall()
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{workload}-seed{seed}.spans.jsonl"
    tracer.write(spans_path)

    metrics = _per_op_layers(tracer.spans, traced, corpus.ops)
    if probe is not None:
        # the known-defect subsets are timed only in the probe round
        probe_layers = _per_op_layers(probe_tracer.spans, probe, corpus.probe)
        for sub in {op.subset for op in corpus.probe}:
            for name in ("solver.solve_numeric.self_ms", "solver.ms_per_newton_step"):
                metrics[f"{name}.{sub}"] = probe_layers[f"{name}.{sub}"]
        probe_tracer.write(OUT_DIR / f"{workload}-seed{seed}.probe.spans.jsonl")
    metrics["cli.import_ms"] = _import_ms() if workload == "cli_roundtrip" else 0.0
    metrics["trace.overhead"] = traced.p50_ms() / plain.p50_ms()
    notes = {"ops_untraced": len(plain.times), "ops_traced": len(traced.times),
             "op_p50_ms_untraced": plain.p50_ms(), "op_p50_ms_traced": traced.p50_ms(),
             "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, [plain, traced], probe, notes


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "maxconf" / "__init__.py").is_file():
        print(f"error: no maxconf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    pinned_cpu = _pin_to_one_cpu()
    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        corpus = _setup(args.workload, args.seed, workdir, in_process_cli=args.trace == 1)
        if args.setup_probe:
            print(repr(time.monotonic()))
            return 0
        from perfbench import envinfo

        if args.trace:
            values, passes, probe, notes = per_layer(args.workload, args.seed, corpus, args.seconds)
            units = PER_LAYER
        else:
            values, passes, probe, notes = end_to_end(args.workload, args.seed, corpus, args.seconds)
            units = END_TO_END
        summary = _failure_summary(passes, corpus, probe)
        if args.trace:
            for kind in FAILURE_KINDS:
                values[f"failed.{kind}"] = summary["failed_inputs_by_kind"][kind]
            values["failed_frac"] = summary["failed_input_frac"]
        else:
            values["correct_frac"] = 1.0 - summary["failed_input_frac"]
        fp = envinfo.fingerprint(ROOT, args.seed, corpus.sha256, pinned_cpu)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {"workload": args.workload, "trace": args.trace, "seed": args.seed,
              "fingerprint": fp, **notes, **summary}
    result = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"report": report, "result": result}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
