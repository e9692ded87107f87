"""Self-check of the benchmark harness, in seconds.

Runs every workload untraced and traced on a few ops of its corpus and
checks that every metric of BENCHMARK.json is printed with its unit. Run
from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import run, workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# a few cheap ops per workload; each subset keeps its first op
SMOKE_LABELS = {
    "numeric": ("N=4 d=4", "N=4 d=6 m=2", "theta=0.1"),
    "symmetric_numeric": None,
    "closed_form": None,
    "cli_roundtrip": ("solve trine", "verify trine", "sweep purity:0.05:1.0:40"),
}


def _small_build(build):
    def small(workload, *args, **kwargs):
        corpus = build(workload, *args, **kwargs)
        labels = SMOKE_LABELS[workload]

        def keep(ops):
            if labels is None:
                seen = set()
                return [op for op in ops if not (op.subset in seen or seen.add(op.subset))]
            return [op for op in ops if op.label in labels]

        return workloads.Corpus(ops=keep(corpus.ops), sha256=corpus.sha256, probe=keep(corpus.probe))

    return small


def _run(capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", str(run.DEFAULT_SEED),
                     "--seconds", "0.01", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture
def small_corpora(monkeypatch):
    monkeypatch.setattr(workloads, "build", _small_build(workloads.build))
    monkeypatch.setattr(run, "SETUP_PROBES", 2)
    monkeypatch.setattr(run, "IMPORT_PROBES", 2)


def test_benchmark_json_matches_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_emits_every_metric(small_corpora, capsys, workload):
    for trace, table in ((0, "end_to_end"), (1, "per_layer")):
        report, result = _run(capsys, workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"]
        expected = {m["name"]: m["unit"] for m in BENCHMARK[table]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(isinstance(v["value"], float) for v in result["metrics"].values())
        assert len(report["fingerprint"]["corpus_sha256"]) == 64
        if trace:
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            assert metrics["trace.overhead"] > 0
            if workload == "closed_form":
                assert metrics["solver.newton_steps"] == 0
            if workload == "numeric":
                assert metrics["solver.verify_per_solve"] >= 1
                assert metrics["solver.newton_steps"] > 0
                for subset in run.NUMERIC_SUBSETS:
                    assert metrics[f"solver.ms_per_newton_step.{subset}"] > 0


def test_failures_are_counted_by_kind():
    def boom():
        raise ValueError("no answer")

    ops = [
        workloads.Op("a", "ok", lambda: 1, lambda r: None),
        workloads.Op("a", "raises", boom, lambda r: None),
        workloads.Op("b", "uncertified", lambda: 1, lambda r: "uncertified"),
        workloads.Op("b", "wrong", lambda: 1, lambda r: "wrong"),
    ]
    corpus = workloads.Corpus(ops=ops, sha256="")
    passes = [run.run_pass(corpus, rounds=2)]
    summary = run._failure_summary(passes, corpus)
    assert summary["attempted"] == 8 and summary["failed"] == 6
    assert summary["failed_inputs_by_kind"] == {"raised": 1, "uncertified": 1, "wrong": 1}
    assert summary["failed_input_frac"] == 0.75


def test_probe_failures_are_reported_but_not_timed():
    ok = workloads.Op("a", "ok", lambda: 1, lambda r: None)
    wrong = workloads.Op("p", "wrong", lambda: 1, lambda r: "wrong")
    corpus = workloads.Corpus(ops=[ok], sha256="", probe=[wrong, ok])
    summary = run._failure_summary([run.run_pass(corpus, rounds=3)], corpus, run.run_probe(corpus))
    assert summary["attempted"] == 3 and summary["failed"] == 0
    assert summary["failed_inputs_by_kind"] == {"raised": 0, "uncertified": 0, "wrong": 1}
    assert summary["failed_input_frac"] == 1 / 3
    assert summary["probe_failed_inputs"] == ["wrong: p: wrong"]


def test_known_defects_stay_in_the_numeric_probe(tmp_path):
    corpus = workloads.build("numeric", run.DEFAULT_SEED, ROOT, tmp_path)
    thetas, priors = workloads.NEAR_SINGULAR_THETAS, workloads.NEAR_SINGULAR_PRIORS
    assert len(corpus.probe) == len(thetas) + len(priors)
    assert {op.subset for op in corpus.probe} == {"near_singular"}
    assert "near_singular" not in {op.subset for op in corpus.ops}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_corpus_depends_only_on_seed(tmp_path, workload):
    dirs = [tmp_path / name for name in "abc"]
    for d in dirs:
        d.mkdir()
    a, b, c = (workloads.build(workload, seed, ROOT, d).sha256 for seed, d in zip((5, 5, 6), dirs))
    assert a == b != c


def test_fails_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK), encoding="utf-8")
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (bench / f.name).write_text(f.read_text(encoding="utf-8"), encoding="utf-8")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "numeric",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
