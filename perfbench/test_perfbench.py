"""Smoke tests of the benchmark harness at toy sizes.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.use_checkout_library()

import imbenhance  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TOY = {name: w.toy() for name, w in workloads.WORKLOADS.items()}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def toy_workloads(monkeypatch):
    monkeypatch.setattr(workloads, "WORKLOADS", TOY)
    monkeypatch.setattr(run, "SETUP_PROCESSES", 1)


def result_line(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(TOY))
@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_declared_metric(toy_workloads, capsys, name, trace):
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace)])
    result = result_line(capsys)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1 + trace
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], float)


def test_tracer_attributes_fits_to_callers_and_restores_bindings():
    w = TOY["tree-bench"]
    data = w.build(5, None)
    tracer = tracing.Tracer()
    with tracer:
        tracer.repetition(w.run, data)
    m = tracing.repetition_metrics(tracer.spans, 0)
    callers = ["synthesis", "filtering", "selflearn", "pipeline"]
    assert m["classifiers.fit.calls"] == sum(m[f"{c}.fit.calls"] for c in callers)
    assert m["pipeline.fit.base_refits"] == 3
    assert m["synthesis.race_refits"] == 3
    assert m["data.load_csv.ms"] == m["data.write_csv.ms"] == m["data.preprocess.ms"] == 0
    total = tracer.spans[0].ms
    assert sum(m[f"{layer}.self.ms"] for layer in tracing.MODULES) <= total
    for module in (imbenhance, imbenhance.synthesis, imbenhance.pipeline):
        assert module.fit is imbenhance.classifiers.fit
    assert imbenhance.data.Preprocessor.transform.__name__ == "transform"
    assert not hasattr(imbenhance.data.Preprocessor.transform, "__wrapped__")


def test_csv_workload_traces_io_and_scores_quality(tmp_path):
    w = TOY["logreg-enhance-csv"]
    inputs = w.build(5, tmp_path)
    tracer = tracing.Tracer()
    with tracer:
        tracer.repetition(w.run, inputs)
    m = tracing.repetition_metrics(tracer.spans, 0)
    assert m["data.load_csv.ms"] > 0 and m["data.preprocess.ms"] > 0
    assert m["data.write_csv.ms"] > 0 and m["cli.main.ms"] > 0
    scored = w.score(inputs, 5)
    assert scored.problems == []
    quality = w.quality(scored, inputs)
    assert 0.0 < quality["pseudo_accuracy"] <= 1.0
    assert all(quality[f"{g}_gain"] > 0 for g in workloads.GAIN_METRICS)


def test_changed_outputs_on_the_same_input_count_as_failed():
    class Drifting:
        calls = 0

        def run(self, x):
            return x

        def score(self, result, seed):
            Drifting.calls += 1
            return workloads.Scored([], Drifting.calls)

    runner = run.Runner(Drifting())
    assert runner.repetition(1, None)[0] is not None
    assert runner.repetition(1, None) == (None, None)
    assert (runner.attempted, runner.failed) == (2, 1)


def test_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "tree-bench",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
    assert not (Path(tmp_path) / ".perfbench-work").exists()
