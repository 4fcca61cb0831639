"""Tests of the pipeline benchmark at a tiny shape.

Run with: python3 -m pytest perfbench/tests
"""

import dataclasses
import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402

# The workload definitions with their flags kept and the model shrunk, plus
# one at KV parity, which runs the drift check.
TINY_SHAPE = dict(layers=3, d_model=16, n_heads=4, head_dim=4, n_groups=2, seq_len=8, batches=2)
TINY = {
    "wide": dataclasses.replace(run.WORKLOADS["wide"], **TINY_SHAPE),
    "long": dataclasses.replace(run.WORKLOADS["long"], **TINY_SHAPE, uniform_rank=6, rope_dim=2),
    "parity": run.Workload("parity", **TINY_SHAPE),
}


def run_main(monkeypatch, tmp_path, capsys, workload, trace):
    monkeypatch.setitem(run.WORKLOADS, workload.name, workload)
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    code = run.main(["--workload", workload.name, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace)])
    captured = capsys.readouterr()
    return code, captured.out.strip().splitlines(), captured.err


def test_traced_functions_exist():
    for name in sorted(tracing.required_functions()):
        module, attr = name.split(".")
        fn = getattr(importlib.import_module(f"kvlatent.{module}"), attr, None)
        assert callable(fn), f"kvlatent.{name} is gone; its per-layer metric would read zero"


def test_benchmark_json_lists_every_metric():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_run_emits_every_metric_and_passes_checks(monkeypatch, tmp_path, capsys, name, trace):
    code, lines, err = run_main(monkeypatch, tmp_path, capsys, TINY[name], trace)
    assert code == 0, err
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    # A traced run checks that its traced iteration wrote the same bytes as
    # the untraced one; any failed check would show in `failed`.
    assert result["correct"] is True and result["failed"] == 0
    assert lines[0].endswith(f"traced {trace}")
    specs = run.PER_LAYER if trace else run.END_TO_END
    assert {n: m["unit"] for n, m in result["metrics"].items()} == dict(specs)
    for n, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), n
    if not trace:
        assert all(result["metrics"][n]["value"] > 0 for n, _ in run.END_TO_END)
    printed = {line.split()[0] for line in lines[:-1]}
    assert {n for n, _ in run.END_TO_END} <= printed
    assert {"failure_rate", "env"} <= printed
    assert ("kd_mean" in printed) == TINY[name].below_parity
    assert not (tmp_path / "work").exists()


def test_traced_counts_follow_the_workload(monkeypatch, tmp_path, capsys):
    w = TINY["parity"]
    code, lines, err = run_main(monkeypatch, tmp_path, capsys, w, 1)
    assert code == 0, err
    metrics = {n: m["value"] for n, m in json.loads(lines[-1])["metrics"].items()}
    assert metrics["calibration.accumulate.calls"] == w.layers * w.batches
    assert metrics["calibration.accumulate.tokens"] == w.layers * w.batches * w.seq_len
    # Per layer: one eigendecomposition for the whitener in schedule, and in
    # convert one for the whitener, one per care_factorize call (K and V) and
    # one for the reported lambda.
    assert metrics["linalg.sym_eig.calls_per_layer"] == 5
    assert metrics["ctf.write.calls"] > 0 and metrics["ctf.read.bytes"] > 0
    assert metrics["attention.score_elems"] == 2 * w.layers * w.n_heads * w.seq_len ** 2


def test_failed_stage_is_counted_and_keeps_stderr(monkeypatch, tmp_path, capsys):
    broken = dataclasses.replace(TINY["wide"], d_model=15)
    code, lines, err = run_main(monkeypatch, tmp_path, capsys, broken, 0)
    assert code == 1
    result = json.loads(lines[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert "--n-heads * --head-dim must equal --d-model" in err


def test_missing_sources_exit_without_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "wide", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer("stage", "workload")
    inner = tracer.wrap("m.inner", lambda: sum(range(1000)))
    outer = tracer.wrap("m.outer", lambda: inner() + inner())
    outer()
    spans = tracer.spans
    assert [s["name"] for s in spans] == ["m.outer", "m.inner", "m.inner"]
    assert spans[1]["parent"] == spans[2]["parent"] == spans[0]["id"]
    own = tracing.self_times(spans)
    duration = {s["id"]: s["end"] - s["start"] for s in spans}
    assert own[0] == pytest.approx(duration[0] - duration[1] - duration[2])
    assert own[1] == duration[1]
