"""The benchmark's workloads run through the pipeline and pass its checks.

perfbench/run.py drives the CLI with the flags each workload names and
checks what the pipeline writes (`check_outputs`). A change that breaks a
flag, a document field it reads or a check it makes would otherwise show
only in a benchmark run. These tests load the runner as it is, without
changing it, and run every workload at a tiny shape that keeps its flags.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

from kvlatent import cli

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.fixture(scope="module")
def bench():
    """perfbench/run.py as a module, loaded without writing bytecode next
    to it or keeping its directory on sys.path."""
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    path = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path[:] = path
    return module


def tiny(workload):
    """`workload` at 2 layers of D = 16 (4 heads of 4 in 2 groups), with its
    budget share, uniform rank, weighting and rotary width kept."""
    shape = dict(layers=2, d_model=16, n_heads=4, head_dim=4, n_groups=2, seq_len=16,
                 batches=2)
    if workload.uniform_rank is not None:
        shape["uniform_rank"] = 4
    return dataclasses.replace(workload, **shape)


def test_workloads_keep_their_flags(bench):
    # What the tiny runs below exercise: adjusted budgets below parity on
    # `wide`; uniform ranks, C weighting and a rotary width on `long`.
    assert bench.WORKLOADS["wide"].budget_share < 1.0
    long = bench.WORKLOADS["long"]
    assert long.uniform_rank is not None and long.weighting and long.rope_dim > 0
    args = tiny(long).stage_args(Path("m"), Path("o"), 7)
    assert args["convert"][args["convert"].index("--weighting") + 1] == long.weighting
    assert "--rope-dim" in args["eval"] and "uniform" in args["schedule"]


@pytest.mark.parametrize("name", ["wide", "long"])
def test_workload_passes_the_benchmark_checks(bench, tmp_path, capsys, name):
    w = tiny(bench.WORKLOADS[name])
    model, out = tmp_path / "model", tmp_path / "out"
    out.mkdir()
    assert cli.main(w.gen_args(model, 7)) == 0
    for stage, argv in w.stage_args(model, out, 7).items():
        assert cli.main(argv) == 0, (stage, capsys.readouterr().err)
    tally = bench.Tally()
    quality = bench.check_outputs(w, out, tally)
    assert tally.failures == [] and tally.attempted > 0
    assert sorted(quality) == ["act_residual", "kd_mean"]
