"""The library names and parameters that perfbench/tracing.py binds.

The benchmark's tracer wraps public kvlatent functions by name and computes
per-layer counts from their bound arguments. A rename, or a parameter that
loses the attribute a counter reads, makes a metric read zero or fail only
inside a benchmark run. These tests import the tracer as it is, without
changing it, and check its pins against the library.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from conftest import gen, plain_spectra
from kvlatent import attention, scheduler
from kvlatent.factorizer import convert_layer
from test_factorizer import random_gqa_layer
from test_scheduler import random_spectra

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    """perfbench/tracing.py as a module, loaded without writing bytecode
    next to it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


def test_every_pinned_function_exists(tracing):
    names = sorted(tracing.required_functions())
    assert names
    for name in names:
        module, attr = name.split(".")
        fn = getattr(importlib.import_module(f"kvlatent.{module}"), attr, None)
        assert callable(fn), f"kvlatent.{name} is gone; its per-layer metric would read zero"


@pytest.mark.parametrize("n_groups", (1, 2, 4))
def test_traced_forwards_count_scores(tracing, n_groups):
    rng = gen(4700 + n_groups)
    layer = random_gqa_layer(rng, n_groups=n_groups)
    factors, _, _ = convert_layer(layer, plain_spectra(layer), 3, 4)
    d_r = 4
    adapters = attention.RopeAdapters(
        w_r_q=rng.standard_normal((16, layer.n_heads * d_r)),
        w_r_k=rng.standard_normal((16, d_r)),
    )
    t = 70
    x = rng.standard_normal((t, 16))
    tracer = tracing.Tracer("eval", "pins")
    calls = {
        "gqa_forward": (layer, x),
        "mla_forward": (factors, layer.w_q, layer, x),
        "mla_forward_rope": (factors, layer.w_q, adapters, layer, x),
    }
    for name, args in calls.items():
        tracer.wrap(f"attention.{name}", getattr(attention, name))(*args)
    assert [s["name"] for s in tracer.spans] == [f"attention.{n}" for n in calls]
    for span in tracer.spans:
        assert "error" not in span
        assert span["counts"] == {"score_elems": layer.n_heads * t**2}, span["name"]


@pytest.mark.parametrize("min_rank", (1, 2))
def test_traced_waterfill_counts_steps(tracing, min_rank):
    spectra = random_spectra(gen(4710 + min_rank), n_layers=4)
    budget = 4 * min_rank + 9
    tracer = tracing.Tracer("schedule", "pins")
    ranks = tracer.wrap("scheduler.waterfill", scheduler.waterfill)(spectra, budget, min_rank)
    (span,) = tracer.spans
    assert "error" not in span
    assert span["counts"] == {"steps": sum(ranks.values()) - len(spectra) * min_rank}
    assert span["counts"]["steps"] == 9
