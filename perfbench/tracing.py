"""Span tracing of kvlatent CLI stages from outside the library.

Run as a script, this is the benchmark's traced stage launcher:

    python3 perfbench/tracing.py --spans FILE --stage NAME --workload NAME -- ARGS...

It replaces every public function of each ``kvlatent`` module (except
``cli``) with a wrapper that records a span, then calls
``kvlatent.cli.main(ARGS)`` inside a root span named ``cli.<stage>``.
Functions are replaced by module attribute, which also catches the calls a
module makes to its own functions, so nothing under ``src/`` changes. Spans
stay in memory and are written as JSON lines when the stage ends, whether
it succeeds or not. The exit code is the CLI's.

Imported, the module turns span files into per-layer metrics.
"""

import argparse
import functools
import importlib
import inspect
import json
import os
import pkgutil
import sys
import time

# Singular values at or below this fraction of the largest count as
# numerically zero in scheduler.spectrum_useful_fraction.
USEFUL_SIGMA_REL = 1e-12

# Per-layer metric groups: metric prefix -> traced functions whose spans it
# sums. Calls and computed counts come from the first function alone, so a
# function that delegates to another one in its group is not counted twice.
GROUPS = {
    "calibration.accumulate": ("calibration.accumulate",),
    "calibration.whitening_operator": ("calibration.whitening_operator",),
    "linalg.sym_eig": ("linalg.sym_eig",),
    "linalg.sqrt_psd": ("linalg.sqrt_psd",),
    "linalg.svd": ("linalg.svd",),
    "factorizer.replicate_groups": ("factorizer.replicate_groups",),
    "factorizer.care_factorize": ("factorizer.care_factorize",),
    "factorizer.activation_residual": ("factorizer.activation_residual",),
    "scheduler.whitened_spectrum": ("scheduler.whitened_spectrum",),
    "scheduler.waterfill": ("scheduler.waterfill", "scheduler.waterfill_trace"),
    "attention.gqa_forward": ("attention.gqa_forward",),
    "attention.mla_forward": ("attention.mla_forward",),
    "attention.mla_forward_rope": ("attention.mla_forward_rope",),
    "attention.logit_drift": ("attention.logit_drift",),
    "metrics.losses": ("metrics.cross_entropy", "metrics.kd_loss"),
    "ctf.read": ("ctf.read_ctf_ex", "ctf.read_ctf"),
    "ctf.write": ("ctf.write_ctf",),
    "manifest.load": (
        "manifest.load_manifest",
        "manifest.load_profile",
        "manifest.load_gqa_layer",
        "manifest.load_mla_bundle",
        "manifest.load_batches",
    ),
    "manifest.save": ("manifest.save_manifest", "manifest.save_profile", "manifest.write_json"),
}


def _mnk(m: int, n: int) -> int:
    return m * n * min(m, n)


def _spectrum_counts(a, sigma):
    useful = int((sigma > USEFUL_SIGMA_REL * sigma[0]).sum()) if len(sigma) else 0
    rows, cols = a["sqrt_c"].shape[0], a["w"].shape[1]
    return {"mnk": _mnk(rows, cols), "useful": useful, "computed": len(sigma)}


def _scores(heads: int, x) -> dict:
    return {"score_elems": heads * x.shape[0] ** 2}


# Counts computed from a traced call's arguments (bound by parameter name)
# and result. They depend only on shapes and allocations, so they repeat
# exactly from run to run.
COUNTERS = {
    "calibration.accumulate": lambda a, r: {"tokens": a["batch"].x.shape[0]},
    "linalg.sym_eig": lambda a, r: {"n3": len(r.eigenvalues) ** 3},
    "linalg.svd": lambda a, r: {"mnk": _mnk(*a["a"].shape)},
    "scheduler.whitened_spectrum": _spectrum_counts,
    "scheduler.waterfill": lambda a, r: {"steps": sum(r.values()) - len(r) * a["min_rank"]},
    "attention.gqa_forward": lambda a, r: _scores(a["layer"].n_heads, a["x"]),
    "attention.mla_forward": lambda a, r: _scores(a["config"].n_heads, a["x"]),
    "attention.mla_forward_rope": lambda a, r: _scores(a["config"].n_heads, a["x"]),
    "ctf.read_ctf_ex": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "ctf.write_ctf": lambda a, r: {"bytes": os.path.getsize(a["path"])},
}


def required_functions() -> set[str]:
    """Every traced function a per-layer metric reads, as ``module.name``."""
    names = {name for members in GROUPS.values() for name in members}
    return names | set(COUNTERS)


class Tracer:
    """Collects nested spans of one stage in memory."""

    def __init__(self, stage: str, workload: str):
        self.stage = stage
        self.workload = workload
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        """Return `fn` wrapped so that each call records a span."""
        sig = inspect.signature(fn)
        params = list(sig.parameters)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            shapes = {}
            for key, value in [*zip(params, args), *kwargs.items()]:
                shape = getattr(value, "shape", None)
                if shape is not None:
                    shapes[key] = list(shape)
            span = {
                "id": len(self.spans),
                "parent": self._open[-1] if self._open else None,
                "name": name,
                "stage": self.stage,
                "workload": self.workload,
                "shapes": shapes,
            }
            self.spans.append(span)
            self._open.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span["counts"] = counter(bound.arguments, result)
            return result

        return traced

    def instrument(self, package) -> None:
        """Wrap the public functions of every module of `package` but its CLI.

        Raises if a function that a per-layer metric reads is missing, so a
        rename fails loudly instead of reporting zero.
        """
        traced = []
        for info in pkgutil.iter_modules(package.__path__):
            if info.name == "cli":
                continue
            module = importlib.import_module(f"{package.__name__}.{info.name}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                name = f"{info.name}.{attr}"
                setattr(module, attr, self.wrap(name, obj))
                traced.append(name)
        missing = required_functions() - set(traced)
        if missing:
            raise RuntimeError(f"traced functions not found in kvlatent: {sorted(missing)}")

    def write(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span, sort_keys=True) + "\n")


def run_stage(stage: str, workload: str, spans_path, argv: list[str]) -> int:
    """Run ``kvlatent.cli.main(argv)`` under a root span ``cli.<stage>``."""
    import kvlatent
    from kvlatent import cli

    tracer = Tracer(stage, workload)
    tracer.instrument(kvlatent)
    main = tracer.wrap(f"cli.{stage}", cli.main)
    try:
        return main(argv)
    finally:
        tracer.write(spans_path)


def read_spans(path) -> list[dict]:
    with open(path) as src:
        return [json.loads(line) for line in src if line.strip()]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def aggregate(stage_spans: list[list[dict]]) -> dict[str, float]:
    """Flat per-layer totals over the spans of one or more stages.

    Each list holds the spans of one stage; span ids are unique only within
    it. For each group in GROUPS: ``<group>.calls``, ``<group>.self_s`` and
    one ``<group>.<count>`` per computed count. For each root span
    ``cli.<stage>``: ``cli.<stage>.self_s``.
    """
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    member_of = {m: (group, i == 0) for group, ms in GROUPS.items() for i, m in enumerate(ms)}
    for group in GROUPS:
        out[f"{group}.calls"] = 0
        out[f"{group}.self_s"] = 0.0
    for spans in stage_spans:
        own = self_times(spans)
        for s in spans:
            if s["parent"] is None:
                add(f"{s['name']}.self_s", own[s["id"]])
            if s["name"] not in member_of:
                continue
            group, primary = member_of[s["name"]]
            add(f"{group}.self_s", own[s["id"]])
            if primary:
                add(f"{group}.calls", 1)
                for key, value in s.get("counts", {}).items():
                    add(f"{group}.{key}", value)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="JSON-lines file the spans go to")
    parser.add_argument("--stage", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="arguments for kvlatent, after a '--'")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    return run_stage(args.stage, args.workload, args.spans, cli_args)


if __name__ == "__main__":
    sys.exit(main())
