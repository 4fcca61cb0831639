"""End-to-end benchmark of the kvlatent CLI pipeline.

    python3 perfbench/run.py --workload {wide,long} --seed N --seconds S --trace {0,1}

Each run generates a seeded synthetic model with ``kvlatent gen`` (the
set-up, repeated and reported as ``setup_s``), then runs the pipeline
``cov -> schedule -> convert -> eval`` in a closed loop, one stage
subprocess at a time, for about S seconds and at least twice. A stage
shorter than MIN_STAGE_S repeats within its iteration. Every stage
subprocess gets BLAS pinned to BLAS_THREADS threads and is timed from
spawn to exit, so interpreter start is included, and its peak RSS is read
with ``os.wait4``. A stage's time is the median of its invocations, and
``pipeline_s`` is the sum of the four stage times. Each run checks its outputs: every stage exits 0, gen
and every pipeline repeat produce byte-identical artifacts, the profile
keeps to its budgets, and the workload's own numerical checks hold.

With ``--trace 1`` half of the pipeline iterations (and one extra gen) run
through ``perfbench/tracing.py``, which records spans around each public
library function. Those iterations give the per-layer metrics and must
produce the same bytes as the untraced ones.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (stage invocations plus checks) and
``metrics`` (end-to-end with ``--trace 0``, per-layer with ``--trace 1``).
The lines before it give every metric by name and unit, the quality
figures, the failure rate and the environment.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

sys.path.insert(0, str(BENCH_DIR))
import tracing  # noqa: E402

# Artifact bytes depend on the BLAS thread count, so every stage runs with
# the same pin and bytes are only compared within a run.
BLAS_THREADS = 2
SETUP_REPEATS = 5
MIN_ITERATIONS = 2
# Untraced stages shorter than this are repeated within an iteration.
MIN_STAGE_S = 1.0
PARITY_DRIFT_MAX = 1e-9
STAGES = ("cov", "schedule", "convert", "eval")
MB = 1e6
QUALITY_UNITS = {"kd_mean": "nats", "act_residual": "sq.units"}


@dataclasses.dataclass(frozen=True)
class Workload:
    """One seeded model shape and the flags its pipeline runs with.

    `budget_share` is the adjusted-mode budget per kind as a share of KV
    parity (1.0 runs ``--parity``, where conversion is exact and the run
    checks the logit drift); `uniform_rank` selects uniform mode instead.
    """

    name: str
    layers: int
    d_model: int
    n_heads: int
    head_dim: int
    n_groups: int
    seq_len: int
    batches: int
    budget_share: float = 1.0
    uniform_rank: int | None = None
    weighting: str | None = None
    rope_dim: int = 0

    @property
    def parity_total(self) -> int:
        return self.layers * self.n_groups * self.head_dim

    @property
    def below_parity(self) -> bool:
        """Whether conversion is lossy, so KD and residuals carry meaning."""
        if self.uniform_rank is not None:
            return self.uniform_rank < self.n_groups * self.head_dim
        return self.budget_share < 1.0

    @property
    def budget(self) -> int | None:
        if self.uniform_rank is not None or self.budget_share >= 1.0:
            return None
        return int(self.parity_total * self.budget_share)

    def gen_args(self, out: Path, seed: int) -> list[str]:
        return [
            "gen", "--out", str(out), "--seed", str(seed),
            "--layers", str(self.layers), "--d-model", str(self.d_model),
            "--n-heads", str(self.n_heads), "--head-dim", str(self.head_dim),
            "--n-groups", str(self.n_groups), "--seq-len", str(self.seq_len),
            "--batches", str(self.batches),
        ]

    def stage_args(self, model: Path, out: Path, seed: int) -> dict[str, list[str]]:
        manifest = str(model / "model.json")
        cov, profile = str(out / "cov"), str(out / "profile.json")
        if self.uniform_rank is not None:
            plan = ["--mode", "uniform", "--rank", str(self.uniform_rank)]
        elif self.budget is None:
            plan = ["--parity"]
        else:
            plan = ["--budget-k", str(self.budget), "--budget-v", str(self.budget)]
        convert = ["--weighting", self.weighting] if self.weighting else []
        rope = ["--rope-dim", str(self.rope_dim)] if self.rope_dim else []
        return {
            "cov": ["cov", "--manifest", manifest, "--out", cov],
            "schedule": ["schedule", "--manifest", manifest, "--cov-dir", cov,
                         *plan, "--out", profile],
            "convert": ["convert", "--manifest", manifest, "--cov-dir", cov,
                        "--profile", profile, *convert, "--out", str(out / "converted")],
            "eval": ["eval", "--source", manifest,
                     "--converted", str(out / "converted" / "converted.json"),
                     "--seed", str(seed), *rope, "--out", str(out / "eval")],
        }


# Why each workload exists, and why there is no many-layer workload, is in
# perfbench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        # Dense linear algebra at full head width; half of KV parity.
        Workload("wide", layers=4, d_model=1024, n_heads=16, head_dim=64, n_groups=4,
                 seq_len=256, batches=8, budget_share=0.5),
        # T x T attention, uniform ranks, C weighting and the rotary forward.
        Workload("long", layers=4, d_model=256, n_heads=8, head_dim=32, n_groups=2,
                 seq_len=1024, batches=16, uniform_rank=48, weighting="C", rope_dim=16),
    )
}

END_TO_END = (
    ("setup_s", "s"),
    ("cov_s", "s"),
    ("schedule_s", "s"),
    ("convert_s", "s"),
    ("eval_s", "s"),
    ("pipeline_s", "s"),
    ("peak_rss_mb", "MB"),
)

_GROUP_METRICS = (
    ("calibration.accumulate", ("calls", "self_s", "tokens")),
    ("calibration.whitening_operator", ("calls", "self_s")),
    ("linalg.sym_eig", ("calls", "self_s", "n3")),
    ("linalg.sqrt_psd", ("calls",)),
    ("linalg.svd", ("calls", "self_s", "mnk")),
    ("factorizer.replicate_groups", ("self_s",)),
    ("factorizer.care_factorize", ("calls", "self_s")),
    ("factorizer.activation_residual", ("self_s",)),
    ("scheduler.whitened_spectrum", ("calls", "self_s", "mnk")),
    ("scheduler.waterfill", ("self_s", "steps")),
    ("attention.gqa_forward", ("self_s",)),
    ("attention.mla_forward", ("self_s",)),
    ("attention.mla_forward_rope", ("self_s",)),
    ("attention.logit_drift", ("self_s",)),
    ("metrics.losses", ("self_s",)),
    ("ctf.read", ("calls", "bytes", "self_s")),
    ("ctf.write", ("calls", "bytes", "self_s")),
    ("manifest.load", ("self_s",)),
    ("manifest.save", ("self_s",)),
)
_UNITS = {"calls": "count", "self_s": "s", "tokens": "count", "n3": "count",
          "mnk": "count", "steps": "count", "bytes": "B"}
PER_LAYER = (
    *((f"{group}.{field}", _UNITS[field]) for group, fields in _GROUP_METRICS for field in fields),
    ("linalg.sym_eig.calls_per_layer", "count"),
    ("scheduler.spectrum_useful_fraction", "fraction"),
    ("attention.score_elems", "count"),
    *((f"cli.{stage}.{field}", unit) for stage in ("gen", *STAGES)
      for field, unit in (("self_s", "s"), ("rss_mb", "MB"))),
    ("trace.overhead_s", "s"),
)


@dataclasses.dataclass
class StageRun:
    wall_s: float
    rss_mb: float
    code: int
    stderr: str


class Tally:
    """Counts attempted and failed operations; keeps each failure's detail."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{what}: {detail}" if detail else what)
        return ok


def stage_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    env["OMP_NUM_THREADS"] = str(BLAS_THREADS)
    return env


def run_process(cmd: list[str], env: dict[str, str], log: Path) -> StageRun:
    """Run one stage subprocess to completion: wall time, peak RSS, exit code."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    return StageRun(wall, usage.ru_maxrss * 1024 / MB, proc.returncode, log.read_text(errors="replace")[-2000:])


def stage_command(cli_args: list[str], stage: str, workload: str, spans: Path | None) -> list[str]:
    if spans is None:
        return [sys.executable, "-m", "kvlatent.cli", *cli_args]
    return [sys.executable, str(BENCH_DIR / "tracing.py"), "--spans", str(spans),
            "--stage", stage, "--workload", workload, "--", *cli_args]


def tree_digest(path: Path) -> dict[str, str]:
    """Path relative to `path` -> sha256, for every file under `path`."""
    return {
        str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.rglob("*")) if p.is_file()
    }


def check_outputs(w: Workload, out: Path, tally: Tally) -> dict[str, float]:
    """Content checks on one pipeline's profile and eval report.

    Returns the quality figures (``kd_mean``, ``act_residual``) when the
    workload is below parity; at parity they are rounding noise.
    """
    profile = json.loads((out / "profile.json").read_text())
    for kind, key in (("K", "budget_k"), ("V", "budget_v")):
        ranks = [e["rank"] for e in profile["entries"] if e["kind"] == kind]
        tally.check(len(ranks) == w.layers, f"profile has {w.layers} {kind} entries",
                    f"found {len(ranks)}")
        tally.check(sum(ranks) <= profile[key], f"profile {kind} total within budget",
                    f"{sum(ranks)} > {profile[key]}")
        if w.uniform_rank is not None:
            tally.check(all(r == w.uniform_rank for r in ranks),
                        f"every {kind} rank is {w.uniform_rank}", str(sorted(set(ranks))))
        else:
            expected = w.budget if w.budget is not None else w.parity_total
            tally.check(profile[key] == expected, f"profile {key} is {expected}",
                        str(profile[key]))

    report = json.loads((out / "eval" / "eval_report.json").read_text())
    layers = report["layers"]
    tally.check(len(layers) == w.layers, f"eval report has {w.layers} layers", str(len(layers)))
    if not w.below_parity:
        drift = report["max_logit_drift"]
        tally.check(drift <= PARITY_DRIFT_MAX, f"parity logit drift <= {PARITY_DRIFT_MAX:g}",
                    f"{drift:g}")
        return {}
    quality = {
        "kd_mean": statistics.fmean(l["losses"]["kd"] for l in layers),
        "act_residual": math.fsum(
            l["activation_residual_k"] + l["activation_residual_v"] for l in layers),
    }
    for name, value in quality.items():
        tally.check(math.isfinite(value) and value > 0.0, f"{name} finite and positive",
                    repr(value))
    return quality


class Bench:
    """One benchmark run of one workload in its own work directory."""

    def __init__(self, w: Workload, seed: int, work: Path):
        self.w = w
        self.seed = seed
        self.work = work
        self.env = stage_env()
        self.tally = Tally()
        self.logs = work / "logs"
        self.spans = work / "spans"
        self.logs.mkdir(parents=True)
        self.spans.mkdir()
        self.model = work / "model"
        self.model_digest: dict[str, str] = {}
        self.rss: dict[str, list[float]] = {}

    def stage(self, stage: str, cli_args: list[str], tag: str, traced: bool) -> StageRun | None:
        spans = self.spans / f"{tag}_{stage}.jsonl" if traced else None
        cmd = stage_command(cli_args, stage, self.w.name, spans)
        run = run_process(cmd, self.env, self.logs / f"{tag}_{stage}.err")
        if not self.tally.check(run.code == 0, f"{tag} {stage} exits 0",
                                f"exit {run.code}; stderr: {run.stderr.strip()}"):
            return None
        if not traced:
            self.rss.setdefault(stage, []).append(run.rss_mb)
        return run

    def gen(self, out: Path, tag: str, traced: bool) -> StageRun | None:
        run = self.stage("gen", self.w.gen_args(out, self.seed), tag, traced)
        if run is None:
            return None
        digest = tree_digest(out)
        if out == self.model:
            self.model_digest = digest
        else:
            self.tally.check(digest == self.model_digest, f"{tag} gen output is byte-identical")
            shutil.rmtree(out)
        return run

    def setup(self) -> list[float] | None:
        times = []
        for i in range(SETUP_REPEATS):
            out = self.model if i == 0 else self.work / f"gen{i}"
            run = self.gen(out, f"setup{i}", traced=False)
            if run is None:
                return None
            times.append(run.wall_s)
        return times

    def pipeline(self, tag: str, traced: bool) -> tuple[dict[str, list[float]], dict[str, str]] | None:
        """Run cov..eval once; return each stage's invocation times and the artifact digest.

        Untraced, a stage that ends in less than MIN_STAGE_S runs again, into
        the same directory, until its invocations add up to MIN_STAGE_S. So
        a short stage gets several samples in each iteration.
        """
        out = self.work / tag
        out.mkdir()
        times = {}
        for stage, cli_args in self.w.stage_args(self.model, out, self.seed).items():
            walls = []
            while not walls or (not traced and sum(walls) < MIN_STAGE_S):
                run = self.stage(stage, cli_args, tag, traced)
                if run is None:
                    return None
                walls.append(run.wall_s)
            times[stage] = walls
        return times, tree_digest(out)


def median(values):
    return statistics.median(values) if values else float("nan")


def stage_samples(iterations: list[dict[str, list[float]]], stage: str) -> list[float]:
    return [wall for times in iterations for wall in times[stage]]


@dataclasses.dataclass
class Report:
    """What one run measured: per iteration, each stage's invocation times."""

    tally: Tally
    setup: list[float] = dataclasses.field(default_factory=list)
    plain: list[dict[str, list[float]]] = dataclasses.field(default_factory=list)
    traced: list[dict[str, list[float]]] = dataclasses.field(default_factory=list)
    quality: dict[str, float] = dataclasses.field(default_factory=dict)
    end_to_end: dict[str, float] = dataclasses.field(default_factory=dict)
    per_layer: dict[str, float] = dataclasses.field(default_factory=dict)


def run_benchmark(w: Workload, seed: int, seconds: float, trace: bool, work: Path) -> Report:
    """Set up, loop the pipeline for `seconds`, check outputs, return metrics."""
    bench = Bench(w, seed, work)
    report = Report(bench.tally)
    setup = bench.setup()
    if setup is None:
        return report
    report.setup = setup
    if trace:
        if bench.gen(work / "gen_traced", "gen_traced", traced=True) is None:
            return report
        gen_spans = tracing.read_spans(bench.spans / "gen_traced_gen.jsonl")

    layer_totals: list[dict[str, float]] = []
    reference = None
    durations = []
    start = time.perf_counter()
    i = 0
    while True:
        # In a traced run, untraced and traced iterations alternate in
        # pairs whose order flips: U T T U U T ...
        is_traced = trace and i % 4 in (1, 2)
        tag = f"iter{i}"
        t0 = time.perf_counter()
        result = bench.pipeline(tag, is_traced)
        if result is None:
            break
        times, digest = result
        if reference is None:
            reference = digest
            report.quality = check_outputs(w, work / tag, bench.tally)
        else:
            bench.tally.check(digest == reference,
                              f"{tag} artifacts byte-identical to iter0",
                              "traced run" if is_traced else "untraced run")
        shutil.rmtree(work / tag)
        (report.traced if is_traced else report.plain).append(times)
        if is_traced:
            layer_totals.append(tracing.aggregate(
                [gen_spans] + [tracing.read_spans(bench.spans / f"{tag}_{stage}.jsonl")
                               for stage in STAGES]))
        durations.append(time.perf_counter() - t0)
        i += 1
        elapsed = time.perf_counter() - start
        if i >= MIN_ITERATIONS and elapsed + statistics.fmean(durations) > seconds:
            break

    e2e = {"setup_s": median(setup)}
    for stage in STAGES:
        e2e[f"{stage}_s"] = median(stage_samples(report.plain, stage))
    e2e["pipeline_s"] = sum(e2e[f"{stage}_s"] for stage in STAGES)
    e2e["peak_rss_mb"] = max((r for s in STAGES for r in bench.rss.get(s, [])),
                             default=float("nan"))
    report.end_to_end = e2e
    if trace:
        traced_pipeline = sum(median(stage_samples(report.traced, stage)) for stage in STAGES)
        overhead = traced_pipeline - e2e["pipeline_s"]
        report.per_layer = per_layer_metrics(w, layer_totals, bench.rss, overhead)
    return report


def per_layer_metrics(w: Workload, totals: list[dict[str, float]],
                      rss: dict[str, list[float]], overhead: float) -> dict[str, float]:
    """Median over traced iterations of each per-layer metric in PER_LAYER."""
    rows = []
    for t in totals:
        t = dict(t)
        t["linalg.sym_eig.calls_per_layer"] = t["linalg.sym_eig.calls"] / w.layers
        computed = t.get("scheduler.whitened_spectrum.computed", 0)
        t["scheduler.spectrum_useful_fraction"] = (
            t.get("scheduler.whitened_spectrum.useful", 0) / computed if computed else 0.0)
        t["attention.score_elems"] = sum(
            t.get(f"attention.{f}.score_elems", 0)
            for f in ("gqa_forward", "mla_forward", "mla_forward_rope"))
        rows.append(t)
    out = {}
    for name, _ in PER_LAYER:
        if name == "trace.overhead_s":
            out[name] = overhead
        elif name.startswith("cli.") and name.endswith(".rss_mb"):
            out[name] = median(rss.get(name.split(".")[1], []))
        else:
            out[name] = median([row.get(name, 0) for row in rows])
    return out


def environment() -> dict:
    """What the timings and artifact bytes depend on besides the code."""
    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    except (TypeError, KeyError, ValueError):
        pass
    return {
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }


def _finite(value):
    ok = isinstance(value, (int, float)) and math.isfinite(value)
    return value if ok else None


def print_report(w: Workload, seed: int, report: Report, trace: bool) -> bool:
    """Print every metric by name and unit, then the result line; return `correct`."""
    tally = report.tally
    for failure in tally.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"workload {w.name} seed {seed} setups {len(report.setup)} "
          f"pipelines {len(report.plain)} traced {len(report.traced)}")
    print("samples setup_s " + " ".join(f"{v:.4f}" for v in report.setup))
    for stage in STAGES:
        print(f"samples {stage}_s " + " ".join(
            f"{v:.4f}" for v in stage_samples(report.plain, stage)))
    for name, unit in END_TO_END:
        print(f"{name} {report.end_to_end.get(name, float('nan')):.6g} {unit}")
    for name, value in report.quality.items():
        print(f"{name} {value:.6g} {QUALITY_UNITS[name]}")
    print(f"failure_rate {len(tally.failures) / max(tally.attempted, 1):g} fraction")
    print(f"env {json.dumps(environment(), sort_keys=True)}")
    if trace:
        for name, unit in PER_LAYER:
            print(f"{name} {report.per_layer.get(name, float('nan')):.6g} {unit}")

    specs = PER_LAYER if trace else END_TO_END
    values = report.per_layer if trace else report.end_to_end
    metrics = {name: {"value": _finite(values.get(name)), "unit": unit} for name, unit in specs}
    correct = not tally.failures and all(m["value"] is not None for m in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": len(tally.failures),
        "metrics": metrics,
    }))
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kvlatent" / "cli.py").is_file():
        print(f"error: kvlatent sources not found under {SRC}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    work = WORK / f"{w.name}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        report = run_benchmark(w, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()
    return 0 if print_report(w, args.seed, report, bool(args.trace)) else 1


if __name__ == "__main__":
    sys.exit(main())
