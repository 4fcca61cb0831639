"""Command-line pipeline: gen, cov, schedule, convert, eval, kv-report.

Every command is a deterministic batch process: identical inputs and flags
produce byte-identical artifacts. Reports carry no timestamps and all
tensor paths are stored relative to their manifest. Exit codes: 0 success,
2 validation error, 3 numerical failure, 4 I/O error.

`gen` draws each tensor from its own keyed Philox stream (rng) on two
worker threads, so its bytes depend on neither the draw order nor the
threads.

Every per-layer file is named by `manifest.layer_file`. `schedule` is the
one stage that reads a covariance, through `manifest.load_covariance`: it
checks the layer's damped ridge (calibration.Ridge) for a singular
whitener, and stores the layer's parameter-free n x n Grams
(factorizer.raw_grams), n the layer's grouped width, with a record of
them that also carries tr(C); it checks its rank plan against the
manifest before it reads the first covariance. `convert` has one path for
every setting and reads no covariance: it builds its own ridge from the
record's tr(C), reads the grouped weights and the Grams, each pinned to
the profile's record, and decomposes the whitened Gram it forms from the
stored ones (factorizer.layer_spectra), as `schedule` does to water-fill.
Its `--cov-dir` only names covariances that its clean-up of `--out`
keeps. No stage forms a D x D product other than the covariance or
decomposes a D x D matrix. `cov` is the only stage that reads calibration
batches, and `schedule` the only one that multiplies by a covariance:
`convert` places each layer's stored Grams and the profile's record of
them in the converted bundle, with the coordinates A of each
down-projection (w_a = W_g A), and `eval` checks A and takes the
activation residual from the Grams (factorizer.gram_residual); it reads
no covariance and decomposes nothing. `eval` projects each layer's
queries once: the source and latent forwards share them and differ only
in K and V. It checks every flag, the cache footprint included, before
it reads a layer.

Every command creates a missing parent of its `--out` when it first writes
there (`_out_dir`), after ctf.check_shape has passed each array that `gen`
or `eval` draws.

The conversion report's health figures describe, per layer and kind, the
whitened Gram G = (S W_g)^T (S W_g) whose eigendecomposition gives the
spectrum: its largest and smallest eigenvalues after the PSD clamp
(sigma_1^2 and sigma_n^2), their ratio, and how many the clamp left at zero.
"""

import argparse
import collections
import contextlib
import dataclasses
import itertools
import math
import os
import shutil
import sys
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import attention, calibration, ctf, factorizer, manifest, metrics, scheduler
from .errors import NumericalError, ValidationError
from .rng import check_seed, make_generator

DEFAULT_MIN_RANK = 64
WEIGHT_SCALE_LOW, WEIGHT_SCALE_HIGH = 0.75, 1.25


def _fmt2(value: float) -> str:
    """Two-decimal string with half-up rounding (exact .5 ties round away
    from zero, matching the published memory table)."""
    return str(Decimal(repr(float(value))).quantize(Decimal("0.01"), ROUND_HALF_UP))


def _out_dir(path) -> Path:
    """The directory `path`, created with any missing parents: each
    command's --out directory, or the one its --out file goes in."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _place(src: Path, dst: Path) -> None:
    """Give `dst` the bytes of `src` as a hard link, or as a copy where
    linking fails (across devices, for example). A `dst` that already is
    `src` is left as it is. Every writer replaces a file instead of
    rewriting it, so neither name ever changes the other's bytes."""
    if dst.exists() and os.path.samefile(src, dst):
        return
    dst.unlink(missing_ok=True)
    try:
        os.link(src, dst)
    except OSError:
        shutil.copyfile(src, dst)


@contextlib.contextmanager
def _staged_dir(final: Path):
    """A fresh sibling of `final` to fill, removed if the block raises."""
    staged = final.with_name(final.name + ".partial")
    if staged.exists():
        shutil.rmtree(staged)
    staged.mkdir()
    try:
        yield staged
    except BaseException:
        shutil.rmtree(staged, ignore_errors=True)
        raise


def _parse_lambda(text: str | None):
    if text is None or text == "auto":
        return text
    try:
        return float(text)
    except ValueError:
        raise ValidationError(f"--lambda must be a positive number or 'auto', got {text!r}")


def _parse_widths(text: str) -> list[int]:
    try:
        widths = [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise ValidationError(f"widths must be comma-separated integers, got {text!r}")
    if not widths or any(w < 0 for w in widths):
        raise ValidationError("widths must be non-negative integers")
    return widths


# ---------------------------------------------------------------- gen

# Each tensor gen writes draws from its own Philox stream, keyed by the seed
# (low 64 bits) and the id layer * 2**32 + slot (high 64 bits): slots 0, 1
# and 2 are w_q, w_k_g and w_v_g, slot 3 the layer's per-dimension batch
# scales and slot 4 + b batch b. A tensor thus depends only on the seed, its
# layer, its slot and its shape, and not on --layers, --batches, the other
# shapes or the order of the draws.
_GEN_WEIGHTS = ("w_q", "w_k_g", "w_v_g")
_GEN_SCALES_SLOT = 3
_GEN_SLOTS = 1 << 32
# Threads drawing tensors; at most _GEN_WORKERS + 1 tensors are in flight.
_GEN_WORKERS = 2


class _GenTensor(NamedTuple):
    """One draw of gen: its stream's layer and slot, its shape, and the
    path it is written to (None for the scales, which are not)."""

    layer: int
    slot: int
    shape: tuple[int, ...]
    rel: str | None


def _draw(generator, tensor: _GenTensor):
    """`tensor`'s values, a batch's before its scales. This runs on gen's
    worker threads, so it calls numpy only."""
    if tensor.slot == _GEN_SCALES_SLOT:
        return generator.uniform(WEIGHT_SCALE_LOW, WEIGHT_SCALE_HIGH, tensor.shape)
    a = generator.standard_normal(tensor.shape)
    if tensor.slot < _GEN_SCALES_SLOT:
        a /= np.sqrt(tensor.shape[0])
    return a


def cmd_gen(args) -> None:
    check_seed(args.seed)
    if args.n_heads * args.head_dim != args.d_model:
        raise ValidationError("--n-heads * --head-dim must equal --d-model")
    geometry = factorizer.Geometry(args.d_model, args.n_heads, args.head_dim, args.n_groups)
    if args.layers < 1 or args.seq_len < 1 or args.batches < 1:
        raise ValidationError("--layers, --seq-len and --batches must be positive")
    if args.layers > _GEN_SLOTS or _GEN_SCALES_SLOT + args.batches >= _GEN_SLOTS:
        raise ValidationError("--layers must be at most 2**32 and --batches at most 2**32 - 4")
    d, grouped = geometry.d_model, geometry.grouped_width
    layers = range(args.layers)
    weights = [{name: f"weights/{manifest.layer_file(layer, name)}" for name in _GEN_WEIGHTS}
               for layer in layers]
    batches = {layer: tuple(f"batches/{manifest.layer_file(layer, f'batch{b:03d}')}"
                            for b in range(args.batches)) for layer in layers}
    # Write order: every layer's weights and scales, then every layer's batches.
    shapes = {"w_q": (d, d), "w_k_g": (d, grouped), "w_v_g": (d, grouped)}
    tensors = []
    for layer in layers:
        tensors += [_GenTensor(layer, slot, shapes[name], weights[layer][name])
                    for slot, name in enumerate(_GEN_WEIGHTS)]
        tensors.append(_GenTensor(layer, _GEN_SCALES_SLOT, (d,), None))
    for layer in layers:
        tensors += [_GenTensor(layer, _GEN_SCALES_SLOT + 1 + b, (args.seq_len, d), rel)
                    for b, rel in enumerate(batches[layer])]
    for tensor in tensors:
        ctf.check_shape(tensor.shape, tensor.rel or f"layer {tensor.layer} scales")

    out = _out_dir(args.out)
    (out / "weights").mkdir(exist_ok=True)
    (out / "batches").mkdir(exist_ok=True)
    # model.json is written last; a run that stops early leaves none, so no
    # earlier model's manifest names this run's tensors.
    (out / "model.json").unlink(missing_ok=True)
    _clear_layer_files((out / "weights", out / "batches"))

    # Imported here, so that the other stages do not pay for it.
    from concurrent.futures import ThreadPoolExecutor

    def submit(tensor):
        # numpy's draws release the GIL. Each worker gets its own generator,
        # made here, so that no worker calls kvlatent code.
        generator = make_generator(args.seed, tensor.layer * _GEN_SLOTS + tensor.slot)
        return tensor, pool.submit(_draw, generator, tensor)

    scales = {}
    queue = iter(tensors)
    with ThreadPoolExecutor(_GEN_WORKERS) as pool:
        pending = collections.deque(map(submit, itertools.islice(queue, _GEN_WORKERS + 1)))
        while pending:
            tensor, future = pending.popleft()
            a = future.result()
            # A future keeps its result: with it and `a` dropped before the
            # next submit, no more than the window of tensors is alive.
            del future
            if tensor.rel is None:
                scales[tensor.layer] = a
            else:
                if tensor.slot > _GEN_SCALES_SLOT:
                    a *= scales[tensor.layer]
                ctf.write_ctf(out / tensor.rel, a)
            del a
            pending.extend(map(submit, itertools.islice(queue, 1)))

    model = manifest.ModelManifest(
        model_kind=manifest.MODEL_KIND_GQA,
        seq_len=args.seq_len,
        layers=tuple(manifest.LayerEntry(**dataclasses.asdict(geometry), layer=layer,
                                         **weights[layer]) for layer in layers),
        calibration=batches,
        seed=args.seed,
    )
    manifest.save_manifest(model, out / "model.json")
    print(f"generated {args.layers} layers (d_model={d}, heads={args.n_heads}, "
          f"groups={args.n_groups}) with {args.batches} calibration batches each")
    print(f"manifest: {out / 'model.json'}")


# ---------------------------------------------------------------- cov

def _layer_covariance(m: manifest.ModelManifest, base, layer: int,
                      batches_dir) -> tuple[np.ndarray, int]:
    """One layer's covariance and batch count, from one running D×D sum.

    Batches are read one at a time, in manifest order. Consecutive batches
    are stacked into one D×D block buffer until the next would not fit, and
    each block adds one `b.T @ b` to the sum in place; a batch of D or more
    rows is a block by itself. Fewer, taller products keep BLAS near its
    peak rate, and the buffer bounds the memory. numpy computes `b.T @ b`
    as a symmetric rank-k update, so every term, and hence the mean, is
    exactly symmetric with no symmetrize pass. The bytes equal the per-batch
    `accumulate`/`finalize` fold when no two batches share a block, and
    agree with it to rounding otherwise. No batch outlives its iteration.
    """
    d = m.layer(layer).d_model
    total = np.zeros((d, d))
    block = np.empty((d, d))
    filled = count = 0
    # Huge activations overflow to inf or nan; they are refused below by
    # name instead of surfacing as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for batch in manifest.iter_batches(m, base, layer, batches_dir):
            x = batch.x
            rows = x.shape[0]
            if filled and filled + rows > d:
                total += block[:filled].T @ block[:filled]
                filled = 0
            if rows >= d:
                total += x.T @ x
            else:
                block[filled:filled + rows] = x
                filled += rows
            count += 1
        if filled:
            total += block[:filled].T @ block[:filled]
        total /= count
    if not np.all(np.isfinite(total)):
        raise ValidationError(
            f"covariance of layer {layer} is non-finite: its activations overflow float64"
        )
    return total, count


def cmd_cov(args) -> None:
    m = manifest.load_manifest(args.manifest)
    base = Path(args.manifest).parent
    out = _out_dir(args.out)
    # Every old covariance, a larger model's too, goes before the first batch
    # is read, and each new one appears whole, so a failed rerun never leaves
    # a mix of two runs. Batches that share the directory stay.
    _clear_layer_files((out,), only="cov")
    for layer in range(len(m.layers)):
        cov, count = _layer_covariance(m, base, layer, args.batches_dir)
        path = out / manifest.layer_file(layer, "cov")
        ctf.write_ctf(path, cov)
        # Freed before the next layer's running sum is allocated.
        del cov
        print(f"layer {layer}: {count} batches -> {path}")


# ---------------------------------------------------------------- schedule

def _rank_plan(args, m: manifest.ModelManifest) -> tuple[dict, int, dict | None]:
    """The per-kind budgets, min rank and --mode uniform ranks (or None) the
    flags ask for, checked against the manifest before any covariance is
    read. Each full rank is its layer's grouped width; they sum to KV parity."""
    # Every schedule flag defaults to None; one the mode would ignore is refused.
    ignored = ("--rank",) if args.mode == "adjusted" else (
        "--parity", "--budget-k", "--budget-v", "--min-rank")
    for flag in ignored:
        if getattr(args, flag[2:].replace("-", "_")) is not None:
            raise ValidationError(f"{flag} is not used by --mode {args.mode}")
    widths = [entry.grouped_width for entry in m.layers]
    parity = sum(widths)

    if args.mode == "uniform":
        if args.rank is None:
            raise ValidationError("--mode uniform requires --rank")
        ranks = scheduler.uniform_profile(dict(enumerate(widths)), args.rank)
        return dict.fromkeys(scheduler.KINDS, sum(ranks.values())), min(ranks.values()), ranks

    budgets = {
        kind: parity if args.parity else getattr(args, f"budget_{kind.lower()}")
        for kind in scheduler.KINDS
    }
    if None in budgets.values():
        raise ValidationError("--mode adjusted requires --budget-k and --budget-v (or --parity)")
    for kind, budget in budgets.items():
        if budget > parity:
            raise ValidationError(f"--budget-{kind.lower()} {budget} exceeds the total full "
                                  f"rank {parity} (KV parity)")
    min_rank = args.min_rank
    if min_rank is None:
        fits = all(scheduler.budget_refusal(widths, budget, DEFAULT_MIN_RANK) is None
                   for budget in budgets.values())
        min_rank = DEFAULT_MIN_RANK if fits else 1
    for budget in budgets.values():
        reason = scheduler.budget_refusal(widths, budget, min_rank)
        if reason is not None:
            raise ValidationError(reason)
    return budgets, min_rank, None


def cmd_schedule(args) -> None:
    m = manifest.load_manifest(args.manifest)
    base = Path(args.manifest).parent
    budgets, min_rank, uniform = _rank_plan(args, m)

    out = Path(args.out)
    _out_dir(out.parent)
    grams_dir = manifest.grams_dir(out)
    # --mode uniform needs no spectra.
    spectra = None if uniform else {kind: {} for kind in scheduler.KINDS}
    with _staged_dir(grams_dir) as staged:
        records = {
            layer: _store_layer(m, base, args.cov_dir, layer, staged, out, spectra)
            for layer in range(len(m.layers))
        }
        ranks = {
            kind: uniform or scheduler.waterfill(spectra[kind], budgets[kind], min_rank)
            for kind in scheduler.KINDS
        }
        profile = scheduler.build_profile(ranks, budgets, min_rank)
        # The old profile goes before its Grams, and the new profile is
        # written last, so no profile ever names files of another run.
        out.unlink(missing_ok=True)
        if grams_dir.exists():
            shutil.rmtree(grams_dir)
        staged.rename(grams_dir)
    manifest.save_profile(profile, out, mode=args.mode, grams=records)
    print(f"mode={args.mode} budgets K={profile.budget_k} V={profile.budget_v} "
          f"min_rank={profile.min_rank}")
    for layer in range(len(m.layers)):
        print(f"layer {layer}: K={profile.ranks[(layer, scheduler.KIND_K)]} "
              f"V={profile.ranks[(layer, scheduler.KIND_V)]}")
    print(f"profile: {args.out}")


def _store_layer(m: manifest.ModelManifest, base: Path, cov_dir, layer: int, staged: Path,
                 profile_path: Path,
                 spectra: dict[str, dict[int, np.ndarray]] | None) -> manifest.GramRecord:
    """One layer's raw Grams, stored in one file in `staged` for `convert`,
    and, given `spectra`, its whitened K/V singular values under the
    manifest's setting, added to `spectra[kind]` from the Grams as convert
    decomposes them. A singular whitener is refused first, as convert would
    refuse it. The layer's covariance is freed on return, before the next
    layer's is read."""
    c, cov_sha256 = manifest.load_covariance(cov_dir, layer, m.layer(layer).d_model)
    ridge = calibration.ridge(float(np.trace(c)), len(c), m.shrinkage)
    ridge.check_invertible()
    kv, w_sha256 = manifest.load_grouped_kv(m, base, layer)
    grams = factorizer.raw_grams(kv, c)
    if spectra is not None:
        # The head-width spectrum is this grouped one times sqrt(n_heads /
        # n_groups), plus zeros; water-filling is invariant to that scale.
        for kind, svd in zip(scheduler.KINDS, factorizer.layer_spectra(kv, grams, ridge)):
            spectra[kind][layer] = svd.singular_values
    return manifest.store_grams(staged, profile_path, layer, {"cov": cov_sha256, **w_sha256},
                                ridge.trace, grams)


# ---------------------------------------------------------------- convert

def cmd_convert(args) -> None:
    m = manifest.load_manifest(args.manifest)
    if m.model_kind != manifest.MODEL_KIND_GQA:
        raise ValidationError("manifest does not describe a grouped-attention model")
    base = Path(args.manifest).parent
    profile, _, records = manifest.load_profile(args.profile)
    expected = {(layer, kind) for layer in range(len(m.layers)) for kind in scheduler.KINDS}
    if set(profile.ranks) != expected:
        raise ValidationError(
            f"{args.profile} does not fit the model's {len(m.layers)} layers: entries "
            f"missing {sorted(expected - set(profile.ranks))}, "
            f"extra {sorted(set(profile.ranks) - expected)}"
        )
    # A latent wider than its layer's grouped width would enlarge the cache.
    for (layer, kind), rank in sorted(profile.ranks.items()):
        width = m.layer(layer).grouped_width
        if rank > width:
            raise ValidationError(f"{args.profile}: layer {layer} {kind} rank {rank} exceeds "
                                  f"the layer's grouped width {width}")
    profile_dir = Path(args.profile).parent
    overrides = {"alpha": args.alpha, "lam": _parse_lambda(args.lam), "weighting": args.weighting}
    params = dataclasses.replace(
        m.shrinkage, **{name: value for name, value in overrides.items() if value is not None}
    )

    out = Path(args.out)
    for sub in ("factors", "grams"):
        _out_dir(out / sub)
    # The two documents are written last; a run that stops early leaves
    # neither, so its factors never look like a finished conversion.
    for name in ("converted.json", "conversion_report.json"):
        (out / name).unlink(missing_ok=True)
    # The bundle's factors/ and grams/, and the retired cov/ and weights/ of
    # earlier versions.
    _clear_layer_files([out / sub for sub in ("cov", "factors", "grams", "weights")],
                       _inputs(m, base, args.cov_dir))

    entries = []
    report_layers = []
    for layer in range(len(m.layers)):
        entry = m.layer(layer)
        record = records[layer]
        ridge = calibration.ridge(record.cov_trace, entry.d_model, params)
        ridge.check_invertible()
        kv, _ = manifest.load_grouped_kv(m, base, layer, record.pins())
        grams = manifest.load_grams(profile_dir, record, entry)
        spectra = factorizer.layer_spectra(kv, grams, ridge)
        r_k = profile.rank(layer, scheduler.KIND_K)
        r_v = profile.rank(layer, scheduler.KIND_V)
        factors, report_k, report_v = factorizer.convert_layer(kv, spectra, r_k, r_v)

        # The bundle carries this layer's Grams, as a hard link where it can,
        # and the profile's record of them, which eval checks them and the
        # source weights by.
        grams_rel = f"grams/{manifest.layer_file(layer, 'grams')}"
        _place(profile_dir / record.path, out / grams_rel)
        paths = {name: f"factors/{manifest.layer_file(layer, name)}"
                 for name in ("w_a_k", "w_b_k", "w_a_v", "w_b_v", "a_k", "a_v")}
        for name, rel in paths.items():
            ctf.write_ctf(out / rel, getattr(factors, name))
        entries.append(dataclasses.replace(
            entry, w_q=None, w_k_g=None, w_v_g=None, r_k=r_k, r_v=r_v, **paths,
            source=record.as_converted(grams_rel),
        ))
        report_layers.append({
            "layer": layer,
            "lambda_resolved": ridge.lam,
            "gram": {kind.lower(): _gram_health(svd.singular_values)
                     for kind, svd in zip(scheduler.KINDS, spectra)},
            "k": dataclasses.asdict(report_k),
            "v": dataclasses.asdict(report_v),
        })
        print(f"layer {layer}: r_k={r_k} r_v={r_v} "
              f"whitened_residual_sq K={report_k.whitened_residual_sq:.3e} "
              f"V={report_v.whitened_residual_sq:.3e}")
        # None of this layer's arrays stay alive while the next one is read.
        del kv, grams, spectra, factors

    manifest.write_json_last(out / "conversion_report.json", {
        "format": "kvlatent-conversion-report", "version": 1,
        **manifest.shrinkage_doc(params), "layers": report_layers,
    })
    converted = manifest.ModelManifest(model_kind=manifest.MODEL_KIND_MLA, seq_len=m.seq_len,
                                       layers=tuple(entries), seed=m.seed, shrinkage=params)
    manifest.save_manifest(converted, out / "converted.json")
    print(f"converted manifest: {out / 'converted.json'}")


def _gram_health(sigma: np.ndarray) -> dict:
    """Health of a whitened Gram G = (S W_g)^T (S W_g), read off the
    singular values sigma of S W_g: G's largest and smallest eigenvalues
    after the PSD clamp, their ratio (null when the smallest is zero), and
    how many eigenvalues the clamp left at zero."""
    eig_max, eig_min = float(sigma[0]) ** 2, float(sigma[-1]) ** 2
    return {
        "clamped": int(np.count_nonzero(sigma == 0.0)),
        "condition": eig_max / eig_min if eig_min > 0.0 else None,
        "eig_max": eig_max,
        "eig_min": eig_min,
    }


def _inputs(m: manifest.ModelManifest, base: Path, cov_dir) -> set[str]:
    """The real paths of the layers' covariances in `cov_dir`, which convert
    does not read, and of every tensor and batch its source manifest names."""
    paths = [Path(cov_dir) / manifest.layer_file(layer, "cov") for layer in range(len(m.layers))]
    paths += [base / getattr(entry, name) for entry in m.layers
              for name in ("w_q", "w_k_g", "w_v_g")]
    paths += [base / rel for batches in m.calibration.values() for rel in batches]
    return {os.path.realpath(path) for path in paths}


def _clear_layer_files(directories, keep=frozenset(), only: str | None = None) -> None:
    """Remove every `layerNNN_<name>.ctf` file directly in `directories`,
    such as the tensors of a model with more layers or an earlier
    version's, with any name or only `only`, except a file whose real path
    is in `keep`. Nothing else in or under them is touched."""
    for directory in directories:
        if not directory.is_dir():
            continue
        for path in sorted(directory.iterdir()):
            match = manifest.LAYER_FILE.fullmatch(path.name)
            if (match and only in (None, match[1]) and path.is_file()
                    and os.path.realpath(path) not in keep):
                path.unlink()


# ---------------------------------------------------------------- eval

def _compare_latent(gqa: factorizer.GqaLayer, factors: factorizer.MlaFactors, x):
    """attention.compare of the source forward and the latent forward,
    which differ only in K and V: the latent one takes the source's query
    heads. Both forwards' heads are freed on return, before the caller
    computes anything from the outputs."""
    source = attention.gqa_heads(gqa, x)
    k, v = attention.latent_kv(factors, gqa, x)
    return attention.compare(source, source._replace(k=k, v=v))


def _eval_layer(
    layer: int,
    gqa: factorizer.GqaLayer,
    factors: factorizer.MlaFactors,
    rng: "np.random.Generator",
    t: int,
    params: metrics.LossParams,
    rope_dim: int,
) -> dict:
    """Compare one converted layer with its source and return its report,
    all but the activation residuals, which cmd_eval adds from the layer's
    Grams.

    Draws from rng in a fixed order: probe input, then targets. The two
    content forwards run in one attention.compare pass (_compare_latent),
    so no (n_heads, T, T) array is formed, and they share the source's
    query heads, projected once. With rope_dim > 0 the report also
    carries the rotary cache width and softmax scale denominator,
    sqrt(head_dim + rope_dim), which follow from the layer formats; no
    rotary projection is drawn and no rotary attention is run, so the
    content figures do not depend on rope_dim.
    """
    d = gqa.d_model
    x = rng.standard_normal((t, d))
    targets = rng.integers(0, d, size=t)
    drift, output_g, output_m = _compare_latent(gqa, factors, x)
    output_drift = float(np.max(np.abs(output_g - output_m)))

    teacher = metrics.LogitSequence(output_g, targets)
    student = metrics.LogitSequence(output_m, targets)
    ce_teacher = metrics.cross_entropy(teacher, params.tau)
    ce_student = metrics.cross_entropy(student, params.tau)
    kd = metrics.kd_loss(teacher, student, params.tau)
    total = metrics.total_loss(ce_student, kd, params)
    # total_loss refuses the student's terms; the teacher's is refused here.
    if not math.isfinite(ce_teacher):
        raise ValidationError(f"layer {layer}: the source's cross-entropy is {ce_teacher}")

    report = {
        "layer": layer,
        "logit_drift_max": drift.max_abs,
        "logit_drift_frob": drift.frob,
        "output_drift_max": output_drift,
        "cache_width_gqa": gqa.cache_width,
        "cache_width_mla": factors.cache_width,
        "losses": {
            "ce_teacher": ce_teacher,
            "ce_student": ce_student,
            "kd": kd,
            "total": total,
        },
    }
    if rope_dim:
        report["cache_width_mla_rope"] = factors.cache_width + rope_dim
        report["rope_scale_denominator"] = math.sqrt(gqa.head_dim + rope_dim)
    return report


def cmd_eval(args) -> None:
    if args.rope_dim < 0 or args.rope_dim % 2:
        raise ValidationError(
            f"--rope-dim must be 0 or a positive even number, got {args.rope_dim}"
        )
    if args.bytes_per_elem < 1:
        raise ValidationError(f"--bytes-per-elem must be at least 1, got {args.bytes_per_elem}")
    # The report's rotary scale and footprint are floats of these flags.
    for flag, value in (("--rope-dim", args.rope_dim), ("--bytes-per-elem", args.bytes_per_elem)):
        if value > sys.float_info.max:
            raise ValidationError(f"{flag} must be at most {sys.float_info.max:g}")
    params = metrics.LossParams(tau=args.tau, beta=args.beta)
    rng = make_generator(args.seed)
    source = manifest.load_manifest(args.source)
    converted = manifest.load_manifest(args.converted)
    if source.model_kind != manifest.MODEL_KIND_GQA:
        raise ValidationError("--source must be a grouped-attention manifest")
    if converted.model_kind != manifest.MODEL_KIND_MLA:
        raise ValidationError("--converted must be a converted manifest")
    if len(source.layers) != len(converted.layers):
        raise ValidationError("source and converted manifests have different layer counts")
    for entry_s, entry_c in zip(source.layers, converted.layers):
        if entry_s.geometry != entry_c.geometry:
            raise ValidationError(
                f"layer {entry_s.layer}: source geometry {entry_s.geometry} differs from "
                f"converted {entry_c.geometry}"
            )
    t = source.seq_len
    for entry in source.layers:
        ctf.check_shape((t, entry.d_model), f"layer {entry.layer} probe input")
    # Per-token widths summed over layers, which the manifests give: a
    # grouped layer caches its K and V at grouped width, a converted one its
    # two latents and the rotary channel. Every layer caches t tokens.
    width_gqa = sum(2 * entry.grouped_width for entry in source.layers)
    width_mla = sum(entry.r_k + entry.r_v + args.rope_dim for entry in converted.layers)
    gqa_fp = attention.kv_cache_bytes(1, t, 1, width_gqa, args.bytes_per_elem)
    mla_fp = attention.kv_cache_bytes(1, t, 1, width_mla, args.bytes_per_elem)
    src_base = Path(args.source).parent
    conv_base = Path(args.converted).parent
    out = _out_dir(args.out)
    # The report is written last and an old one goes first, so a run that
    # stops early leaves no report of another run.
    report_path = out / "eval_report.json"
    report_path.unlink(missing_ok=True)

    layer_reports = []
    for layer in range(len(source.layers)):
        entry = converted.layer(layer)
        kv, _ = manifest.load_grouped_kv(source, src_base, layer, entry.source.pins())
        factors = manifest.load_mla_bundle(converted, conv_base, layer)
        # The residuals come first, from only the weights they read, so the
        # Grams, the coordinates and their products are freed before either
        # query projection or any attention buffer is allocated.
        grams = manifest.load_grams(conv_base, entry.source, entry)
        residuals = {}
        for kind, g, weights in (
                ("K", grams[0, 0], (kv.w_k_g, factors.a_k, factors.w_a_k, factors.w_b_k)),
                ("V", grams[1, 0], (kv.w_v_g, factors.a_v, factors.w_a_v, factors.w_b_v))):
            try:
                residual = factorizer.gram_residual(g, *weights, kv)
            except ValidationError as exc:
                raise ValidationError(f"layer {layer} {kind}: {exc}; re-run convert") from None
            residuals[f"activation_residual_{kind.lower()}"] = residual
        del grams
        factors = dataclasses.replace(factors, a_k=None, a_v=None)
        # The source's current w_q, which no document pins, is the query
        # of both forwards.
        gqa = factorizer.GqaLayer.from_grouped(kv, manifest.load_query(source, src_base, layer))
        report = _eval_layer(layer, gqa, factors, rng, t, params, args.rope_dim)
        report.update(residuals)
        layer_reports.append(report)
    max_drift = max((r["logit_drift_max"] for r in layer_reports), default=0.0)

    totals = {
        "gqa_bytes": gqa_fp.total_bytes,
        "gqa_mb": gqa_fp.megabytes,
        "mla_bytes": mla_fp.total_bytes,
        "mla_mb": mla_fp.megabytes,
        "bytes_per_elem": args.bytes_per_elem,
    }
    if gqa_fp.total_bytes:
        totals["reduction_pct"] = _fmt2((1.0 - mla_fp.total_bytes / gqa_fp.total_bytes) * 100.0)

    doc = {
        "format": "kvlatent-eval-report",
        "version": 1,
        "seed": args.seed,
        "seq_len": t,
        "tau": params.tau,
        "beta": params.beta,
        "rope_dim": args.rope_dim,
        "max_logit_drift": max_drift,
        "layers": layer_reports,
        "totals": totals,
    }
    manifest.write_json_last(report_path, doc)

    print(f"max logit drift (content path): {max_drift:.3e}")
    print(
        f"cache per token, {len(layer_reports)} layers: gqa={width_gqa} mla={width_mla}"
        + (f" (incl. rope {args.rope_dim} per layer)" if args.rope_dim else "")
    )
    print(f"report: {report_path}")


# ---------------------------------------------------------------- kv-report

def cmd_kv_report(args) -> None:
    widths = _parse_widths(args.widths)
    footprint = attention.kv_cache_bytes(
        args.layers, args.seq_len, args.batch, sum(widths), args.bytes_per_elem
    )
    rows = [("cached", "+".join(str(w) for w in widths), footprint)]
    reduction = None
    if args.baseline_widths:
        baseline = _parse_widths(args.baseline_widths)
        base_fp = attention.kv_cache_bytes(
            args.layers, args.seq_len, args.batch, sum(baseline), args.bytes_per_elem
        )
        rows.append(("baseline", "+".join(str(w) for w in baseline), base_fp))
        if base_fp.total_bytes:
            reduction = (1.0 - footprint.total_bytes / base_fp.total_bytes) * 100.0

    print(
        f"layers={args.layers} seq_len={args.seq_len} batch={args.batch} "
        f"bytes_per_elem={args.bytes_per_elem}"
    )
    for label, widths_text, fp in rows:
        print(f"{label:>8}: widths {widths_text:>12}  {fp.total_bytes:>14} bytes  "
              f"{_fmt2(fp.megabytes)} MB")
    if reduction is not None:
        print(f"reduction vs baseline: {_fmt2(reduction)}%")

    if args.out:
        doc = {
            "format": "kvlatent-kv-report",
            "version": 1,
            "layers": args.layers,
            "seq_len": args.seq_len,
            "batch": args.batch,
            "bytes_per_elem": args.bytes_per_elem,
            "widths": widths,
            "total_bytes": footprint.total_bytes,
            "megabytes": _fmt2(footprint.megabytes),
        }
        if args.baseline_widths:
            doc["baseline_widths"] = baseline
            doc["baseline_bytes"] = base_fp.total_bytes
        if reduction is not None:
            doc["reduction_pct"] = _fmt2(reduction)
        _out_dir(Path(args.out).parent)
        manifest.write_json_last(args.out, doc)


# ---------------------------------------------------------------- parser

class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors read `error: ...` on stderr,
    as every other refusal does, and exit 2. Subcommand parsers are of the
    same class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kvlatent",
        description="Covariance-aware conversion of grouped-attention layers to latent KV form.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic model and calibration set")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--d-model", type=int, default=16)
    p.add_argument("--n-heads", type=int, default=4)
    p.add_argument("--head-dim", type=int, default=4)
    p.add_argument("--n-groups", type=int, default=2)
    p.add_argument("--seq-len", type=int, default=8,
                   help="tokens per calibration batch and per simulated forward")
    p.add_argument("--batches", type=int, default=4)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("cov", help="accumulate per-layer activation covariance")
    p.add_argument("--manifest", required=True)
    p.add_argument("--batches-dir", default=None,
                   help="resolve batch paths here instead of the manifest directory")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cov)

    p = sub.add_parser("schedule", help="allocate rank budgets over whitened spectra")
    p.add_argument("--manifest", required=True)
    p.add_argument("--cov-dir", required=True)
    p.add_argument("--mode", choices=list(manifest.PROFILE_MODES), default="adjusted")
    p.add_argument("--budget-k", type=int, default=None)
    p.add_argument("--budget-v", type=int, default=None)
    p.add_argument("--parity", action="store_true", default=None,
                   help="set both budgets to the total grouped KV width "
                        "(overrides --budget-k/--budget-v)")
    p.add_argument("--min-rank", type=int, default=None,
                   help="starting rank per layer; defaults to 64 when budgets "
                        "and full ranks permit, else 1")
    p.add_argument("--rank", type=int, default=None, help="per-layer rank for --mode uniform")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("convert", help="factorize grouped projections into latent factors")
    p.add_argument("--manifest", required=True)
    p.add_argument("--cov-dir", required=True,
                   help="the covariances' directory; none is read, and clearing --out "
                        "keeps them")
    p.add_argument("--profile", required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--lambda", dest="lam", default=None, metavar="LAM",
                   help="ridge scale, a positive number or 'auto'")
    p.add_argument("--weighting", default=None,
                   help=f"one of {', '.join(calibration.WEIGHTINGS)} (the manifest's by "
                        f"default)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("eval", help="compare a converted model against its source")
    p.add_argument("--source", required=True)
    p.add_argument("--converted", required=True)
    p.add_argument("--rope-dim", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--bytes-per-elem", type=int, default=2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("kv-report", help="theoretical KV-cache footprint table")
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--seq-len", type=int, required=True)
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--widths", required=True,
                   help="comma-separated cached widths per token, e.g. 448,512")
    p.add_argument("--baseline-widths", default=None)
    p.add_argument("--bytes-per-elem", type=int, default=2)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_kv_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
