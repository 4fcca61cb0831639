"""Command-line pipeline: gen, cov, schedule, convert, eval, kv-report, ablate.

Every command is a deterministic batch process: identical inputs and flags
produce byte-identical artifacts. Reports carry no timestamps and all
tensor paths are stored relative to their manifest. Exit codes: 0 success,
2 validation error, 3 numerical failure, 4 I/O error.

Every per-layer file is named by `manifest.layer_file`, and `schedule` and
`convert` read each covariance through `manifest.load_covariance` in one
whitening step. `schedule` checks its rank plan against the manifest before
it reads the first covariance. `cov` is the only stage that reads
calibration batches: `convert` places each layer's covariance in the
converted bundle, and `eval` takes the activation residual from it.
"""

import argparse
import contextlib
import dataclasses
import math
import os
import shutil
import sys
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import attention, calibration, ctf, factorizer, linalg, manifest, metrics, scheduler
from .errors import NumericalError, ValidationError
from .rng import make_generator

DEFAULT_MIN_RANK = 64
WEIGHT_SCALE_LOW, WEIGHT_SCALE_HIGH = 0.75, 1.25


def _fmt2(value: float) -> str:
    """Two-decimal string with half-up rounding (exact .5 ties round away
    from zero, matching the published memory table)."""
    return str(Decimal(repr(float(value))).quantize(Decimal("0.01"), ROUND_HALF_UP))


class _LayerWhitening(NamedTuple):
    """One source layer's grouped weights; the array_digest of its
    covariance and of each kind's weight; its raw covariance eigenvalues,
    whitener and (K, V) whitened SVDs; and why the spectra were computed
    here, or None when they are the ones a profile stored."""

    kv: factorizer.GroupedKv
    cov_sha256: str
    w_sha256: dict[str, str]
    eigenvalues: np.ndarray
    whitener: calibration.Whitener
    spectra: tuple[factorizer.WhitenedSvd, factorizer.WhitenedSvd]
    reason: str | None


def _layer_whitening(m: manifest.ModelManifest, base: Path, cov_dir, layer: int,
                     params: calibration.ShrinkageParams,
                     record: manifest.SpectrumRecord | None = None,
                     profile_dir=None) -> _LayerWhitening:
    """One layer's whitening step, from one eigendecomposition of its
    covariance unless `record` stored its spectra. The covariance is always
    read and checked; a hit reads no eigenvectors. Only the grouped K and V
    weights are read, never w_q. With no record, as from schedule, they are
    read after the decomposition, so they never share memory with its
    workspace."""
    c = manifest.load_covariance(cov_dir, layer, m.layer(layer).d_model)
    cov_sha256 = manifest.array_digest(c)
    kv = w_sha256 = None
    if record is not None:
        kv = manifest.load_grouped_kv(m, base, layer)
        w_sha256 = manifest.weight_digests(kv)
    reason = manifest.miss_reason(record, cov_sha256, w_sha256, params)
    if reason is None:
        eigenvalues, spectra = manifest.load_spectra(record, profile_dir, kv)
        whitener = calibration.whitener_from_eig(linalg.EigResult(eigenvalues, None), params)
        return _LayerWhitening(kv, cov_sha256, w_sha256, eigenvalues, whitener, spectra, None)
    eig = linalg.sym_eig(c)
    whitener = calibration.whitener_from_eig(eig, params)
    if kv is None:
        kv = manifest.load_grouped_kv(m, base, layer)
        w_sha256 = manifest.weight_digests(kv)
    return _LayerWhitening(kv, cov_sha256, w_sha256, eig.eigenvalues, whitener,
                           factorizer.layer_spectra(kv, whitener), reason)


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

def cmd_gen(args) -> None:
    rng = make_generator(args.seed)
    if args.n_heads * args.head_dim != args.d_model:
        raise ValidationError("--n-heads * --head-dim must equal --d-model")
    geometry = factorizer.Geometry(args.d_model, args.n_heads, args.head_dim, args.n_groups)
    if args.layers < 1 or args.seq_len < 1 or args.batches < 1:
        raise ValidationError("--layers, --seq-len and --batches must be positive")

    out = Path(args.out)
    (out / "weights").mkdir(parents=True, exist_ok=True)
    (out / "batches").mkdir(parents=True, exist_ok=True)
    d, grouped = geometry.d_model, geometry.grouped_width

    # Fixed draw order: one pass for all weights and per-dimension scales,
    # then one pass for all batches. Changing --batches never reshuffles the
    # weights of an otherwise identical model.
    entries = []
    scales = []
    for layer in range(args.layers):
        w_q = rng.standard_normal((d, d)) / np.sqrt(d)
        w_k_g = rng.standard_normal((d, grouped)) / np.sqrt(d)
        w_v_g = rng.standard_normal((d, grouped)) / np.sqrt(d)
        scales.append(rng.uniform(WEIGHT_SCALE_LOW, WEIGHT_SCALE_HIGH, d))
        paths = {name: f"weights/{manifest.layer_file(layer, name)}"
                 for name in ("w_q", "w_k_g", "w_v_g")}
        ctf.write_ctf(out / paths["w_q"], w_q)
        ctf.write_ctf(out / paths["w_k_g"], w_k_g)
        ctf.write_ctf(out / paths["w_v_g"], w_v_g)
        entries.append(manifest.LayerEntry(**dataclasses.asdict(geometry), layer=layer, **paths))

    batches: dict[int, tuple[str, ...]] = {}
    for layer in range(args.layers):
        layer_paths = []
        for b in range(args.batches):
            x = rng.standard_normal((args.seq_len, d)) * scales[layer]
            rel = f"batches/{manifest.layer_file(layer, f'batch{b:03d}')}"
            ctf.write_ctf(out / rel, x)
            layer_paths.append(rel)
        batches[layer] = tuple(layer_paths)

    model = manifest.ModelManifest(
        model_kind=manifest.MODEL_KIND_GQA,
        seq_len=args.seq_len,
        layers=tuple(entries),
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

    Batches are read one at a time, in manifest order, and each `x.T @ x`
    is added in place; the mean is symmetrized once as `finalize` does.
    numpy computes `x.T @ x` as a symmetric rank-k update, so every batch
    Gram is exactly symmetric and the bytes equal the `accumulate`/`finalize`
    fold. No batch outlives its iteration.
    """
    d = m.layer(layer).d_model
    total = np.zeros((d, d))
    count = 0
    # Huge activations overflow to inf or nan; they are refused below by
    # name instead of surfacing as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for batch in manifest.iter_batches(m, base, layer, batches_dir):
            total += batch.x.T @ batch.x
            count += 1
        c = total / count
        c = (c + c.T) / 2.0
    if not np.all(np.isfinite(c)):
        raise ValidationError(
            f"covariance of layer {layer} is non-finite: its activations overflow float64"
        )
    return c, count


def cmd_cov(args) -> None:
    m = manifest.load_manifest(args.manifest)
    base = Path(args.manifest).parent
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # Every old covariance goes before the first batch is read, and each new
    # one appears whole, so a failed rerun never leaves a mix of two runs.
    for layer in range(len(m.layers)):
        (out / manifest.layer_file(layer, "cov")).unlink(missing_ok=True)
    for layer in range(len(m.layers)):
        cov, count = _layer_covariance(m, base, layer, args.batches_dir)
        path = out / manifest.layer_file(layer, "cov")
        ctf.write_ctf(path, cov)
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
    spectra_dir = manifest.spectra_dir(out)
    table = scheduler.SpectrumTable()
    with _staged_dir(spectra_dir) as staged:
        records = tuple(
            _store_layer(m, base, args.cov_dir, layer, table, staged, out)
            for layer in range(len(m.layers))
        )
        ranks = {
            kind: uniform or scheduler.waterfill(table, kind, budgets[kind], min_rank)
            for kind in scheduler.KINDS
        }
        profile = scheduler.build_profile(ranks, budgets, min_rank)
    # The old profile goes before its spectra, and the new profile is
    # written last, so no profile ever names files of another run.
    out.unlink(missing_ok=True)
    if spectra_dir.exists():
        shutil.rmtree(spectra_dir)
    staged.rename(spectra_dir)
    manifest.save_profile(profile, out, mode=args.mode, spectra=records)
    print(f"mode={args.mode} budgets K={profile.budget_k} V={profile.budget_v} "
          f"min_rank={profile.min_rank}")
    for layer in table.layers(scheduler.KIND_K):
        print(f"layer {layer}: K={profile.ranks[(layer, scheduler.KIND_K)]} "
              f"V={profile.ranks[(layer, scheduler.KIND_V)]}")
    print(f"profile: {args.out}")


def _store_layer(m: manifest.ModelManifest, base: Path, cov_dir, layer: int,
                 table: scheduler.SpectrumTable, staged: Path,
                 profile_path: Path) -> manifest.SpectrumRecord:
    """One layer's whitened K/V spectra, added to `table`, and stored in
    `staged` for `convert` to truncate. A singular whitener is refused
    here, as convert would refuse it, so no profile is planned on spectra
    that no conversion can use. The layer's D x D arrays are freed on
    return, before the next layer's are read."""
    step = _layer_whitening(m, base, cov_dir, layer, m.shrinkage)
    step.whitener.check_invertible()
    # The head-width spectrum is this grouped one times sqrt(n_heads /
    # n_groups), plus zeros; water-filling is invariant to that scale.
    for kind, svd in zip(scheduler.KINDS, step.spectra):
        table.add(layer, kind, svd.singular_values)
    return manifest.store_spectra(staged, profile_path, layer, step.cov_sha256, step.w_sha256,
                                  m.shrinkage, step.eigenvalues, step.spectra)


# ---------------------------------------------------------------- convert

def cmd_convert(args) -> None:
    m = manifest.load_manifest(args.manifest)
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
    for sub in ("weights", "cov", "factors"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    # The two documents are written last; a run that stops early leaves
    # neither, so its factors never look like a finished conversion.
    for name in ("converted.json", "conversion_report.json"):
        (out / name).unlink(missing_ok=True)

    entries = []
    report_layers = []
    for layer in range(len(m.layers)):
        entry = m.layer(layer)
        step = _layer_whitening(
            m, base, args.cov_dir, layer, params, records.get(layer), profile_dir
        )
        print(f"layer {layer}: spectra "
              + ("reused" if step.reason is None else f"recomputed ({step.reason})"))
        whitener = step.whitener
        whitener.check_invertible()
        r_k = profile.rank(layer, scheduler.KIND_K)
        r_v = profile.rank(layer, scheduler.KIND_V)
        factors, report_k, report_v = factorizer.convert_layer(step.kv, step.spectra, r_k, r_v)

        # The bundle carries the source's w_q and this layer's covariance,
        # as hard links where it can, and the digests eval checks them by.
        w_q_sha256 = manifest.array_digest(manifest.load_query(m, base, layer))
        w_q_rel = f"weights/{manifest.layer_file(layer, 'w_q')}"
        cov_rel = f"cov/{manifest.layer_file(layer, 'cov')}"
        _place(base / entry.w_q, out / w_q_rel)
        _place(Path(args.cov_dir) / manifest.layer_file(layer, "cov"), out / cov_rel)
        paths = {name: f"factors/{manifest.layer_file(layer, name)}"
                 for name in ("w_a_k", "w_b_k", "w_a_v", "w_b_v")}
        for name, rel in paths.items():
            ctf.write_ctf(out / rel, getattr(factors, name))
        entries.append(dataclasses.replace(
            entry, w_q=w_q_rel, w_k_g=None, w_v_g=None, r_k=r_k, r_v=r_v, **paths,
            cov=cov_rel, cov_sha256=step.cov_sha256, w_q_sha256=w_q_sha256,
            w_k_sha256=step.w_sha256[scheduler.KIND_K],
            w_v_sha256=step.w_sha256[scheduler.KIND_V],
        ))
        report_layers.append(
            {
                "layer": layer,
                "lambda_resolved": whitener.lam,
                "whitener": _whitener_dict(whitener),
                "k": dataclasses.asdict(report_k),
                "v": dataclasses.asdict(report_v),
            }
        )
        print(
            f"layer {layer}: r_k={r_k} r_v={r_v} "
            f"whitened_residual_sq K={report_k.whitened_residual_sq:.3e} "
            f"V={report_v.whitened_residual_sq:.3e}"
        )
        # None of this layer's arrays stay alive while the next one is read.
        del step, whitener, factors

    converted = manifest.ModelManifest(
        model_kind=manifest.MODEL_KIND_MLA,
        seq_len=m.seq_len,
        layers=tuple(entries),
        seed=m.seed,
        shrinkage=params,
    )
    manifest.write_json_last(
        out / "conversion_report.json",
        {
            "format": "kvlatent-conversion-report",
            "version": 1,
            **manifest.shrinkage_doc(params),
            "layers": report_layers,
        },
    )
    manifest.save_manifest(converted, out / "converted.json")
    print(f"converted manifest: {out / 'converted.json'}")


def _whitener_dict(whitener: calibration.Whitener) -> dict:
    return {
        "clamped": whitener.clamped,
        "condition": whitener.condition,
        "lambda_max": whitener.lambda_max,
        "lambda_min": whitener.lambda_min,
        "lambda_resolved": whitener.lam,
    }


# ---------------------------------------------------------------- eval

def _eval_layer(
    layer: int,
    gqa: factorizer.GqaLayer,
    factors: factorizer.MlaFactors,
    rng: np.random.Generator,
    t: int,
    params: metrics.LossParams,
    rope_dim: int,
) -> dict:
    """Compare one converted layer with its source and return its report,
    all but the activation residuals, which cmd_eval adds from the layer's
    covariance. Both forwards take the source's query projection.

    Draws from rng in a fixed order: probe input, then targets. The two
    content forwards run in one attention.compare pass, so no
    (n_heads, T, T) array is formed. With rope_dim > 0 the report also
    carries the rotary cache width and softmax scale denominator,
    sqrt(head_dim + rope_dim), which follow from the layer formats; no
    rotary projection is drawn and no rotary attention is run, so the
    content figures do not depend on rope_dim.
    """
    d = gqa.d_model
    x = rng.standard_normal((t, d))
    targets = rng.integers(0, d, size=t)
    drift, output_g, output_m = attention.compare(
        attention.gqa_heads(gqa, x), attention.mla_heads(factors, gqa.w_q, gqa, x)
    )
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
    src_base = Path(args.source).parent
    conv_base = Path(args.converted).parent
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # The report is written last and an old one goes first, so a run that
    # stops early leaves no report of another run.
    report_path = out / "eval_report.json"
    report_path.unlink(missing_ok=True)

    t = source.seq_len
    layer_reports = []
    for layer in range(len(source.layers)):
        entry = converted.layer(layer)
        kv = manifest.load_grouped_kv(source, src_base, layer)
        factors = manifest.load_mla_factors(converted, conv_base, layer)
        # The residuals come first, from only the weights they read, so the
        # covariance and its products are freed before either query
        # projection or any attention buffer is allocated. On `wide` eval
        # peaked at 94.0 MB so, and at 97.4 MB with the covariance read
        # after the forwards (ru_maxrss, numpy on 2 BLAS threads).
        c = manifest.load_bundle_covariance(converted, conv_base, layer)
        residuals = {
            f"activation_residual_{kind}": factorizer.covariance_residual(c, *weights, kv)
            for kind, weights in (("k", (kv.w_k_g, factors.w_a_k, factors.w_b_k)),
                                  ("v", (kv.w_v_g, factors.w_a_v, factors.w_b_v)))
        }
        del c
        gqa = factorizer.GqaLayer.from_grouped(kv, manifest.load_query(source, src_base, layer))
        manifest.check_source(entry, gqa)
        report = _eval_layer(layer, gqa, factors, rng, t, params, args.rope_dim)
        report.update(residuals)
        layer_reports.append(report)
    # Per-token widths summed over layers; every layer caches t tokens.
    width_gqa = sum(r["cache_width_gqa"] for r in layer_reports)
    width_mla = sum(r.get("cache_width_mla_rope", r["cache_width_mla"]) for r in layer_reports)
    gqa_bytes = attention.kv_cache_bytes(1, t, 1, width_gqa, args.bytes_per_elem).total_bytes
    mla_bytes = attention.kv_cache_bytes(1, t, 1, width_mla, args.bytes_per_elem).total_bytes
    max_drift = max((r["logit_drift_max"] for r in layer_reports), default=0.0)

    totals = {
        "gqa_bytes": gqa_bytes,
        "gqa_mb": gqa_bytes / 1e6,
        "mla_bytes": mla_bytes,
        "mla_mb": mla_bytes / 1e6,
        "bytes_per_elem": args.bytes_per_elem,
    }
    if gqa_bytes:
        totals["reduction_pct"] = _fmt2((1.0 - mla_bytes / gqa_bytes) * 100.0)

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
        manifest.write_json_last(args.out, doc)


# ---------------------------------------------------------------- ablate

def cmd_ablate(args) -> None:
    if args.seq_len is not None and args.seq_len < 1:
        raise ValidationError(f"--seq-len must be a positive integer, got {args.seq_len}")
    rng = make_generator(args.seed)
    m = manifest.load_manifest(args.manifest)
    base = Path(args.manifest).parent
    gqa = manifest.load_gqa_layer(m, base, args.layer)
    name = f"w_{args.kind.lower()}_g"
    w = getattr(gqa, name)
    sigma, ablated_w = factorizer.ablate_singular_value(w, args.index)
    weight_residual = linalg.frobenius_norm_sq(w - ablated_w)
    ablated_layer = dataclasses.replace(gqa, **{name: ablated_w})
    t = args.seq_len if args.seq_len is not None else m.seq_len
    x = rng.standard_normal((t, gqa.d_model))
    # V never enters the logits, so a V ablation shows only in the output.
    drift, output, output_ablated = attention.compare(
        attention.gqa_heads(gqa, x), attention.gqa_heads(ablated_layer, x)
    )
    output_drift = float(np.max(np.abs(output - output_ablated)))

    print(f"layer {args.layer} {args.kind}: sigma_{args.index} = {sigma:.6e}")
    print(f"weight_residual_sq = {weight_residual:.6e}")
    print(f"logit drift: max={drift.max_abs:.6e} frob={drift.frob:.6e}")
    print(f"output drift: max={output_drift:.6e}")
    if args.out:
        manifest.write_json_last(
            args.out,
            {
                "format": "kvlatent-ablation-report",
                "version": 1,
                "layer": args.layer,
                "kind": args.kind,
                "index": args.index,
                "seed": args.seed,
                "seq_len": t,
                "singular_value": sigma,
                "weight_residual_sq": weight_residual,
                "logit_drift_max": drift.max_abs,
                "logit_drift_frob": drift.frob,
                "output_drift_max": output_drift,
            },
        )


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
    p.add_argument("--cov-dir", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--lambda", dest="lam", default=None, metavar="LAM",
                   help="ridge scale, a positive number or 'auto'")
    p.add_argument("--weighting", choices=list(calibration.WEIGHTINGS), default=None)
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

    p = sub.add_parser("ablate", help="zero one singular value and measure the damage")
    p.add_argument("--manifest", required=True)
    p.add_argument("--layer", type=int, required=True)
    p.add_argument("--kind", required=True, choices=list(scheduler.KINDS))
    p.add_argument("--index", type=int, required=True,
                   help="1-based position in the descending spectrum")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seq-len", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ablate)

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
