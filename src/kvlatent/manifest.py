"""JSON manifests gluing the pipeline stages together.

Two document kinds exist: model manifests (source layers or converted
latent factors, plus calibration batch listings and whitening settings) and
rank-profile files. All documents are written with sorted keys and no
timestamps so reruns are byte-identical; every tensor path is stored
relative to the manifest's directory.
"""

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import ctf
from .attention import RopeAdapters
from .calibration import WEIGHTINGS, CalibrationBatch
from .errors import ValidationError
from .factorizer import GqaLayer, MlaFactors
from .scheduler import KINDS, RankProfile

MODEL_KIND_GQA = "gqa"
MODEL_KIND_MLA = "mla"
MODEL_FORMAT = "kvlatent-model"
PROFILE_FORMAT = "kvlatent-rank-profile"
DOC_VERSION = 1


@dataclass(frozen=True)
class LayerEntry:
    """Per-layer config and tensor paths; optional fields depend on model kind."""

    layer: int
    d_model: int
    n_heads: int
    head_dim: int
    n_groups: int
    w_q: str
    w_k_g: str | None = None
    w_v_g: str | None = None
    r_k: int | None = None
    r_v: int | None = None
    w_a_k: str | None = None
    w_b_k: str | None = None
    w_a_v: str | None = None
    w_b_v: str | None = None
    rope_dim: int = 0
    rope_base: float = 10000.0
    w_r_q: str | None = None
    w_r_k: str | None = None


@dataclass(frozen=True)
class ModelManifest:
    model_kind: str
    weighting: str
    alpha: float
    lam: float | str
    seq_len: int
    layers: tuple[LayerEntry, ...]
    calibration: dict[int, tuple[str, ...]] = field(default_factory=dict)
    seed: int | None = None

    def layer(self, index: int) -> LayerEntry:
        if not 0 <= index < len(self.layers):
            raise ValidationError(f"layer index {index} out of range")
        return self.layers[index]


def _entry_to_json(entry: LayerEntry) -> dict:
    doc = {
        "layer": entry.layer,
        "d_model": entry.d_model,
        "n_heads": entry.n_heads,
        "head_dim": entry.head_dim,
        "n_groups": entry.n_groups,
        "w_q": entry.w_q,
    }
    for name in ("w_k_g", "w_v_g", "r_k", "r_v", "w_a_k", "w_b_k", "w_a_v", "w_b_v",
                 "w_r_q", "w_r_k"):
        value = getattr(entry, name)
        if value is not None:
            doc[name] = value
    if entry.rope_dim:
        doc["rope_dim"] = entry.rope_dim
        doc["rope_base"] = entry.rope_base
    return doc


def save_manifest(m: ModelManifest, path) -> None:
    doc = {
        "format": MODEL_FORMAT,
        "version": DOC_VERSION,
        "model_kind": m.model_kind,
        "weighting": m.weighting,
        "alpha": m.alpha,
        "lambda": m.lam,
        "seq_len": m.seq_len,
        "layer_count": len(m.layers),
        "layers": [_entry_to_json(e) for e in m.layers],
        "calibration": {str(l): list(paths) for l, paths in sorted(m.calibration.items())},
    }
    if m.seed is not None:
        doc["seed"] = m.seed
    write_json(path, doc)


def load_manifest(path) -> ModelManifest:
    doc = _read_json(path)
    _expect(doc, "format", MODEL_FORMAT, path)
    _expect(doc, "version", DOC_VERSION, path)
    kind = doc.get("model_kind")
    if kind not in (MODEL_KIND_GQA, MODEL_KIND_MLA):
        raise ValidationError(f"{path}: unknown model_kind {kind!r}")
    weighting = doc.get("weighting")
    if weighting not in WEIGHTINGS:
        raise ValidationError(f"{path}: unknown weighting {weighting!r}")
    lam = doc.get("lambda", "auto")
    if not (lam == "auto" or (isinstance(lam, (int, float)) and lam > 0)):
        raise ValidationError(f"{path}: lambda must be positive or 'auto'")
    layers = []
    raw_layers = doc.get("layers")
    if not isinstance(raw_layers, list) or doc.get("layer_count") != len(raw_layers):
        raise ValidationError(f"{path}: layer_count does not match the layer list")
    for i, raw in enumerate(raw_layers):
        entry = _entry_from_json(raw, path)
        if entry.layer != i:
            raise ValidationError(f"{path}: layer entries out of order at index {i}")
        if kind == MODEL_KIND_GQA and (entry.w_k_g is None or entry.w_v_g is None):
            raise ValidationError(f"{path}: layer {i} is missing grouped projections")
        if kind == MODEL_KIND_MLA and (
            entry.r_k is None or entry.r_v is None or entry.w_a_k is None
            or entry.w_b_k is None or entry.w_a_v is None or entry.w_b_v is None
        ):
            raise ValidationError(f"{path}: layer {i} is missing latent factors")
        layers.append(entry)
    raw_calibration = doc.get("calibration", {})
    if not isinstance(raw_calibration, dict):
        raise ValidationError(f"{path}: calibration must map layer indices to path lists")
    calibration = {}
    for key, paths in raw_calibration.items():
        if not isinstance(paths, list) or not all(isinstance(p, str) for p in paths):
            raise ValidationError(f"{path}: bad calibration listing for layer {key}")
        try:
            calibration[int(key)] = tuple(paths)
        except ValueError:
            raise ValidationError(f"{path}: calibration key {key!r} is not a layer index") from None
    alpha = doc.get("alpha", 0.01)
    if isinstance(alpha, bool) or not isinstance(alpha, (int, float)) or not 0.0 < alpha < 1.0:
        raise ValidationError(f"{path}: alpha must be a number in (0, 1), got {alpha!r}")
    seq_len = doc.get("seq_len", 1)
    if isinstance(seq_len, bool) or not isinstance(seq_len, int) or seq_len < 1:
        raise ValidationError(f"{path}: seq_len must be a positive integer, got {seq_len!r}")
    return ModelManifest(
        model_kind=kind,
        weighting=weighting,
        alpha=float(alpha),
        lam=lam,
        seq_len=seq_len,
        layers=tuple(layers),
        calibration=calibration,
        seed=doc.get("seed"),
    )


def with_rope(m: ModelManifest, rope_dim: int, adapter_paths) -> ModelManifest:
    """Copy of a converted manifest whose layers carry rotary adapters.

    adapter_paths holds one (w_r_q, w_r_k) pair of tensor paths per layer,
    in layer order.
    """
    layers = tuple(
        dataclasses.replace(entry, rope_dim=rope_dim, w_r_q=w_r_q, w_r_k=w_r_k)
        for entry, (w_r_q, w_r_k) in zip(m.layers, adapter_paths, strict=True)
    )
    return dataclasses.replace(m, layers=layers)


def _entry_from_json(raw: dict, path) -> LayerEntry:
    try:
        return LayerEntry(
            layer=int(raw["layer"]),
            d_model=int(raw["d_model"]),
            n_heads=int(raw["n_heads"]),
            head_dim=int(raw["head_dim"]),
            n_groups=int(raw["n_groups"]),
            w_q=raw["w_q"],
            w_k_g=raw.get("w_k_g"),
            w_v_g=raw.get("w_v_g"),
            r_k=raw.get("r_k"),
            r_v=raw.get("r_v"),
            w_a_k=raw.get("w_a_k"),
            w_b_k=raw.get("w_b_k"),
            w_a_v=raw.get("w_a_v"),
            w_b_v=raw.get("w_b_v"),
            rope_dim=int(raw.get("rope_dim", 0)),
            rope_base=float(raw.get("rope_base", 10000.0)),
            w_r_q=raw.get("w_r_q"),
            w_r_k=raw.get("w_r_k"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: malformed layer entry ({exc})") from None


def _load_tensor(base_dir, rel_path, expected_shape, what) -> np.ndarray:
    arr = ctf.read_ctf(Path(base_dir) / rel_path)
    if arr.shape != expected_shape:
        raise ValidationError(
            f"{what} ({rel_path}): shape {arr.shape} does not match manifest "
            f"config {expected_shape}"
        )
    return arr


def load_gqa_layer(m: ModelManifest, base_dir, index: int) -> GqaLayer:
    entry = m.layer(index)
    if m.model_kind != MODEL_KIND_GQA:
        raise ValidationError("manifest does not describe a grouped-attention model")
    full = (entry.d_model, entry.n_heads * entry.head_dim)
    grouped = (entry.d_model, entry.n_groups * entry.head_dim)
    return GqaLayer(
        d_model=entry.d_model,
        n_heads=entry.n_heads,
        head_dim=entry.head_dim,
        n_groups=entry.n_groups,
        w_q=_load_tensor(base_dir, entry.w_q, full, f"layer {index} w_q"),
        w_k_g=_load_tensor(base_dir, entry.w_k_g, grouped, f"layer {index} w_k_g"),
        w_v_g=_load_tensor(base_dir, entry.w_v_g, grouped, f"layer {index} w_v_g"),
    )


def load_mla_bundle(
    m: ModelManifest, base_dir, index: int
) -> tuple[MlaFactors, np.ndarray, RopeAdapters | None]:
    entry = m.layer(index)
    if m.model_kind != MODEL_KIND_MLA:
        raise ValidationError("manifest does not describe a converted model")
    d = entry.d_model
    full = (d, entry.n_heads * entry.head_dim)
    factors = MlaFactors(
        w_a_k=_load_tensor(base_dir, entry.w_a_k, (d, entry.r_k), f"layer {index} w_a_k"),
        w_b_k=_load_tensor(base_dir, entry.w_b_k, (entry.r_k, full[1]), f"layer {index} w_b_k"),
        w_a_v=_load_tensor(base_dir, entry.w_a_v, (d, entry.r_v), f"layer {index} w_a_v"),
        w_b_v=_load_tensor(base_dir, entry.w_b_v, (entry.r_v, full[1]), f"layer {index} w_b_v"),
        r_k=entry.r_k,
        r_v=entry.r_v,
    )
    w_q = _load_tensor(base_dir, entry.w_q, full, f"layer {index} w_q")
    adapters = None
    if entry.rope_dim:
        if entry.w_r_q is None or entry.w_r_k is None:
            raise ValidationError(f"layer {index} declares rope_dim but lacks adapters")
        adapters = RopeAdapters(
            w_r_q=_load_tensor(
                base_dir, entry.w_r_q, (d, entry.n_heads * entry.rope_dim),
                f"layer {index} w_r_q",
            ),
            w_r_k=_load_tensor(
                base_dir, entry.w_r_k, (d, entry.rope_dim), f"layer {index} w_r_k"
            ),
        )
    return factors, w_q, adapters


def load_batches(
    m: ModelManifest, base_dir, layer: int, batches_dir=None
) -> list[CalibrationBatch]:
    paths = m.calibration.get(layer)
    if not paths:
        raise ValidationError(f"no calibration data for layer {layer}")
    root = Path(batches_dir) if batches_dir is not None else Path(base_dir)
    entry = m.layer(layer)
    batches = []
    for rel in paths:
        x = ctf.read_ctf(root / rel)
        if x.ndim != 2 or x.shape[1] != entry.d_model:
            raise ValidationError(
                f"batch {rel}: shape {x.shape} does not match d_model {entry.d_model}"
            )
        batches.append(CalibrationBatch(layer=layer, x=x))
    return batches


def save_profile(profile: RankProfile, path, mode: str = "adjusted") -> None:
    entries = []
    for (layer, kind) in sorted(profile.ranks):
        entries.append(
            {
                "layer": layer,
                "kind": kind,
                "rank": profile.ranks[(layer, kind)],
                "full_rank": profile.full_ranks.get((layer, kind)),
            }
        )
    doc = {
        "format": PROFILE_FORMAT,
        "version": DOC_VERSION,
        "mode": mode,
        "min_rank": profile.min_rank,
        "budget_k": profile.budget_k,
        "budget_v": profile.budget_v,
        "entries": entries,
    }
    write_json(path, doc)


def load_profile(path) -> tuple[RankProfile, str]:
    doc = _read_json(path)
    _expect(doc, "format", PROFILE_FORMAT, path)
    _expect(doc, "version", DOC_VERSION, path)
    ranks: dict[tuple[int, str], int] = {}
    full_ranks: dict[tuple[int, str], int] = {}
    for raw in doc.get("entries", []):
        try:
            layer, kind, rank = int(raw["layer"]), raw["kind"], int(raw["rank"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"{path}: malformed profile entry ({exc})") from None
        if kind not in KINDS:
            raise ValidationError(f"{path}: bad kind {kind!r}")
        if (layer, kind) in ranks:
            raise ValidationError(f"{path}: duplicate entry for layer {layer} {kind}")
        ranks[(layer, kind)] = rank
        if raw.get("full_rank") is not None:
            full_ranks[(layer, kind)] = int(raw["full_rank"])
    profile = RankProfile(
        ranks=ranks,
        budget_k=int(doc.get("budget_k", 0)),
        budget_v=int(doc.get("budget_v", 0)),
        min_rank=int(doc.get("min_rank", 1)),
        full_ranks=full_ranks,
    )
    profile.validate()
    mode = doc.get("mode", "adjusted")
    return profile, mode


def write_json(path, doc) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _read_json(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    return doc


def _expect(doc: dict, key: str, value, path) -> None:
    if doc.get(key) != value:
        raise ValidationError(f"{path}: expected {key}={value!r}, got {doc.get(key)!r}")
