"""JSON manifests gluing the pipeline stages together.

Two document kinds exist: model manifests (source layers, or converted
latent factors with the covariance and the digests of the source layer
each was converted from, plus calibration batch listings and whitening
settings) and rank-profile files, which may also record where the
whitened spectra that `schedule` computed for each layer are stored. All
documents are written with sorted keys and no timestamps so reruns are
byte-identical; every tensor path is stored relative to the manifest's
directory.

Every per-layer tensor file is named by `layer_file`, wherever a stage
writes it. A stage reads a layer's covariance through `load_covariance`,
and `eval` reads the one a converted layer names through the digest-checked
`load_bundle_covariance`.
"""

import contextlib
import hashlib
import json
import os
import posixpath
import re
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import ctf
from .calibration import CalibrationBatch, ShrinkageParams
from .errors import ValidationError
from .factorizer import Geometry, GqaLayer, GroupedKv, MlaFactors, WhitenedSvd
from .rng import check_seed
from .scheduler import KIND_K, KIND_V, KINDS, RankProfile

MODEL_KIND_GQA = "gqa"
MODEL_KIND_MLA = "mla"
MODEL_FORMAT = "kvlatent-model"
PROFILE_FORMAT = "kvlatent-rank-profile"
PROFILE_MODES = ("adjusted", "uniform")
DOC_VERSION = 1
_TENSORS = ("w_q", "w_k_g", "w_v_g", "w_a_k", "w_b_k", "w_a_v", "w_b_v", "cov")
# What a converted layer records of its source: the array_digest of the
# covariance it was whitened with and of each source weight.
_SOURCE_DIGESTS = ("cov_sha256", "w_q_sha256", "w_k_sha256", "w_v_sha256")
_SHA256 = re.compile(r"[0-9a-f]{64}")
# ShrinkageParams field -> the JSON key documents store it under.
_SHRINKAGE_KEYS = {"alpha": "alpha", "lam": "lambda", "weighting": "weighting"}
# The tensors a SpectrumRecord names: per kind the whitened singular values
# and V^T.
_SVD_TENSORS = (("sigma_k", "v_t_k"), ("sigma_v", "v_t_v"))
STORED_TENSORS = (*_SVD_TENSORS[0], *_SVD_TENSORS[1])
# Every name layer_file gives, whatever the layer count.
LAYER_FILE = re.compile(r"layer\d{3,}_\w+\.ctf")


@dataclass(frozen=True)
class LayerEntry(Geometry):
    """Per-layer geometry and tensor paths; optional fields depend on model
    kind. A converted layer also names the covariance it was whitened with
    (`cov`) and records the _SOURCE_DIGESTS of its source layer; it carries
    no `w_q`, and one named by an earlier bundle is path-checked, never read."""

    layer: int
    w_q: str | None = None
    w_k_g: str | None = None
    w_v_g: str | None = None
    r_k: int | None = None
    r_v: int | None = None
    w_a_k: str | None = None
    w_b_k: str | None = None
    w_a_v: str | None = None
    w_b_v: str | None = None
    cov: str | None = None
    cov_sha256: str | None = None
    w_q_sha256: str | None = None
    w_k_sha256: str | None = None
    w_v_sha256: str | None = None


@dataclass(frozen=True)
class ModelManifest:
    model_kind: str
    seq_len: int
    layers: tuple[LayerEntry, ...]
    calibration: dict[int, tuple[str, ...]] = field(default_factory=dict)
    seed: int | None = None
    shrinkage: ShrinkageParams = field(default_factory=ShrinkageParams)

    def layer(self, index: int) -> LayerEntry:
        if not 0 <= index < len(self.layers):
            raise ValidationError(f"layer index {index} out of range")
        return self.layers[index]


def _entry_to_json(entry: LayerEntry) -> dict:
    doc = {"layer": entry.layer, **asdict(entry.geometry)}
    for name in (*_TENSORS, "r_k", "r_v", *_SOURCE_DIGESTS):
        value = getattr(entry, name)
        if value is not None:
            doc[name] = value
    return doc


def save_manifest(m: ModelManifest, path) -> None:
    doc = {
        "format": MODEL_FORMAT,
        "version": DOC_VERSION,
        "model_kind": m.model_kind,
        **shrinkage_doc(m.shrinkage),
        "seq_len": m.seq_len,
        "layer_count": len(m.layers),
        "layers": [_entry_to_json(e) for e in m.layers],
        "calibration": {str(l): list(paths) for l, paths in sorted(m.calibration.items())},
    }
    if m.seed is not None:
        doc["seed"] = m.seed
    write_json_last(path, doc)


def load_manifest(path) -> ModelManifest:
    """Read a model manifest, checking every field's type and range.

    Tensor and batch paths must be relative and stay inside the directory
    they are resolved against (the manifest's, or a --batches-dir).
    """
    doc = _read_json(path)
    _expect(doc, "format", MODEL_FORMAT, path)
    _expect(doc, "version", DOC_VERSION, path)
    kind = doc.get("model_kind")
    if kind not in (MODEL_KIND_GQA, MODEL_KIND_MLA):
        raise ValidationError(f"{path}: unknown model_kind {kind!r}")
    shrinkage = _shrinkage(doc, path, optional=("alpha", "lambda"))
    layers = []
    raw_layers = doc.get("layers")
    if not isinstance(raw_layers, list):
        raise ValidationError(f"{path}: layers must be a list")
    _expect(doc, "layer_count", len(raw_layers), path)
    if not raw_layers:
        raise ValidationError(f"{path}: a model needs at least one layer")
    for i, raw in enumerate(raw_layers):
        entry = _entry_from_json(raw, f"{path}: layer {i}")
        if entry.layer != i:
            raise ValidationError(f"{path}: layer entries out of order at index {i}")
        if kind == MODEL_KIND_GQA and None in (entry.w_q, entry.w_k_g, entry.w_v_g):
            raise ValidationError(f"{path}: layer {i} is missing w_q or grouped projections")
        if kind == MODEL_KIND_GQA and (entry.r_k is not None or entry.r_v is not None):
            raise ValidationError(f"{path}: layer {i} of a grouped model has latent ranks")
        if kind == MODEL_KIND_MLA and (
            entry.r_k is None or entry.r_v is None or entry.w_a_k is None
            or entry.w_b_k is None or entry.w_a_v is None or entry.w_b_v is None
        ):
            raise ValidationError(f"{path}: layer {i} is missing latent factors")
        if kind == MODEL_KIND_MLA and None in (
            entry.cov, *(getattr(entry, name) for name in _SOURCE_DIGESTS)
        ):
            raise ValidationError(
                f"{path}: layer {i} records no covariance or source digests; re-run convert"
            )
        layers.append(entry)
    raw_calibration = doc.get("calibration", {})
    if not isinstance(raw_calibration, dict):
        raise ValidationError(f"{path}: calibration must map layer indices to path lists")
    # Only the key str(i) names layer i, so no two keys name one layer.
    indices = {str(i): i for i in range(len(layers))}
    calibration = {}
    for key, paths in raw_calibration.items():
        if key not in indices:
            raise ValidationError(f"{path}: calibration key {key!r} names no layer of the model")
        if not isinstance(paths, list):
            raise ValidationError(f"{path}: bad calibration listing for layer {key}")
        calibration[indices[key]] = tuple(_tensor_path(p, f"{path}: calibration batch")
                                          for p in paths)
    seq_len = _int(doc.get("seq_len", 1), f"{path}: seq_len", minimum=1)
    seed = doc.get("seed")
    if "seed" in doc:
        check_seed(seed, f"{path}: seed")
    return ModelManifest(
        model_kind=kind,
        seq_len=seq_len,
        layers=tuple(layers),
        calibration=calibration,
        seed=seed,
        shrinkage=shrinkage,
    )


def shrinkage_doc(params: ShrinkageParams) -> dict:
    """The JSON keys a document stores its whitening setting under."""
    return {key: getattr(params, name) for name, key in _SHRINKAGE_KEYS.items()}


def _shrinkage(raw: dict, where, optional=()) -> ShrinkageParams:
    """The ShrinkageParams of a document's shrinkage_doc keys; only a key in
    `optional` may be absent, and then takes the ShrinkageParams default."""
    given = {name: raw.get(key) for name, key in _SHRINKAGE_KEYS.items()
             if key in raw or key not in optional}
    try:
        return ShrinkageParams(**given)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _entry_from_json(raw, where: str) -> LayerEntry:
    if not isinstance(raw, dict):
        raise ValidationError(f"{where}: malformed layer entry {raw!r}")
    ints = {"layer": _int(raw.get("layer"), f"{where}: layer", minimum=0)}
    for name in (f.name for f in fields(Geometry)):
        ints[name] = _int(raw.get(name), f"{where}: {name}", minimum=1)
    tensors = {name: _tensor_path(raw[name], f"{where}: {name}")
               for name in _TENSORS if raw.get(name) is not None}
    for name in ("r_k", "r_v"):
        if raw.get(name) is not None:
            ints[name] = _int(raw[name], f"{where}: {name}", minimum=1)
    digests = {name: _sha256(raw, name, where) for name in _SOURCE_DIGESTS
               if raw.get(name) is not None}
    try:
        return LayerEntry(**ints, **tensors, **digests)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _int(value, what: str, minimum: int | None = None) -> int:
    """value itself if it is an integer (not a bool) of at least minimum."""
    if isinstance(value, bool) or not isinstance(value, int) or (
        minimum is not None and value < minimum
    ):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValidationError(f"{what} must be an integer{bound}, got {value!r}")
    return value


def _tensor_path(value, what: str) -> str:
    """value itself if it is a relative path that stays inside the directory
    it is resolved against."""
    if not isinstance(value, str):
        raise ValidationError(f"{what} must be a path string, got {value!r}")
    norm = posixpath.normpath(value)
    if posixpath.isabs(norm) or norm in (".", "..") or norm.startswith("../"):
        raise ValidationError(
            f"{what} {value!r} must be a relative path inside the manifest directory"
        )
    return value


def layer_file(layer: int, name: str) -> str:
    """The file name of one layer's tensor `name`, such as `layer003_w_q.ctf`."""
    return f"layer{layer:03d}_{name}.ctf"


def _load_tensor(base_dir, rel_path, expected_shape, what, sha256=None) -> np.ndarray:
    """The `.ctf` tensor at base_dir / rel_path, refused unless it has
    `expected_shape` and, when `sha256` is given, the file's bytes have
    that digest."""
    path = Path(base_dir) / rel_path
    if sha256 is None:
        arr = ctf.read_ctf(path)
    else:
        arr, digest = ctf.read_ctf_digest(path)
        if digest != sha256:
            raise ValidationError(
                f"{what} ({rel_path}): file sha256 does not match the profile's record"
            )
    if arr.shape != expected_shape:
        raise ValidationError(
            f"{what} ({rel_path}): shape {arr.shape}, expected {expected_shape}"
        )
    return arr


def load_covariance(cov_dir, layer: int, d_model: int) -> np.ndarray:
    """The D x D covariance `cov` wrote for `layer` into `cov_dir`."""
    return _load_tensor(cov_dir, layer_file(layer, "cov"), (d_model, d_model),
                        f"layer {layer} covariance")


def _entry_of(m: ModelManifest, index: int, kind: str) -> LayerEntry:
    """Layer `index` of `m`, refused unless `m` is a model of `kind`."""
    if m.model_kind != kind:
        name = "grouped-attention" if kind == MODEL_KIND_GQA else "converted"
        raise ValidationError(f"manifest does not describe a {name} model")
    return m.layer(index)


def load_grouped_kv(m: ModelManifest, base_dir, index: int) -> GroupedKv:
    """One source layer's grouped K and V projections, without its w_q."""
    entry = _entry_of(m, index, MODEL_KIND_GQA)
    grouped = (entry.d_model, entry.grouped_width)
    return GroupedKv(
        **asdict(entry.geometry),
        w_k_g=_load_tensor(base_dir, entry.w_k_g, grouped, f"layer {index} w_k_g"),
        w_v_g=_load_tensor(base_dir, entry.w_v_g, grouped, f"layer {index} w_v_g"),
    )


def load_query(m: ModelManifest, base_dir, index: int) -> np.ndarray:
    """One source layer's D x D query projection."""
    entry = _entry_of(m, index, MODEL_KIND_GQA)
    d = entry.d_model
    return _load_tensor(base_dir, entry.w_q, (d, d), f"layer {index} w_q")


def load_gqa_layer(m: ModelManifest, base_dir, index: int) -> GqaLayer:
    return GqaLayer.from_grouped(load_grouped_kv(m, base_dir, index),
                                 load_query(m, base_dir, index))


def load_mla_bundle(m: ModelManifest, base_dir, index: int) -> MlaFactors:
    """One converted layer's latent factors."""
    entry = _entry_of(m, index, MODEL_KIND_MLA)
    d = entry.d_model
    return MlaFactors(
        w_a_k=_load_tensor(base_dir, entry.w_a_k, (d, entry.r_k), f"layer {index} w_a_k"),
        w_b_k=_load_tensor(base_dir, entry.w_b_k, (entry.r_k, d), f"layer {index} w_b_k"),
        w_a_v=_load_tensor(base_dir, entry.w_a_v, (d, entry.r_v), f"layer {index} w_a_v"),
        w_b_v=_load_tensor(base_dir, entry.w_b_v, (entry.r_v, d), f"layer {index} w_b_v"),
    )


def load_bundle_covariance(m: ModelManifest, base_dir, index: int) -> np.ndarray:
    """The covariance a converted layer was whitened with, refused unless
    its array_digest is the one the layer records."""
    entry = _entry_of(m, index, MODEL_KIND_MLA)
    c = _load_tensor(base_dir, entry.cov, (entry.d_model, entry.d_model),
                     f"layer {index} covariance")
    if array_digest(c) != entry.cov_sha256:
        raise ValidationError(
            f"layer {index} covariance ({entry.cov}): sha256 does not match the "
            f"converted manifest's record; re-run convert"
        )
    return c


def check_source(entry: LayerEntry, gqa: GqaLayer) -> None:
    """Refuse a source layer whose weights are not the ones the converted
    layer `entry` records."""
    found = {"w_q": array_digest(gqa.w_q),
             **{f"w_{kind.lower()}": digest for kind, digest in weight_digests(gqa).items()}}
    for name, digest in found.items():
        if getattr(entry, f"{name}_sha256") != digest:
            raise ValidationError(
                f"layer {entry.layer}: the source's {name} is not the one this layer "
                f"was converted from (sha256 differs)"
            )


def iter_batches(
    m: ModelManifest, base_dir, layer: int, batches_dir=None
) -> Iterator[CalibrationBatch]:
    """Read one layer's batches lazily, in manifest order, so a consumer
    that reduces them holds one batch at a time."""
    paths = m.calibration.get(layer)
    if not paths:
        raise ValidationError(f"no calibration data for layer {layer}")
    root = Path(batches_dir) if batches_dir is not None else Path(base_dir)
    entry = m.layer(layer)
    for rel in paths:
        x = ctf.read_ctf(root / rel)
        if x.ndim != 2 or x.shape[1] != entry.d_model:
            raise ValidationError(
                f"batch {rel}: shape {x.shape} does not match d_model {entry.d_model}"
            )
        yield CalibrationBatch(layer=layer, x=x)


def load_batches(
    m: ModelManifest, base_dir, layer: int, batches_dir=None
) -> list[CalibrationBatch]:
    return list(iter_batches(m, base_dir, layer, batches_dir))


class StoredTensor(NamedTuple):
    """A `.ctf` path relative to the profile's directory, and the sha256 of
    the file's bytes."""

    path: str
    sha256: str


@dataclass(frozen=True)
class SpectrumRecord:
    """What `schedule` stored for one layer, and what it was computed from.

    `cov_sha256` is array_digest of the covariance the spectra were
    whitened with and `w_sha256` maps each kind to array_digest of its
    grouped weight; `shrinkage` is the whitening setting. `files` maps
    each name in STORED_TENSORS to its StoredTensor: the singular values
    and V^T of factorizer.layer_spectra for K and V.
    """

    layer: int
    cov_sha256: str
    w_sha256: dict[str, str]
    shrinkage: ShrinkageParams
    files: dict[str, StoredTensor]


def array_digest(a: np.ndarray) -> str:
    """The sha256 of an array's float64 bytes, in C order."""
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64)).hexdigest()


def weight_digests(kv: GroupedKv) -> dict[str, str]:
    """Each kind's array_digest of its grouped weight."""
    return {KIND_K: array_digest(kv.w_k_g), KIND_V: array_digest(kv.w_v_g)}


def spectra_dir(profile_path: Path) -> Path:
    """The directory next to a profile that holds its layers' stored spectra."""
    return profile_path.with_name(profile_path.stem + "_spectra")


def store_spectra(directory: Path, profile_path: Path, layer: int, cov_sha256: str,
                  w_sha256: dict[str, str], shrinkage: ShrinkageParams,
                  spectra: tuple[WhitenedSvd, WhitenedSvd]) -> SpectrumRecord:
    """Write one layer's whitened SVDs into `directory`, which becomes the
    profile's spectra_dir, and record what they were computed from (the
    digests of the covariance and of each kind's weight), with each file's
    path in the profile and sha256."""
    rel_dir = spectra_dir(profile_path).name
    files = {}
    for name, array in zip(STORED_TENSORS, (*spectra[0], *spectra[1])):
        file = layer_file(layer, name)
        sha256 = ctf.write_ctf(directory / file, array, digest=True)
        files[name] = StoredTensor(f"{rel_dir}/{file}", sha256)
    return SpectrumRecord(layer=layer, cov_sha256=cov_sha256, w_sha256=w_sha256,
                          shrinkage=shrinkage, files=files)


def miss_reason(record: SpectrumRecord | None, cov_sha256: str,
                w_sha256: dict[str, str] | None, shrinkage: ShrinkageParams) -> str | None:
    """Why the spectra `record` names cannot stand in for those of a layer
    whose covariance and weights have these digests, under `shrinkage`, or
    None when they can. `w_sha256` is read only when there is a record."""
    if record is None:
        return "no record"
    if record.shrinkage != shrinkage:
        return "parameter override"
    if record.cov_sha256 != cov_sha256:
        return "covariance changed"
    if record.w_sha256 != w_sha256:
        return "weight changed"
    return None


def load_spectra(record: SpectrumRecord, base_dir,
                 kv: GroupedKv) -> tuple[WhitenedSvd, WhitenedSvd]:
    """The (K, V) whitened SVDs a record names, for layer `kv`. Every file
    must match its recorded sha256 and its shape."""
    def load(name, shape):
        path, sha256 = record.files[name]
        return _load_tensor(base_dir, path, shape, f"layer {record.layer} {name}", sha256)

    n = kv.grouped_width
    return tuple(
        WhitenedSvd(load(sigma, (n,)), load(v_t, (n, n))) for sigma, v_t in _SVD_TENSORS
    )


def _record_to_json(record: SpectrumRecord) -> dict:
    doc = {
        "layer": record.layer,
        "cov_sha256": record.cov_sha256,
        **shrinkage_doc(record.shrinkage),
    }
    for kind in KINDS:
        doc[f"w_{kind.lower()}_sha256"] = record.w_sha256[kind]
    for name in STORED_TENSORS:
        doc[name], doc[f"{name}_sha256"] = record.files[name]
    return doc


def save_profile(profile: RankProfile, path, mode: str = "adjusted",
                 spectra: tuple[SpectrumRecord, ...] = ()) -> None:
    entries = []
    for (layer, kind) in sorted(profile.ranks):
        entries.append(
            {
                "layer": layer,
                "kind": kind,
                "rank": profile.ranks[(layer, kind)],
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
    if spectra:
        doc["spectra"] = [_record_to_json(r) for r in sorted(spectra, key=lambda r: r.layer)]
    write_json_last(path, doc)


def load_profile(path) -> tuple[RankProfile, str, dict[int, SpectrumRecord]]:
    """Read a rank profile, its mode and its spectrum records.

    The records map layer -> SpectrumRecord. A profile with a `spectra` key
    must record every layer of the profile once; one without it, such as
    one with the `eigen` key of earlier versions, has none ({}). The
    `full_rank` key of entries of earlier versions is ignored.
    """
    doc = _read_json(path)
    _expect(doc, "format", PROFILE_FORMAT, path)
    _expect(doc, "version", DOC_VERSION, path)
    raw_entries = doc.get("entries", [])
    if not isinstance(raw_entries, list):
        raise ValidationError(f"{path}: entries must be a list")
    ranks: dict[tuple[int, str], int] = {}
    for raw in raw_entries:
        if not isinstance(raw, dict):
            raise ValidationError(f"{path}: malformed profile entry {raw!r}")
        layer = _int(raw.get("layer"), f"{path}: entry layer", minimum=0)
        kind = raw.get("kind")
        if kind not in KINDS:
            raise ValidationError(f"{path}: bad kind {kind!r}")
        if (layer, kind) in ranks:
            raise ValidationError(f"{path}: duplicate entry for layer {layer} {kind}")
        ranks[(layer, kind)] = _int(raw.get("rank"), f"{path}: entry rank", minimum=1)
    profile = RankProfile(
        ranks=ranks,
        budget_k=_int(doc.get("budget_k", 0), f"{path}: budget_k", minimum=0),
        budget_v=_int(doc.get("budget_v", 0), f"{path}: budget_v", minimum=0),
        min_rank=_int(doc.get("min_rank", 1), f"{path}: min_rank", minimum=1),
    )
    profile.validate()
    mode = doc.get("mode", "adjusted")
    if mode not in PROFILE_MODES:
        raise ValidationError(f"{path}: mode must be one of {PROFILE_MODES}, got {mode!r}")
    if "spectra" not in doc:
        return profile, mode, {}
    layers = {layer for layer, _ in ranks}
    return profile, mode, _spectrum_records(doc["spectra"], layers, path)


def _sha256(raw: dict, key: str, where: str) -> str:
    digest = raw.get(key)
    if not isinstance(digest, str) or not _SHA256.fullmatch(digest):
        raise ValidationError(f"{where}: {key} must be 64 lowercase hex digits, got {digest!r}")
    return digest


def _spectrum_records(raw_records, layers: set[int], path) -> dict[int, SpectrumRecord]:
    if not isinstance(raw_records, list):
        raise ValidationError(f"{path}: spectra must be a list")
    records = {}
    for raw in raw_records:
        if not isinstance(raw, dict):
            raise ValidationError(f"{path}: malformed spectrum record {raw!r}")
        where = f"{path}: spectrum record"
        layer = _int(raw.get("layer"), f"{where} layer", minimum=0)
        if layer not in layers or layer in records:
            raise ValidationError(
                f"{where} for layer {layer} is not one of the profile's layers, "
                f"or repeats one"
            )
        records[layer] = SpectrumRecord(
            layer=layer,
            shrinkage=_shrinkage(raw, where),
            cov_sha256=_sha256(raw, "cov_sha256", where),
            w_sha256={kind: _sha256(raw, f"w_{kind.lower()}_sha256", where) for kind in KINDS},
            files={
                name: StoredTensor(_tensor_path(raw.get(name), f"{where} {name}"),
                                   _sha256(raw, f"{name}_sha256", where))
                for name in STORED_TENSORS
            },
        )
    if set(records) != layers:
        raise ValidationError(
            f"{path}: spectrum records cover layers {sorted(records)}, "
            f"the profile has {sorted(layers)}"
        )
    return records


def write_json(path, doc) -> None:
    """Write `doc` as strict JSON, refusing a NaN or an infinity."""
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    Path(path).write_text(text + "\n")


def write_json_last(path, doc) -> None:
    """write_json through a `.partial` sibling and a rename, so `path`
    never holds a half-written document; a refused document, or a failed
    write or rename, leaves no `.partial` behind."""
    partial = Path(path).with_name(Path(path).name + ".partial")
    try:
        write_json(partial, doc)
        os.replace(partial, path)
    except BaseException:
        with contextlib.suppress(OSError):
            partial.unlink(missing_ok=True)
        raise


def _read_json(path) -> dict:
    """The JSON object in the file `path`, refused if any object in it
    repeats a key, which json.loads would resolve silently to the last."""
    def unique_keys(pairs: list) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ValidationError(f"{path}: key {key!r} is repeated in one object")
            obj[key] = value
        return obj

    try:
        doc = json.loads(Path(path).read_text(), object_pairs_hook=unique_keys)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    return doc


def _expect(doc: dict, key: str, value, path) -> None:
    if type(doc.get(key)) is not type(value) or doc.get(key) != value:
        raise ValidationError(f"{path}: expected {key}={value!r}, got {doc.get(key)!r}")
