"""JSON manifests gluing the pipeline stages together.

Two document kinds exist: model manifests (source layers, or converted
latent factors with their coordinates A in the grouped weights (w_a =
W_g A), plus calibration batch listings and whitening settings) and
rank-profile files. A GramRecord, what a layer is converted from, is kept
under the same keys by a profile, one per layer, and by each converted
layer. All documents are written with sorted keys and no timestamps so
reruns are byte-identical; every tensor path is stored relative to the
manifest's directory, and must resolve inside it.

Every digest a document records is the sha256 of a `.ctf` file's bytes,
under the key `<tensor>_file_sha256`, and `_load_tensor` is the one place
that compares one with the file it reads. Every per-layer tensor file is
named by `layer_file`, wherever a stage writes it.
"""

import contextlib
import json
import math
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
from .factorizer import Geometry, GqaLayer, GroupedKv, MlaFactors
from .rng import check_seed
from .scheduler import KINDS, RankProfile

MODEL_KIND_GQA = "gqa"
MODEL_KIND_MLA = "mla"
MODEL_FORMAT = "kvlatent-model"
PROFILE_FORMAT = "kvlatent-rank-profile"
PROFILE_MODES = ("adjusted", "uniform")
DOC_VERSION = 1
_TENSORS = ("w_q", "w_k_g", "w_v_g", "w_a_k", "w_b_k", "w_a_v", "w_b_v", "a_k", "a_v")
# The files a layer's stored Grams, and so its factors, are computed from,
# by tensor name.
SPECTRUM_INPUTS = ("cov", "w_k_g", "w_v_g")
_SHA256 = re.compile(r"[0-9a-f]{64}")
# ShrinkageParams field -> the JSON key documents store it under.
_SHRINKAGE_KEYS = {"alpha": "alpha", "lam": "lambda", "weighting": "weighting"}
# Every name layer_file gives, whatever the layer count; group 1 is the tensor.
LAYER_FILE = re.compile(r"layer\d{3,}_(\w+)\.ctf")


@dataclass(frozen=True)
class LayerEntry(Geometry):
    """Per-layer geometry and tensor paths; optional fields depend on model
    kind. A converted layer also names the n x r coordinates of its
    down-projections in the grouped weights (`a_k`, `a_v`) and holds the
    GramRecord it was converted from (`source`), whose file is the bundle's
    copy of the Grams; it carries no `w_q`, and one named by an earlier
    bundle is path-checked, never read."""

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
    a_k: str | None = None
    a_v: str | None = None
    source: "GramRecord | None" = None


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
    optional = {name: getattr(entry, name) for name in (*_TENSORS, "r_k", "r_v")}
    source = {} if entry.source is None else _record_to_json(entry.source)
    return {**source, "layer": entry.layer, **asdict(entry.geometry),
            **{name: value for name, value in optional.items() if value is not None}}


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
    shrinkage = _shrinkage(doc, path)
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
        if kind == MODEL_KIND_MLA and None in (
            entry.r_k, entry.r_v, entry.w_a_k, entry.w_b_k, entry.w_a_v, entry.w_b_v
        ):
            raise ValidationError(f"{path}: layer {i} is missing latent factors")
        if kind == MODEL_KIND_MLA and entry.source is None:
            missing = ", ".join(key for key in _RECORD_KEYS if raw.get(key) is None)
            raise ValidationError(f"{path}: layer {i} records no Grams or source file "
                                  f"digests; re-run convert (missing {missing})")
        if kind == MODEL_KIND_MLA and None in (entry.a_k, entry.a_v):
            raise ValidationError(f"{path}: layer {i} records no coordinates of its "
                                  f"down-projections (a_k, a_v); re-run convert")
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


def _shrinkage(raw: dict, where) -> ShrinkageParams:
    """The ShrinkageParams of a document's shrinkage_doc keys; alpha and
    lambda may be absent, and then take the ShrinkageParams defaults."""
    given = {name: raw.get(key) for name, key in _SHRINKAGE_KEYS.items()
             if key in raw or key == "weighting"}
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
    # A layer records its source whole or not at all.
    source = None
    if None not in map(raw.get, _RECORD_KEYS):
        source = _record_from_json(raw, where, f"{where}: grams", "converted manifest")
    try:
        return LayerEntry(**ints, **tensors, source=source)
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
    """value itself if it is a relative path, with no NUL character, that
    stays inside the directory it is resolved against."""
    if not isinstance(value, str):
        raise ValidationError(f"{what} must be a path string, got {value!r}")
    if "\0" in value:
        raise ValidationError(f"{what} {value!r} holds a NUL character")
    norm = posixpath.normpath(value)
    if posixpath.isabs(norm) or norm in (".", "..") or norm.startswith("../"):
        raise ValidationError(
            f"{what} {value!r} must be a relative path inside the manifest directory"
        )
    return value


def layer_file(layer: int, name: str) -> str:
    """The file name of one layer's tensor `name`, such as `layer003_w_q.ctf`."""
    return f"layer{layer:03d}_{name}.ctf"


class _Pin(NamedTuple):
    """A file's sha256 as a document records it, that document's kind and
    the stage that writes it."""

    sha256: str
    document: str
    stage: str


def _inside(base_dir, rel_path, what) -> Path:
    """base_dir / rel_path, refused unless it resolves inside base_dir's
    resolved path, so that no symbolic link along it leads out."""
    base = Path(base_dir).resolve()
    try:
        path = (base / rel_path).resolve()
    except RuntimeError as exc:  # a symbolic link loop
        raise ValidationError(f"{what} ({rel_path}): {exc}") from None
    if not path.is_relative_to(base):
        raise ValidationError(f"{what} ({rel_path}) resolves to {path}, outside {base}")
    return path


def _load_tensor(base_dir, rel_path, expected_shape, what, pin: _Pin | None = None,
                 digest: bool = False) -> tuple[np.ndarray, str | None]:
    """The `.ctf` tensor at base_dir / rel_path, and the sha256 of the
    file's bytes when `digest` or a `pin` asks for it (None otherwise), from
    one read. Refused unless the path resolves inside base_dir, the tensor
    has `expected_shape` and, given a `pin`, the file has the pin's sha256."""
    path = _inside(base_dir, rel_path, what)
    if pin is None and not digest:
        arr, sha256 = ctf.read_ctf(path), None
    else:
        arr, sha256 = ctf.read_ctf_digest(path)
    if arr.shape != expected_shape:
        raise ValidationError(
            f"{what} ({rel_path}): shape {arr.shape}, expected {expected_shape}"
        )
    if pin is not None and sha256 != pin.sha256:
        raise ValidationError(
            f"{what} ({rel_path}): file sha256 does not match the {pin.document}'s record; "
            f"re-run {pin.stage}"
        )
    return arr, sha256


def load_covariance(cov_dir, layer: int, d_model: int) -> tuple[np.ndarray, str]:
    """The covariance `cov` wrote for `layer` into `cov_dir`, and its file's
    sha256. schedule is its one reader."""
    return _load_tensor(cov_dir, layer_file(layer, "cov"), (d_model, d_model),
                        f"layer {layer} covariance", digest=True)


def _entry_of(m: ModelManifest, index: int, kind: str) -> LayerEntry:
    """Layer `index` of `m`, refused unless `m` is a model of `kind`."""
    if m.model_kind != kind:
        name = "grouped-attention" if kind == MODEL_KIND_GQA else "converted"
        raise ValidationError(f"manifest does not describe a {name} model")
    return m.layer(index)


def load_grouped_kv(m: ModelManifest, base_dir, index: int,
                    pins: dict[str, _Pin] | None = None) -> tuple[GroupedKv, dict[str, str]]:
    """One source layer's grouped K and V projections, without its w_q, and
    the sha256 of each one's file by tensor name, which must be the one
    `pins` holds for that name, if given (GramRecord.pins)."""
    entry = _entry_of(m, index, MODEL_KIND_GQA)
    grouped = (entry.d_model, entry.grouped_width)
    arrays, sha256 = {}, {}
    for name in ("w_k_g", "w_v_g"):
        arrays[name], sha256[name] = _load_tensor(
            base_dir, getattr(entry, name), grouped, f"layer {index} {name}",
            pins[name] if pins else None, digest=True)
    return GroupedKv(**asdict(entry.geometry), **arrays), sha256


def load_query(m: ModelManifest, base_dir, index: int) -> np.ndarray:
    """One source layer's D x D query projection, which no document pins."""
    entry = _entry_of(m, index, MODEL_KIND_GQA)
    d = entry.d_model
    return _load_tensor(base_dir, entry.w_q, (d, d), f"layer {index} w_q")[0]


def load_gqa_layer(m: ModelManifest, base_dir, index: int) -> GqaLayer:
    kv, _ = load_grouped_kv(m, base_dir, index)
    return GqaLayer.from_grouped(kv, load_query(m, base_dir, index))


def load_mla_bundle(m: ModelManifest, base_dir, index: int) -> MlaFactors:
    """One converted layer's latent factors and their coordinates."""
    entry = _entry_of(m, index, MODEL_KIND_MLA)
    d, n = entry.d_model, entry.grouped_width
    shapes = {"w_a_k": (d, entry.r_k), "w_b_k": (entry.r_k, d),
              "w_a_v": (d, entry.r_v), "w_b_v": (entry.r_v, d),
              "a_k": (n, entry.r_k), "a_v": (n, entry.r_v)}
    return MlaFactors(**{
        name: _load_tensor(base_dir, getattr(entry, name), shape, f"layer {index} {name}")[0]
        for name, shape in shapes.items()
    })


def iter_batches(m: ModelManifest, base_dir, layer: int,
                 batches_dir=None) -> Iterator[CalibrationBatch]:
    """Read one layer's batches lazily, in manifest order, so a consumer
    that reduces them holds one batch at a time. Each path must resolve
    inside `batches_dir`, or the manifest's directory without one."""
    paths = m.calibration.get(layer)
    if not paths:
        raise ValidationError(f"no calibration data for layer {layer}")
    root = batches_dir if batches_dir is not None else base_dir
    entry = m.layer(layer)
    for rel in paths:
        x = ctf.read_ctf(_inside(root, rel, f"batch {rel}"))
        if x.ndim != 2 or x.shape[1] != entry.d_model:
            raise ValidationError(
                f"batch {rel}: shape {x.shape} does not match d_model {entry.d_model}"
            )
        yield CalibrationBatch(layer=layer, x=x)


def load_batches(m: ModelManifest, base_dir, layer: int,
                 batches_dir=None) -> list[CalibrationBatch]:
    return list(iter_batches(m, base_dir, layer, batches_dir))


# Each kind of document that holds GramRecords, and the stage that writes it.
_WRITERS = {"profile": "schedule", "converted manifest": "convert"}


class GramRecord(NamedTuple):
    """What `schedule` stored for one layer: `path`, relative to the
    `document`'s directory, names one `.ctf` file of the layer's K and V raw
    Grams (factorizer.raw_grams), and `sha256` is the sha256 of its bytes.
    `inputs` maps each name in SPECTRUM_INPUTS to the sha256 of the file
    the Grams were computed from, and `cov_trace` is tr(C) of that
    covariance, all of it that convert's ridge needs (calibration.ridge).
    The file holds a (2, 2, n, n) array, n the grouped width: slab 0 is K
    and slab 1 is V, each with W_g^T C W_g then (C W_g)^T (C W_g).
    `document` is the kind of document holding the record, a profile or a
    converted manifest (as_converted)."""

    layer: int
    path: str
    sha256: str
    inputs: dict[str, str]
    cov_trace: float
    document: str = "profile"

    def pins(self) -> dict[str, _Pin]:
        """The digests of the Grams file (`grams`) and `inputs`, as pins of
        the record's document."""
        return {name: _Pin(sha256, self.document, _WRITERS[self.document])
                for name, sha256 in {"grams": self.sha256, **self.inputs}.items()}

    def as_converted(self, path: str) -> "GramRecord":
        """This record as a converted layer holds it, naming its Grams `path`."""
        return self._replace(path=path, document="converted manifest")


def grams_dir(profile_path: Path) -> Path:
    """The directory next to a profile that holds its layers' stored Grams."""
    return profile_path.with_name(profile_path.stem + "_grams")


def store_grams(directory: Path, profile_path: Path, layer: int, inputs: dict[str, str],
                cov_trace: float, grams: np.ndarray) -> GramRecord:
    """Write one layer's raw Grams into `directory`, which becomes the
    profile's grams_dir, as one file, and record its path in the profile,
    its sha256, the `inputs` digests the Grams were computed from and the
    covariance's trace."""
    file = layer_file(layer, "grams")
    sha256 = ctf.write_ctf(directory / file, grams, digest=True)
    return GramRecord(layer=layer, path=f"{grams_dir(profile_path).name}/{file}",
                      sha256=sha256, inputs=inputs, cov_trace=cov_trace)


def load_grams(base_dir, record: GramRecord, entry: LayerEntry) -> np.ndarray:
    """The (2, 2, n, n) raw Grams of `entry`'s layer, n its grouped width, at
    base_dir / record.path; the file must have the record's sha256."""
    n = entry.grouped_width
    return _load_tensor(base_dir, record.path, (2, 2, n, n), f"layer {entry.layer} Grams",
                        record.pins()["grams"])[0]


# The key of each digest a GramRecord holds, by tensor; its path is "grams".
_DIGEST_KEYS = {name: f"{name}_file_sha256" for name in ("grams", *SPECTRUM_INPUTS)}
# Every key of a GramRecord but its layer.
_RECORD_KEYS = ("grams", "cov_trace", *_DIGEST_KEYS.values())


def _record_to_json(record: GramRecord) -> dict:
    return {"layer": record.layer, "grams": record.path, _DIGEST_KEYS["grams"]: record.sha256,
            **{_DIGEST_KEYS[name]: record.inputs[name] for name in SPECTRUM_INPUTS},
            "cov_trace": record.cov_trace}


def _record_from_json(raw: dict, where: str, grams_what: str, document: str) -> GramRecord:
    """The GramRecord in `raw`, read from a `document`; `where` names `raw`
    in a refusal and `grams_what` its Grams path."""
    return GramRecord(
        layer=_int(raw.get("layer"), f"{where} layer", minimum=0),
        path=_tensor_path(raw.get("grams"), grams_what),
        sha256=_sha256(raw, _DIGEST_KEYS["grams"], where),
        inputs={name: _sha256(raw, _DIGEST_KEYS[name], where) for name in SPECTRUM_INPUTS},
        cov_trace=_cov_trace(raw.get("cov_trace"), where, document),
        document=document,
    )


def _cov_trace(value, where: str, document: str) -> float:
    """value as a float, refused unless it is a finite number (not a bool):
    json.loads reads NaN, Infinity and 1e999 as floats that are not."""
    try:
        trace = float(value) if type(value) in (int, float) else math.nan
    except OverflowError:  # an integer beyond float range
        trace = math.inf
    if not math.isfinite(trace):
        raise ValidationError(f"{where}: cov_trace must be a finite number, got {value!r}; "
                              f"re-run {_WRITERS[document]}")
    return trace


def save_profile(profile: RankProfile, path, grams: dict[int, GramRecord],
                 mode: str = "adjusted") -> None:
    entries = [{"layer": layer, "kind": kind, "rank": rank}
               for (layer, kind), rank in sorted(profile.ranks.items())]
    doc = {
        "format": PROFILE_FORMAT,
        "version": DOC_VERSION,
        "mode": mode,
        "min_rank": profile.min_rank,
        "budget_k": profile.budget_k,
        "budget_v": profile.budget_v,
        "entries": entries,
        "grams": [_record_to_json(grams[layer]) for layer in sorted(grams)],
    }
    write_json_last(path, doc)


def load_profile(path) -> tuple[RankProfile, str, dict[int, GramRecord]]:
    """Read a rank profile, its mode and its Gram records by layer.

    The `grams` key must record every layer of the profile once; a profile
    without it, such as one with the `spectra` or `eigen` key of earlier
    versions, is refused. The `full_rank` key of entries of earlier
    versions is ignored.
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
    if "grams" not in doc:
        raise ValidationError(f"{path} records no Grams; re-run schedule")
    return profile, mode, _gram_records(doc["grams"], {layer for layer, _ in ranks}, path)


def _sha256(raw: dict, key: str, where: str) -> str:
    digest = raw.get(key)
    if not isinstance(digest, str) or not _SHA256.fullmatch(digest):
        raise ValidationError(f"{where}: {key} must be 64 lowercase hex digits, got {digest!r}")
    return digest


def _gram_records(raw, layers: set[int], path) -> dict[int, GramRecord]:
    if not isinstance(raw, list):
        raise ValidationError(f"{path}: grams must be a list of records")
    where = f"{path}: Gram record"
    records = {}
    for raw_record in raw:
        if not isinstance(raw_record, dict):
            raise ValidationError(f"{path}: malformed Gram record {raw_record!r}")
        record = _record_from_json(raw_record, where, f"{where} grams", "profile")
        if record.layer not in layers or record.layer in records:
            raise ValidationError(
                f"{where} for layer {record.layer} is not one of the profile's layers, "
                f"or repeats one"
            )
        records[record.layer] = record
    if set(records) != layers:
        raise ValidationError(
            f"{path}: Gram records cover layers {sorted(records)}, "
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
    repeats a key, which json.loads would resolve silently to the last.
    Text the decoder cannot take, an integer too long for int() or nesting
    too deep for its recursion included, is not valid JSON."""
    def unique_keys(pairs: list) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ValidationError(f"{path}: key {key!r} is repeated in one object")
            obj[key] = value
        return obj

    try:
        doc = json.loads(Path(path).read_text(), object_pairs_hook=unique_keys)
    except ValidationError:
        raise
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    return doc


def _expect(doc: dict, key: str, value, path) -> None:
    if type(doc.get(key)) is not type(value) or doc.get(key) != value:
        raise ValidationError(f"{path}: expected {key}={value!r}, got {doc.get(key)!r}")
