"""Bounded fuzzing of the manifest, profile and tensor loaders through the CLI.

Each example replaces one field of a valid model manifest, converted
manifest or rank profile, its spectrum records included (a type swap, an
out-of-range value or a path that leaves its directory) and runs the
command that consumes the document. The command must never raise: it exits 2, 3 or 4 with an
``error:`` line, or 0 when the mutated value is still valid. The `.ctf`
cases corrupt one header field, or truncate the file, and feed it to `cov`
as a calibration batch, to `schedule` and `convert` as a covariance, and
to `convert` as a V^T a profile records (consumer "eigen"), under the
corrupted file's own sha256 so that the reader sees it.
"""

import contextlib
import copy
import hashlib
import io
import json
import math
import posixpath
import shutil
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvlatent.cli import main
from test_cli import pipeline

REPLACEMENTS = (
    "x", "", True, None, [], {}, 0.5, 1.5, -1, 0, 1, 3, 1000, "C", "auto",
    "../x.ctf", "/x.ctf", "weights/../../x.ctf", "weights/missing.ctf",
)


def is_int(value, minimum=None) -> bool:
    return (isinstance(value, int) and not isinstance(value, bool)
            and (minimum is None or value >= minimum))


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def inside(value) -> bool:
    if not isinstance(value, str):
        return False
    norm = posixpath.normpath(value)
    return not (norm.startswith("/") or norm in (".", "..") or norm.startswith("../"))


# Fields that may take another value than the one written. Every other
# field is valid only unchanged: its value is fixed by the format, by the
# tensors on disk or by the other fields.
MAY_CHANGE = {
    "alpha": lambda v: is_number(v) and 0 < v < 1,
    "lambda": lambda v: v == "auto" or (is_number(v) and 0 < v < math.inf),
    "weighting": lambda v: v in ("sqrtC", "C"),
    "seq_len": lambda v: is_int(v, 1),
    "seed": lambda v: is_int(v, 0) and v < 2**64,
    "mode": lambda v: v in ("adjusted", "uniform"),
    "min_rank": lambda v: is_int(v, 1),
    "budget_k": lambda v: is_int(v, 0),
    "budget_v": lambda v: is_int(v, 0),
    "rank": lambda v: is_int(v, 1),
    "batch": inside,
    **{name: inside for name in ("w_q", "w_k_g", "w_v_g", "w_a_k", "w_b_k", "w_a_v", "w_b_v",
                                 "eigenvalues", "sigma_k", "v_t_k", "sigma_v", "v_t_v")},
}


def fields(doc: dict) -> list[tuple]:
    """(key path, field name) of every field: top-level keys, layer,
    profile entry and spectrum record keys, and calibration batch paths."""
    out = [((key,), key) for key in doc]
    for list_key in ("layers", "entries", "spectra"):
        for i, entry in enumerate(doc.get(list_key, [])):
            out += [((list_key, i, key), key) for key in entry]
    for layer, paths in doc.get("calibration", {}).items():
        out += [(("calibration", layer, j), "batch") for j in range(len(paths))]
    return out


def mutated(doc: dict, keys: tuple, value) -> tuple[dict, object]:
    """Copy of doc with the field at keys set to value, and the value it
    replaced."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    old = parent[keys[-1]]
    parent[keys[-1]] = value
    return doc, old


@pytest.fixture(scope="module")
def built(tmp_path_factory) -> Path:
    return pipeline(tmp_path_factory.mktemp("fuzz"))


def command(root: Path, kind: str, document: Path, out: Path) -> list:
    model = root / "model/model.json"
    converted = root / "converted/converted.json"
    if kind == "profile":
        return ["convert", "--manifest", model, "--cov-dir", root / "cov",
                "--profile", document, "--out", out]
    source, target = (document, converted) if kind == "model" else (model, document)
    return ["eval", "--source", source, "--converted", target, "--rope-dim", 2, "--out", out]


DOCUMENTS = {
    "model": "model/model.json",
    "converted": "converted/converted.json",
    "profile": "profile.json",
}


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_field_never_raises(built, kind, data):
    original = built / DOCUMENTS[kind]
    doc = json.loads(original.read_text())
    keys, name = data.draw(st.sampled_from(fields(doc)), label="field")
    value = data.draw(st.sampled_from(REPLACEMENTS), label="value")
    doc, old = mutated(doc, keys, value)
    unchanged = type(old) is type(value) and old == value
    may_accept = unchanged or MAY_CHANGE.get(name, lambda v: False)(value)

    # The mutated document sits next to the original so relative paths resolve.
    document = original.with_name("fuzzed.json")
    document.write_text(json.dumps(doc))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as scratch, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        argv = command(built, kind, document, Path(scratch) / "out")
        code = main([str(a) for a in argv])
    if code == 0:
        assert may_accept, (keys, value)
    else:
        assert code in (2, 3, 4), (keys, value, code)
        assert err.getvalue().startswith("error:"), err.getvalue()


def with_header(data: bytes, **fields) -> bytes:
    """`data` with some of magic, version, dtype and ndim replaced."""
    head = dict(zip(("magic", "version", "dtype", "ndim"), struct.unpack_from("<4sIBB", data)))
    head.update(fields)
    return struct.pack("<4sIBB", *head.values()) + data[10:]


def with_dims(data: bytes, dims, payload: bytes = b"") -> bytes:
    """A header like `data`'s over new dims and payload."""
    head = with_header(data, ndim=len(dims))[:10]
    return head + struct.pack(f"<{len(dims)}Q", *dims) + payload


def first_dim_plus_one(data: bytes) -> bytes:
    rows, cols = struct.unpack_from("<QQ", data, 10)
    return with_dims(data, (rows + 1, cols), data[26:])


# Each takes the bytes of a valid 2-D float64 file and corrupts one thing.
CTF_CORRUPTIONS = {
    "magic": lambda d: b"NOPE" + d[4:],
    "version_0": lambda d: with_header(d, version=0),
    "version_2": lambda d: with_header(d, version=2),
    "dtype_code": lambda d: with_header(d, dtype=7),
    "ndim_0": lambda d: with_header(d, ndim=0),
    "ndim_255": lambda d: with_header(d, ndim=255),
    "ndim_255_complete": lambda d: with_dims(d, (1,) * 255, d[-8:]),
    "ndim_1": lambda d: with_header(d, ndim=1),
    "ndim_3": lambda d: with_header(d, ndim=3),
    "dims_exceed_payload": first_dim_plus_one,
    "dims_float32_payload": lambda d: with_header(d, dtype=0),
    "huge_dims": lambda d: with_dims(d, (2**64 - 1, 2**64 - 1), d[26:]),
    "huge_dim_next_to_zero": lambda d: with_dims(d, (2**63, 0)),
    "big_dim_next_to_zero": lambda d: with_dims(d, (2**62, 0)),
    "overflowing_product_next_to_zero": lambda d: with_dims(d, (2**40, 2**40, 0)),
    "one_column_of_zero_rows": lambda d: with_dims(d, (0, 16)),
    "truncated_header": lambda d: d[:7],
    "truncated_dims": lambda d: d[:18],
    "truncated_payload": lambda d: d[:-8],
    "empty": lambda d: b"",
}


def corrupt_copy(src: Path, dst: Path, rel: str, case: str) -> None:
    """Copy the directory `src` to `dst` and corrupt its file `rel`."""
    shutil.copytree(src, dst)
    target = dst / rel
    target.write_bytes(CTF_CORRUPTIONS[case](target.read_bytes()))


@pytest.mark.parametrize("consumer", ["cov", "schedule", "convert", "eigen"])
@pytest.mark.parametrize("case", sorted(CTF_CORRUPTIONS))
def test_corrupt_ctf_header_exits_cleanly(built, tmp_path, capsys, consumer, case):
    model = built / "model/model.json"
    if consumer == "cov":
        corrupt_copy(built / "model", tmp_path / "model", "batches/layer001_batch002.ctf", case)
        argv = ["cov", "--manifest", tmp_path / "model/model.json", "--out", tmp_path / "out"]
    elif consumer == "eigen":
        corrupt_copy(built / "profile_spectra", tmp_path / "profile_spectra",
                     "layer001_v_t_k.ctf", case)
        doc = json.loads((built / "profile.json").read_text())
        corrupted = (tmp_path / "profile_spectra/layer001_v_t_k.ctf").read_bytes()
        doc["spectra"][1]["v_t_k_sha256"] = hashlib.sha256(corrupted).hexdigest()
        (tmp_path / "profile.json").write_text(json.dumps(doc))
        argv = ["convert", "--manifest", model, "--cov-dir", built / "cov",
                "--profile", tmp_path / "profile.json", "--out", tmp_path / "out"]
    else:
        corrupt_copy(built / "cov", tmp_path / "cov", "layer001_cov.ctf", case)
        argv = [consumer, "--manifest", model, "--cov-dir", tmp_path / "cov"]
        if consumer == "schedule":
            argv += ["--parity", "--out", tmp_path / "profile.json"]
        else:
            argv += ["--profile", built / "profile.json", "--out", tmp_path / "out"]
    capsys.readouterr()
    code = main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert code in (2, 4), (code, err)
    assert err.startswith("error:") and "Traceback" not in err, err
