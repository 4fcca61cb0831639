"""Bounded fuzzing of the manifest and profile loaders through the CLI.

Each example replaces one field of a valid model manifest, converted
manifest or rank profile (a type swap, an out-of-range value or a path
that leaves its directory) and runs the command that consumes the
document. The command must never raise: it exits 2, 3 or 4 with an
``error:`` line, or 0 when the mutated value is still valid.
"""

import contextlib
import copy
import io
import json
import posixpath
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
    "lambda": lambda v: v == "auto" or (is_number(v) and v > 0),
    "weighting": lambda v: v in ("sqrtC", "C"),
    "seq_len": lambda v: is_int(v, 1),
    "seed": is_int,
    "mode": lambda v: v in ("adjusted", "uniform"),
    "min_rank": lambda v: is_int(v, 1),
    "budget_k": lambda v: is_int(v, 0),
    "budget_v": lambda v: is_int(v, 0),
    "rank": lambda v: is_int(v, 1),
    "full_rank": lambda v: v is None or is_int(v, 1),
    "batch": inside,
    **{name: inside for name in ("w_q", "w_k_g", "w_v_g", "w_a_k", "w_b_k", "w_a_v", "w_b_v")},
}


def fields(doc: dict) -> list[tuple]:
    """(key path, field name) of every field: top-level keys, layer and
    profile entry keys, and calibration batch paths."""
    out = [((key,), key) for key in doc]
    for list_key in ("layers", "entries"):
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
