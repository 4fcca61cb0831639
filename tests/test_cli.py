import errno
import hashlib
import json
import os
import shutil
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import covariance_of, plain_spectra
from kvlatent import (
    attention, calibration, cli, ctf, factorizer, linalg, manifest, metrics, scheduler,
)
from kvlatent.cli import main
from kvlatent.errors import NumericalError
from kvlatent.rng import make_generator
from test_attention import masked_drift, reference_gqa, reference_mla
from test_factorizer import random_gqa_layer


def run(*args) -> int:
    return main([str(a) for a in args])


def gen_model(root: Path, seed=42, layers=2, d=16, heads=4, head_dim=4, groups=2,
              seq=8, batches=4) -> Path:
    assert run(
        "gen", "--out", root, "--seed", seed, "--layers", layers,
        "--d-model", d, "--n-heads", heads, "--head-dim", head_dim,
        "--n-groups", groups, "--seq-len", seq, "--batches", batches,
    ) == 0
    return root / "model.json"


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def pipeline(tmp_path: Path, seed=42, schedule_args=("--parity",),
             convert_args=(), eval_args=("--seed", "0"), seq=8) -> Path:
    model = gen_model(tmp_path / "model", seed=seed, seq=seq)
    assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0
    assert run(
        "schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
        *schedule_args, "--out", tmp_path / "profile.json",
    ) == 0
    assert run(
        "convert", "--manifest", model, "--cov-dir", tmp_path / "cov",
        "--profile", tmp_path / "profile.json", *convert_args,
        "--out", tmp_path / "converted",
    ) == 0
    assert run(
        "eval", "--source", model, "--converted", tmp_path / "converted/converted.json",
        *eval_args, "--out", tmp_path / "eval",
    ) == 0
    return tmp_path


def without_records(profile: Path, out: Path) -> Path:
    """A copy of `profile` without its Gram records."""
    doc = json.loads(profile.read_text())
    del doc["grams"]
    out.write_text(json.dumps(doc))
    return out


def counting(monkeypatch, *names) -> list[tuple[str, tuple]]:
    """Record (name, first argument's shape) for each call of the named
    linalg functions."""
    calls = []
    for name in names:
        real = getattr(linalg, name)

        def wrapper(a, _name=name, _real=real):
            calls.append((_name, np.shape(a)))
            return _real(a)

        monkeypatch.setattr(linalg, name, wrapper)
    return calls


def write_engineered_model(root: Path) -> Path:
    """Two MHA-shaped layers whose whitened K spectra are exactly [2, 1, 0.1]
    and [1, 1, 1]: identity calibration batches make the whitener the
    identity, and diagonal weights pin the singular values."""
    (root / "weights").mkdir(parents=True)
    (root / "batches").mkdir()
    entries = []
    k_weights = [np.diag([2.0, 1.0, 0.1]), np.eye(3)]
    for layer in range(2):
        names = {
            "w_q": f"weights/l{layer}_w_q.ctf",
            "w_k_g": f"weights/l{layer}_w_k_g.ctf",
            "w_v_g": f"weights/l{layer}_w_v_g.ctf",
        }
        ctf.write_ctf(root / names["w_q"], np.eye(3))
        ctf.write_ctf(root / names["w_k_g"], k_weights[layer])
        ctf.write_ctf(root / names["w_v_g"], np.eye(3))
        entries.append(
            manifest.LayerEntry(
                layer=layer, d_model=3, n_heads=3, head_dim=1, n_groups=3, **names
            )
        )
    batch_rel = "batches/identity.ctf"
    ctf.write_ctf(root / batch_rel, np.eye(3))
    m = manifest.ModelManifest(
        model_kind=manifest.MODEL_KIND_GQA, seq_len=3, layers=tuple(entries),
        calibration={0: (batch_rel,), 1: (batch_rel,)},
    )
    manifest.save_manifest(m, root / "model.json")
    return root / "model.json"


class TestGen:
    def test_same_seed_byte_identical(self, tmp_path):
        gen_model(tmp_path / "a", seed=7)
        gen_model(tmp_path / "b", seed=7)
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_different_seed_differs(self, tmp_path):
        gen_model(tmp_path / "a", seed=7)
        gen_model(tmp_path / "b", seed=8)
        assert tree_bytes(tmp_path / "a") != tree_bytes(tmp_path / "b")

    def test_shapes_match_manifest(self, tmp_path):
        path = gen_model(tmp_path / "m", heads=4, groups=4)  # MHA-shaped
        m = manifest.load_manifest(path)
        for i in range(len(m.layers)):
            layer = manifest.load_gqa_layer(m, path.parent, i)
            assert layer.w_q.shape == (16, 16)
            assert layer.w_k_g.shape == (16, 16)
            batches = manifest.load_batches(m, path.parent, i)
            assert all(b.x.shape == (8, 16) for b in batches)

    def test_rejects_bad_geometry(self, tmp_path):
        assert run("gen", "--out", tmp_path / "x", "--d-model", 16,
                   "--n-heads", 3, "--head-dim", 4) == 2

    def test_largest_seed_is_accepted(self, tmp_path):
        path = gen_model(tmp_path / "m", seed=2**64 - 1)
        assert manifest.load_manifest(path).seed == 2**64 - 1

    def test_interrupted_run_leaves_no_manifest(self, tmp_path, monkeypatch):
        gen_model(tmp_path / "mix", seed=1)
        real, calls = ctf.write_ctf, []

        def fail_fourth(path, array, *args, **kwargs):
            calls.append(path)
            if len(calls) == 4:
                raise OSError("disk full")
            return real(path, array, *args, **kwargs)

        monkeypatch.setattr(ctf, "write_ctf", fail_fourth)
        assert run("gen", "--out", tmp_path / "mix", "--seed", 2) == 4
        # Seed 1's manifest would name files that now hold seed 2's weights.
        assert not (tmp_path / "mix/model.json").exists()

    def test_tensors_of_a_larger_model_go(self, tmp_path):
        gen_model(tmp_path / "m", layers=2, batches=4)
        (tmp_path / "m/weights/notes.txt").write_text("kept")
        (tmp_path / "m/batches/layer001_batch000.ctf.txt").write_text("kept")
        (tmp_path / "m/layer001_w_q.ctf").write_text("kept")
        gen_model(tmp_path / "m", layers=1, batches=2)
        gen_model(tmp_path / "fresh", layers=1, batches=2)
        assert tree_bytes(tmp_path / "m") == {
            **tree_bytes(tmp_path / "fresh"), "weights/notes.txt": b"kept",
            "batches/layer001_batch000.ctf.txt": b"kept", "layer001_w_q.ctf": b"kept",
        }

    def test_layer_and_batch_counts_stay_in_the_stream_ids(self, tmp_path):
        for flag, value in (("--layers", 2**32 + 1), ("--batches", 2**32 - 3)):
            assert run("gen", "--out", tmp_path / "x", flag, value) == 2
        assert not (tmp_path / "x").exists()


def gen_tensors(root: Path, **kwargs) -> dict[str, bytes]:
    """The tensor files of a fresh `gen_model(root, **kwargs)`."""
    gen_model(root, **kwargs)
    return {name: data for name, data in tree_bytes(root).items() if name.endswith(".ctf")}


class TestGenStreams:
    """Each tensor gen writes comes from its own Philox stream, keyed by the
    seed, its layer and its slot, so it depends on nothing else."""

    def test_more_batches_keep_the_first_ones(self, tmp_path):
        two = gen_tensors(tmp_path / "two", batches=2)
        four = gen_tensors(tmp_path / "four", batches=4)
        assert {name: four[name] for name in two} == two
        assert len(four) == len(two) + 4

    def test_more_layers_keep_layer_0(self, tmp_path):
        one = gen_tensors(tmp_path / "one", layers=1)
        two = gen_tensors(tmp_path / "two", layers=2)
        assert {name: two[name] for name in one} == one
        assert len(two) == 2 * len(one)

    def test_sequence_length_leaves_the_weights(self, tmp_path):
        short = gen_tensors(tmp_path / "short", seq=8)
        long = gen_tensors(tmp_path / "long", seq=12)
        weights = [name for name in short if name.startswith("weights/")]
        assert len(weights) == 6
        assert all(short[name] == long[name] for name in weights)
        assert all(short[name] != long[name] for name in short if name not in weights)

    def test_every_tensor_has_its_own_stream(self, tmp_path):
        # Equal shapes (w_k_g and w_v_g; every batch) still draw differently,
        # and so does every tensor under another seed.
        a = gen_tensors(tmp_path / "a", seed=7, heads=4, groups=4)
        b = gen_tensors(tmp_path / "b", seed=8, heads=4, groups=4)
        assert len(set(a.values())) == len(a)
        assert all(a[name] != b[name] for name in a)


class TestGenPool:
    def test_bytes_do_not_depend_on_the_worker_count(self, tmp_path, monkeypatch):
        want = tree_bytes(gen_model(tmp_path / "default", batches=6).parent)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 4):
                monkeypatch.setattr(cli, "_GEN_WORKERS", workers)
                root = gen_model(tmp_path / f"w{workers}", batches=6).parent
                assert tree_bytes(root) == want, workers
        finally:
            sys.setswitchinterval(interval)

    def test_at_most_the_window_of_batches_is_alive(self, tmp_path, capsys):
        # 32 batches drawn up front would take 32 batch arrays. A first gen
        # keeps the modules it imports out of the peak.
        d, t = 64, 256
        batch = t * d * 8
        layer_weights = (d * d + 2 * d * 32) * 8
        gen_model(tmp_path / "warm", layers=1, batches=1)
        tracemalloc.start()
        try:
            gen_model(tmp_path / "m", layers=1, d=d, heads=4, head_dim=16, groups=2,
                      seq=t, batches=32)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        window = cli._GEN_WORKERS + 1
        assert peak < (window + 2) * batch + layer_weights, peak / batch


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("command", [
    ["gen"],
    ["eval", "--source", "missing.json", "--converted", "missing.json"],
], ids=["gen", "eval"])
def test_seed_outside_64_bits_exits_2_before_any_io(tmp_path, capsys, command, seed):
    # Seeds outside [0, 2**64 - 1] would alias one inside it. The manifests
    # named do not exist, so a refusal that came after reading one would
    # exit 4.
    capsys.readouterr()
    assert run(*command, "--seed", seed, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seed must be an integer in [0, 2**64 - 1]")
    assert not (tmp_path / "out").exists()


def test_ablate_is_not_a_command(capsys):
    # Zeroing a singular value of a raw weight prices a direction that
    # water-filling never ranks, so no command does it.
    with pytest.raises(SystemExit) as exc:
        run("ablate", "--manifest", "missing.json", "--layer", 0, "--kind", "K", "--index", 1)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(
        "error: argument command: invalid choice: 'ablate'")


class RepeatedKeys(dict):
    """A dict that json.dumps writes as the object of `pairs`, in order,
    repeated keys included."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self.pairs = pairs

    def items(self):
        return self.pairs


MALFORMED_MANIFESTS = {
    "calibration_key": lambda doc: doc["calibration"].update(a=doc["calibration"].pop("0")),
    "calibration_list": lambda doc: doc.update(calibration=[]),
    "calibration_key_negative": lambda doc: doc["calibration"].update({"-1": ["batches/x.ctf"]}),
    "calibration_key_beyond_layers": lambda doc: doc["calibration"].update(
        {"7": ["batches/x.ctf"]}),
    "calibration_key_padded": lambda doc: doc["calibration"].update(
        {" 1": doc["calibration"]["1"][:1]}),
    "calibration_key_leading_zero": lambda doc: doc["calibration"].update(
        {"01": doc["calibration"]["1"][:1]}),
    "calibration_key_repeated": lambda doc: doc.update(calibration=RepeatedKeys(
        [*doc["calibration"].items(), ("1", doc["calibration"]["1"][:1])])),
    "w_q_missing": lambda doc: doc["layers"][1].pop("w_q"),
    "alpha_string": lambda doc: doc.update(alpha="x"),
    "alpha_null": lambda doc: doc.update(alpha=None),
    "alpha_above_one": lambda doc: doc.update(alpha=5.0),
    "lambda_inf": lambda doc: doc.update({"lambda": float("inf")}),
    "lambda_beyond_float": lambda doc: doc.update({"lambda": 10**400}),
    "seq_len_string": lambda doc: doc.update(seq_len="x"),
    "seq_len_zero": lambda doc: doc.update(seq_len=0),
    "seed_string": lambda doc: doc.update(seed="x"),
    "seed_bool": lambda doc: doc.update(seed=True),
    "seed_negative": lambda doc: doc.update(seed=-1),
    "seed_2_64": lambda doc: doc.update(seed=2**64),
    "r_k_in_grouped_model": lambda doc: doc["layers"][0].update(r_k=8),
    "d_model_string": lambda doc: doc["layers"][0].update(d_model="16"),
    "n_groups_not_dividing": lambda doc: doc["layers"][1].update(n_groups=3),
    "w_q_absolute": lambda doc: doc["layers"][0].update(w_q="/weights/layer000_w_q.ctf"),
    "w_q_escaping": lambda doc: doc["layers"][0].update(w_q="../m/weights/layer000_w_q.ctf"),
    "w_k_g_not_a_string": lambda doc: doc["layers"][0].update(w_k_g=5),
    "batch_escaping": lambda doc: doc["calibration"]["1"].append("batches/../../m/x.ctf"),
    "no_layers": lambda doc: doc.update(layers=[], layer_count=0),
}


def blocked_covariance(batches, d: int) -> tuple[np.ndarray, bool]:
    """The covariance by cov's blocking rule, and whether any block stacks
    two or more batches. In manifest order, a batch joins the open block
    while the block's rows stay at most d; a batch of d or more rows is a
    block by itself. Each block adds one b.T @ b to the sum."""
    blocks, rows = [], d
    for batch in batches:
        tokens = batch.x.shape[0]
        if tokens >= d or rows + tokens > d:
            blocks.append([batch.x])
            rows = tokens
        else:
            blocks[-1].append(batch.x)
            rows += tokens
    total = np.zeros((d, d))
    for block in blocks:
        b = np.vstack(block)
        total += b.T @ b
    return total / len(batches), any(len(block) > 1 for block in blocks)


class TestCov:
    @staticmethod
    def assert_matches_fold(model: Path, cov_dir: Path, stacked: bool, batches_dir=None):
        """Each stored covariance is the blocking rule's bytes and, where a
        block stacks batches, the per-batch accumulate/finalize fold to
        rounding; where none does, it is the fold's bytes."""
        m = manifest.load_manifest(model)
        for layer in range(len(m.layers)):
            batches = manifest.load_batches(m, model.parent, layer, batches_dir)
            stored = ctf.read_ctf(cov_dir / f"layer{layer:03d}_cov.ctf")
            expected, any_stacked = blocked_covariance(batches, m.layer(layer).d_model)
            assert any_stacked == stacked
            assert np.array_equal(stored, expected)
            fold = covariance_of(batches)
            assert np.linalg.norm(stored - fold) <= 1e-13 * np.linalg.norm(fold)
            if not stacked:
                assert np.array_equal(stored, fold)

    def test_matches_api_finalize(self, tmp_path):
        # Four 8-token batches in 16 dims: two blocks of two batches.
        model = gen_model(tmp_path / "m")
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0
        self.assert_matches_fold(model, tmp_path / "cov", stacked=True)

    @pytest.mark.parametrize("seq, batches", [(1, 3), (7, 3), (200, 3), (7, 1), (64, 3)])
    def test_running_sum_matches_fold(self, tmp_path, seq, batches):
        # Equal batches share a block when two of them fit in 64 rows.
        model = gen_model(tmp_path / "m", d=64, heads=4, head_dim=16,
                          seq=seq, batches=batches)
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0
        self.assert_matches_fold(model, tmp_path / "cov", stacked=batches > 1 and 2 * seq <= 64)

    def test_running_sum_matches_fold_over_uneven_batches(self, tmp_path):
        # Blocks [5], [200], [7, 57]: the last fills its 64 rows exactly.
        model = gen_model(tmp_path / "m", d=64, heads=4, head_dim=16, seq=7, batches=4)
        rng = make_generator(17)
        for layer, paths in manifest.load_manifest(model).calibration.items():
            for rel, tokens in zip(paths, (5, 200, 7, 57)):
                x = rng.standard_normal((tokens, 64)) * np.geomspace(3.0, 0.1, 64)
                ctf.write_ctf(model.parent / rel, x)
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0
        self.assert_matches_fold(model, tmp_path / "cov", stacked=True)

    def test_running_sum_matches_fold_from_batches_dir(self, tmp_path):
        model = gen_model(tmp_path / "m", d=64, heads=4, head_dim=16, seq=7, batches=3)
        (model.parent / "batches").rename(tmp_path / "batches")
        assert run("cov", "--manifest", model, "--batches-dir", tmp_path,
                   "--out", tmp_path / "cov") == 0
        self.assert_matches_fold(model, tmp_path / "cov", stacked=True, batches_dir=tmp_path)

    @pytest.mark.parametrize("seq", [7, 200])
    def test_exactly_symmetric_and_rerun_is_byte_identical(self, tmp_path, seq):
        # No symmetrize pass: every b.T @ b is a symmetric rank-k update.
        model = gen_model(tmp_path / "m", d=64, heads=4, head_dim=16, seq=seq, batches=3)
        trees = []
        for out in ("a", "b"):
            assert run("cov", "--manifest", model, "--out", tmp_path / out) == 0
            trees.append(tree_bytes(tmp_path / out))
        assert trees[0] == trees[1]
        for layer in range(2):
            c = ctf.read_ctf(tmp_path / f"a/layer{layer:03d}_cov.ctf")
            assert np.array_equal(c, c.T)

    def test_holds_one_block_at_a_time(self, tmp_path):
        d, seq, batches = 128, 16, 64
        model = gen_model(tmp_path / "m", d=d, heads=4, head_dim=32, seq=seq, batches=batches)
        assert seq * batches * d == 8 * d * d
        tracemalloc.start()
        try:
            assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The running sum, the block buffer, one block's product and a
        # batch; a layer's batches, 8 D x D of floats, never all at once.
        assert peak < 5 * d * d * 8, peak

    def test_holds_one_batch_at_a_time(self, tmp_path):
        d, seq = 128, 512
        model = gen_model(tmp_path / "m", d=d, heads=4, head_dim=32, seq=seq, batches=4)
        batch_bytes = seq * d * 8
        tracemalloc.start()
        try:
            assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The batch being added, the next one's file bytes and array, and a
        # few D×D sums. A layer's four batches held at once exceed this.
        assert peak < 4 * batch_bytes + 4 * d * d * 8, (peak, batch_bytes)

    def test_overflowing_sum_is_validation_error(self, tmp_path, capsys):
        model = gen_model(tmp_path / "m")
        rel = manifest.load_manifest(model).calibration[1][2]
        ctf.write_ctf(model.parent / rel, np.full((8, 16), 1e200))
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "layer 1" in err
        assert "non-finite" in err and "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "cov" / "layer001_cov.ctf").exists()

    def test_zero_batches_is_validation_error(self, tmp_path, capsys):
        model = gen_model(tmp_path / "m")
        doc = json.loads(model.read_text())
        doc["calibration"]["0"] = []
        model.write_text(json.dumps(doc))
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 2
        assert "no calibration data" in capsys.readouterr().err

    def test_failed_rerun_leaves_only_its_own_covariances(self, tmp_path, capsys):
        # Every old covariance goes before the first batch is read, so a rerun
        # that fails at layer 1 leaves layer 0's new file alone.
        model = gen_model(tmp_path / "m")
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0
        rel = manifest.load_manifest(model).calibration[1][0]
        (model.parent / rel).unlink()
        capsys.readouterr()
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 4
        assert capsys.readouterr().err.startswith("error:")
        assert sorted(p.name for p in (tmp_path / "cov").iterdir()) == ["layer000_cov.ctf"]

    def test_a_larger_models_covariances_go_and_batches_stay(self, tmp_path):
        # The 1-layer model's batches sit in the directory a 2-layer cov
        # wrote into; its layer001_cov.ctf goes, and every batch stays.
        small = gen_model(tmp_path / "small", layers=1)
        data = tmp_path / "small/data"
        assert run("cov", "--manifest", gen_model(tmp_path / "big"), "--out", data) == 0
        doc = json.loads(small.read_text())
        moved = [f"data/{Path(rel).name}" for rel in doc["calibration"]["0"]]
        for old, new in zip(doc["calibration"]["0"], moved):
            (small.parent / old).rename(small.parent / new)
        doc["calibration"]["0"] = moved
        small.write_text(json.dumps(doc))
        batches = {rel: (small.parent / rel).read_bytes() for rel in moved}
        assert run("cov", "--manifest", small, "--out", data) == 0
        assert sorted(p.name for p in data.iterdir()) == sorted(
            [Path(rel).name for rel in moved] + ["layer000_cov.ctf"])
        assert {rel: (small.parent / rel).read_bytes() for rel in moved} == batches

    def test_only_covariance_files_directly_in_out_go(self, tmp_path):
        out = tmp_path / "cov"
        (out / "sub").mkdir(parents=True)
        (out / "layer007_cov.ctf/inner").mkdir(parents=True)
        kept = ["layer007_cov.ctf.bak", "layer7_cov.ctf", "layer007_factors.ctf",
                "layer007_x_cov.ctf", "notes_cov.ctf", "sub/layer005_cov.ctf"]
        for rel in kept + ["layer005_cov.ctf", "layer1234_cov.ctf"]:
            (out / rel).write_bytes(b"old")
        assert run("cov", "--manifest", gen_model(tmp_path / "m"), "--out", out) == 0
        assert sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()) == sorted(
            kept + ["layer000_cov.ctf", "layer001_cov.ctf"])
        assert (out / "layer007_cov.ctf/inner").is_dir()

    def test_missing_manifest_is_io_error(self, tmp_path):
        assert run("cov", "--manifest", tmp_path / "nope.json",
                   "--out", tmp_path / "cov") == 4

    @pytest.mark.parametrize("mutate", MALFORMED_MANIFESTS.values(),
                             ids=MALFORMED_MANIFESTS.keys())
    def test_malformed_manifest_is_validation_error(self, tmp_path, capsys, mutate):
        model = gen_model(tmp_path / "m")
        doc = json.loads(model.read_text())
        mutate(doc)
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not (tmp_path / "cov").exists()

    def test_absolute_batch_path_is_validation_error(self, tmp_path, capsys):
        model = gen_model(tmp_path / "m")
        doc = json.loads(model.read_text())
        doc["calibration"]["0"][0] = str(model.parent / doc["calibration"]["0"][0])
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "inside the manifest directory" in err
        assert not (tmp_path / "cov").exists()

    def test_batch_path_may_not_escape_batches_dir(self, tmp_path, capsys):
        model = gen_model(tmp_path / "m")
        doc = json.loads(model.read_text())
        doc["calibration"]["0"] = ["../m/" + p for p in doc["calibration"]["0"]]
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("cov", "--manifest", model, "--batches-dir", tmp_path / "m/batches",
                   "--out", tmp_path / "cov") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not (tmp_path / "cov").exists()


class TestSchedule:
    def test_uniform_mode_constant_profile(self, tmp_path):
        model = gen_model(tmp_path / "m")
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0
        assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--mode", "uniform", "--rank", 5,
                   "--out", tmp_path / "p.json") == 0
        profile, mode, _ = manifest.load_profile(tmp_path / "p.json")
        assert mode == "uniform"
        assert set(profile.ranks.values()) == {5}

    def test_reads_no_query_projection(self, tmp_path):
        model = gen_model(tmp_path / "m")
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--parity", "--out", tmp_path / "a/p.json") == 0
        for layer in range(2):
            (model.parent / f"weights/layer00{layer}_w_q.ctf").unlink()
        assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--parity", "--out", tmp_path / "b/p.json") == 0
        assert tree_bytes(tmp_path / "b") == tree_bytes(tmp_path / "a")

    def test_singular_whitener_exits_3_and_keeps_the_old_profile(self, tmp_path, capsys):
        # 4 tokens in 16 dims with weighting C and a tiny lambda: a convert
        # under this setting would exit 3, so schedule stores no Grams.
        model = gen_model(tmp_path / "m", seed=3, seq=2, batches=2)
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0
        assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--parity", "--out", tmp_path / "p.json") == 0
        tiny = with_shrinkage(model, "tiny.json", ("--weighting", "C", "--lambda", "1e-300"))
        before = tree_bytes(tmp_path)
        assert "p.json" in before and "p_grams/layer000_grams.ctf" in before
        capsys.readouterr()
        assert run("schedule", "--manifest", tiny, "--cov-dir", tmp_path / "cov",
                   "--parity", "--out", tmp_path / "p.json") == 3
        captured = capsys.readouterr()
        assert captured.err == "error: singular whitener: apply shrinkage before factorizing\n"
        assert captured.out == ""
        assert tree_bytes(tmp_path) == before
        assert not (tmp_path / "p_grams.partial").exists()

    def test_out_that_is_a_directory_exits_4_and_leaves_no_partial(self, tmp_path, capsys):
        # Every layer is computed before the old profile is replaced; the
        # failed swap must take the staged Grams with it.
        model = gen_model(tmp_path / "m")
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0
        assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--parity", "--out", tmp_path / "p.json") == 0
        (tmp_path / "q.json").mkdir()
        (tmp_path / "q.json/keep.txt").write_text("kept")
        before = tree_bytes(tmp_path)
        paths = sorted(tmp_path.rglob("*"))
        assert "p.json" in before and "p_grams/layer000_grams.ctf" in before
        capsys.readouterr()
        assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--parity", "--out", tmp_path / "q.json") == 4
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert tree_bytes(tmp_path) == before
        assert sorted(tmp_path.rglob("*")) == paths
        assert not list(tmp_path.rglob("*.partial"))

    def test_engineered_model_reproduces_hand_trace(self, tmp_path):
        model = write_engineered_model(tmp_path / "m")
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0
        assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--budget-k", 4, "--budget-v", 2, "--min-rank", 1,
                   "--out", tmp_path / "p.json") == 0
        profile, _, _ = manifest.load_profile(tmp_path / "p.json")
        assert profile.rank(0, "K") == 3
        assert profile.rank(1, "K") == 1
        assert profile.rank(0, "V") == 1
        assert profile.rank(1, "V") == 1

    def test_rerun_is_byte_identical(self, tmp_path):
        model = gen_model(tmp_path / "m")
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0
        (tmp_path / "s").mkdir()
        trees = []
        for _ in range(2):
            assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
                       "--parity", "--out", tmp_path / "s/p.json") == 0
            trees.append(tree_bytes(tmp_path / "s"))
        assert trees[0] == trees[1]
        # One Grams file per layer.
        assert sorted(trees[0]) == ["p.json", "p_grams/layer000_grams.ctf",
                                    "p_grams/layer001_grams.ctf"]

    def test_infeasible_budget(self, tmp_path):
        model = gen_model(tmp_path / "m")
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0
        assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--budget-k", 3, "--budget-v", 3, "--min-rank", 2,
                   "--out", tmp_path / "p.json") == 2

    def test_spectrum_svd_failure_is_numerical_error(self, tmp_path, monkeypatch, capsys):
        # The whitened SVD is the eigendecomposition of each kind's Gram.
        model = gen_model(tmp_path / "m")
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--parity", "--out", tmp_path / "p.json") == 3
        assert "eigendecomposition failed" in capsys.readouterr().err
        assert not (tmp_path / "p.json").exists()

    def test_non_psd_covariance_writes_nothing(self, tmp_path, capsys):
        # Layer 0's Grams are staged before layer 1 is refused; the
        # refusal leaves no profile and no stored Grams.
        model = gen_model(tmp_path / "m")
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0
        ctf.write_ctf(tmp_path / "cov/layer001_cov.ctf", -np.eye(16))
        (tmp_path / "s").mkdir()
        capsys.readouterr()
        assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--parity", "--out", tmp_path / "s/p.json") == 3
        assert capsys.readouterr().err.startswith("error:")
        assert list((tmp_path / "s").iterdir()) == []

    def test_refused_rerun_keeps_the_previous_profile(self, tmp_path):
        model = gen_model(tmp_path / "m")
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0
        (tmp_path / "s").mkdir()
        assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--parity", "--out", tmp_path / "s/p.json") == 0
        before = tree_bytes(tmp_path / "s")
        assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--budget-k", 99, "--budget-v", 99, "--out", tmp_path / "s/p.json") == 2
        assert tree_bytes(tmp_path / "s") == before

    def test_budget_above_total_full_rank(self, tmp_path, capsys):
        model = gen_model(tmp_path / "m")
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0
        for budget_k, budget_v in ((17, 16), (16, 17)):
            assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
                       "--budget-k", budget_k, "--budget-v", budget_v,
                       "--out", tmp_path / "p.json") == 2
            assert "exceeds the total full rank 16" in capsys.readouterr().err
        assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--budget-k", 16, "--budget-v", 16, "--out", tmp_path / "p.json") == 0
        profile, _, _ = manifest.load_profile(tmp_path / "p.json")
        assert sum(r for (l, kind), r in profile.ranks.items() if kind == "K") == 16

    # Each refusal below depends on the flags and the manifest alone. The
    # covariance directory does not exist, so a refusal that came after
    # reading a covariance would exit 4.
    @pytest.mark.parametrize("flags, message", [
        (["--mode", "uniform"], "--mode uniform requires --rank"),
        (["--mode", "uniform", "--rank", 0], "rank must be at least 1"),
        ([], "--mode adjusted requires --budget-k and --budget-v (or --parity)"),
        (["--budget-k", 999], "--mode adjusted requires --budget-k and --budget-v (or --parity)"),
        (["--budget-k", 999, "--budget-v", 16],
         "--budget-k 999 exceeds the total full rank 16 (KV parity)"),
        (["--budget-k", 16, "--budget-v", 17],
         "--budget-v 17 exceeds the total full rank 16 (KV parity)"),
        (["--budget-k", 3, "--budget-v", 3, "--min-rank", 2],
         "infeasible budget: 3 < 2 layers x min_rank 2"),
        (["--parity", "--min-rank", 9], "min_rank 9 exceeds the smallest full rank 8"),
        (["--parity", "--min-rank", 0], "min_rank must be at least 1"),
        (["--mode", "uniform", "--rank", 4, "--parity"], "--parity is not used by --mode uniform"),
        (["--mode", "uniform", "--rank", 4, "--budget-k", 8],
         "--budget-k is not used by --mode uniform"),
        (["--mode", "uniform", "--rank", 4, "--budget-v", 8],
         "--budget-v is not used by --mode uniform"),
        (["--mode", "uniform", "--rank", 3, "--min-rank", 5],
         "--min-rank is not used by --mode uniform"),
        (["--mode", "uniform", "--rank", 3, "--min-rank", 0],
         "--min-rank is not used by --mode uniform"),
        (["--parity", "--rank", 2], "--rank is not used by --mode adjusted"),
        (["--mode", "adjusted", "--rank", 2, "--budget-k", 8, "--budget-v", 8],
         "--rank is not used by --mode adjusted"),
    ])
    def test_flag_refusals_come_before_any_covariance(self, tmp_path, capsys, flags, message):
        model = gen_model(tmp_path / "m")
        (tmp_path / "s").mkdir()
        capsys.readouterr()
        assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "no-cov",
                   *flags, "--out", tmp_path / "s/p.json") == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list((tmp_path / "s").iterdir()) == []

    def test_refused_flags_keep_the_previous_profile(self, tmp_path):
        model = gen_model(tmp_path / "m")
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0
        (tmp_path / "s").mkdir()
        assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--mode", "uniform", "--rank", 2, "--out", tmp_path / "s/p.json") == 0
        before = tree_bytes(tmp_path / "s")
        assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--mode", "uniform", "--rank", 2, "--parity",
                   "--out", tmp_path / "s/p.json") == 2
        assert tree_bytes(tmp_path / "s") == before

    def test_parity_overrides_explicit_budgets(self, tmp_path):
        model = gen_model(tmp_path / "m")
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0
        for name, budgets in (("a.json", ()), ("b.json", ("--budget-k", 3, "--budget-v", 99))):
            assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
                       "--parity", *budgets, "--out", tmp_path / name) == 0
        parity, _, _ = manifest.load_profile(tmp_path / "a.json")
        overridden, _, _ = manifest.load_profile(tmp_path / "b.json")
        assert overridden.budget_k == overridden.budget_v == 16
        assert overridden == parity

    @pytest.mark.parametrize("budget_v, min_rank", [(256, 64), (255, 1)])
    def test_default_min_rank_is_64_when_every_budget_allows_it(self, tmp_path, capsys,
                                                                budget_v, min_rank):
        # 4 layers of grouped width 128: 4 x 64 needs a budget of 256 per kind.
        model = gen_model(tmp_path / "m", layers=4, d=256, heads=4, head_dim=64,
                          groups=2, seq=2, batches=1)
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0
        capsys.readouterr()
        assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--budget-k", 512, "--budget-v", budget_v,
                   "--out", tmp_path / "p.json") == 0
        assert f"min_rank={min_rank}\n" in capsys.readouterr().out


class TestConvert:
    def test_parity_budgets_give_exact_conversion(self, tmp_path):
        pipeline(tmp_path)
        report = json.loads((tmp_path / "converted/conversion_report.json").read_text())
        model = manifest.load_manifest(tmp_path / "model/model.json")
        for layer_report in report["layers"]:
            layer_idx = layer_report["layer"]
            cov = ctf.read_ctf(tmp_path / "cov" / f"layer{layer_idx:03d}_cov.ctf")
            op = calibration.whitening_operator(cov, model.shrinkage)
            gqa = manifest.load_gqa_layer(model, tmp_path / "model", layer_idx)
            for kind, w_g in (("k", gqa.w_k_g), ("v", gqa.w_v_g)):
                w = factorizer.replicate_groups(w_g, gqa)
                energy = float(np.sum(np.linalg.svd(op @ w, compute_uv=False) ** 2))
                assert layer_report[kind]["whitened_residual_sq"] <= 1e-12 * energy

    def test_converted_manifest_is_refused_before_out_is_touched(self, tmp_path, capsys):
        pipeline(tmp_path)
        before = tree_bytes(tmp_path / "converted")
        capsys.readouterr()
        assert run("convert", "--manifest", tmp_path / "converted/converted.json",
                   "--cov-dir", tmp_path / "cov", "--profile", tmp_path / "profile.json",
                   "--out", tmp_path / "converted") == 2
        err = capsys.readouterr().err
        assert err == "error: manifest does not describe a grouped-attention model\n"
        assert tree_bytes(tmp_path / "converted") == before

    def test_converted_manifest_creates_no_out(self, tmp_path, capsys):
        pipeline(tmp_path)
        capsys.readouterr()
        assert run("convert", "--manifest", tmp_path / "converted/converted.json",
                   "--cov-dir", tmp_path / "cov", "--profile", tmp_path / "profile.json",
                   "--out", tmp_path / "again") == 2
        assert capsys.readouterr().err.startswith("error: manifest does not describe")
        assert not (tmp_path / "again").exists()

    @pytest.mark.parametrize("model_layers, profile_layers", [(2, 3), (3, 2)])
    def test_profile_of_another_model_writes_nothing(self, tmp_path, capsys, model_layers,
                                                     profile_layers):
        for name, layers in (("model", model_layers), ("other", profile_layers)):
            model = gen_model(tmp_path / name, layers=layers)
            assert run("cov", "--manifest", model, "--out", tmp_path / f"{name}_cov") == 0
        assert run("schedule", "--manifest", tmp_path / "other/model.json",
                   "--cov-dir", tmp_path / "other_cov", "--mode", "uniform", "--rank", 4,
                   "--out", tmp_path / "p.json") == 0
        capsys.readouterr()
        assert run("convert", "--manifest", tmp_path / "model/model.json",
                   "--cov-dir", tmp_path / "model_cov", "--profile", tmp_path / "p.json",
                   "--out", tmp_path / "c") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"model's {model_layers} layers" in err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("full_rank", [None, "rank", 10**6], ids=["absent", "equal", "huge"])
    def test_rank_above_grouped_width_writes_nothing(self, tmp_path, capsys, full_rank):
        # The layer's grouped width is the only full rank: whatever full_rank
        # a profile of an earlier version records, a wider latent is refused.
        model = gen_model(tmp_path / "m")  # 2 layers, n_groups * head_dim = 8
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0
        assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--parity", "--out", tmp_path / "p.json") == 0
        doc = json.loads((tmp_path / "p.json").read_text())
        doc["budget_k"] += 1
        for entry in doc["entries"]:
            if (entry["layer"], entry["kind"]) == (1, "K"):
                entry["rank"] = 9
            entry.pop("full_rank", None)
            if full_rank is not None:
                entry["full_rank"] = entry["rank"] if full_rank == "rank" else full_rank
        (tmp_path / "p.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("convert", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--profile", tmp_path / "p.json", "--out", tmp_path / "c") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "layer 1 K rank 9 exceeds the layer's grouped width 8" in err, err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--lambda", "inf"), ("--lambda", "1e999"), ("--lambda", "nan"), ("--lambda", "-1"),
        ("--lambda", "0"), ("--alpha", "inf"), ("--alpha", "nan"),
    ])
    def test_bad_shrinkage_override_writes_nothing(self, tmp_path, capsys, flag, value):
        pipeline(tmp_path)
        capsys.readouterr()
        assert run("convert", "--manifest", tmp_path / "model/model.json",
                   "--cov-dir", tmp_path / "cov", "--profile", tmp_path / "profile.json",
                   flag, value, "--out", tmp_path / "c") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag[2:] in err and "Traceback" not in err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("args, named", [
        (("--lambda", "-inf", "--out", "c"), "--lambda"),
        (("--lambda", "-1e3", "--out", "c"), "--lambda"),
        ((), "--out"),
    ])
    def test_usage_error_reads_error_first(self, tmp_path, capsys, args, named):
        # argparse takes "-inf" and "-1e3" for options, not values.
        pipeline(tmp_path)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run("convert", "--manifest", tmp_path / "model/model.json",
                "--cov-dir", tmp_path / "cov", "--profile", tmp_path / "profile.json",
                *(tmp_path / a if a == "c" else a for a in args))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert "usage" not in err and "Traceback" not in err
        assert not (tmp_path / "c").exists()

    def test_singular_whitener_exits_3(self, tmp_path, capsys):
        # 4 tokens in 16 dims: C has 12 zero eigenvalues, and with weighting
        # C a tiny lambda leaves them all but unshrunk.
        model = gen_model(tmp_path / "m", seq=2, batches=2)
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0
        assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--parity", "--out", tmp_path / "p.json") == 0
        capsys.readouterr()
        assert run("convert", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--profile", tmp_path / "p.json", "--weighting", "C", "--lambda", "1e-300",
                   "--out", tmp_path / "c") == 3
        captured = capsys.readouterr()
        assert captured.err == "error: singular whitener: apply shrinkage before factorizing\n"
        assert tree_bytes(tmp_path / "c") == {}

    def test_weighting_modes_produce_different_factors(self, tmp_path):
        model = gen_model(tmp_path / "m")
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0
        assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--mode", "uniform", "--rank", 4, "--out", tmp_path / "p.json") == 0
        for weighting, out in (("damped", "c1"), ("C", "c2")):
            assert run("convert", "--manifest", model, "--cov-dir", tmp_path / "cov",
                       "--profile", tmp_path / "p.json", "--weighting", weighting,
                       "--out", tmp_path / out) == 0
        a = (tmp_path / "c1/factors/layer000_w_a_k.ctf").read_bytes()
        b = (tmp_path / "c2/factors/layer000_w_a_k.ctf").read_bytes()
        assert a != b

    def test_alpha_robustness_on_well_conditioned_model(self, tmp_path):
        model = gen_model(tmp_path / "m")
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0
        assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--mode", "uniform", "--rank", 4, "--out", tmp_path / "p.json") == 0
        # The residual eval reports is measured in one metric, C, whatever
        # alpha the factors were found with. The whitened residual is not:
        # S^2 = (1 - alpha) C + alpha lam I itself moves by about alpha.
        residuals = {}
        for alpha, out in ((1e-4, "almost_zero"), (1e-2, "default")):
            assert run("convert", "--manifest", model, "--cov-dir", tmp_path / "cov",
                       "--profile", tmp_path / "p.json", "--alpha", alpha,
                       "--out", tmp_path / out) == 0
            assert run("eval", "--source", model, "--converted",
                       tmp_path / out / "converted.json", "--out", tmp_path / f"eval_{out}") == 0
            report = json.loads((tmp_path / f"eval_{out}/eval_report.json").read_text())
            residuals[out] = [
                layer[f"activation_residual_{kind}"]
                for layer in report["layers"] for kind in ("k", "v")
            ]
        for near_zero, default in zip(residuals["almost_zero"], residuals["default"]):
            assert abs(near_zero - default) <= 0.01 * default

    def test_numerical_error_exit_code(self, tmp_path):
        model = gen_model(tmp_path / "m")
        cov_dir = tmp_path / "cov"
        cov_dir.mkdir()
        for layer in range(2):
            ctf.write_ctf(cov_dir / f"layer{layer:03d}_cov.ctf", -np.eye(16))
        assert run("schedule", "--manifest", model, "--cov-dir", cov_dir,
                   "--parity", "--out", tmp_path / "p.json") == 3

    @pytest.mark.parametrize("weighting", ["damped", "C"])
    def test_non_psd_covariance_is_refused_under_each_weighting(self, tmp_path, capsys,
                                                                 weighting):
        # Under C the whitened Gram is a square and PSD whatever C is, so
        # the refusal comes from the damped Gram w^T B w. --mode uniform
        # decomposes nothing, so schedule stores the Grams of this C.
        model = gen_model(tmp_path / "m", seed=1)
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0
        ctf.write_ctf(tmp_path / "cov/layer001_cov.ctf", -np.eye(16))
        assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--mode", "uniform", "--rank", 4, "--out", tmp_path / "p.json") == 0
        capsys.readouterr()
        assert run("convert", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--profile", tmp_path / "p.json", "--weighting", weighting,
                   "--out", tmp_path / "c") == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "matrix is not PSD" in err
        assert not (tmp_path / "c/converted.json").exists()

    def test_parity_report_retains_all_energy(self, tmp_path):
        pipeline(tmp_path)
        report = json.loads((tmp_path / "converted/conversion_report.json").read_text())
        for layer_report in report["layers"]:
            for kind in ("k", "v"):
                assert abs(layer_report[kind]["retained_energy"] - 1.0) <= 1e-12

    def test_low_rank_report_retained_energy(self, tmp_path):
        model = gen_model(tmp_path / "m")
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0
        assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--mode", "uniform", "--rank", 3, "--out", tmp_path / "p.json") == 0
        assert run("convert", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--profile", tmp_path / "p.json", "--out", tmp_path / "c") == 0
        report = json.loads((tmp_path / "c/conversion_report.json").read_text())
        m = manifest.load_manifest(model)
        for layer_report in report["layers"]:
            layer = layer_report["layer"]
            cov = ctf.read_ctf(tmp_path / "cov" / f"layer{layer:03d}_cov.ctf")
            s = calibration.whitening_operator(cov, m.shrinkage)
            gqa = manifest.load_gqa_layer(m, model.parent, layer)
            for kind, w_g in (("k", gqa.w_k_g), ("v", gqa.w_v_g)):
                w = factorizer.replicate_groups(w_g, gqa)
                entry = layer_report[kind]
                expected = 1.0 - entry["whitened_residual_sq"] / linalg.frobenius_norm_sq(s @ w)
                assert abs(entry["retained_energy"] - expected) <= 1e-9
                assert entry["retained_energy"] < 1.0

    def test_gram_eigh_failure_is_numerical_error(self, tmp_path, monkeypatch, capsys):
        model = gen_model(tmp_path / "m")
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0
        assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--parity", "--out", tmp_path / "p.json") == 0

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        capsys.readouterr()
        assert run("convert", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--profile", tmp_path / "p.json", "--out", tmp_path / "c") == 3
        assert capsys.readouterr().err.startswith("error: eigendecomposition failed")
        assert not (tmp_path / "c" / "converted.json").exists()

    def test_no_dense_whitener_is_formed(self, tmp_path, monkeypatch):
        # schedule and convert, under either weighting, run without the
        # dense S.
        model = gen_model(tmp_path / "m")
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0

        def refuse(*args, **kwargs):
            raise AssertionError("dense whitener formed")

        monkeypatch.setattr(calibration, "whitening_operator", refuse)
        monkeypatch.setattr(linalg, "sqrt_psd", refuse)
        assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--budget-k", 12, "--budget-v", 12, "--out", tmp_path / "p.json") == 0
        for weighting in ("damped", "C"):
            assert run("convert", "--manifest", model, "--cov-dir", tmp_path / "cov",
                       "--profile", tmp_path / "p.json", "--weighting", weighting,
                       "--out", tmp_path / weighting) == 0

    def test_report_carries_whitener_health(self, tmp_path):
        # Per kind, the health of the n x n whitened Gram (S W_g)^T (S W_g),
        # against the dense S; one lambda_resolved per layer.
        pipeline(tmp_path)
        report = json.loads((tmp_path / "converted/conversion_report.json").read_text())
        model = manifest.load_manifest(tmp_path / "model/model.json")
        for layer_report in report["layers"]:
            layer = layer_report["layer"]
            cov = ctf.read_ctf(tmp_path / "cov" / f"layer{layer:03d}_cov.ctf")
            s = calibration.whitening_operator(cov, model.shrinkage)
            kv, _ = manifest.load_grouped_kv(model, tmp_path / "model", layer)
            assert sorted(layer_report) == ["gram", "k", "lambda_resolved", "layer", "v"]
            assert sorted(layer_report["gram"]) == ["k", "v"]
            for kind, w_g in (("k", kv.w_k_g), ("v", kv.w_v_g)):
                eigs = np.linalg.eigvalsh((s @ w_g).T @ (s @ w_g))
                health = layer_report["gram"][kind]
                assert sorted(health) == ["clamped", "condition", "eig_max", "eig_min"]
                assert health["eig_min"] == pytest.approx(eigs[0], rel=1e-10)
                assert health["eig_max"] == pytest.approx(eigs[-1], rel=1e-12)
                assert health["condition"] == pytest.approx(eigs[-1] / eigs[0], rel=1e-10)
                assert health["clamped"] == 0
            resolved = np.trace(cov) / cov.shape[0]  # "auto"
            assert layer_report["lambda_resolved"] == pytest.approx(resolved, rel=1e-12)

    def test_rank_deficient_weight_reports_clamped_gram(self, tmp_path):
        # A zero column of W_v_g gives the Gram a zero eigenvalue: the report
        # counts it and writes a null condition instead of an infinity.
        model = gen_model(tmp_path / "m")
        doc = json.loads(model.read_text())
        w_v = ctf.read_ctf(model.parent / doc["layers"][0]["w_v_g"])
        w_v[:, 0] = 0.0
        ctf.write_ctf(model.parent / "weights/zero_column.ctf", w_v)
        doc["layers"][0]["w_v_g"] = "weights/zero_column.ctf"
        model.write_text(json.dumps(doc))
        pipeline_args = ("--mode", "uniform", "--rank", 4)
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0
        assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   *pipeline_args, "--out", tmp_path / "p.json") == 0
        assert run("convert", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--profile", tmp_path / "p.json", "--out", tmp_path / "c") == 0
        report = json.loads((tmp_path / "c/conversion_report.json").read_text())
        health = report["layers"][0]["gram"]["v"]
        assert health["eig_min"] <= 1e-12 * health["eig_max"]
        if health["eig_min"] == 0.0:
            assert health["clamped"] >= 1 and health["condition"] is None
        else:
            assert health["condition"] >= 1e12
        # The zero column makes W_g^T W_g singular; eval only checks the
        # coordinates A of w_a = W_g A that convert wrote, so that needs no
        # special case.
        assert run("eval", "--source", model, "--converted", tmp_path / "c/converted.json",
                   "--out", tmp_path / "e") == 0
        report = json.loads((tmp_path / "e/eval_report.json").read_text())
        source = manifest.load_manifest(model)
        converted = manifest.load_manifest(tmp_path / "c/converted.json")
        for layer, got in enumerate(report["layers"]):
            kv, _ = manifest.load_grouped_kv(source, model.parent, layer)
            factors = manifest.load_mla_bundle(converted, tmp_path / "c", layer)
            batches = manifest.load_batches(source, model.parent, layer)
            for kind, w_g in (("k", kv.w_k_g), ("v", kv.w_v_g)):
                want = factorizer.activation_residual(
                    batches, w_g, getattr(factors, f"w_a_{kind}"),
                    getattr(factors, f"w_b_{kind}"), kv)
                assert abs(got[f"activation_residual_{kind}"] - want) <= 1e-12 * want


    def test_interrupted_run_leaves_no_manifest(self, tmp_path, monkeypatch, capsys):
        # A previous run's documents go before the first factor is written,
        # and this run's are written last, so a failure at layer 1 leaves
        # nothing that looks like a finished conversion.
        pipeline(tmp_path)
        out = tmp_path / "converted"
        assert (out / "converted.json").exists()
        real = factorizer.convert_layer

        def fail_at_layer_1(layer, *args):
            if fail_at_layer_1.calls == 1:
                raise NumericalError("injected")
            fail_at_layer_1.calls += 1
            return real(layer, *args)

        fail_at_layer_1.calls = 0
        monkeypatch.setattr(factorizer, "convert_layer", fail_at_layer_1)
        capsys.readouterr()
        assert run("convert", "--manifest", tmp_path / "model/model.json",
                   "--cov-dir", tmp_path / "cov", "--profile", tmp_path / "profile.json",
                   "--out", out) == 3
        assert capsys.readouterr().err == "error: injected\n"
        left = sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())
        assert not [name for name in left if name.endswith(".json") or ".partial" in name]
        assert "factors/layer000_w_a_k.ctf" in left

    def test_bundle_links_grams_and_holds_no_query(self, tmp_path):
        pipeline(tmp_path)
        # eval takes w_q from the source and its residuals from the Grams,
        # so the bundle holds neither a query nor a covariance.
        assert not (tmp_path / "converted/weights").exists()
        assert not (tmp_path / "converted/cov").exists()
        doc = json.loads((tmp_path / "converted/converted.json").read_text())
        assert [layer for layer in doc["layers"] if "w_q" in layer or "cov" in layer] == []
        for layer in range(2):
            name = f"layer00{layer}_grams.ctf"
            assert os.path.samefile(tmp_path / "profile_grams" / name,
                                    tmp_path / "converted/grams" / name)
        before = tree_bytes(tmp_path / "converted")
        # Every stage replaces its files, so the bundle's links keep the old bytes.
        model = gen_model(tmp_path / "model", seed=7)
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0
        assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov", "--parity",
                   "--out", tmp_path / "profile.json") == 0
        assert tree_bytes(tmp_path / "converted") == before

    def test_copies_where_linking_fails(self, tmp_path, monkeypatch):
        linked = pipeline(tmp_path / "linked")

        def cross_device(src, dst):
            raise OSError(errno.EXDEV, "Invalid cross-device link")

        monkeypatch.setattr(os, "link", cross_device)
        copied = pipeline(tmp_path / "copied")
        assert tree_bytes(copied) == tree_bytes(linked)
        assert not os.path.samefile(copied / "profile_grams/layer000_grams.ctf",
                                    copied / "converted/grams/layer000_grams.ctf")


def convert_tree(tmp_path: Path, model: Path, cov_dir: Path, profile: Path, out: str,
                 *args) -> dict[str, bytes]:
    assert run("convert", "--manifest", model, "--cov-dir", cov_dir, "--profile", profile,
               *args, "--out", tmp_path / out) == 0
    return tree_bytes(tmp_path / out)


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def with_shrinkage(model: Path, name: str, args) -> Path:
    """A copy of `model`, in its directory, whose shrinkage is the one the
    convert flags `args` ask for."""
    doc = json.loads(model.read_text())
    flags = dict(zip(args[::2], args[1::2]))
    for flag, key in (("--weighting", "weighting"), ("--alpha", "alpha"), ("--lambda", "lambda")):
        if flag in flags:
            value = flags[flag]
            doc[key] = float(value) if key == "alpha" or value[0].isdigit() else value
    path = model.with_name(name)
    path.write_text(json.dumps(doc))
    return path


def recording(monkeypatch, module, name) -> list[tuple[tuple, object]]:
    """Record the positional arguments and the result of each call of
    `module.name`."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(module, name, wrapper)
    return calls


# Shrinkage settings that differ from the default in each field.
SETTINGS = [(), ("--weighting", "C"), ("--alpha", "0.2", "--lambda", "2.5"),
            ("--lambda", "auto")]


class TestOneSpectraPath:
    """schedule stores each layer's parameter-free Grams, pinned with the
    files they were computed from; convert forms and decomposes its own
    whitened Gram from them under any setting, and refuses a profile whose
    records do not match its files."""

    @pytest.fixture
    def scheduled(self, tmp_path) -> Path:
        model = gen_model(tmp_path / "m", layers=3)
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0
        assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--budget-k", 12, "--budget-v", 12, "--out", tmp_path / "p.json") == 0
        return model

    def convert_code(self, tmp_path, model, capsys, profile="p.json", *args) -> tuple[int, str]:
        capsys.readouterr()
        code = run("convert", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--profile", tmp_path / profile, *args, "--out", tmp_path / "c")
        return code, capsys.readouterr().err

    def test_records_name_the_files_schedule_wrote(self, tmp_path, scheduled):
        # Every digest is the sha256 of the bytes of the file it pins.
        _, _, records = manifest.load_profile(tmp_path / "p.json")
        assert sorted(records) == [0, 1, 2]
        m = manifest.load_manifest(scheduled)
        for layer, record in records.items():
            cov_path = tmp_path / "cov" / f"layer{layer:03d}_cov.ctf"
            entry = m.layer(layer)
            assert record.inputs == {
                "cov": file_sha256(cov_path),
                "w_k_g": file_sha256(scheduled.parent / entry.w_k_g),
                "w_v_g": file_sha256(scheduled.parent / entry.w_v_g),
            }
            assert record.path == f"p_grams/layer{layer:03d}_grams.ctf"
            assert record.sha256 == file_sha256(tmp_path / record.path)
            assert record.cov_trace == float(np.trace(ctf.read_ctf(cov_path)))
            kv, _ = manifest.load_grouped_kv(m, scheduled.parent, layer)
            stored = manifest.load_grams(tmp_path, record, entry)
            assert stored.tobytes() == factorizer.raw_grams(kv, ctf.read_ctf(cov_path)).tobytes()

    def test_profile_records_no_setting(self, tmp_path, scheduled):
        doc = json.loads((tmp_path / "p.json").read_text())
        keys = set(doc) | {key for record in doc["grams"] for key in record}
        assert "spectra" not in keys and not {"alpha", "lambda", "weighting"} & keys

    @pytest.mark.parametrize("args", SETTINGS)
    def test_schedule_and_convert_spectra_are_bit_identical(self, tmp_path, scheduled, args,
                                                            monkeypatch):
        # The model's own setting is the one the flags ask for, so schedule
        # water-fills on the spectra that convert truncates.
        model = with_shrinkage(scheduled, "flags.json", args)
        water = recording(monkeypatch, scheduler, "waterfill")
        spectra = recording(monkeypatch, factorizer, "layer_spectra")
        assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--budget-k", 12, "--budget-v", 12, "--out", tmp_path / "q.json") == 0
        scheduled_spectra = [result for _, result in spectra]
        spectra.clear()
        convert_tree(tmp_path, model, tmp_path / "cov", tmp_path / "q.json", "c", *args)
        assert len(scheduled_spectra) == len(spectra) == 3 and len(water) == 2
        for layer, ((_, ours), theirs) in enumerate(zip(spectra, scheduled_spectra)):
            for kind, (got, want) in enumerate(zip(ours, theirs)):
                water_filled = water[kind][0][0][layer]
                assert water_filled.tobytes() == want.singular_values.tobytes()
                assert got.singular_values.tobytes() == want.singular_values.tobytes()
                assert got.v_t.tobytes() == want.v_t.tobytes()

    @pytest.mark.parametrize("model_weighting", ["damped", "C"])
    @pytest.mark.parametrize("args", SETTINGS[1:] + [("--weighting", "damped")])
    def test_overrides_match_the_dense_reference(self, tmp_path, scheduled, monkeypatch,
                                                 model_weighting, args):
        # Whatever setting schedule used, convert's spectra under its own
        # setting agree with the SVD of the dense S W_g.
        model = with_shrinkage(scheduled, "model.json", ("--weighting", model_weighting))
        assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--budget-k", 12, "--budget-v", 12, "--out", tmp_path / "q.json") == 0
        spectra = recording(monkeypatch, factorizer, "layer_spectra")
        convert_tree(tmp_path, model, tmp_path / "cov", tmp_path / "q.json", "c", *args)
        m = manifest.load_manifest(model)
        params = manifest.load_manifest(with_shrinkage(model, "ref.json", args)).shrinkage
        for layer, (_, got) in enumerate(spectra):
            cov = ctf.read_ctf(tmp_path / "cov" / f"layer{layer:03d}_cov.ctf")
            s = calibration.whitening_operator(cov, params)
            kv, _ = manifest.load_grouped_kv(m, model.parent, layer)
            for svd, w_g in zip(got, (kv.w_k_g, kv.w_v_g)):
                ref = factorizer.whitened_svd(w_g, s)
                top = ref.singular_values[0]
                assert np.max(np.abs(svd.singular_values - ref.singular_values)) <= 1e-12 * top
                # Each right singular vector, up to its sign.
                signs = np.sign(np.sum(svd.v_t * ref.v_t, axis=1))
                assert np.max(np.abs(svd.v_t - signs[:, None] * ref.v_t)) <= 1e-12

    @pytest.mark.parametrize("stale", ["w_k_g", "w_v_g"])
    def test_stale_input_exits_2(self, tmp_path, scheduled, capsys, stale):
        rel = f"weights/layer001_{stale}.ctf"
        path = scheduled.parent / rel
        ctf.write_ctf(path, 2.0 * ctf.read_ctf(path))
        code, err = self.convert_code(tmp_path, scheduled, capsys)
        assert code == 2
        assert err == (f"error: layer 1 {stale} ({rel}): file sha256 does not match the "
                       f"profile's record; re-run schedule\n")
        assert not (tmp_path / "c/converted.json").exists()

    @pytest.mark.parametrize("change", ["rewritten", "deleted"])
    def test_covariance_changed_after_schedule_is_not_read(self, tmp_path, scheduled, capsys,
                                                           change):
        # convert takes tr(C) from the profile's record, so a covariance
        # changed after schedule changes none of its output.
        assert self.convert_code(tmp_path, scheduled, capsys) == (0, "")
        before = tree_bytes(tmp_path / "c")
        path = tmp_path / "cov/layer001_cov.ctf"
        if change == "rewritten":
            ctf.write_ctf(path, 2.0 * ctf.read_ctf(path))
        else:
            path.unlink()
        assert self.convert_code(tmp_path, scheduled, capsys) == (0, "")
        assert tree_bytes(tmp_path / "c") == before

    @pytest.mark.parametrize("document", ["profile", "converted manifest"])
    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e999", "true", '"1.0"',
                                       None])
    def test_bad_recorded_trace_exits_2(self, tmp_path, scheduled, capsys, document, value):
        # The JSON text of layer 1's cov_trace (None: no key), in the
        # document convert or eval reads; json reads NaN and 1e999 as
        # floats, so the check is for finiteness.
        path = tmp_path / ("p.json" if document == "profile" else "c/converted.json")
        if document == "converted manifest":
            assert self.convert_code(tmp_path, scheduled, capsys) == (0, "")
        doc = json.loads(path.read_text())
        record = doc["grams"][1] if document == "profile" else doc["layers"][1]
        del record["cov_trace"]
        if value is not None:
            record["cov_trace"] = "@trace@"
        path.write_text(json.dumps(doc).replace('"@trace@"', str(value)))
        out = tmp_path / "out"
        capsys.readouterr()
        if document == "profile":
            code = run("convert", "--manifest", scheduled, "--cov-dir", tmp_path / "cov",
                       "--profile", path, "--out", out)
        else:
            code = run("eval", "--source", scheduled, "--converted", path, "--out", out)
        err = capsys.readouterr().err
        stage = "schedule" if document == "profile" else "convert"
        assert code == 2
        assert err.startswith(f"error: {path}") and "cov_trace" in err, err
        assert err.count("\n") == 1 and f"re-run {stage}" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("earlier", [
        lambda doc: doc.pop("grams"),
        lambda doc: doc.update(spectra={"alpha": 0.01, "lambda": "auto", "weighting": "damped",
                                        "layers": doc.pop("grams")}),
        lambda doc: doc.update(eigen=doc.pop("grams")),
    ], ids=["no_records", "spectra", "eigen"])
    def test_profile_without_records_exits_2(self, tmp_path, scheduled, capsys, earlier):
        # Profiles of earlier versions stored spectra or eigenpairs instead.
        doc = json.loads((tmp_path / "p.json").read_text())
        earlier(doc)
        (tmp_path / "old.json").write_text(json.dumps(doc))
        code, err = self.convert_code(tmp_path, scheduled, capsys, "old.json")
        assert code == 2
        assert err == f"error: {tmp_path / 'old.json'} records no Grams; re-run schedule\n"
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("kind", [0, 1])
    @pytest.mark.parametrize("gram", [0, 1])
    def test_tampered_grams_file_exits_2(self, tmp_path, scheduled, capsys, kind, gram):
        # Slab `kind` holds W_g^T C W_g (gram 0) and (C W_g)^T (C W_g) (gram 1).
        path = tmp_path / "p_grams/layer002_grams.ctf"
        stored = ctf.read_ctf(path)
        stored[kind, gram, 3] *= 1.0 + 1e-15
        ctf.write_ctf(path, stored)
        code, err = self.convert_code(tmp_path, scheduled, capsys)
        assert code == 2
        assert err == ("error: layer 2 Grams (p_grams/layer002_grams.ctf): file sha256 does not "
                       "match the profile's record; re-run schedule\n")

    def test_truncated_grams_file_exits_2(self, tmp_path, scheduled, capsys):
        path = tmp_path / "p_grams/layer002_grams.ctf"
        path.write_bytes(path.read_bytes()[:-8])
        code, err = self.convert_code(tmp_path, scheduled, capsys)
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("layer", [0, 1])
    def test_missing_grams_file_exits_4(self, tmp_path, scheduled, capsys, layer):
        (tmp_path / f"p_grams/layer{layer:03d}_grams.ctf").unlink()
        code, err = self.convert_code(tmp_path, scheduled, capsys)
        assert code == 4 and err.startswith("error:")

    @pytest.mark.parametrize("path", ["../p_eig/layer000_grams.ctf", "/etc/x.ctf",
                                      "p_eig/../../x.ctf"])
    def test_escaping_record_path_exits_2(self, tmp_path, scheduled, capsys, path):
        doc = json.loads((tmp_path / "p.json").read_text())
        doc["grams"][0]["grams"] = path
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        code, err = self.convert_code(tmp_path, scheduled, capsys, "bad.json")
        assert code == 2 and "inside the manifest directory" in err

    def test_record_linking_out_exits_2(self, tmp_path, scheduled, capsys):
        # A record's path is checked as it resolves: the same symbolic link
        # stays inside one profile's directory and leads out of another's.
        (tmp_path / "elsewhere").mkdir()
        shutil.move(tmp_path / "p_grams", tmp_path / "elsewhere/p_grams")
        (tmp_path / "p_grams").symlink_to("elsewhere/p_grams", target_is_directory=True)
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub/p_grams").symlink_to("../elsewhere/p_grams", target_is_directory=True)
        shutil.copy(tmp_path / "p.json", tmp_path / "sub/p.json")
        code, err = self.convert_code(tmp_path, scheduled, capsys, "sub/p.json")
        assert code == 2 and err.startswith("error: layer 0 Grams"), err
        assert "resolves to" in err and "outside" in err
        assert not (tmp_path / "c/converted.json").exists()
        assert self.convert_code(tmp_path, scheduled, capsys) == (0, "")

    @pytest.mark.parametrize("records", [
        lambda r: r[:2], lambda r: r + r[:1], lambda r: [], lambda r: "x", lambda r: None,
    ], ids=["two_of_three", "repeated", "empty", "string", "null"])
    def test_records_must_cover_every_layer(self, tmp_path, scheduled, capsys, records):
        doc = json.loads((tmp_path / "p.json").read_text())
        doc["grams"] = records(doc["grams"])
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        code, err = self.convert_code(tmp_path, scheduled, capsys, "bad.json")
        assert code == 2 and err.startswith("error:")


def forbid_covariance_reads(monkeypatch) -> None:
    """Fail the test at any opening of a `*_cov.ctf` file, and at any call
    of manifest.load_covariance."""
    real_open = open

    def refuse(*args, **kwargs):
        raise AssertionError("a covariance was read")

    def open_no_covariance(file, *args, **kwargs):
        if str(file).endswith("_cov.ctf"):
            refuse()
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(manifest, "load_covariance", refuse)
    monkeypatch.setattr("builtins.open", open_no_covariance)
    monkeypatch.setattr("io.open", open_no_covariance)


class TestGroupedWidthDecompositions:
    """Every decomposition that schedule and convert run is of an n x n
    Gram, n the layer's grouped width (8 here, d_model 16): no D x D
    eigendecomposition, and no QR or SVD. convert runs two per layer, one
    per kind, under any setting (four under C, whose damped Grams are
    checked for PSD first), and reads no covariance. eval runs none."""

    DECOMPOSITIONS = ("eigh", "eigvalsh", "svd", "qr", "cholesky")

    def record(self, monkeypatch) -> list[tuple[str, tuple]]:
        """linalg's entry points and numpy's own decompositions, by shape."""
        calls = counting(monkeypatch, "sym_eig", "svd")
        for name in self.DECOMPOSITIONS:
            real = getattr(np.linalg, name)

            def wrapper(a, *args, _name=name, _real=real, **kwargs):
                calls.append((f"np.{_name}", np.shape(a)))
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, wrapper)
        return calls

    def test_eval_decomposes_nothing(self, tmp_path, monkeypatch):
        # eval checks the coordinates convert wrote instead of solving for them.
        pipeline(tmp_path)
        calls = self.record(monkeypatch)
        assert run("eval", "--source", tmp_path / "model/model.json",
                   "--converted", tmp_path / "converted/converted.json",
                   "--seed", 0, "--out", tmp_path / "again") == 0
        assert calls == []
        assert tree_bytes(tmp_path / "again") == tree_bytes(tmp_path / "eval")

    def test_schedule_and_convert_under_each_setting(self, tmp_path, monkeypatch):
        model = gen_model(tmp_path / "m", layers=3)
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0
        calls = self.record(monkeypatch)
        assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--mode", "uniform", "--rank", 4, "--out", tmp_path / "u.json") == 0
        assert calls == []
        assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--budget-k", 12, "--budget-v", 12, "--out", tmp_path / "p.json") == 0
        per_kind = [("sym_eig", (8, 8)), ("np.eigh", (8, 8))]
        assert calls == per_kind * 6
        forbid_covariance_reads(monkeypatch)
        for args, kind_calls in (((), per_kind * 6), (("--weighting", "C"), per_kind * 12),
                                 (("--alpha", "0.2"), per_kind * 6),
                                 (("--lambda", "2.5"), per_kind * 6)):
            calls.clear()
            convert_tree(tmp_path, model, tmp_path / "cov", tmp_path / "p.json", "c", *args)
            assert calls == kind_calls, args
        # --cov-dir names no file convert needs.
        (tmp_path / "empty").mkdir()
        assert (convert_tree(tmp_path, model, tmp_path / "empty", tmp_path / "p.json", "e")
                == convert_tree(tmp_path, model, tmp_path / "cov", tmp_path / "p.json", "c"))


class TestRetiredWeighting:
    """The weighting "sqrtC" of earlier versions is refused wherever it is
    named, with a message that names its successor, "damped"."""

    def refusal(self, capsys, *argv) -> str:
        capsys.readouterr()
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'sqrtC' is retired; use 'damped'" in err, err
        return err

    def test_model_manifest(self, tmp_path, capsys):
        model = gen_model(tmp_path / "m")
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0
        old = with_shrinkage(model, "old.json", ("--weighting", "sqrtC"))
        (tmp_path / "s").mkdir()
        err = self.refusal(capsys, "schedule", "--manifest", old, "--cov-dir", tmp_path / "cov",
                           "--parity", "--out", tmp_path / "s/p.json")
        assert "old.json" in err
        assert list((tmp_path / "s").iterdir()) == []

    def test_weighting_flag(self, tmp_path, capsys):
        pipeline(tmp_path)
        self.refusal(capsys, "convert", "--manifest", tmp_path / "model/model.json",
                     "--cov-dir", tmp_path / "cov", "--profile", tmp_path / "profile.json",
                     "--weighting", "sqrtC", "--out", tmp_path / "c")
        assert not (tmp_path / "c").exists()


class TestStaleBundleFiles:
    """Before writing, convert removes the per-layer tensor files under
    --out's cov/, factors/ and weights/ that this run does not read, and
    nothing else."""

    def test_leftover_query_of_an_earlier_version_goes(self, tmp_path):
        pipeline(tmp_path)
        out = tmp_path / "converted"
        fresh = tree_bytes(out)
        # An earlier convert hard-linked the source w_q into the bundle.
        (out / "weights").mkdir()
        os.link(tmp_path / "model/weights/layer000_w_q.ctf", out / "weights/layer000_w_q.ctf")
        (out / "weights/notes.txt").write_text("kept")
        (out / "factors/layer000_w_a_k.ctf.txt").write_text("kept")
        source = tree_bytes(tmp_path / "model")
        assert run("convert", "--manifest", tmp_path / "model/model.json",
                   "--cov-dir", tmp_path / "cov", "--profile", tmp_path / "profile.json",
                   "--out", out) == 0
        assert tree_bytes(out) == {**fresh, "weights/notes.txt": b"kept",
                                   "factors/layer000_w_a_k.ctf.txt": b"kept"}
        assert tree_bytes(tmp_path / "model") == source

    def test_files_of_a_model_with_more_layers_go(self, tmp_path):
        big = gen_model(tmp_path / "big", layers=3)
        assert run("cov", "--manifest", big, "--out", tmp_path / "big_cov") == 0
        assert run("schedule", "--manifest", big, "--cov-dir", tmp_path / "big_cov",
                   "--parity", "--out", tmp_path / "big.json") == 0
        assert run("convert", "--manifest", big, "--cov-dir", tmp_path / "big_cov",
                   "--profile", tmp_path / "big.json", "--out", tmp_path / "c") == 0
        assert "factors/layer002_w_b_v.ctf" in tree_bytes(tmp_path / "c")
        small = pipeline(tmp_path / "small")
        assert run("convert", "--manifest", small / "model/model.json",
                   "--cov-dir", small / "cov", "--profile", small / "profile.json",
                   "--out", tmp_path / "c") == 0
        assert tree_bytes(tmp_path / "c") == tree_bytes(small / "converted")

    def test_inputs_under_out_stay(self, tmp_path):
        # --out is the model's own directory and --cov-dir its cov/.
        model = gen_model(tmp_path / "m")
        assert run("cov", "--manifest", model, "--out", tmp_path / "m/cov") == 0
        assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "m/cov",
                   "--parity", "--out", tmp_path / "p.json") == 0
        before = tree_bytes(tmp_path / "m")
        for _ in range(2):
            assert run("convert", "--manifest", model, "--cov-dir", tmp_path / "m/cov",
                       "--profile", tmp_path / "p.json", "--out", tmp_path / "m") == 0
        after = tree_bytes(tmp_path / "m")
        assert {name: after[name] for name in before} == before
        assert run("eval", "--source", model, "--converted", tmp_path / "m/converted.json",
                   "--out", tmp_path / "e") == 0


class TestEval:
    def test_parity_report(self, tmp_path):
        pipeline(tmp_path)
        report = json.loads((tmp_path / "eval/eval_report.json").read_text())
        assert report["max_logit_drift"] <= 1e-8
        for layer in report["layers"]:
            assert layer["logit_drift_max"] <= 1e-8
            assert layer["output_drift_max"] <= 1e-8
            # parity: cache width unchanged
            assert layer["cache_width_mla"] == layer["cache_width_gqa"]
            # teacher and student logits coincide, so distillation loss vanishes
            assert layer["losses"]["kd"] <= 1e-12
            assert abs(layer["losses"]["ce_student"] - layer["losses"]["ce_teacher"]) <= 1e-9

    def test_rerun_is_byte_identical(self, tmp_path):
        pipeline(tmp_path)
        model = tmp_path / "model/model.json"
        converted = tmp_path / "converted/converted.json"
        for out in ("e1", "e2"):
            assert run("eval", "--source", model, "--converted", converted,
                       "--seed", 5, "--out", tmp_path / out) == 0
        assert tree_bytes(tmp_path / "e1") == tree_bytes(tmp_path / "e2")

    def test_failed_rerun_leaves_no_report(self, tmp_path, capsys):
        # The old report goes before the first layer runs and the new one is
        # written last, so a rerun that fails at layer 1 leaves no report.
        pipeline(tmp_path)
        assert (tmp_path / "eval/eval_report.json").exists()
        (tmp_path / "converted/factors/layer001_w_a_v.ctf").unlink()
        capsys.readouterr()
        assert run("eval", "--source", tmp_path / "model/model.json",
                   "--converted", tmp_path / "converted/converted.json",
                   "--seed", 0, "--out", tmp_path / "eval") == 4
        assert "layer001_w_a_v.ctf" in capsys.readouterr().err
        assert tree_bytes(tmp_path / "eval") == {}

    def test_non_finite_teacher_loss_writes_no_report(self, tmp_path, capsys, monkeypatch):
        # total_loss checks the student's terms only; eval refuses the
        # teacher's by layer, before any report is written.
        pipeline(tmp_path)
        real = metrics.cross_entropy
        calls = []

        def teacher_overflows(seq, tau):
            calls.append(seq)
            return float("inf") if len(calls) % 2 else real(seq, tau)

        monkeypatch.setattr(metrics, "cross_entropy", teacher_overflows)
        capsys.readouterr()
        assert run("eval", "--source", tmp_path / "model/model.json",
                   "--converted", tmp_path / "converted/converted.json",
                   "--out", tmp_path / "eval") == 2
        err = capsys.readouterr().err
        assert err == "error: layer 0: the source's cross-entropy is inf\n"
        assert "Traceback" not in err
        assert tree_bytes(tmp_path / "eval") == {}

    @pytest.mark.parametrize("rope_dim", [-4, 3])
    def test_bad_rope_dim_writes_nothing(self, tmp_path, capsys, rope_dim):
        pipeline(tmp_path)
        capsys.readouterr()
        assert run("eval", "--source", tmp_path / "model/model.json",
                   "--converted", tmp_path / "converted/converted.json",
                   "--rope-dim", rope_dim, "--out", tmp_path / "bad") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --rope-dim") and "Traceback" not in err
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("rope_dim", [0, 4])
    @pytest.mark.parametrize("flag, value, message", [
        ("--tau", 0, "tau must be positive"),
        ("--tau", "inf", "tau must be positive"),
        ("--tau", "nan", "tau must be positive"),
        ("--tau", "1e-320", "loss terms must be finite"),
        ("--beta", -1, "beta cannot be negative"),
        ("--beta", "inf", "beta cannot be negative"),
        ("--beta", "nan", "beta cannot be negative"),
        ("--bytes-per-elem", 0, "--bytes-per-elem must be at least 1"),
    ])
    def test_bad_loss_or_byte_flag_writes_nothing(self, tmp_path, capsys, flag, value,
                                                  message, rope_dim):
        pipeline(tmp_path)
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("eval", "--source", tmp_path / "model/model.json",
                       "--converted", tmp_path / "converted/converted.json",
                       "--rope-dim", rope_dim, flag, value, "--out", tmp_path / "bad") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and "Traceback" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        if value == "1e-320":
            # A finite positive tau is refused only once its logits overflow.
            assert tree_bytes(tmp_path / "bad") == {}
        else:
            assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("field, value", [
        ("r_k", "8"), ("r_k", 0), ("r_v", True), ("w_q", "../shared/wq0.ctf"),
        ("w_a_k", "/factors/layer000_w_a_k.ctf"),
    ])
    def test_malformed_converted_manifest_writes_nothing(self, tmp_path, capsys, field, value):
        pipeline(tmp_path)
        converted = tmp_path / "converted/converted.json"
        # A real tensor where an escaping w_q points, so only the check can stop it.
        (tmp_path / "shared").mkdir()
        (tmp_path / "shared/wq0.ctf").write_bytes(
            (tmp_path / "model/weights/layer000_w_q.ctf").read_bytes())
        doc = json.loads(converted.read_text())
        doc["layers"][0][field] = value
        converted.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("eval", "--source", tmp_path / "model/model.json", "--converted", converted,
                   "--rope-dim", 4, "--out", tmp_path / "out/eval") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_converted_seed_must_be_an_integer(self, tmp_path, capsys):
        pipeline(tmp_path)
        converted = tmp_path / "converted/converted.json"
        doc = json.loads(converted.read_text())
        doc["seed"] = "x"
        converted.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("eval", "--source", tmp_path / "model/model.json", "--converted", converted,
                   "--rope-dim", 4, "--out", tmp_path / "bad") == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "bad").exists()

    def test_converted_geometry_must_match_source(self, tmp_path, capsys):
        pipeline(tmp_path)
        converted = tmp_path / "converted/converted.json"
        doc = json.loads(converted.read_text())
        doc["layers"][1].update(n_heads=2, head_dim=8, n_groups=1)
        converted.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("eval", "--source", tmp_path / "model/model.json", "--converted", converted,
                   "--out", tmp_path / "bad") == 2
        assert "layer 1: source geometry" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("rope_dim", [2, 4])
    def test_rope_width_tracks_rope_dim(self, tmp_path, rope_dim):
        pipeline(tmp_path, schedule_args=("--mode", "uniform", "--rank", "3"),
                 eval_args=("--seed", "0", "--rope-dim", str(rope_dim)))
        report = json.loads((tmp_path / "eval/eval_report.json").read_text())
        converted = manifest.load_manifest(tmp_path / "converted/converted.json")
        for layer in report["layers"]:
            factors = manifest.load_mla_bundle(converted, tmp_path / "converted", layer["layer"])
            assert layer["cache_width_mla"] == factors.cache_width == 6
            assert layer["cache_width_mla_rope"] == factors.cache_width + rope_dim
        assert report["totals"]["mla_bytes"] == 2 * 8 * (6 + rope_dim) * 2

    def test_rope_eval_builds_no_rotary_heads(self, tmp_path, monkeypatch):
        pipeline(tmp_path, eval_args=("--seed", "3", "--rope-dim", "4"))

        def refuse(*args, **kwargs):
            raise AssertionError("eval built rotary heads")

        monkeypatch.setattr(attention, "mla_heads_rope", refuse)
        assert run("eval", "--source", tmp_path / "model/model.json",
                   "--converted", tmp_path / "converted/converted.json",
                   "--seed", 3, "--rope-dim", 4, "--out", tmp_path / "patched") == 0
        assert tree_bytes(tmp_path / "patched") == tree_bytes(tmp_path / "eval")

    def test_rope_eval_writes_only_the_report(self, tmp_path):
        pipeline(tmp_path, eval_args=("--seed", "0", "--rope-dim", "4"))
        assert list(tree_bytes(tmp_path / "eval")) == ["eval_report.json"]
        report = json.loads((tmp_path / "eval/eval_report.json").read_text())
        for layer in report["layers"]:
            assert layer["cache_width_mla_rope"] == layer["cache_width_mla"] + 4
            assert layer["rope_scale_denominator"] == pytest.approx(np.sqrt(4 + 4))

    def test_content_figures_do_not_depend_on_rope_dim(self, tmp_path):
        # Below parity, so every drift, loss and residual is a live figure.
        pipeline(tmp_path, schedule_args=("--mode", "uniform", "--rank", "3"),
                 eval_args=("--seed", "3"))
        assert run("eval", "--source", tmp_path / "model/model.json",
                   "--converted", tmp_path / "converted/converted.json",
                   "--seed", 3, "--rope-dim", 4, "--out", tmp_path / "rope") == 0
        plain = json.loads((tmp_path / "eval/eval_report.json").read_text())
        rope = json.loads((tmp_path / "rope/eval_report.json").read_text())
        assert len(rope["layers"]) == 2
        for layer_plain, layer_rope in zip(plain["layers"], rope["layers"]):
            assert layer_plain["losses"]["kd"] > 0.0
            assert layer_rope.pop("cache_width_mla_rope") == layer_plain["cache_width_mla"] + 4
            assert layer_rope.pop("rope_scale_denominator") == 8.0**0.5
            assert json.dumps(layer_rope) == json.dumps(layer_plain)
        assert rope["max_logit_drift"] == plain["max_logit_drift"]

    def test_cache_per_token_line_sums_every_layer(self, tmp_path, capsys):
        pipeline(tmp_path, schedule_args=("--budget-k", "11", "--budget-v", "12",
                                          "--min-rank", "1"),
                 eval_args=("--seed", "0", "--rope-dim", "2", "--bytes-per-elem", "4"))
        out = capsys.readouterr().out
        report = json.loads((tmp_path / "eval/eval_report.json").read_text())
        widths = [layer["cache_width_mla"] for layer in report["layers"]]
        assert len(set(widths)) == 2, widths
        gqa = sum(layer["cache_width_gqa"] for layer in report["layers"])
        mla = sum(layer["cache_width_mla_rope"] for layer in report["layers"])
        assert mla == sum(widths) + 2 * 2
        assert f"cache per token, 2 layers: gqa={gqa} mla={mla} (incl. rope 2 per layer)" in out
        totals = report["totals"]
        assert (totals["gqa_bytes"], totals["mla_bytes"]) == (gqa * 8 * 4, mla * 8 * 4)

    def test_same_report_without_any_batch_file(self, tmp_path):
        pipeline(tmp_path, schedule_args=("--mode", "uniform", "--rank", "3"))
        shutil.rmtree(tmp_path / "model/batches")
        assert run("eval", "--source", tmp_path / "model/model.json",
                   "--converted", tmp_path / "converted/converted.json",
                   "--seed", 0, "--out", tmp_path / "again") == 0
        assert tree_bytes(tmp_path / "again") == tree_bytes(tmp_path / "eval")

    @pytest.mark.parametrize("fault, code, message", [
        ("bundle of an earlier version", 2,
         "layer 1 records no Grams or source file digests; re-run convert"),
        ("tampered", 2, "layer 1 Grams (grams/layer001_grams.ctf): file sha256 does not match "
                        "the converted manifest's record; re-run convert"),
        ("wrong shape", 2, "layer 1 Grams (grams/layer001_grams.ctf): shape (2, 2, 4, 4)"),
        ("no file", 4, "layer001_grams.ctf"),
    ])
    def test_bundle_grams_fault_leaves_no_report(self, tmp_path, capsys, fault, code, message):
        pipeline(tmp_path)
        converted = tmp_path / "converted/converted.json"
        grams = tmp_path / "converted/grams/layer001_grams.ctf"
        if fault == "bundle of an earlier version":
            # Earlier bundles linked the covariance in place of the Grams.
            doc = json.loads(converted.read_text())
            del doc["layers"][1]["grams"], doc["layers"][1]["grams_file_sha256"]
            doc["layers"][1]["cov"] = "cov/layer001_cov.ctf"
            converted.write_text(json.dumps(doc))
        elif fault == "tampered":
            ctf.write_ctf(grams, ctf.read_ctf(grams) * (1.0 + 1e-15))
        elif fault == "wrong shape":
            ctf.write_ctf(grams, np.zeros((2, 2, 4, 4)))
        else:
            grams.unlink()
        capsys.readouterr()
        assert run("eval", "--source", tmp_path / "model/model.json", "--converted", converted,
                   "--out", tmp_path / "fresh") == code
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err, err
        assert not (tmp_path / "fresh/eval_report.json").exists()

    def test_down_projection_outside_the_span_leaves_no_report(self, tmp_path, capsys):
        # One column of w_a_v pushed orthogonally out of W_v_g's span by
        # ||w_a_v||_F lies 1/sqrt(2) (relative) from it.
        pipeline(tmp_path)
        w_v = ctf.read_ctf(tmp_path / "model/weights/layer001_w_v_g.ctf")
        path = tmp_path / "converted/factors/layer001_w_a_v.ctf"
        w_a = ctf.read_ctf(path)
        q, _ = np.linalg.qr(np.hstack((w_v, np.ones((16, 1)))))
        w_a[:, 0] += np.linalg.norm(w_a) * q[:, -1]
        ctf.write_ctf(path, w_a)
        capsys.readouterr()
        assert run("eval", "--source", tmp_path / "model/model.json",
                   "--converted", tmp_path / "converted/converted.json",
                   "--out", tmp_path / "eval") == 2
        assert capsys.readouterr().err == (
            "error: layer 1 V: down-projection lies 7.07e-01 (relative) from the grouped "
            "weight times its coordinates A (at most 1e-10 is accepted); re-run convert\n")
        assert tree_bytes(tmp_path / "eval") == {}

    @pytest.mark.parametrize("fault, code, message", [
        ("bundle of an earlier version", 2,
         "layer 1 records no coordinates of its down-projections (a_k, a_v); re-run convert"),
        ("tampered", 2, "layer 1 K: down-projection lies 1.00e-06 (relative) from the grouped "
                        "weight times its coordinates A (at most 1e-10 is accepted); "
                        "re-run convert"),
        ("wrong shape", 2, "layer 1 a_k (factors/layer001_a_k.ctf): shape (8, 2), "
                           "expected (8, 3)"),
        ("no file", 4, "layer001_a_k.ctf"),
    ])
    def test_coordinates_fault_leaves_no_report(self, tmp_path, capsys, fault, code, message):
        # The coordinates A certify w_a = W_g A; eval checks them and
        # solves for nothing.
        pipeline(tmp_path, schedule_args=("--mode", "uniform", "--rank", "3"))
        converted = tmp_path / "converted/converted.json"
        a_k = tmp_path / "converted/factors/layer001_a_k.ctf"
        if fault == "bundle of an earlier version":
            doc = json.loads(converted.read_text())
            del doc["layers"][1]["a_k"], doc["layers"][1]["a_v"]
            converted.write_text(json.dumps(doc))
        elif fault == "tampered":
            # Still in W_k_g's span, but w_a_k is no longer W_k_g A.
            ctf.write_ctf(a_k, ctf.read_ctf(a_k) * (1.0 + 1e-6))
        elif fault == "wrong shape":
            ctf.write_ctf(a_k, ctf.read_ctf(a_k)[:, :2])
        else:
            a_k.unlink()
        capsys.readouterr()
        assert run("eval", "--source", tmp_path / "model/model.json", "--converted", converted,
                   "--out", tmp_path / "fresh") == code
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err, err
        assert not (tmp_path / "fresh/eval_report.json").exists()

    def test_student_takes_the_query_from_the_source(self, tmp_path):
        # Bundles of earlier versions name a w_q of their own. It is never
        # read: the source's, checked against the digest the bundle records,
        # is the query of both forwards.
        pipeline(tmp_path)
        converted = tmp_path / "converted/converted.json"
        doc = json.loads(converted.read_text())
        (tmp_path / "converted/weights").mkdir()
        for layer in range(2):
            source = ctf.read_ctf(tmp_path / f"model/weights/layer00{layer}_w_q.ctf")
            ctf.write_ctf(tmp_path / f"converted/weights/layer00{layer}_w_q.ctf", 3.0 * source)
            doc["layers"][layer]["w_q"] = f"weights/layer00{layer}_w_q.ctf"
        converted.write_text(json.dumps(doc))
        assert run("eval", "--source", tmp_path / "model/model.json", "--converted", converted,
                   "--seed", 0, "--out", tmp_path / "again") == 0
        assert tree_bytes(tmp_path / "again") == tree_bytes(tmp_path / "eval")

    def test_source_of_another_seed_is_refused(self, tmp_path, capsys):
        pipeline(tmp_path)
        other = gen_model(tmp_path / "other", seed=43)
        capsys.readouterr()
        assert run("eval", "--source", other,
                   "--converted", tmp_path / "converted/converted.json",
                   "--out", tmp_path / "eval") == 2
        err = capsys.readouterr().err
        assert err == ("error: layer 0 w_k_g (weights/layer000_w_k_g.ctf): file sha256 does not "
                       "match the converted manifest's record; re-run convert\n")
        assert tree_bytes(tmp_path / "eval") == {}

    @pytest.mark.parametrize("tensor", ["w_k_g", "w_v_g"])
    def test_changed_source_weight_is_refused(self, tmp_path, capsys, tensor):
        pipeline(tmp_path)
        path = tmp_path / f"model/weights/layer001_{tensor}.ctf"
        ctf.write_ctf(path, ctf.read_ctf(path) * 2.0)
        capsys.readouterr()
        assert run("eval", "--source", tmp_path / "model/model.json",
                   "--converted", tmp_path / "converted/converted.json",
                   "--out", tmp_path / "eval") == 2
        assert capsys.readouterr().err == (
            f"error: layer 1 {tensor} (weights/layer001_{tensor}.ctf): file sha256 does not "
            f"match the converted manifest's record; re-run convert\n")
        assert tree_bytes(tmp_path / "eval") == {}

    def test_changed_source_query_is_evaluated_against_the_current_teacher(self, tmp_path):
        # No document pins w_q: the factors do not depend on it, and the
        # source's current w_q is the query of the teacher and the student.
        pipeline(tmp_path, schedule_args=("--mode", "uniform", "--rank", "3"),
                 eval_args=("--seed", "0", "--rope-dim", "2"))
        path = tmp_path / "model/weights/layer001_w_q.ctf"
        ctf.write_ctf(path, ctf.read_ctf(path) * 2.0)
        assert run("eval", "--source", tmp_path / "model/model.json",
                   "--converted", tmp_path / "converted/converted.json",
                   "--seed", 0, "--rope-dim", 2, "--out", tmp_path / "again") == 0
        before = json.loads((tmp_path / "eval/eval_report.json").read_text())["layers"]
        after = json.loads((tmp_path / "again/eval_report.json").read_text())["layers"]
        assert after[0] == before[0] and after[1] != before[1]
        for got, want in zip(after, reference_eval_layers(tmp_path, 0, 2)):
            assert_close_tree(got, want, 1e-10)


def assert_close_tree(got, want, rel, path="report"):
    """Equal keys and non-float leaves; floats within `rel` relative."""
    if isinstance(want, dict):
        assert got.keys() == want.keys(), path
        for key in want:
            assert_close_tree(got[key], want[key], rel, f"{path}.{key}")
    elif isinstance(want, float):
        assert abs(got - want) <= rel * abs(want), (path, got, want)
    else:
        assert got == want, (path, got, want)


def reference_eval_layers(root: Path, seed: int, rope_dim: int) -> list[dict]:
    """Every per-layer eval figure, recomputed through the reference forwards
    and the head-width activation residual, with the CLI's draw order."""
    source = manifest.load_manifest(root / "model/model.json")
    converted = manifest.load_manifest(root / "converted/converted.json")
    rng = make_generator(seed)
    params = metrics.LossParams()
    layers = []
    for layer in range(len(source.layers)):
        gqa = manifest.load_gqa_layer(source, root / "model", layer)
        factors = manifest.load_mla_bundle(converted, root / "converted", layer)
        d, t = gqa.d_model, source.seq_len
        x = rng.standard_normal((t, d))
        targets = rng.integers(0, d, size=t)

        logits_g, _, out_g = reference_gqa(gqa, x)
        logits_m, _, out_m = reference_mla(factors, gqa.w_q, gqa, x)
        drift_max, drift_frob = masked_drift(logits_g, logits_m)
        batches = manifest.load_batches(source, root / "model", layer)
        residuals = []
        for w_g, w_a, w_b in ((gqa.w_k_g, factors.w_a_k, factors.w_b_k),
                              (gqa.w_v_g, factors.w_a_v, factors.w_b_v)):
            w = factorizer.replicate_groups(w_g, gqa)
            w_hat = w_a @ w_b
            residuals.append(float(np.mean(
                [linalg.frobenius_norm_sq(b.x @ w - b.x @ w_hat) for b in batches])))
        teacher = metrics.LogitSequence(out_g, targets)
        student = metrics.LogitSequence(out_m, targets)
        ce_student = metrics.cross_entropy(student, params.tau)
        kd = metrics.kd_loss(teacher, student, params.tau)
        layers.append({
            "layer": layer,
            "activation_residual_k": residuals[0],
            "activation_residual_v": residuals[1],
            "logit_drift_max": drift_max,
            "logit_drift_frob": drift_frob,
            "output_drift_max": float(np.max(np.abs(out_g - out_m))),
            "cache_width_gqa": 2 * gqa.n_groups * gqa.head_dim,
            "cache_width_mla": factors.r_k + factors.r_v,
            "losses": {
                "ce_teacher": metrics.cross_entropy(teacher, params.tau),
                "ce_student": ce_student,
                "kd": kd,
                "total": metrics.total_loss(ce_student, kd, params),
            },
            "cache_width_mla_rope": factors.r_k + factors.r_v + rope_dim,
            "rope_scale_denominator": float(np.sqrt(gqa.head_dim + rope_dim)),
        })
    return layers


class TestEvalAgainstReference:
    def test_report_beyond_one_query_block(self, tmp_path):
        # 160 tokens span three 64-row query tiles of the attention core
        seed, rope_dim = 7, 4
        pipeline(tmp_path, seq=160, schedule_args=("--mode", "uniform", "--rank", "3"),
                 eval_args=("--seed", seed, "--rope-dim", rope_dim))
        report = json.loads((tmp_path / "eval/eval_report.json").read_text())
        want = reference_eval_layers(tmp_path, seed, rope_dim)
        assert len(report["layers"]) == len(want)
        for got, expected in zip(report["layers"], want):
            assert_close_tree(got, expected, 1e-10)
        gqa_bytes = sum(160 * l["cache_width_gqa"] * 2 for l in want)
        mla_bytes = sum(160 * l["cache_width_mla_rope"] * 2 for l in want)
        reduction = report["totals"].pop("reduction_pct")
        assert float(reduction) == pytest.approx((1 - mla_bytes / gqa_bytes) * 100, abs=0.005)
        assert_close_tree(report, {
            "format": "kvlatent-eval-report", "version": 1, "seed": seed, "seq_len": 160,
            "tau": 1.0, "beta": 1.0, "rope_dim": rope_dim,
            "max_logit_drift": max(l["logit_drift_max"] for l in want),
            "layers": report["layers"],
            "totals": {"gqa_bytes": gqa_bytes, "gqa_mb": gqa_bytes / 1e6,
                       "mla_bytes": mla_bytes, "mla_mb": mla_bytes / 1e6,
                       "bytes_per_elem": 2},
        }, 1e-10)

        assert run("eval", "--source", tmp_path / "model/model.json",
                   "--converted", tmp_path / "converted/converted.json",
                   "--seed", seed, "--rope-dim", rope_dim, "--out", tmp_path / "again") == 0
        assert tree_bytes(tmp_path / "again") == tree_bytes(tmp_path / "eval")


class TestEvalMemory:
    def test_layer_never_holds_a_score_array(self):
        # The parent design held four (n_heads, T, T) float64 arrays per layer.
        rng = make_generator(91)
        layer = random_gqa_layer(rng)
        spectra = plain_spectra(layer)
        factors, _, _ = factorizer.convert_layer(layer, spectra, 3, 4)
        t = 1024
        score_bytes = layer.n_heads * t * t * 8
        tracemalloc.start()
        try:
            report = cli._eval_layer(0, layer, factors, rng, t, metrics.LossParams(), 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report["cache_width_mla_rope"] == 3 + 4 + 4
        assert peak < score_bytes, (peak, score_bytes)

    def test_both_forwards_are_freed_before_the_losses(self):
        # One query projection per layer, and no forward's heads alive after
        # compare. In units of one T x D float64 array, at D = 512 and
        # T = 64 (numpy 2.4) this layer peaks at 9.07, in the losses. A
        # second query projection reads 10.07, the latent K and V kept past
        # compare 10.15, and the source's heads kept 11.15.
        d, t = 512, 64
        layer = random_gqa_layer(make_generator(93), d_model=d, n_heads=8, n_groups=2)
        factors, _, _ = factorizer.convert_layer(layer, plain_spectra(layer), 3, 4)
        rng = make_generator(94)
        tracemalloc.start()
        try:
            cli._eval_layer(0, layer, factors, rng, t, metrics.LossParams(), 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 9.6 * t * d * 8, peak / (t * d * 8)

    def test_reads_no_calibration_batch(self, tmp_path, monkeypatch):
        pipeline(tmp_path, schedule_args=("--mode", "uniform", "--rank", "3"))

        def refuse(*args, **kwargs):
            raise AssertionError("eval read a calibration batch")

        monkeypatch.setattr(manifest, "iter_batches", refuse)
        forbid_covariance_reads(monkeypatch)
        assert run("eval", "--source", tmp_path / "model/model.json",
                   "--converted", tmp_path / "converted/converted.json",
                   "--seed", 0, "--out", tmp_path / "patched") == 0
        assert tree_bytes(tmp_path / "patched") == tree_bytes(tmp_path / "eval")


class TestKvReport:
    def test_paper_numbers(self, tmp_path, capsys):
        assert run("kv-report", "--layers", 32, "--seq-len", 32768, "--batch", 1,
                   "--widths", "448,512", "--baseline-widths", "1024,1024",
                   "--bytes-per-elem", 2, "--out", tmp_path / "kv.json") == 0
        out = capsys.readouterr().out
        assert "4294.97 MB" in out
        assert "53.13%" in out
        doc = json.loads((tmp_path / "kv.json").read_text())
        assert doc["baseline_bytes"] == 4294967296
        assert abs(float(doc["megabytes"]) - 2013.24) / 2013.24 < 1e-3
        assert doc["reduction_pct"] == "53.13"

    def test_zero_widths(self, capsys):
        assert run("kv-report", "--layers", 4, "--seq-len", 128,
                   "--widths", "0") == 0
        assert "0.00 MB" in capsys.readouterr().out

    def test_failed_rename_leaves_no_partial(self, tmp_path, capsys):
        # The document is written, but cannot replace a directory.
        (tmp_path / "d").mkdir()
        assert run("kv-report", "--layers", 1, "--seq-len", 1, "--widths", 1,
                   "--out", tmp_path / "d") == 4
        assert capsys.readouterr().err.startswith("error:")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d"]
        assert list((tmp_path / "d").iterdir()) == []


class TestRecordedDigests:
    """Every digest a document records is the sha256 of the bytes of the
    file it pins, under the key `<tensor>_file_sha256`."""

    def test_every_digest_is_its_files_sha256(self, tmp_path):
        pipeline(tmp_path, schedule_args=("--budget-k", "12", "--budget-v", "12"))
        model = json.loads((tmp_path / "model/model.json").read_text())
        profile = json.loads((tmp_path / "profile.json").read_text())
        converted = json.loads((tmp_path / "converted/converted.json").read_text())
        pinned = {}
        for record in profile["grams"]:
            layer = record["layer"]
            files = {"grams": tmp_path / record["grams"],
                     "cov": tmp_path / f"cov/layer{layer:03d}_cov.ctf",
                     **{name: tmp_path / "model" / model["layers"][layer][name]
                        for name in ("w_k_g", "w_v_g")}}
            pinned.update({(f"profile {layer}", key): (record.pop(key), files[key[:-12]])
                           for key in [key for key in record if key.endswith("_file_sha256")]})
        for layer, entry in enumerate(converted["layers"]):
            files = {"grams": tmp_path / "converted" / entry["grams"],
                     "cov": tmp_path / f"cov/layer{layer:03d}_cov.ctf",
                     **{name: tmp_path / "model" / model["layers"][layer][name]
                        for name in ("w_k_g", "w_v_g")}}
            pinned.update({(f"converted {layer}", key): (entry.pop(key), files[key[:-12]])
                           for key in [key for key in entry if key.endswith("_file_sha256")]})
        assert len(pinned) == 2 * 4 + 2 * 4
        for where, (digest, path) in pinned.items():
            assert digest == file_sha256(path), where
        # No other digest is left in either document.
        assert "sha256" not in json.dumps([profile, converted])

    def test_converted_layer_keeps_the_profiles_record(self, tmp_path):
        # A converted layer's record is the profile's, naming the bundle's
        # copy of the Grams, and a refused pin names the converted manifest.
        pipeline(tmp_path)
        _, _, records = manifest.load_profile(tmp_path / "profile.json")
        converted = manifest.load_manifest(tmp_path / "converted/converted.json")
        for layer, record in records.items():
            source = converted.layer(layer).source
            assert source == record.as_converted(f"grams/layer{layer:03d}_grams.ctf")
            assert (source.sha256, source.inputs) == (record.sha256, record.inputs)
            assert {pin.document for pin in source.pins().values()} == {"converted manifest"}
            assert {pin.document for pin in record.pins().values()} == {"profile"}

    def test_tampered_grams_name_tensor_and_document(self, tmp_path, capsys):
        pipeline(tmp_path)
        grams = tmp_path / "profile_grams/layer001_grams.ctf"
        ctf.write_ctf(grams, 2.0 * ctf.read_ctf(grams))
        capsys.readouterr()
        assert run("convert", "--manifest", tmp_path / "model/model.json",
                   "--cov-dir", tmp_path / "cov", "--profile", tmp_path / "profile.json",
                   "--out", tmp_path / "again") == 2
        assert capsys.readouterr().err == (
            "error: layer 1 Grams (profile_grams/layer001_grams.ctf): file sha256 does "
            "not match the profile's record; re-run schedule\n")


# Each command's arguments, with its --out (a file or a directory) last.
OUT_COMMANDS = {
    "gen": lambda root: ["gen", "--seed", 1],
    "cov": lambda root: ["cov", "--manifest", root / "model/model.json"],
    "schedule": lambda root: ["schedule", "--manifest", root / "model/model.json",
                              "--cov-dir", root / "cov", "--parity"],
    "convert": lambda root: ["convert", "--manifest", root / "model/model.json",
                             "--cov-dir", root / "cov", "--profile", root / "profile.json"],
    "eval": lambda root: ["eval", "--source", root / "model/model.json",
                          "--converted", root / "converted/converted.json"],
    "kv-report": lambda root: ["kv-report", "--layers", 2, "--seq-len", 8, "--widths", "8,8"],
}


@pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
def test_missing_parent_of_out_is_created(tmp_path, command):
    root = pipeline(tmp_path / "p")
    out = tmp_path / "missing/parent/out"
    assert run(*OUT_COMMANDS[command](root), "--out", out) == 0
    assert out.exists()


@pytest.fixture(scope="module")
def huge_seq_len(tmp_path_factory) -> Path:
    """A converted pipeline whose model also has a copy of its manifest,
    `model/huge.json`, with seq_len 10**20."""
    root = pipeline(tmp_path_factory.mktemp("huge"))
    doc = json.loads((root / "model/model.json").read_text())
    doc["seq_len"] = 10**20
    (root / "model/huge.json").write_text(json.dumps(doc))
    return root


# A command of OUT_COMMANDS and the flags that override its arguments there
# (the last of a repeated flag wins), none of which float64 can carry: each
# figure they set overflows float range, or an array they shape is larger
# than the address space.
OUT_OF_RANGE = {
    "gen_seq_len": ("gen", lambda root: ["--seq-len", 10**18]),
    "gen_model_width": ("gen", lambda root: ["--d-model", 2**40, "--n-heads", 2**40,
                                             "--head-dim", 1]),
    "kv_report_layers": ("kv-report", lambda root: ["--layers", 10**320]),
    "eval_tau_1e155": ("eval", lambda root: ["--tau", "1e155"]),
    "eval_tau_1e300": ("eval", lambda root: ["--tau", "1e300"]),
    "eval_bytes_per_elem": ("eval", lambda root: ["--bytes-per-elem", 10**320]),
    # Within float range, but not its product with seq_len and the widths.
    "eval_footprint": ("eval", lambda root: ["--bytes-per-elem", 10**306]),
    "eval_rope_dim": ("eval", lambda root: ["--rope-dim", 10**320]),
    "eval_manifest_seq_len": ("eval", lambda root: ["--source", root / "model/huge.json"]),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_out_of_range_flags_exit_2_with_no_output(huge_seq_len, tmp_path, capsys, monkeypatch,
                                                  case):
    command, flags = OUT_OF_RANGE[case]
    before = tree_bytes(huge_seq_len)
    out = tmp_path / "out"
    reads = recording(monkeypatch, manifest, "load_grouped_kv")
    capsys.readouterr()
    assert run(*OUT_COMMANDS[command](huge_seq_len), *flags(huge_seq_len), "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()
    assert tree_bytes(huge_seq_len) == before
    if command == "eval":
        # eval checks every flag before it reads a layer.
        assert reads == []


class TestPipelineDeterminism:
    def test_full_pipeline_twice_is_byte_identical(self, tmp_path):
        a = pipeline(tmp_path / "a", seed=11)
        b = pipeline(tmp_path / "b", seed=11)
        assert tree_bytes(a) == tree_bytes(b)
