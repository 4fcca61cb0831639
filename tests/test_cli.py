import errno
import filecmp
import json
import os
import shutil
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import covariance_of, identity_whitener
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
    """A copy of `profile` without its spectrum records."""
    doc = json.loads(profile.read_text())
    del doc["spectra"]
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


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("command", [
    ["gen"],
    ["eval", "--source", "missing.json", "--converted", "missing.json"],
    ["ablate", "--manifest", "missing.json", "--layer", 0, "--kind", "K", "--index", 1],
], ids=["gen", "eval", "ablate"])
def test_seed_outside_64_bits_exits_2_before_any_io(tmp_path, capsys, command, seed):
    # Seeds outside [0, 2**64 - 1] would alias one inside it. The manifests
    # named do not exist, so a refusal that came after reading one would
    # exit 4.
    capsys.readouterr()
    assert run(*command, "--seed", seed, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seed must be an integer in [0, 2**64 - 1]")
    assert not (tmp_path / "out").exists()


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


class TestCov:
    def test_matches_api_finalize(self, tmp_path):
        model = gen_model(tmp_path / "m")
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0
        m = manifest.load_manifest(model)
        for layer in range(2):
            batches = manifest.load_batches(m, model.parent, layer)
            acc = calibration.CovarianceAccumulator(16)
            for b in batches:
                acc = calibration.accumulate(acc, b)
            expected = calibration.finalize(acc)
            stored = ctf.read_ctf(tmp_path / "cov" / f"layer{layer:03d}_cov.ctf")
            assert np.array_equal(stored, expected)
            assert np.max(np.abs(stored - stored.T)) <= 1e-10

    @staticmethod
    def assert_matches_fold(model: Path, cov_dir: Path, batches_dir=None):
        m = manifest.load_manifest(model)
        for layer in range(len(m.layers)):
            batches = manifest.load_batches(m, model.parent, layer, batches_dir)
            stored = ctf.read_ctf(cov_dir / f"layer{layer:03d}_cov.ctf")
            assert np.array_equal(stored, covariance_of(batches))

    @pytest.mark.parametrize("seq, batches", [(1, 3), (7, 3), (200, 3), (7, 1)])
    def test_running_sum_matches_fold(self, tmp_path, seq, batches):
        model = gen_model(tmp_path / "m", d=64, heads=4, head_dim=16,
                          seq=seq, batches=batches)
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0
        self.assert_matches_fold(model, tmp_path / "cov")

    def test_running_sum_matches_fold_over_uneven_batches(self, tmp_path):
        model = gen_model(tmp_path / "m", d=64, heads=4, head_dim=16, seq=7, batches=4)
        rng = make_generator(17)
        for layer, paths in manifest.load_manifest(model).calibration.items():
            for rel, tokens in zip(paths, (1, 200, 7, 64)):
                x = rng.standard_normal((tokens, 64)) * np.geomspace(3.0, 0.1, 64)
                ctf.write_ctf(model.parent / rel, x)
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0
        self.assert_matches_fold(model, tmp_path / "cov")

    def test_running_sum_matches_fold_from_batches_dir(self, tmp_path):
        model = gen_model(tmp_path / "m", d=64, heads=4, head_dim=16, seq=7, batches=3)
        (model.parent / "batches").rename(tmp_path / "batches")
        assert run("cov", "--manifest", model, "--batches-dir", tmp_path,
                   "--out", tmp_path / "cov") == 0
        self.assert_matches_fold(model, tmp_path / "cov", batches_dir=tmp_path)

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
        # 4 tokens in 16 dims with weighting C and a tiny lambda: every
        # convert of such spectra would exit 3, so schedule stores none.
        model = gen_model(tmp_path / "m", seed=3, seq=2, batches=2)
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0
        assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--parity", "--out", tmp_path / "p.json") == 0
        tiny = with_shrinkage(model, "tiny.json", ("--weighting", "C", "--lambda", "1e-300"))
        before = tree_bytes(tmp_path)
        assert "p.json" in before and "p_spectra/layer000_eigenvalues.ctf" in before
        capsys.readouterr()
        assert run("schedule", "--manifest", tiny, "--cov-dir", tmp_path / "cov",
                   "--parity", "--out", tmp_path / "p.json") == 3
        captured = capsys.readouterr()
        assert captured.err == "error: singular whitener: apply shrinkage before factorizing\n"
        assert captured.out == ""
        assert tree_bytes(tmp_path) == before
        assert not (tmp_path / "p_spectra.partial").exists()

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
        assert sorted(trees[0]) == ["p.json"] + sorted(
            f"p_spectra/layer{layer:03d}_{name}.ctf"
            for layer in range(2) for name in manifest.STORED_TENSORS
        )

    def test_infeasible_budget(self, tmp_path):
        model = gen_model(tmp_path / "m")
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0
        assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--budget-k", 3, "--budget-v", 3, "--min-rank", 2,
                   "--out", tmp_path / "p.json") == 2

    def test_spectrum_svd_failure_is_numerical_error(self, tmp_path, monkeypatch, capsys):
        model = gen_model(tmp_path / "m")
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--parity", "--out", tmp_path / "p.json") == 3
        assert "SVD failed" in capsys.readouterr().err
        assert not (tmp_path / "p.json").exists()

    def test_non_psd_covariance_writes_nothing(self, tmp_path, capsys):
        # Layer 0's spectra are staged before layer 1 is refused; the
        # refusal leaves no profile and no stored spectra.
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

    def test_one_eigendecomposition_per_layer(self, tmp_path, monkeypatch):
        model = gen_model(tmp_path / "m", layers=3)
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0
        calls = []
        real = linalg.sym_eig

        def counting(s):
            calls.append(s.shape)
            return real(s)

        monkeypatch.setattr(linalg, "sym_eig", counting)
        assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--budget-k", 12, "--budget-v", 12, "--out", tmp_path / "p.json") == 0
        assert calls == [(16, 16)] * 3

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

    @pytest.mark.parametrize("path", ["reused", "recomputed"])
    def test_singular_whitener_exits_3_on_either_path(self, tmp_path, capsys, path):
        # 4 tokens in 16 dims: C has 12 zero eigenvalues, and with weighting
        # C a tiny lambda leaves them all but unshrunk.
        model = gen_model(tmp_path / "m", seq=2, batches=2)
        shrinkage = ("--weighting", "C", "--lambda", "1e-300")
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0
        assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--parity", "--out", tmp_path / "p.json") == 0
        if path == "reused":
            # schedule refuses this setting, so the records are made to claim
            # it: convert must still refuse what it would reuse.
            model = with_shrinkage(model, "tiny.json", shrinkage)
            doc = json.loads((tmp_path / "p.json").read_text())
            for record in doc["spectra"]:
                record.update(weighting="C", **{"lambda": 1e-300})
            (tmp_path / "p.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("convert", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--profile", tmp_path / "p.json",
                   *(shrinkage if path == "recomputed" else ()), "--out", tmp_path / "c") == 3
        captured = capsys.readouterr()
        assert f"layer 0: spectra {path}" in captured.out
        assert captured.err == "error: singular whitener: apply shrinkage before factorizing\n"
        assert tree_bytes(tmp_path / "c") == {}

    def test_weighting_modes_produce_different_factors(self, tmp_path):
        model = gen_model(tmp_path / "m")
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0
        assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--mode", "uniform", "--rank", 4, "--out", tmp_path / "p.json") == 0
        for weighting, out in (("sqrtC", "c1"), ("C", "c2")):
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
        residuals = {}
        for alpha, out in ((1e-4, "almost_zero"), (1e-2, "default")):
            assert run("convert", "--manifest", model, "--cov-dir", tmp_path / "cov",
                       "--profile", tmp_path / "p.json", "--alpha", alpha,
                       "--out", tmp_path / out) == 0
            report = json.loads((tmp_path / out / "conversion_report.json").read_text())
            residuals[out] = [
                layer[kind]["whitened_residual_sq"]
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

    def test_one_eigendecomposition_per_layer(self, tmp_path, monkeypatch):
        # After schedule, convert truncates the stored spectra: no
        # eigendecomposition, QR or SVD. A shrinkage override or a profile
        # without spectrum records decomposes each covariance once.
        model = gen_model(tmp_path / "m", layers=3)
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0
        assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--budget-k", 12, "--budget-v", 12, "--out", tmp_path / "p.json") == 0
        without_records(tmp_path / "p.json", tmp_path / "old.json")
        calls = counting(monkeypatch, "sym_eig", "qr_r", "svd")
        recomputed = [("sym_eig", (16, 16))] + [("qr_r", (16, 8)), ("svd", (8, 8))] * 2
        for weighting, profile, expected in (
            ("sqrtC", "p.json", []),
            ("C", "p.json", recomputed * 3),
            ("sqrtC", "old.json", recomputed * 3),
            ("C", "old.json", recomputed * 3),
        ):
            calls.clear()
            assert run("convert", "--manifest", model, "--cov-dir", tmp_path / "cov",
                       "--profile", tmp_path / profile, "--weighting", weighting,
                       "--out", tmp_path / weighting / profile) == 0
            assert calls == expected

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
            s = calibration.build_whitener(cov, m.shrinkage).matrix
            gqa = manifest.load_gqa_layer(m, model.parent, layer)
            for kind, w_g in (("k", gqa.w_k_g), ("v", gqa.w_v_g)):
                w = factorizer.replicate_groups(w_g, gqa)
                entry = layer_report[kind]
                expected = 1.0 - entry["whitened_residual_sq"] / linalg.frobenius_norm_sq(s @ w)
                assert abs(entry["retained_energy"] - expected) <= 1e-9
                assert entry["retained_energy"] < 1.0

    def test_qr_failure_is_numerical_error(self, tmp_path, monkeypatch, capsys):
        # Without spectrum records convert runs its own QR.
        model = gen_model(tmp_path / "m")
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0
        assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--parity", "--out", tmp_path / "p.json") == 0
        without_records(tmp_path / "p.json", tmp_path / "old.json")

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("QR did not converge")

        monkeypatch.setattr(np.linalg, "qr", fail)
        capsys.readouterr()
        assert run("convert", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--profile", tmp_path / "old.json", "--out", tmp_path / "c") == 3
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "c" / "converted.json").exists()

    def test_no_dense_whitener_is_formed(self, tmp_path, monkeypatch):
        model = gen_model(tmp_path / "m")
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0

        def refuse(self):
            raise AssertionError("Whitener.matrix formed")

        monkeypatch.setattr(calibration.Whitener, "matrix", property(refuse))
        assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--budget-k", 12, "--budget-v", 12, "--out", tmp_path / "p.json") == 0
        assert run("convert", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--profile", tmp_path / "p.json", "--out", tmp_path / "c") == 0

    def test_svd_height_is_grouped_width(self, tmp_path, monkeypatch):
        # d_model 16, n_groups * head_dim = 8: no SVD sees all 16 rows, in
        # schedule or in a convert that recomputes its spectra.
        model = gen_model(tmp_path / "m")
        assert run("cov", "--manifest", model, "--out", tmp_path / "cov") == 0
        calls = counting(monkeypatch, "svd")
        assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--budget-k", 12, "--budget-v", 12, "--out", tmp_path / "p.json") == 0
        without_records(tmp_path / "p.json", tmp_path / "old.json")
        assert run("convert", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--profile", tmp_path / "old.json", "--out", tmp_path / "c") == 0
        assert calls == [("svd", (8, 8))] * 8

    def test_report_carries_whitener_health(self, tmp_path):
        pipeline(tmp_path)
        report = json.loads((tmp_path / "converted/conversion_report.json").read_text())
        model = manifest.load_manifest(tmp_path / "model/model.json")
        for layer_report in report["layers"]:
            cov = ctf.read_ctf(tmp_path / "cov" / f"layer{layer_report['layer']:03d}_cov.ctf")
            eigs = np.linalg.eigvalsh(calibration.whitening_operator(cov, model.shrinkage))
            health = layer_report["whitener"]
            assert sorted(health) == [
                "clamped", "condition", "lambda_max", "lambda_min", "lambda_resolved"
            ]
            assert health["lambda_min"] == pytest.approx(eigs[0], rel=1e-12)
            assert health["lambda_max"] == pytest.approx(eigs[-1], rel=1e-12)
            assert health["condition"] == pytest.approx(eigs[-1] / eigs[0], rel=1e-12)
            assert health["clamped"] == 0
            assert health["lambda_resolved"] == layer_report["lambda_resolved"]
            resolved = np.trace(linalg.sqrt_psd(cov)) / cov.shape[0]  # "auto"
            assert layer_report["lambda_resolved"] == pytest.approx(resolved, rel=1e-12)


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

    def test_bundle_links_w_q_and_covariance(self, tmp_path):
        pipeline(tmp_path)
        for layer in range(2):
            for source, placed in (
                (f"model/weights/layer00{layer}_w_q.ctf", f"weights/layer00{layer}_w_q.ctf"),
                (f"cov/layer00{layer}_cov.ctf", f"cov/layer00{layer}_cov.ctf"),
            ):
                assert os.path.samefile(tmp_path / source, tmp_path / "converted" / placed)
        before = tree_bytes(tmp_path / "converted")
        # gen replaces its files, so the bundle's links keep the old bytes.
        gen_model(tmp_path / "model", seed=7)
        assert run("cov", "--manifest", tmp_path / "model/model.json",
                   "--out", tmp_path / "cov") == 0
        assert tree_bytes(tmp_path / "converted") == before

    def test_copies_where_linking_fails(self, tmp_path, monkeypatch):
        linked = pipeline(tmp_path / "linked")

        def cross_device(src, dst):
            raise OSError(errno.EXDEV, "Invalid cross-device link")

        monkeypatch.setattr(os, "link", cross_device)
        copied = pipeline(tmp_path / "copied")
        assert tree_bytes(copied) == tree_bytes(linked)
        assert not os.path.samefile(copied / "cov/layer000_cov.ctf",
                                    copied / "converted/cov/layer000_cov.ctf")


def convert_tree(tmp_path: Path, model: Path, cov_dir: Path, profile: Path, out: str,
                 *args) -> dict[str, bytes]:
    assert run("convert", "--manifest", model, "--cov-dir", cov_dir, "--profile", profile,
               *args, "--out", tmp_path / out) == 0
    return tree_bytes(tmp_path / out)


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


class TestEigenReuse:
    """convert truncates the eigenvalues and whitened spectra that schedule
    stored next to the profile, when the covariance, the grouped weights
    and the shrinkage are the ones schedule used."""

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

    def spectra_lines(self, tmp_path, model, capsys, profile="p.json", *args) -> list[str]:
        capsys.readouterr()
        assert run("convert", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--profile", tmp_path / profile, *args, "--out", tmp_path / "c") == 0
        return [line for line in capsys.readouterr().out.splitlines() if ": spectra " in line]

    def test_records_name_the_files_schedule_wrote(self, tmp_path, scheduled):
        _, _, records = manifest.load_profile(tmp_path / "p.json")
        assert sorted(records) == [0, 1, 2]
        m = manifest.load_manifest(scheduled)
        for layer, record in records.items():
            cov = ctf.read_ctf(tmp_path / "cov" / f"layer{layer:03d}_cov.ctf")
            gqa = manifest.load_gqa_layer(m, scheduled.parent, layer)
            eig = linalg.sym_eig(cov)
            whitener = calibration.whitener_from_eig(eig, m.shrinkage)
            assert record.cov_sha256 == manifest.array_digest(cov)
            assert record.w_sha256 == {"K": manifest.array_digest(gqa.w_k_g),
                                       "V": manifest.array_digest(gqa.w_v_g)}
            assert record.shrinkage == calibration.ShrinkageParams(0.01, "auto", "sqrtC")
            assert {name: stored.path for name, stored in record.files.items()} == {
                name: f"p_spectra/layer{layer:03d}_{name}.ctf" for name in manifest.STORED_TENSORS
            }
            eigenvalues, spectra = manifest.load_spectra(record, tmp_path, gqa)
            assert eigenvalues.tobytes() == eig.eigenvalues.tobytes()
            for w_g, stored in zip((gqa.w_k_g, gqa.w_v_g), spectra):
                expected = factorizer.whitened_svd(w_g, whitener)
                assert stored.singular_values.tobytes() == expected.singular_values.tobytes()
                assert stored.v_t.tobytes() == expected.v_t.tobytes()

    @pytest.mark.parametrize("args", [
        (), ("--weighting", "C"), ("--alpha", "0.2", "--lambda", "2.5"), ("--lambda", "auto"),
    ])
    def test_reuse_matches_a_miss_byte_for_byte(self, tmp_path, scheduled, args, monkeypatch):
        # The model's own shrinkage is the one the flags ask for, so the
        # flags match what schedule used and convert reuses its spectra.
        model = with_shrinkage(scheduled, "flags.json", args)
        assert run("schedule", "--manifest", model, "--cov-dir", tmp_path / "cov",
                   "--budget-k", 12, "--budget-v", 12, "--out", tmp_path / "q.json") == 0
        old = without_records(tmp_path / "q.json", tmp_path / "old.json")
        calls = counting(monkeypatch, "sym_eig", "qr_r", "svd")
        reused = convert_tree(tmp_path, model, tmp_path / "cov", tmp_path / "q.json",
                              "reused", *args)
        assert calls == []
        missed = convert_tree(tmp_path, model, tmp_path / "cov", old, "missed", *args)
        assert [name for name, _ in calls] == ["sym_eig", "qr_r", "svd", "qr_r", "svd"] * 3
        assert reused == missed

    def test_changed_covariance_is_decomposed_alone(self, tmp_path, scheduled, monkeypatch):
        shutil.copytree(tmp_path / "cov", tmp_path / "cov2")
        cov = ctf.read_ctf(tmp_path / "cov2/layer001_cov.ctf")
        ctf.write_ctf(tmp_path / "cov2/layer001_cov.ctf", 2.0 * cov)
        old = without_records(tmp_path / "p.json", tmp_path / "old.json")
        calls = counting(monkeypatch, "sym_eig")
        changed = convert_tree(tmp_path, scheduled, tmp_path / "cov2", tmp_path / "p.json",
                               "changed")
        assert calls == [("sym_eig", (16, 16))]
        assert changed == convert_tree(tmp_path, scheduled, tmp_path / "cov2", old, "missed")

    @pytest.mark.parametrize("kind", ["w_k_g", "w_v_g"])
    def test_changed_weight_is_recomputed_alone(self, tmp_path, scheduled, monkeypatch, kind):
        doc = json.loads(scheduled.read_text())
        w = ctf.read_ctf(scheduled.parent / doc["layers"][2][kind])
        ctf.write_ctf(scheduled.parent / "weights/changed.ctf", 2.0 * w)
        doc["layers"][2][kind] = "weights/changed.ctf"
        model = scheduled.with_name("changed.json")
        model.write_text(json.dumps(doc))
        old = without_records(tmp_path / "p.json", tmp_path / "old.json")
        calls = counting(monkeypatch, "sym_eig")
        changed = convert_tree(tmp_path, model, tmp_path / "cov", tmp_path / "p.json", "changed")
        assert calls == [("sym_eig", (16, 16))]
        assert changed == convert_tree(tmp_path, model, tmp_path / "cov", old, "missed")

    def test_reports_why_spectra_were_recomputed(self, tmp_path, scheduled, capsys):
        # The reasons go to stdout only; the artifacts do not depend on them.
        assert self.spectra_lines(tmp_path, scheduled, capsys) == [
            f"layer {layer}: spectra reused" for layer in range(3)
        ]
        for args, reason in ((("--alpha", "0.2"), "parameter override"),
                             (("--weighting", "C"), "parameter override"),
                             (("--lambda", "1.5"), "parameter override")):
            lines = self.spectra_lines(tmp_path, scheduled, capsys, "p.json", *args)
            assert lines == [f"layer {layer}: spectra recomputed ({reason})" for layer in range(3)]
        without_records(tmp_path / "p.json", tmp_path / "old.json")
        assert self.spectra_lines(tmp_path, scheduled, capsys, "old.json")[0] == (
            "layer 0: spectra recomputed (no record)")
        cov = ctf.read_ctf(tmp_path / "cov/layer000_cov.ctf")
        ctf.write_ctf(tmp_path / "cov/layer000_cov.ctf", 2.0 * cov)
        doc = json.loads(scheduled.read_text())
        doc["layers"][1]["w_k_g"] = doc["layers"][0]["w_k_g"]
        scheduled.with_name("swapped.json").write_text(json.dumps(doc))
        assert self.spectra_lines(tmp_path, scheduled.with_name("swapped.json"), capsys) == [
            "layer 0: spectra recomputed (covariance changed)",
            "layer 1: spectra recomputed (weight changed)",
            "layer 2: spectra reused",
        ]

    def test_old_eigen_profile_takes_the_full_path(self, tmp_path, scheduled, capsys):
        doc = json.loads((tmp_path / "p.json").read_text())
        doc["eigen"] = [
            {"layer": r["layer"], "cov_sha256": r["cov_sha256"],
             "eigenvalues": f"p_eig/layer{r['layer']:03d}_eigenvalues.ctf",
             "eigenvectors": f"p_eig/layer{r['layer']:03d}_eigenvectors.ctf"}
            for r in doc.pop("spectra")
        ]
        (tmp_path / "eigen.json").write_text(json.dumps(doc))
        assert manifest.load_profile(tmp_path / "eigen.json")[2] == {}
        assert self.spectra_lines(tmp_path, scheduled, capsys, "eigen.json") == [
            f"layer {layer}: spectra recomputed (no record)" for layer in range(3)
        ]
        assert tree_bytes(tmp_path / "c") == convert_tree(
            tmp_path, scheduled, tmp_path / "cov", tmp_path / "p.json", "reused")

    def test_swapped_eigenvectors_exit_2(self, tmp_path, scheduled, capsys):
        # The rows of a stored V^T are the eigenvectors of W^T S^2 W; two of
        # them swapped no longer match the file's recorded sha256.
        path = tmp_path / "p_spectra/layer001_v_t_k.ctf"
        v_t = ctf.read_ctf(path)
        ctf.write_ctf(path, v_t[[1, 0, *range(2, 8)]])
        code, err = self.convert_code(tmp_path, scheduled, capsys)
        assert code == 2
        assert err.startswith("error:") and "sha256 does not match" in err

    @pytest.mark.parametrize("name", ["sigma_k", "v_t_k", "sigma_v", "v_t_v"])
    def test_tampered_spectrum_file_exits_2(self, tmp_path, scheduled, capsys, name):
        path = tmp_path / f"p_spectra/layer002_{name}.ctf"
        ctf.write_ctf(path, ctf.read_ctf(path) * (1.0 + 1e-15))
        code, err = self.convert_code(tmp_path, scheduled, capsys)
        assert code == 2
        assert err.startswith("error:") and f"layer 2 {name}" in err

    def test_truncated_eigen_file_exits_2(self, tmp_path, scheduled, capsys):
        path = tmp_path / "p_spectra/layer002_eigenvalues.ctf"
        path.write_bytes(path.read_bytes()[:-8])
        code, err = self.convert_code(tmp_path, scheduled, capsys)
        assert code == 2 and err.startswith("error:")

    def test_missing_eigen_file_exits_4(self, tmp_path, scheduled, capsys):
        (tmp_path / "p_spectra/layer000_eigenvalues.ctf").unlink()
        code, err = self.convert_code(tmp_path, scheduled, capsys)
        assert code == 4 and err.startswith("error:")

    @pytest.mark.parametrize("name", ["sigma_k", "v_t_k", "sigma_v", "v_t_v"])
    def test_missing_spectrum_file_exits_4(self, tmp_path, scheduled, capsys, name):
        (tmp_path / f"p_spectra/layer001_{name}.ctf").unlink()
        code, err = self.convert_code(tmp_path, scheduled, capsys)
        assert code == 4 and err.startswith("error:")

    @pytest.mark.parametrize("path", ["../p_eig/layer000_eigenvalues.ctf", "/etc/x.ctf",
                                      "p_eig/../../x.ctf"])
    def test_escaping_record_path_exits_2(self, tmp_path, scheduled, capsys, path):
        for name in manifest.STORED_TENSORS:
            doc = json.loads((tmp_path / "p.json").read_text())
            doc["spectra"][0][name] = path
            (tmp_path / "bad.json").write_text(json.dumps(doc))
            code, err = self.convert_code(tmp_path, scheduled, capsys, "bad.json")
            assert code == 2 and "inside the manifest directory" in err, name

    @pytest.mark.parametrize("records", [
        lambda r: r[:2], lambda r: r + r[:1], lambda r: [], lambda r: "x", lambda r: None,
    ], ids=["two_of_three", "repeated", "empty", "string", "null"])
    def test_records_must_cover_every_layer(self, tmp_path, scheduled, capsys, records):
        doc = json.loads((tmp_path / "p.json").read_text())
        doc["spectra"] = records(doc["spectra"])
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        code, err = self.convert_code(tmp_path, scheduled, capsys, "bad.json")
        assert code == 2 and err.startswith("error:")


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
            (tmp_path / "converted/weights/layer000_w_q.ctf").read_bytes())
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
            factors, _ = manifest.load_mla_bundle(
                converted, tmp_path / "converted", layer["layer"])
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
        ("no cov key", 2, "layer 1 records no covariance or source digests; re-run convert"),
        ("tampered", 2, "layer 1 covariance (cov/layer001_cov.ctf): sha256 does not match"),
        ("wrong shape", 2, "layer 1 covariance (cov/layer001_cov.ctf): shape (8, 8)"),
        ("no file", 4, "layer001_cov.ctf"),
    ])
    def test_bundle_covariance_fault_leaves_no_report(self, tmp_path, capsys, fault, code,
                                                      message):
        pipeline(tmp_path)
        converted = tmp_path / "converted/converted.json"
        cov = tmp_path / "converted/cov/layer001_cov.ctf"
        if fault == "no cov key":
            doc = json.loads(converted.read_text())
            del doc["layers"][1]["cov"]
            converted.write_text(json.dumps(doc))
        elif fault == "tampered":
            ctf.write_ctf(cov, ctf.read_ctf(cov) * (1.0 + 1e-15))
        elif fault == "wrong shape":
            ctf.write_ctf(cov, np.eye(8))
        else:
            cov.unlink()
        capsys.readouterr()
        assert run("eval", "--source", tmp_path / "model/model.json", "--converted", converted,
                   "--out", tmp_path / "fresh") == code
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err, err
        assert not (tmp_path / "fresh/eval_report.json").exists()

    def test_student_takes_the_query_from_the_source(self, tmp_path):
        # The bundle's w_q is never read: the source's, checked against the
        # digest the bundle records, is the query of both forwards.
        pipeline(tmp_path)
        bundle = tmp_path / "converted/weights/layer000_w_q.ctf"
        ctf.write_ctf(bundle, 3.0 * ctf.read_ctf(bundle))
        source = tmp_path / "model/weights/layer000_w_q.ctf"
        assert np.array_equal(ctf.read_ctf(bundle), 3.0 * ctf.read_ctf(source))
        assert run("eval", "--source", tmp_path / "model/model.json",
                   "--converted", tmp_path / "converted/converted.json",
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
        assert err == ("error: layer 0: the source's w_q is not the one this layer was "
                       "converted from (sha256 differs)\n")
        assert tree_bytes(tmp_path / "eval") == {}

    @pytest.mark.parametrize("name, tensor", [("w_q", "w_q"), ("w_k", "w_k_g"),
                                              ("w_v", "w_v_g")])
    def test_changed_source_weight_is_refused(self, tmp_path, capsys, name, tensor):
        pipeline(tmp_path)
        path = tmp_path / f"model/weights/layer001_{tensor}.ctf"
        ctf.write_ctf(path, ctf.read_ctf(path) * 2.0)
        capsys.readouterr()
        assert run("eval", "--source", tmp_path / "model/model.json",
                   "--converted", tmp_path / "converted/converted.json",
                   "--out", tmp_path / "eval") == 2
        assert capsys.readouterr().err == (
            f"error: layer 1: the source's {name} is not the one this layer was "
            f"converted from (sha256 differs)\n")
        assert tree_bytes(tmp_path / "eval") == {}


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
        factors, w_q = manifest.load_mla_bundle(converted, root / "converted", layer)
        d, t = gqa.d_model, source.seq_len
        x = rng.standard_normal((t, d))
        targets = rng.integers(0, d, size=t)

        logits_g, _, out_g = reference_gqa(gqa, x)
        logits_m, _, out_m = reference_mla(factors, w_q, gqa, x)
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
        # 160 tokens span two 128-row query blocks of the attention core
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
        spectra = factorizer.layer_spectra(layer, identity_whitener(16))
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

    def test_reads_no_calibration_batch(self, tmp_path, monkeypatch):
        pipeline(tmp_path, schedule_args=("--mode", "uniform", "--rank", "3"))

        def refuse(*args, **kwargs):
            raise AssertionError("eval read a calibration batch")

        monkeypatch.setattr(manifest, "iter_batches", refuse)
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


class TestAblate:
    def test_residual_matches_sigma(self, tmp_path, capsys):
        model = gen_model(tmp_path / "m")
        m = manifest.load_manifest(model)
        gqa = manifest.load_gqa_layer(m, model.parent, 0)
        sigma = linalg.svd(gqa.w_k_g).singular_values
        for index in (1, len(sigma)):
            assert run("ablate", "--manifest", model, "--layer", 0, "--kind", "K",
                       "--index", index, "--out", tmp_path / f"ab{index}.json") == 0
            doc = json.loads((tmp_path / f"ab{index}.json").read_text())
            assert doc["weight_residual_sq"] == pytest.approx(sigma[index - 1] ** 2)
        worst = json.loads((tmp_path / "ab1.json").read_text())
        best = json.loads((tmp_path / f"ab{len(sigma)}.json").read_text())
        assert worst["weight_residual_sq"] > best["weight_residual_sq"]

    def test_zero_singular_value_has_zero_drift(self, tmp_path):
        model = write_engineered_model(tmp_path / "m")
        # layer 0 K weight diag(2, 1, 0.1): replace with a genuinely rank-2 one
        ctf.write_ctf(tmp_path / "m/weights/l0_w_k_g.ctf", np.diag([2.0, 1.0, 0.0]))
        assert run("ablate", "--manifest", model, "--layer", 0, "--kind", "K",
                   "--index", 3, "--out", tmp_path / "ab.json") == 0
        doc = json.loads((tmp_path / "ab.json").read_text())
        assert doc["weight_residual_sq"] <= 1e-20
        assert doc["logit_drift_max"] <= 1e-10

    @pytest.mark.parametrize("kind", ["K", "V"])
    def test_output_drift_reported(self, tmp_path, capsys, kind):
        model = gen_model(tmp_path / "m", seed=1)
        capsys.readouterr()
        assert run("ablate", "--manifest", model, "--layer", 0, "--kind", kind,
                   "--index", 1, "--out", tmp_path / "ab.json") == 0
        out = capsys.readouterr().out
        doc = json.loads((tmp_path / "ab.json").read_text())
        assert f"output drift: max={doc['output_drift_max']:.6e}" in out
        assert doc["output_drift_max"] > 0.0
        if kind == "V":
            # V never enters the logits
            assert doc["logit_drift_max"] == doc["logit_drift_frob"] == 0.0
        else:
            assert doc["logit_drift_max"] > 0.0 and doc["logit_drift_frob"] > 0.0

    def test_deterministic(self, tmp_path):
        model = gen_model(tmp_path / "m")
        for name in ("a.json", "b.json"):
            assert run("ablate", "--manifest", model, "--layer", 1, "--kind", "V",
                       "--index", 2, "--out", tmp_path / name) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_index_out_of_range(self, tmp_path):
        model = gen_model(tmp_path / "m")
        for index in (99, 0, -1):
            assert run("ablate", "--manifest", model, "--layer", 0, "--kind", "K",
                       "--index", index) == 2

    @pytest.mark.parametrize("seq_len", [-3, 0])
    def test_bad_seq_len_exits_2_before_loading(self, tmp_path, capsys, seq_len):
        # The manifest does not exist, so loading it first would exit 4.
        assert run("ablate", "--manifest", tmp_path / "missing.json", "--layer", 0,
                   "--kind", "K", "--index", 1, "--seq-len", seq_len) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--seq-len" in err

    def test_unknown_kind_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("ablate", "--manifest", tmp_path / "missing.json", "--layer", 0,
                "--kind", "Q", "--index", 1)
        assert exc.value.code == 2
        assert "argument --kind: invalid choice: 'Q'" in capsys.readouterr().err

    def test_one_svd(self, tmp_path, monkeypatch):
        model = gen_model(tmp_path / "m")
        calls = []
        svd = linalg.svd

        def counting_svd(a):
            calls.append(a.shape)
            return svd(a)

        monkeypatch.setattr(linalg, "svd", counting_svd)
        assert run("ablate", "--manifest", model, "--layer", 0, "--kind", "V",
                   "--index", 2, "--out", tmp_path / "ab.json") == 0
        assert calls == [(16, 8)]


class TestPipelineDeterminism:
    def test_full_pipeline_twice_is_byte_identical(self, tmp_path):
        a = pipeline(tmp_path / "a", seed=11)
        b = pipeline(tmp_path / "b", seed=11)
        assert tree_bytes(a) == tree_bytes(b)
