import dataclasses
import json

import numpy as np
import pytest

from conftest import gen
from kvlatent import ctf, manifest
from kvlatent.calibration import ShrinkageParams
from kvlatent.errors import ValidationError
from kvlatent.scheduler import RankProfile


def small_gqa_manifest(tmp_path, rng, d=8, n_heads=2, n_groups=1, batches=2, seq=4):
    head_dim = d // n_heads
    (tmp_path / "weights").mkdir(exist_ok=True)
    (tmp_path / "batches").mkdir(exist_ok=True)
    entry = manifest.LayerEntry(
        layer=0, d_model=d, n_heads=n_heads, head_dim=head_dim, n_groups=n_groups,
        w_q="weights/w_q.ctf", w_k_g="weights/w_k_g.ctf", w_v_g="weights/w_v_g.ctf",
    )
    ctf.write_ctf(tmp_path / entry.w_q, rng.standard_normal((d, n_heads * head_dim)))
    ctf.write_ctf(tmp_path / entry.w_k_g, rng.standard_normal((d, n_groups * head_dim)))
    ctf.write_ctf(tmp_path / entry.w_v_g, rng.standard_normal((d, n_groups * head_dim)))
    paths = []
    for b in range(batches):
        rel = f"batches/b{b}.ctf"
        ctf.write_ctf(tmp_path / rel, rng.standard_normal((seq, d)))
        paths.append(rel)
    m = manifest.ModelManifest(
        model_kind=manifest.MODEL_KIND_GQA,
        seq_len=seq,
        layers=(entry,),
        calibration={0: tuple(paths)},
        seed=1,
    )
    manifest.save_manifest(m, tmp_path / "model.json")
    return m


def small_mla_manifest(tmp_path, rng, d=8, n_heads=2, r=3):
    """One converted layer of rank r in K and V, with its tensors written."""
    names = {"w_q": (d, d), "w_a_k": (d, r), "w_b_k": (r, d), "w_a_v": (d, r), "w_b_v": (r, d),
             "cov": (d, d)}
    arrays = {name: rng.standard_normal(shape) for name, shape in names.items()}
    for name, array in arrays.items():
        ctf.write_ctf(tmp_path / f"{name}.ctf", array)
    entry = manifest.LayerEntry(
        layer=0, d_model=d, n_heads=n_heads, head_dim=d // n_heads, n_groups=1,
        w_q="w_q.ctf", r_k=r, r_v=r,
        w_a_k="w_a_k.ctf", w_b_k="w_b_k.ctf", w_a_v="w_a_v.ctf", w_b_v="w_b_v.ctf",
        cov="cov.ctf", cov_sha256=manifest.array_digest(arrays["cov"]),
        w_q_sha256=manifest.array_digest(arrays["w_q"]),
        w_k_sha256="a" * 64, w_v_sha256="b" * 64,
    )
    return manifest.ModelManifest(
        model_kind=manifest.MODEL_KIND_MLA, seq_len=4, layers=(entry,),
        shrinkage=ShrinkageParams(0.01, 0.5, "sqrtC"),
    )


class TestModelManifest:
    def test_round_trip(self, tmp_path):
        rng = gen(701)
        saved = small_gqa_manifest(tmp_path, rng)
        loaded = manifest.load_manifest(tmp_path / "model.json")
        assert loaded == saved

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else", "version": 1}))
        with pytest.raises(ValidationError, match="format"):
            manifest.load_manifest(path)

    def test_rejects_layer_count_mismatch(self, tmp_path):
        rng = gen(702)
        small_gqa_manifest(tmp_path, rng)
        doc = json.loads((tmp_path / "model.json").read_text())
        doc["layer_count"] = 5
        (tmp_path / "model.json").write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="layer_count"):
            manifest.load_manifest(tmp_path / "model.json")

    @pytest.mark.parametrize("field, value, message", [
        ("head_dim", 3, "n_heads * head_dim must equal d_model: 2 * 3 != 8"),
        ("n_groups", 3, "n_groups 3 does not divide n_heads 2"),
    ])
    def test_geometry_refusal_names_the_document(self, tmp_path, field, value, message):
        small_gqa_manifest(tmp_path, gen(713))
        path = tmp_path / "model.json"
        doc = json.loads(path.read_text())
        doc["layers"][0][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError) as exc:
            manifest.load_manifest(path)
        assert str(exc.value) == f"{path}: layer 0: {message}"

    def test_gqa_requires_grouped_weights(self, tmp_path):
        rng = gen(703)
        small_gqa_manifest(tmp_path, rng)
        doc = json.loads((tmp_path / "model.json").read_text())
        del doc["layers"][0]["w_k_g"]
        (tmp_path / "model.json").write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="grouped"):
            manifest.load_manifest(tmp_path / "model.json")

    def test_load_layer_shape_check(self, tmp_path):
        rng = gen(704)
        m = small_gqa_manifest(tmp_path, rng)
        ctf.write_ctf(tmp_path / "weights/w_q.ctf", rng.standard_normal((3, 3)))
        with pytest.raises(ValidationError, match="shape"):
            manifest.load_gqa_layer(m, tmp_path, 0)

    def test_missing_tensor_is_oserror(self, tmp_path):
        rng = gen(705)
        m = small_gqa_manifest(tmp_path, rng)
        (tmp_path / "weights/w_q.ctf").unlink()
        with pytest.raises(OSError):
            manifest.load_gqa_layer(m, tmp_path, 0)

    def test_load_batches(self, tmp_path):
        rng = gen(706)
        m = small_gqa_manifest(tmp_path, rng, batches=3)
        batches = manifest.load_batches(m, tmp_path, 0)
        assert len(batches) == 3
        assert all(b.x.shape == (4, 8) for b in batches)

    def test_load_batches_missing_layer(self, tmp_path):
        rng = gen(707)
        m = small_gqa_manifest(tmp_path, rng)
        with pytest.raises(ValidationError, match="no calibration data"):
            manifest.load_batches(m, tmp_path, 5)

    def test_mla_round_trip(self, tmp_path):
        m = small_mla_manifest(tmp_path, gen(708))
        manifest.save_manifest(m, tmp_path / "converted.json")
        loaded = manifest.load_manifest(tmp_path / "converted.json")
        assert loaded == m
        factors, w_q = manifest.load_mla_bundle(loaded, tmp_path, 0)
        assert factors.r_k == 3 and factors.r_v == 3
        assert w_q.shape == (8, 8)
        assert manifest.load_bundle_covariance(loaded, tmp_path, 0).shape == (8, 8)

    @pytest.mark.parametrize("key", ["cov", "cov_sha256", "w_q_sha256", "w_k_sha256",
                                     "w_v_sha256"])
    def test_converted_layer_must_record_its_source(self, tmp_path, key):
        manifest.save_manifest(small_mla_manifest(tmp_path, gen(712)), tmp_path / "c.json")
        doc = json.loads((tmp_path / "c.json").read_text())
        del doc["layers"][0][key]
        (tmp_path / "c.json").write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="layer 0 records no covariance or source "
                                                  "digests; re-run convert"):
            manifest.load_manifest(tmp_path / "c.json")

    @pytest.mark.parametrize("key, value", [
        ("cov_sha256", "A" * 64), ("w_k_sha256", "a" * 63), ("w_q_sha256", 7),
        ("cov", "../cov.ctf"),
    ])
    def test_converted_source_record_is_checked(self, tmp_path, key, value):
        manifest.save_manifest(small_mla_manifest(tmp_path, gen(713)), tmp_path / "c.json")
        doc = json.loads((tmp_path / "c.json").read_text())
        doc["layers"][0][key] = value
        (tmp_path / "c.json").write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=key):
            manifest.load_manifest(tmp_path / "c.json")

    def test_bundle_covariance_must_match_its_digest(self, tmp_path):
        m = small_mla_manifest(tmp_path, gen(714))
        cov = ctf.read_ctf(tmp_path / "cov.ctf")
        ctf.write_ctf(tmp_path / "cov.ctf", cov * (1.0 + 1e-15))
        with pytest.raises(ValidationError, match="sha256 does not match"):
            manifest.load_bundle_covariance(m, tmp_path, 0)

    def test_old_rope_keys_load_as_plain_converted_manifest(self, tmp_path):
        # Manifests once carried rotary adapters per layer; those keys are
        # now unknown, so they are ignored like any other.
        m = small_mla_manifest(tmp_path, gen(709))
        manifest.save_manifest(m, tmp_path / "converted.json")
        doc = json.loads((tmp_path / "converted.json").read_text())
        doc["layers"][0].update(
            rope_dim=2, rope_base=10000.0, w_r_q="w_r_q.ctf", w_r_k="w_r_k.ctf"
        )
        (tmp_path / "old.json").write_text(json.dumps(doc))
        loaded = manifest.load_manifest(tmp_path / "old.json")
        assert loaded == m
        factors, w_q = manifest.load_mla_bundle(loaded, tmp_path, 0)
        assert factors.cache_width == 6 and w_q.shape == (8, 8)
        manifest.save_manifest(loaded, tmp_path / "resaved.json")
        assert (tmp_path / "resaved.json").read_bytes() == (
            tmp_path / "converted.json").read_bytes()


class TestRankProfileFile:
    def test_round_trip(self, tmp_path):
        profile = RankProfile(
            ranks={(0, "K"): 3, (0, "V"): 2, (1, "K"): 1, (1, "V"): 4},
            budget_k=4, budget_v=6, min_rank=1,
        )
        manifest.save_profile(profile, tmp_path / "p.json", mode="adjusted")
        loaded, mode, records = manifest.load_profile(tmp_path / "p.json")
        assert mode == "adjusted"
        assert loaded.ranks == profile.ranks
        assert loaded.budget_k == 4 and loaded.budget_v == 6
        assert records == {}
        doc = json.loads((tmp_path / "p.json").read_text())
        assert "spectra" not in doc
        # An entry's full rank is its layer's grouped width, not a profile key.
        assert all(set(entry) == {"layer", "kind", "rank"} for entry in doc["entries"])

    def test_round_trip_with_eigen_records(self, tmp_path):
        # Spectrum records: each layer's eigenvalues and whitened spectra.
        profile = RankProfile(ranks={(0, "K"): 1, (0, "V"): 1, (1, "K"): 1, (1, "V"): 1},
                              budget_k=2, budget_v=2, min_rank=1)
        records = tuple(
            manifest.SpectrumRecord(
                layer=layer, cov_sha256=f"{layer:064x}",
                w_sha256={"K": "a" * 64, "V": "b" * 64},
                shrinkage=ShrinkageParams(0.25, 2.5 if layer else "auto", "C"),
                files={name: manifest.StoredTensor(f"p_spectra/l{layer}_{name}.ctf",
                                                   f"{i:064x}")
                       for i, name in enumerate(manifest.STORED_TENSORS)},
            )
            for layer in (1, 0)
        )
        manifest.save_profile(profile, tmp_path / "p.json", spectra=records)
        _, _, loaded = manifest.load_profile(tmp_path / "p.json")
        assert loaded == {r.layer: r for r in records}
        doc = json.loads((tmp_path / "p.json").read_text())
        assert [r["layer"] for r in doc["spectra"]] == [0, 1]
        assert not (tmp_path / "p.json.partial").exists()

    def test_old_eigen_key_loads_without_records(self, tmp_path):
        doc = {
            "format": manifest.PROFILE_FORMAT, "version": 1, "mode": "adjusted",
            "min_rank": 1, "budget_k": 1, "budget_v": 1,
            "entries": [{"layer": 0, "kind": kind, "rank": 1} for kind in ("K", "V")],
            "eigen": [{"layer": 0, "cov_sha256": "0" * 64, "eigenvalues": "v.ctf",
                       "eigenvectors": "q.ctf"}],
        }
        (tmp_path / "p.json").write_text(json.dumps(doc))
        _, _, records = manifest.load_profile(tmp_path / "p.json")
        assert records == {}

    @pytest.mark.parametrize("field, value, match", [
        ("cov_sha256", "ab" * 31, "hex"),
        ("cov_sha256", "AB" * 32, "hex"),
        ("cov_sha256", 7, "hex"),
        ("w_v_sha256", None, "hex"),
        ("v_t_k_sha256", "ab" * 31, "hex"),
        ("layer", 1, "repeats"),
        ("layer", 5, "repeats"),
        ("layer", True, "integer"),
        ("eigenvalues", "../vals.ctf", "inside"),
        ("v_t_k", "/vecs.ctf", "inside"),
        ("sigma_v", None, "path string"),
        ("alpha", 1.0, "alpha"),
        ("lambda", 0, "lambda"),
        ("lambda", float("inf"), "lambda"),
        ("weighting", "fisher", "weighting"),
    ])
    def test_rejects_malformed_eigen_record(self, tmp_path, field, value, match):
        records = []
        for layer in (0, 1):
            record = {"layer": layer, "cov_sha256": "0" * 64, "w_k_sha256": "1" * 64,
                      "w_v_sha256": "2" * 64, "alpha": 0.01, "lambda": "auto",
                      "weighting": "sqrtC"}
            for name in manifest.STORED_TENSORS:
                record[name] = f"{name}.ctf"
                record[f"{name}_sha256"] = "3" * 64
            records.append(record)
        records[0][field] = value
        doc = {
            "format": manifest.PROFILE_FORMAT, "version": 1, "mode": "adjusted",
            "min_rank": 1, "budget_k": 2, "budget_v": 2,
            "entries": [{"layer": layer, "kind": kind, "rank": 1}
                        for layer in (0, 1) for kind in ("K", "V")],
            "spectra": records,
        }
        (tmp_path / "p.json").write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=match):
            manifest.load_profile(tmp_path / "p.json")

    def test_rejects_rank_below_min_on_load(self, tmp_path):
        doc = {
            "format": manifest.PROFILE_FORMAT, "version": 1, "mode": "adjusted",
            "min_rank": 2, "budget_k": 2, "budget_v": 2,
            "entries": [
                {"layer": 0, "kind": "K", "rank": 1, "full_rank": 4},
                {"layer": 0, "kind": "V", "rank": 2, "full_rank": 4},
            ],
        }
        (tmp_path / "p.json").write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="below min_rank"):
            manifest.load_profile(tmp_path / "p.json")

    def test_old_full_rank_key_is_ignored(self, tmp_path):
        # Earlier versions wrote each entry's full rank; convert checks the
        # rank against the layer's grouped width instead.
        doc = {
            "format": manifest.PROFILE_FORMAT, "version": 1, "mode": "adjusted",
            "min_rank": 1, "budget_k": 9, "budget_v": 1,
            "entries": [
                {"layer": 0, "kind": "K", "rank": 9, "full_rank": 4},
                {"layer": 0, "kind": "V", "rank": 1, "full_rank": "x"},
            ],
        }
        (tmp_path / "p.json").write_text(json.dumps(doc))
        profile, _, _ = manifest.load_profile(tmp_path / "p.json")
        assert profile.ranks == {(0, "K"): 9, (0, "V"): 1}

    def test_rejects_duplicate_entries(self, tmp_path):
        doc = {
            "format": manifest.PROFILE_FORMAT, "version": 1, "mode": "adjusted",
            "min_rank": 1, "budget_k": 4, "budget_v": 0,
            "entries": [
                {"layer": 0, "kind": "K", "rank": 2, "full_rank": 4},
                {"layer": 0, "kind": "K", "rank": 2, "full_rank": 4},
            ],
        }
        (tmp_path / "p.json").write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="duplicate"):
            manifest.load_profile(tmp_path / "p.json")


class TestShrinkageKeys:
    """ShrinkageParams holds the only defaults and checks of the whitening
    setting: a model manifest may leave out alpha and lambda, but not
    weighting, and a spectrum record must carry all three."""

    @pytest.mark.parametrize("missing", [("alpha",), ("lambda",), ("alpha", "lambda")])
    def test_model_manifest_takes_defaults_for_alpha_and_lambda(self, tmp_path, missing):
        m = dataclasses.replace(small_mla_manifest(tmp_path, gen(711)),
                                shrinkage=ShrinkageParams(0.25, 0.5, "C"))
        manifest.save_manifest(m, tmp_path / "c.json")
        doc = json.loads((tmp_path / "c.json").read_text())
        for key in missing:
            del doc[key]
        (tmp_path / "c.json").write_text(json.dumps(doc))
        default = ShrinkageParams()
        assert manifest.load_manifest(tmp_path / "c.json").shrinkage == ShrinkageParams(
            default.alpha if "alpha" in missing else 0.25,
            default.lam if "lambda" in missing else 0.5,
            "C",
        )

    def test_model_manifest_requires_weighting(self, tmp_path):
        small_gqa_manifest(tmp_path, gen(712))
        doc = json.loads((tmp_path / "model.json").read_text())
        del doc["weighting"]
        (tmp_path / "model.json").write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="weighting"):
            manifest.load_manifest(tmp_path / "model.json")

    @pytest.mark.parametrize("key", ["alpha", "lambda", "weighting"])
    def test_spectrum_record_requires_every_key(self, tmp_path, key):
        profile = RankProfile(ranks={(0, "K"): 1, (0, "V"): 1}, budget_k=1, budget_v=1,
                              min_rank=1)
        record = manifest.SpectrumRecord(
            layer=0, cov_sha256="0" * 64, w_sha256={"K": "1" * 64, "V": "2" * 64},
            shrinkage=ShrinkageParams(),
            files={name: manifest.StoredTensor(f"{name}.ctf", "3" * 64)
                   for name in manifest.STORED_TENSORS},
        )
        manifest.save_profile(profile, tmp_path / "p.json", spectra=(record,))
        assert manifest.load_profile(tmp_path / "p.json")[2] == {0: record}
        doc = json.loads((tmp_path / "p.json").read_text())
        del doc["spectra"][0][key]
        (tmp_path / "p.json").write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=key):
            manifest.load_profile(tmp_path / "p.json")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_json_writers_refuse_non_finite_numbers(tmp_path, value):
    for write in (manifest.write_json, manifest.write_json_last):
        with pytest.raises(ValidationError, match="report.json"):
            write(tmp_path / "report.json", {"figures": [1.0, value]})
        assert list(tmp_path.iterdir()) == []
