import dataclasses
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from conftest import gen
from kvlatent import ctf, manifest
from kvlatent.calibration import ShrinkageParams
from kvlatent.cli import main
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
    n = d // n_heads
    names = {"w_a_k": (d, r), "w_b_k": (r, d), "w_a_v": (d, r), "w_b_v": (r, d),
             "a_k": (n, r), "a_v": (n, r), "grams": (2, 2, n, n)}
    sha256 = {name: ctf.write_ctf(tmp_path / f"{name}.ctf", rng.standard_normal(shape),
                                  digest=True)
              for name, shape in names.items()}
    source = manifest.GramRecord(layer=0, path="p_grams/grams.ctf", sha256=sha256["grams"],
                                 inputs={"cov": "d" * 64, "w_k_g": "a" * 64, "w_v_g": "b" * 64},
                                 cov_trace=2.5)
    entry = manifest.LayerEntry(
        layer=0, d_model=d, n_heads=n_heads, head_dim=d // n_heads, n_groups=1, r_k=r, r_v=r,
        w_a_k="w_a_k.ctf", w_b_k="w_b_k.ctf", w_a_v="w_a_v.ctf", w_b_v="w_b_v.ctf",
        a_k="a_k.ctf", a_v="a_v.ctf", source=source.as_converted("grams.ctf"),
    )
    return manifest.ModelManifest(
        model_kind=manifest.MODEL_KIND_MLA, seq_len=4, layers=(entry,),
        shrinkage=ShrinkageParams(0.01, 0.5, "damped"),
    )


# Recorded traces that are no finite number, by name, as values for
# write_doc: json reads NaN, Infinity, -Infinity and 1e999 as floats that are
# not finite, and an integer beyond float range has no float value.
BAD_TRACES = {"nan": float("nan"), "inf": float("inf"), "-inf": -float("inf"),
              "1e999": "1e999", "true": True, "string": "1.0", "10**400": 10**400}


def write_doc(path: Path, doc) -> None:
    """Write `doc` as json.dumps does, but with the string "1e999" as the
    bare number 1e999, which no float dumps as."""
    path.write_text(json.dumps(doc).replace('"1e999"', "1e999"))


def bundle_grams(m, base_dir):
    """Layer 0's Grams, read from a bundle as eval reads them."""
    entry = m.layer(0)
    return manifest.load_grams(base_dir, entry.source, entry)


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
        factors = manifest.load_mla_bundle(loaded, tmp_path, 0)
        assert factors.r_k == 3 and factors.r_v == 3
        assert factors.a_k.shape == factors.a_v.shape == (4, 3)
        assert bundle_grams(loaded, tmp_path).shape == (2, 2, 4, 4)

    def test_converted_layer_has_no_query(self, tmp_path):
        # A bundle of an earlier version names a w_q; its path is checked,
        # but no converted layer's query is ever read.
        m = small_mla_manifest(tmp_path, gen(715))
        manifest.save_manifest(m, tmp_path / "c.json")
        doc = json.loads((tmp_path / "c.json").read_text())
        assert "w_q" not in doc["layers"][0]
        ctf.write_ctf(tmp_path / "w_q.ctf", np.eye(8))
        doc["layers"][0]["w_q"] = "w_q.ctf"
        (tmp_path / "old.json").write_text(json.dumps(doc))
        old = manifest.load_manifest(tmp_path / "old.json")
        with pytest.raises(ValidationError, match="grouped-attention"):
            manifest.load_query(old, tmp_path, 0)
        doc["layers"][0]["w_q"] = "../w_q.ctf"
        (tmp_path / "old.json").write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="w_q"):
            manifest.load_manifest(tmp_path / "old.json")

    @pytest.mark.parametrize("key", ["grams", "grams_file_sha256", "cov_file_sha256",
                                     "w_k_g_file_sha256", "w_v_g_file_sha256", "cov_trace"])
    def test_converted_layer_must_record_its_source(self, tmp_path, key):
        manifest.save_manifest(small_mla_manifest(tmp_path, gen(712)), tmp_path / "c.json")
        doc = json.loads((tmp_path / "c.json").read_text())
        del doc["layers"][0][key]
        (tmp_path / "c.json").write_text(json.dumps(doc))
        with pytest.raises(ValidationError) as exc:
            manifest.load_manifest(tmp_path / "c.json")
        assert str(exc.value) == (f"{tmp_path / 'c.json'}: layer 0 records no Grams or source "
                                  f"file digests; re-run convert (missing {key})")

    @pytest.mark.parametrize("key", ["a_k", "a_v"])
    def test_converted_layer_must_name_its_coordinates(self, tmp_path, key):
        # Bundles of earlier versions carry no coordinates A of w_a = W_g A.
        manifest.save_manifest(small_mla_manifest(tmp_path, gen(717)), tmp_path / "c.json")
        doc = json.loads((tmp_path / "c.json").read_text())
        del doc["layers"][0][key]
        (tmp_path / "c.json").write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=r"layer 0 records no coordinates of its "
                                                  r"down-projections \(a_k, a_v\); re-run convert"):
            manifest.load_manifest(tmp_path / "c.json")

    def test_digests_of_an_earlier_version_ask_for_convert(self, tmp_path):
        # Converted layers once recorded the sha256 of each array's float64
        # bytes under other keys; such a bundle is refused, not misread.
        manifest.save_manifest(small_mla_manifest(tmp_path, gen(716)), tmp_path / "c.json")
        doc = json.loads((tmp_path / "c.json").read_text())
        for old, new in (("cov_sha256", "cov_file_sha256"),
                         ("w_k_sha256", "w_k_g_file_sha256"),
                         ("w_v_sha256", "w_v_g_file_sha256")):
            doc["layers"][0][old] = doc["layers"][0].pop(new)
        (tmp_path / "c.json").write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="source file digests; re-run convert"):
            manifest.load_manifest(tmp_path / "c.json")

    @pytest.mark.parametrize("key, value", [
        ("cov_file_sha256", "A" * 64), ("w_k_g_file_sha256", "a" * 63),
        ("w_v_g_file_sha256", 7), ("grams_file_sha256", "g" * 64), ("grams", "../grams.ctf"),
        *(pytest.param("cov_trace", value, id=f"cov_trace-{name}")
          for name, value in BAD_TRACES.items()),
    ])
    def test_converted_source_record_is_checked(self, tmp_path, key, value):
        manifest.save_manifest(small_mla_manifest(tmp_path, gen(713)), tmp_path / "c.json")
        doc = json.loads((tmp_path / "c.json").read_text())
        doc["layers"][0][key] = value
        write_doc(tmp_path / "c.json", doc)
        with pytest.raises(ValidationError, match=key):
            manifest.load_manifest(tmp_path / "c.json")

    def test_earlier_query_digest_is_ignored(self, tmp_path):
        # Bundles once pinned the source's w_q too; the key is now unknown,
        # so such a bundle loads as one without it.
        m = small_mla_manifest(tmp_path, gen(721))
        manifest.save_manifest(m, tmp_path / "c.json")
        doc = json.loads((tmp_path / "c.json").read_text())
        doc["layers"][0]["w_q_file_sha256"] = "c" * 64
        (tmp_path / "old.json").write_text(json.dumps(doc))
        assert manifest.load_manifest(tmp_path / "old.json") == m

    def test_bundle_grams_must_match_their_digest(self, tmp_path):
        m = small_mla_manifest(tmp_path, gen(714))
        grams = ctf.read_ctf(tmp_path / "grams.ctf")
        ctf.write_ctf(tmp_path / "grams.ctf", grams * (1.0 + 1e-15))
        with pytest.raises(ValidationError) as exc:
            bundle_grams(m, tmp_path)
        assert str(exc.value) == ("layer 0 Grams (grams.ctf): file sha256 does not match the "
                                  "converted manifest's record; re-run convert")

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
        assert manifest.load_mla_bundle(loaded, tmp_path, 0).cache_width == 6
        manifest.save_manifest(loaded, tmp_path / "resaved.json")
        assert (tmp_path / "resaved.json").read_bytes() == (
            tmp_path / "converted.json").read_bytes()


class TestResolvedPaths:
    """A tensor or batch path must resolve inside its base directory: a
    symbolic link along it may point elsewhere inside, but not out."""

    @pytest.fixture
    def outside(self, tmp_path) -> Path:
        outside = tmp_path / "outside"
        outside.mkdir()
        ctf.write_ctf(outside / "w.ctf", np.eye(8))
        return outside

    def test_tensor_link_out_is_refused(self, tmp_path, outside):
        (tmp_path / "m").mkdir()
        m = small_gqa_manifest(tmp_path / "m", gen(717))
        (tmp_path / "m/weights/w_q.ctf").unlink()
        (tmp_path / "m/weights/w_q.ctf").symlink_to(outside / "w.ctf")
        with pytest.raises(ValidationError, match=r"layer 0 w_q \(weights/w_q.ctf\) resolves "
                                                  r"to .*outside"):
            manifest.load_query(m, tmp_path / "m", 0)

    def test_linked_directory_out_is_refused(self, tmp_path, outside):
        (tmp_path / "m").mkdir()
        m = small_gqa_manifest(tmp_path / "m", gen(718))
        shutil.rmtree(tmp_path / "m/batches")
        (tmp_path / "m/batches").symlink_to(outside, target_is_directory=True)
        with pytest.raises(ValidationError, match=r"batch batches/b0.ctf .*outside"):
            manifest.load_batches(m, tmp_path / "m", 0)

    def test_links_inside_still_load(self, tmp_path):
        (tmp_path / "m").mkdir()
        m = small_gqa_manifest(tmp_path / "m", gen(719))
        expected = manifest.load_query(m, tmp_path / "m", 0)
        batches = [b.x for b in manifest.load_batches(m, tmp_path / "m", 0)]
        (tmp_path / "m/weights").rename(tmp_path / "m/real_weights")
        (tmp_path / "m/weights").symlink_to("real_weights", target_is_directory=True)
        (tmp_path / "m/batches/b0.ctf").rename(tmp_path / "m/batches/real_b0.ctf")
        (tmp_path / "m/batches/b0.ctf").symlink_to("real_b0.ctf")
        assert np.array_equal(manifest.load_query(m, tmp_path / "m", 0), expected)
        assert all(np.array_equal(b.x, x) for b, x in
                   zip(manifest.load_batches(m, tmp_path / "m", 0), batches))

    def test_base_directory_may_itself_be_a_link(self, tmp_path):
        (tmp_path / "m").mkdir()
        m = small_gqa_manifest(tmp_path / "m", gen(720))
        (tmp_path / "alias").symlink_to("m", target_is_directory=True)
        assert manifest.load_gqa_layer(m, tmp_path / "alias", 0).w_q.shape == (8, 8)
        assert len(manifest.load_batches(m, tmp_path / "alias", 0)) == 2


def gram_records(layers) -> dict[int, manifest.GramRecord]:
    """A made-up Gram record for each of `layers`, in the given order."""
    return {
        layer: manifest.GramRecord(
            layer=layer, path=f"p_grams/l{layer}.ctf", sha256=f"{layer:064x}",
            inputs={name: f"{i + 2:064x}" for i, name in enumerate(manifest.SPECTRUM_INPUTS)},
            cov_trace=layer + 0.5,
        )
        for layer in layers
    }


class TestRankProfileFile:
    def test_round_trip(self, tmp_path):
        profile = RankProfile(
            ranks={(0, "K"): 3, (0, "V"): 2, (1, "K"): 1, (1, "V"): 4},
            budget_k=4, budget_v=6, min_rank=1,
        )
        manifest.save_profile(profile, tmp_path / "p.json", gram_records((0, 1)),
                              mode="adjusted")
        loaded, mode, _ = manifest.load_profile(tmp_path / "p.json")
        assert mode == "adjusted"
        assert loaded.ranks == profile.ranks
        assert loaded.budget_k == 4 and loaded.budget_v == 6
        doc = json.loads((tmp_path / "p.json").read_text())
        assert "spectra" not in doc
        # An entry's full rank is its layer's grouped width, not a profile key.
        assert all(set(entry) == {"layer", "kind", "rank"} for entry in doc["entries"])

    def test_round_trip_with_gram_records(self, tmp_path):
        # Per layer one Grams file with its sha256 and those of the files it
        # was computed from, and no whitening setting.
        profile = RankProfile(ranks={(0, "K"): 1, (0, "V"): 1, (1, "K"): 1, (1, "V"): 1},
                              budget_k=2, budget_v=2, min_rank=1)
        records = gram_records((1, 0))
        manifest.save_profile(profile, tmp_path / "p.json", records)
        assert manifest.load_profile(tmp_path / "p.json")[2] == records
        doc = json.loads((tmp_path / "p.json").read_text())
        assert [r["layer"] for r in doc["grams"]] == [0, 1]
        assert set(doc["grams"][0]) == {
            "layer", "grams", "grams_file_sha256", "cov_file_sha256",
            "w_k_g_file_sha256", "w_v_g_file_sha256", "cov_trace"}
        assert not {"alpha", "lambda", "weighting"} & set(json.dumps(doc))
        assert not (tmp_path / "p.json.partial").exists()

    @pytest.mark.parametrize("key, value", [
        ("eigen", [{"layer": 0, "cov_sha256": "0" * 64, "eigenvalues": "v.ctf",
                    "eigenvectors": "q.ctf"}]),
        ("spectra", {"alpha": 0.01, "lambda": "auto", "weighting": "damped",
                     "layers": [{"layer": 0, "spectra": "s.ctf",
                                 **{f"{name}_file_sha256": "3" * 64
                                    for name in ("spectra", "cov", "w_k_g", "w_v_g")}}]}),
        ("spectra", [{"layer": 0, "cov_sha256": "0" * 64, "sigma_k": "s.ctf"}]),
    ], ids=["eigen", "spectra", "flat_spectra"])
    def test_records_of_earlier_versions_are_refused(self, tmp_path, key, value):
        # Profiles once stored eigenpairs or spectra under one setting; such
        # a profile has no Gram records, and loading it asks for schedule.
        doc = {
            "format": manifest.PROFILE_FORMAT, "version": 1, "mode": "adjusted",
            "min_rank": 1, "budget_k": 1, "budget_v": 1,
            "entries": [{"layer": 0, "kind": kind, "rank": 1} for kind in ("K", "V")],
            key: value,
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError) as exc:
            manifest.load_profile(path)
        assert str(exc.value) == f"{path} records no Grams; re-run schedule"

    @staticmethod
    def grams_doc(tmp_path, mutate) -> Path:
        """A two-layer profile with valid Gram records, then `mutate`d."""
        records = [{"layer": layer, "grams": f"g{layer}.ctf", "cov_trace": 16.0,
                    **{f"{name}_file_sha256": "3" * 64
                       for name in ("grams", *manifest.SPECTRUM_INPUTS)}}
                   for layer in (0, 1)]
        doc = {
            "format": manifest.PROFILE_FORMAT, "version": 1, "mode": "adjusted",
            "min_rank": 1, "budget_k": 2, "budget_v": 2,
            "entries": [{"layer": layer, "kind": kind, "rank": 1}
                        for layer in (0, 1) for kind in ("K", "V")],
            "grams": records,
        }
        mutate(doc)
        write_doc(tmp_path / "p.json", doc)
        return tmp_path / "p.json"

    @pytest.mark.parametrize("field, value, match", [
        ("cov_file_sha256", "ab" * 31, "hex"),
        ("cov_file_sha256", "AB" * 32, "hex"),
        ("cov_file_sha256", 7, "hex"),
        ("w_v_g_file_sha256", None, "hex"),
        ("grams_file_sha256", "ab" * 31, "hex"),
        ("layer", 1, "repeats"),
        ("layer", 5, "repeats"),
        ("layer", True, "integer"),
        ("grams", "../vals.ctf", "inside"),
        ("grams", "/vecs.ctf", "inside"),
        ("grams", None, "path string"),
        *(pytest.param("cov_trace", value, "cov_trace must be a finite number, got .*; "
                                            "re-run schedule", id=f"cov_trace-{name}")
          for name, value in BAD_TRACES.items()),
    ])
    def test_rejects_malformed_gram_record(self, tmp_path, field, value, match):
        path = self.grams_doc(tmp_path, lambda doc: doc["grams"][0].update({field: value}))
        with pytest.raises(ValidationError, match=match):
            manifest.load_profile(path)

    @pytest.mark.parametrize("key", ["grams", "grams_file_sha256", "cov_file_sha256",
                                     "w_k_g_file_sha256", "w_v_g_file_sha256", "cov_trace"])
    def test_record_requires_every_key(self, tmp_path, key):
        path = self.grams_doc(tmp_path, lambda doc: doc["grams"][1].pop(key))
        with pytest.raises(ValidationError, match=f"p.json: Gram record.*{key}"):
            manifest.load_profile(path)

    @pytest.mark.parametrize("records, match", [
        (lambda r: r[:1], r"cover layers \[0\]"), (lambda r: r + r[:1], "repeats"),
        (lambda r: {"layers": r}, "must be a list"), (lambda r: ["x"], "malformed"),
    ], ids=["one_of_two", "repeated", "object", "string"])
    def test_records_must_cover_every_layer(self, tmp_path, records, match):
        path = self.grams_doc(tmp_path, lambda doc: doc.update(grams=records(doc["grams"])))
        with pytest.raises(ValidationError, match=match):
            manifest.load_profile(path)

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
            "grams": [{"layer": 0, "grams": "g0.ctf", "cov_trace": 8.0,
                       **{f"{name}_file_sha256": "3" * 64
                          for name in ("grams", *manifest.SPECTRUM_INPUTS)}}],
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
    weighting."""

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


@pytest.mark.parametrize("before, after, key", [
    ('"budget_k": 4,', '"budget_k": 4, "budget_k": 6,', "budget_k"),
    ('"rank": 3', '"rank": 3, "rank": 1', "rank"),
])
def test_profile_with_repeated_key_is_refused(tmp_path, before, after, key):
    profile = RankProfile(ranks={(0, "K"): 3, (0, "V"): 2}, budget_k=4, budget_v=6,
                          min_rank=1)
    manifest.save_profile(profile, tmp_path / "p.json", gram_records((0,)))
    text = (tmp_path / "p.json").read_text()
    assert text.count(before) == 1
    (tmp_path / "p.json").write_text(text.replace(before, after))
    with pytest.raises(ValidationError, match=f"p.json: key '{key}' is repeated"):
        manifest.load_profile(tmp_path / "p.json")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_json_writers_refuse_non_finite_numbers(tmp_path, value):
    for write in (manifest.write_json, manifest.write_json_last):
        with pytest.raises(ValidationError, match="report.json"):
            write(tmp_path / "report.json", {"figures": [1.0, value]})
        assert list(tmp_path.iterdir()) == []


UNDECODABLE = {
    "truncated_object": b'{"format": "kvlatent-',
    "non_utf8_byte": b'{"format": "\xff"}',
    "integer_past_int_digit_limit": b'{"budget_k": ' + b"9" * 5001 + b"}",
    "array_past_recursion_limit": b"[" * 100_000,
}


@pytest.mark.parametrize("loader", ["manifest", "profile"])
@pytest.mark.parametrize("data", UNDECODABLE.values(), ids=UNDECODABLE)
def test_json_the_decoder_cannot_take_exits_2(tmp_path, capsys, data, loader):
    small_gqa_manifest(tmp_path, gen(713))
    (tmp_path / "bad.json").write_bytes(data)
    with pytest.raises(ValidationError, match="bad.json: not valid JSON"):
        getattr(manifest, f"load_{loader}")(tmp_path / "bad.json")
    documents = {"manifest": tmp_path / "model.json", "profile": tmp_path / "p.json",
                 loader: tmp_path / "bad.json"}
    code = main(["convert", "--manifest", str(documents["manifest"]),
                 "--cov-dir", str(tmp_path / "cov"), "--profile", str(documents["profile"]),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'bad.json'}: not valid JSON")
    assert not (tmp_path / "out").exists()
