"""Whole-pipeline invariances (metamorphic relations).

Each test derives a second model from a `gen` model by a transformation
whose effect on every reported figure is known, runs both models through
`cov`, `schedule`, `convert` and `eval` with `cli.main`, and compares what
the two runs wrote. A relation needs no second implementation, so it
catches a mistake that a component oracle built on the same
misunderstanding would share, as long as the mistake breaks the symmetry:
one made the same way in both runs, such as swapping K's and V's Grams,
still needs a component oracle.

The stored raw Grams of each kind, G = W_g^T C W_g and H = (C W_g)^T
(C W_g), are compared directly, and every other figure through them:

- Rotation of the residual basis, X -> X Q and W -> Q^T W for W_q, W_k
  and W_v: C -> Q^T C Q leaves tr(C), G and H, and so every whitened
  Gram W^T S^2 W, as they are.
- Activation scale, X -> c X: C and lambda scale by c^2, G by c^2 and H
  by c^4, so every whitened Gram scales by c^2.
- Group relabelling: the K/V groups are permuted and each group's heads
  move with it, so G, H and each whitened Gram are permuted, P^T G P.
- Layer order: the layers are reversed, weights and batches together, so
  each layer's covariance and Grams move to the mirrored index and the
  water-filled profile is reversed, as long as no two singular values of a
  kind tie across layers.

`eval` draws its probe input itself, so its drift figures are compared at
library level, on an explicit input that is transformed with the model.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import gen, random_orthogonal, ridge_of
from kvlatent import attention, ctf, manifest
from kvlatent.cli import main
from kvlatent.factorizer import GqaLayer, layer_spectra

D, HEADS, HEAD_DIM, GROUPS, LAYERS = 16, 4, 4, 2, 3
# Per kind, below KV parity (3 layers x 8) so water-filling decides.
BUDGET = 13
REL = 1e-10


def run(*args) -> None:
    assert main([str(a) for a in args]) == 0, args


def gen_model(root: Path) -> Path:
    run("gen", "--out", root, "--seed", 5, "--layers", LAYERS, "--d-model", D,
        "--n-heads", HEADS, "--head-dim", HEAD_DIM, "--n-groups", GROUPS,
        "--seq-len", 12, "--batches", 3)
    return root / "model.json"


def derive(source: Path, root: Path, transform) -> Path:
    """A copy of the model at `source` in `root`, each layer's weights and
    batches passed through transform(layer, gqa, batches) -> (w_q, w_k_g,
    w_v_g, batches)."""
    m = manifest.load_manifest(source)
    for layer in range(len(m.layers)):
        gqa = manifest.load_gqa_layer(m, source.parent, layer)
        batches = [b.x for b in manifest.load_batches(m, source.parent, layer)]
        *weights, batches = transform(layer, gqa, batches)
        entry = m.layer(layer)
        for rel, array in zip((entry.w_q, entry.w_k_g, entry.w_v_g, *m.calibration[layer]),
                              (*weights, *batches)):
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            ctf.write_ctf(root / rel, array)
    manifest.save_manifest(m, root / "model.json")
    return root / "model.json"


class Run:
    """What one pipeline wrote: the profile's ranks and stored Grams, the
    conversion and eval reports, and each layer's source and factors."""

    def __init__(self, root: Path, model: Path):
        run("cov", "--manifest", model, "--out", root / "cov")
        run("schedule", "--manifest", model, "--cov-dir", root / "cov", "--budget-k", BUDGET,
            "--budget-v", BUDGET, "--min-rank", 1, "--out", root / "p.json")
        run("convert", "--manifest", model, "--cov-dir", root / "cov",
            "--profile", root / "p.json", "--out", root / "c")
        run("eval", "--source", model, "--converted", root / "c/converted.json",
            "--out", root / "e")
        profile, _, records = manifest.load_profile(root / "p.json")
        self.ranks = profile.ranks
        source = manifest.load_manifest(model)
        converted = manifest.load_manifest(root / "c/converted.json")
        self.sources = [manifest.load_gqa_layer(source, model.parent, layer)
                        for layer in range(LAYERS)]
        # Per layer, (2, 2, n, n): K then V, each G then H.
        self.grams = [manifest.load_grams(root, records[layer], source.layer(layer))
                      for layer in range(LAYERS)]
        covariances = [ctf.read_ctf(root / "cov" / manifest.layer_file(layer, "cov"))
                       for layer in range(LAYERS)]
        self.spectra = [layer_spectra(kv, grams, ridge_of(c, source.shrinkage))
                        for kv, grams, c in zip(self.sources, self.grams, covariances)]
        self.factors = [manifest.load_mla_bundle(converted, root / "c", layer)
                        for layer in range(LAYERS)]
        self.conversion = json.loads((root / "c/conversion_report.json").read_text())["layers"]
        self.eval = json.loads((root / "e/eval_report.json").read_text())["layers"]

    def sigmas(self) -> list[np.ndarray]:
        return [svd.singular_values for layer in self.spectra for svd in layer]

    def raw(self, which: int) -> list[np.ndarray]:
        """Per (layer, kind), the stored G (which = 0) or H (which = 1)."""
        return [grams[kind, which] for grams in self.grams for kind in range(2)]

    def residuals(self, name: str) -> list[float]:
        """A residual per (layer, kind): a conversion report field, or eval's
        activation residual."""
        if name == "activation":
            return [layer[f"activation_residual_{kind}"] for layer in self.eval for kind in "kv"]
        return [layer[kind][name] for layer in self.conversion for kind in "kv"]

    def health(self, name: str) -> list[float]:
        return [layer["gram"][kind][name] for layer in self.conversion for kind in "kv"]

    def drift(self, layer: int, gqa: GqaLayer, x: np.ndarray):
        """The drift and both outputs of `layer`'s factors against `gqa`."""
        return attention.compare(
            attention.gqa_heads(gqa, x),
            attention.mla_heads(self.factors[layer], gqa.w_q, gqa, x),
        )


def close(a, b, scale=1.0) -> bool:
    """a = scale * b entrywise to REL relative. A residual at full rank is
    rounding noise, so the tolerance is floored far below the largest."""
    a, b = np.asarray(a, dtype=float), scale * np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= REL * np.maximum(np.abs(b), 1e-9 * np.max(np.abs(b)))))


def grams_agree(ours: list, theirs: list, scale=1.0) -> bool:
    """Each of `ours` is `scale` times the matching one of `theirs`, to REL
    of its largest entry."""
    return all(np.max(np.abs(a - scale * b)) <= REL * scale * np.max(np.abs(b))
               for a, b in zip(ours, theirs, strict=True))


def drifts_agree(a, b) -> bool:
    """Two logit drifts agree to REL relative. At full rank a drift is
    rounding noise of the O(1) logits, so the tolerance is floored at
    1e-12 absolute."""
    return all(abs(x - y) <= REL * abs(y) + 1e-12
               for x, y in ((a.max_abs, b.max_abs), (a.frob, b.frob)))


@pytest.fixture(scope="module")
def base(tmp_path_factory) -> tuple[Path, Run]:
    root = tmp_path_factory.mktemp("base")
    model = gen_model(root / "m")
    return model, Run(root, model)


def test_rotation_of_the_residual_basis(base, tmp_path):
    model, ref = base
    rng = gen(61)
    rotations = [random_orthogonal(rng, D) for _ in range(LAYERS)]

    def rotate(layer, gqa, batches):
        q = rotations[layer]
        return (q.T @ gqa.w_q, q.T @ gqa.w_k_g, q.T @ gqa.w_v_g, [x @ q for x in batches])

    got = Run(tmp_path, derive(model, tmp_path / "m", rotate))
    assert got.ranks == ref.ranks
    assert grams_agree(got.raw(0), ref.raw(0)) and grams_agree(got.raw(1), ref.raw(1))
    for ours, theirs in zip(got.sigmas(), ref.sigmas()):
        assert np.max(np.abs(ours - theirs)) <= REL * theirs[0]
    for name in ("whitened_residual_sq", "weight_residual_sq", "retained_energy", "activation"):
        assert close(got.residuals(name), ref.residuals(name)), name
    for name in ("eig_max", "eig_min", "condition"):
        assert close(got.health(name), ref.health(name)), name
    assert got.health("clamped") == ref.health("clamped")
    assert close([l["lambda_resolved"] for l in got.conversion],
                 [l["lambda_resolved"] for l in ref.conversion])
    x = rng.standard_normal((12, D))
    for layer, q in enumerate(rotations):
        drift, out_gqa, out_mla = got.drift(layer, got.sources[layer], x @ q)
        ref_drift, ref_gqa, ref_mla = ref.drift(layer, ref.sources[layer], x)
        assert drifts_agree(drift, ref_drift)
        assert np.max(np.abs(out_mla - ref_mla)) <= REL * np.max(np.abs(ref_mla))
        assert np.max(np.abs(out_gqa - ref_gqa)) <= REL * np.max(np.abs(ref_gqa))


def test_activation_scale(base, tmp_path):
    model, ref = base
    c = 3.0
    got = Run(tmp_path, derive(model, tmp_path / "m", lambda layer, gqa, batches: (
        gqa.w_q, gqa.w_k_g, gqa.w_v_g, [c * x for x in batches])))
    assert got.ranks == ref.ranks
    assert grams_agree(got.raw(0), ref.raw(0), c**2)
    assert grams_agree(got.raw(1), ref.raw(1), c**4)
    for ours, theirs in zip(got.sigmas(), ref.sigmas()):
        assert np.max(np.abs(ours - c * theirs)) <= REL * c * theirs[0]
    for name, scale in (("whitened_residual_sq", c**2), ("activation", c**2),
                        ("weight_residual_sq", 1.0), ("retained_energy", 1.0)):
        assert close(got.residuals(name), ref.residuals(name), scale), name
    for name, scale in (("eig_max", c**2), ("eig_min", c**2), ("condition", 1.0)):
        assert close(got.health(name), ref.health(name), scale), name
    assert close([l["lambda_resolved"] for l in got.conversion],
                 [l["lambda_resolved"] for l in ref.conversion], c**2)


def test_group_relabelling(base, tmp_path):
    model, ref = base
    perm = np.array([1, 0])  # new group g holds old group perm[g]
    m = HEADS // GROUPS

    def cols(order, width):
        return np.concatenate([np.arange(g * width, (g + 1) * width) for g in order])

    # Each group's heads move with it, in their order: new head h is old
    # head perm[h // m] * m + h % m.
    heads = np.array([perm[h // m] * m + h % m for h in range(HEADS)])
    group_cols, head_cols = cols(perm, HEAD_DIM), cols(heads, HEAD_DIM)

    got = Run(tmp_path, derive(model, tmp_path / "m", lambda layer, gqa, batches: (
        gqa.w_q[:, head_cols], gqa.w_k_g[:, group_cols], gqa.w_v_g[:, group_cols], batches)))
    assert got.ranks == ref.ranks
    for which in range(2):
        assert grams_agree(got.raw(which),
                           [g[np.ix_(group_cols, group_cols)] for g in ref.raw(which)])
    for ours, theirs in zip(got.sigmas(), ref.sigmas()):
        assert np.max(np.abs(ours - theirs)) <= REL * theirs[0]
    for name in ("whitened_residual_sq", "weight_residual_sq", "retained_energy", "activation"):
        assert close(got.residuals(name), ref.residuals(name)), name
    for name in ("eig_max", "eig_min", "condition"):
        assert close(got.health(name), ref.health(name)), name
    x = gen(62).standard_normal((12, D))
    for layer in range(LAYERS):
        ours, theirs = got.factors[layer], ref.factors[layer]
        for w_a, w_b, ref_a, ref_b in ((ours.w_a_k, ours.w_b_k, theirs.w_a_k, theirs.w_b_k),
                                       (ours.w_a_v, ours.w_b_v, theirs.w_a_v, theirs.w_b_v)):
            # The down-projection stays; w_b's head blocks move with the heads.
            assert np.max(np.abs(w_a - ref_a)) <= REL * np.max(np.abs(ref_a))
            assert np.max(np.abs(w_b - ref_b[:, head_cols])) <= REL * np.max(np.abs(ref_b))
        drift, out_gqa, out_mla = got.drift(layer, got.sources[layer], x)
        ref_drift, ref_gqa, ref_mla = ref.drift(layer, ref.sources[layer], x)
        assert drifts_agree(drift, ref_drift)
        assert np.max(np.abs(out_mla - ref_mla[:, head_cols])) <= REL * np.max(np.abs(ref_mla))


def test_layer_order(base, tmp_path):
    model, ref = base
    m = manifest.load_manifest(model)
    layers = [(manifest.load_gqa_layer(m, model.parent, layer),
               [b.x for b in manifest.load_batches(m, model.parent, layer)])
              for layer in range(LAYERS)]

    def mirrored(layer, gqa, batches):
        source, xs = layers[LAYERS - 1 - layer]
        return source.w_q, source.w_k_g, source.w_v_g, xs

    # Water-filling may break a tie by layer index; these spectra have none.
    for kind in range(2):
        sigmas = np.concatenate([ref.spectra[layer][kind].singular_values
                                 for layer in range(LAYERS)])
        assert np.unique(sigmas).size == sigmas.size

    got = Run(tmp_path, derive(model, tmp_path / "m", mirrored))
    order = list(reversed(range(LAYERS)))
    assert got.ranks == {(order[layer], kind): rank for (layer, kind), rank in ref.ranks.items()}
    assert any(ref.ranks[(0, kind)] != ref.ranks[(LAYERS - 1, kind)] for kind in "KV")

    def mirror(values: list) -> list:
        """Per-(layer, kind) values of ref with the layers reversed."""
        return [values[2 * layer + kind] for layer in order for kind in range(2)]

    assert grams_agree(got.raw(0), mirror(ref.raw(0)))
    assert grams_agree(got.raw(1), mirror(ref.raw(1)))
    for ours, theirs in zip(got.sigmas(), mirror(ref.sigmas())):
        assert np.max(np.abs(ours - theirs)) <= REL * theirs[0]
    for name in ("whitened_residual_sq", "weight_residual_sq", "retained_energy", "activation"):
        assert close(got.residuals(name), mirror(ref.residuals(name))), name
    for name in ("eig_max", "eig_min", "condition"):
        assert close(got.health(name), mirror(ref.health(name))), name
    assert close([l["lambda_resolved"] for l in got.conversion],
                 [ref.conversion[layer]["lambda_resolved"] for layer in order])
    for ours, layer in zip(got.eval, order):
        for name in ("cache_width_gqa", "cache_width_mla"):
            assert ours[name] == ref.eval[layer][name], name
    # eval draws one probe per layer in layer order, so the drifts are
    # compared on an explicit input.
    x = gen(63).standard_normal((12, D))
    for layer, mirrored_layer in enumerate(order):
        drift, out_gqa, out_mla = got.drift(layer, got.sources[layer], x)
        ref_drift, ref_gqa, ref_mla = ref.drift(
            mirrored_layer, ref.sources[mirrored_layer], x)
        assert drifts_agree(drift, ref_drift)
        assert np.max(np.abs(out_mla - ref_mla)) <= REL * np.max(np.abs(ref_mla))
        assert np.max(np.abs(out_gqa - ref_gqa)) <= REL * np.max(np.abs(ref_gqa))
