import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from conftest import anisotropic_batches, covariance_of, gen, pipeline_spectra, plain_spectra
from kvlatent import calibration, linalg
from kvlatent.attention import (
    AttentionTrace,
    Heads,
    RopeAdapters,
    compare,
    gqa_forward,
    gqa_heads,
    group_heads,
    kv_cache_bytes,
    latent_kv,
    logit_drift,
    mla_forward,
    mla_forward_rope,
    mla_heads,
    mla_heads_rope,
    rope_rotate,
)
from kvlatent.errors import ValidationError
from kvlatent.factorizer import convert_layer
from test_factorizer import random_gqa_layer


def naive_gqa(layer, x):
    """Hand-rolled dense reference: python loops, no shared code paths."""
    t = x.shape[0]
    d_h = layer.head_dim
    outputs = np.zeros((t, layer.d_model))
    logits = np.zeros((layer.n_heads, t, t))
    for h in range(layer.n_heads):
        g = (h * layer.n_groups) // layer.n_heads
        for i in range(t):
            qi = [sum(x[i][a] * layer.w_q[a][h * d_h + c] for a in range(layer.d_model))
                  for c in range(d_h)]
            row = []
            for j in range(i + 1):
                kj = [sum(x[j][a] * layer.w_k_g[a][g * d_h + c] for a in range(layer.d_model))
                      for c in range(d_h)]
                row.append(sum(qi[c] * kj[c] for c in range(d_h)) / math.sqrt(d_h))
            logits[h, i, : i + 1] = row
            m = max(row)
            exps = [math.exp(v - m) for v in row]
            z = sum(exps)
            weights = [e / z for e in exps]
            for j in range(i + 1):
                vj = [sum(x[j][a] * layer.w_v_g[a][g * d_h + c] for a in range(layer.d_model))
                      for c in range(d_h)]
                for c in range(d_h):
                    outputs[i][h * d_h + c] += weights[j] * vj[c]
    return logits, outputs


def reference_attention(q_heads, k_heads, v_heads, extra_logits, scale_den):
    """Per-head causal attention over full T x T arrays: the loop the blocked
    core replaced, kept as its oracle.

    q_heads/k_heads/v_heads: lists of (T, *) arrays per head; extra_logits is
    None or a per-head list of (T, T) additive terms (the rotary channel).
    """
    n_heads = len(q_heads)
    t = q_heads[0].shape[0]
    mask = np.tril(np.ones((t, t), dtype=bool))
    logits = np.zeros((n_heads, t, t))
    weights = np.zeros((n_heads, t, t))
    head_outputs = []
    for h in range(n_heads):
        raw = q_heads[h] @ k_heads[h].T
        if extra_logits is not None:
            raw = raw + extra_logits[h]
        raw = raw / scale_den
        logits[h] = np.where(mask, raw, 0.0)
        masked = np.where(mask, raw, -np.inf)
        exp = np.exp(masked - masked.max(axis=1, keepdims=True))
        weights[h] = exp / exp.sum(axis=1, keepdims=True)
        head_outputs.append(weights[h] @ v_heads[h])
    return logits, weights, np.concatenate(head_outputs, axis=1)


def _split_heads(a, n_heads, width):
    return [a[:, h * width : (h + 1) * width] for h in range(n_heads)]


def reference_gqa(layer, x):
    d_h = layer.head_dim
    q = x @ layer.w_q
    k = x @ layer.w_k_g
    v = x @ layer.w_v_g
    groups = [(h * layer.n_groups) // layer.n_heads for h in range(layer.n_heads)]
    return reference_attention(
        _split_heads(q, layer.n_heads, d_h),
        [k[:, g * d_h : (g + 1) * d_h] for g in groups],
        [v[:, g * d_h : (g + 1) * d_h] for g in groups],
        None,
        math.sqrt(d_h),
    )


def reference_mla(factors, w_q, config, x, adapters=None):
    """Latent forward through the oracle; with adapters, the rotary channel
    enters as per-head (T, T) logit terms against the one shared key."""
    d_h = config.head_dim
    heads = config.n_heads
    k = (x @ factors.w_a_k) @ factors.w_b_k
    v = (x @ factors.w_a_v) @ factors.w_b_v
    extra = None
    scale_den = math.sqrt(d_h)
    if adapters is not None:
        d_r = adapters.w_r_k.shape[1]
        # the DeepSeek-V2 / RoFormer frequency base, pinned independently
        q_rope = rope_rotate(x @ adapters.w_r_q, d_r, 10000.0)
        k_rope = rope_rotate(x @ adapters.w_r_k, d_r, 10000.0)
        extra = [q_h @ k_rope.T for q_h in _split_heads(q_rope, heads, d_r)]
        scale_den = math.sqrt(d_h + d_r)
    return reference_attention(
        _split_heads(x @ w_q, heads, d_h),
        _split_heads(k, heads, d_h),
        _split_heads(v, heads, d_h),
        extra,
        scale_den,
    )


def masked_drift(a, b):
    """Drift over the causal entries only, gathered with a boolean mask."""
    t = a.shape[1]
    delta = (a - b)[:, np.tril(np.ones((t, t), dtype=bool))]
    return float(np.max(np.abs(delta))), float(np.sqrt(np.sum(delta**2)))


class TestRopeRotate:
    def test_position_zero_is_identity(self):
        rng = gen(401)
        x = rng.standard_normal((1, 8))
        assert np.allclose(rope_rotate(x, 8, 10000.0), x)

    def test_norm_preserving(self):
        rng = gen(402)
        x = rng.standard_normal((6, 12))
        rotated = rope_rotate(x, 4, 10000.0)
        assert np.allclose(
            np.linalg.norm(rotated, axis=1), np.linalg.norm(x, axis=1), atol=1e-10
        )

    def test_single_pair_hand_rotation(self):
        x = np.array([[9.0, 9.0], [1.0, 0.0]])  # row 1 is position 1
        rotated = rope_rotate(x, 2, 10000.0)
        assert np.allclose(rotated[1], [math.cos(1.0), math.sin(1.0)])

    def test_blocks_rotate_identically(self):
        rng = gen(403)
        block = rng.standard_normal((5, 4))
        stacked = np.hstack([block, block])
        rotated = rope_rotate(stacked, 4, 10000.0)
        assert np.array_equal(rotated[:, :4], rotated[:, 4:])

    def test_odd_width_rejected(self):
        with pytest.raises(ValidationError):
            rope_rotate(np.ones((2, 3)), 3, 10000.0)


class TestGqaForward:
    def test_single_token_weight(self):
        rng = gen(411)
        layer = random_gqa_layer(rng)
        trace = gqa_forward(layer, rng.standard_normal((1, 16)))
        assert np.allclose(trace.weights, 1.0)

    def test_zero_values_zero_output(self):
        rng = gen(412)
        layer = random_gqa_layer(rng)
        zeroed = dataclasses.replace(layer, w_v_g=np.zeros_like(layer.w_v_g))
        trace = gqa_forward(zeroed, rng.standard_normal((4, 16)))
        assert np.array_equal(trace.output, np.zeros_like(trace.output))

    def test_matches_naive_oracle(self):
        rng = gen(413)
        layer = random_gqa_layer(rng, d_model=8, n_heads=2, n_groups=1)
        x = rng.standard_normal((2, 8))
        trace = gqa_forward(layer, x)
        ref_logits, ref_out = naive_gqa(layer, x)
        assert np.max(np.abs(trace.logits - ref_logits)) < 1e-10
        assert np.max(np.abs(trace.output - ref_out)) < 1e-10

    def test_row_stochastic_and_masked(self):
        rng = gen(414)
        layer = random_gqa_layer(rng)
        trace = gqa_forward(layer, rng.standard_normal((6, 16)))
        sums = trace.weights.sum(axis=2)
        assert np.allclose(sums, 1.0, atol=1e-9)
        upper = np.triu_indices(6, k=1)
        assert np.all(trace.weights[:, upper[0], upper[1]] == 0.0)
        assert np.all(trace.logits[:, upper[0], upper[1]] == 0.0)

    def test_causality(self):
        # the second case perturbs rows from inside the second query block
        rng = gen(415)
        layer = random_gqa_layer(rng)
        for t, cut in ((6, 4), (300, 150)):
            x = rng.standard_normal((t, 16))
            perturbed = x.copy()
            perturbed[cut:] += rng.standard_normal((t - cut, 16))
            a = gqa_forward(layer, x)
            b = gqa_forward(layer, perturbed)
            assert np.array_equal(a.output[:cut], b.output[:cut])
            assert np.array_equal(a.logits[:, :cut], b.logits[:, :cut])

    def test_cache_widths(self):
        rng = gen(416)
        layer = random_gqa_layer(rng)
        assert layer.cache_width == 2 * layer.n_groups * layer.head_dim == 16


class TestMlaForward:
    def test_lossless_path_matches_gqa(self):
        rng = gen(421)
        layer = random_gqa_layer(rng)
        r = layer.grouped_width
        factors, _, _ = convert_layer(layer, plain_spectra(layer), r, r)
        x = rng.standard_normal((5, 16))
        drift = logit_drift(
            gqa_forward(layer, x),
            mla_forward(factors, layer.w_q, layer, x),
        )
        assert drift.max_abs <= 1e-9

    def test_parity_rank_drift(self):
        rng = gen(422)
        layer = random_gqa_layer(rng)
        batches = [
            calibration.CalibrationBatch(0, rng.standard_normal((8, 16)))
            for _ in range(4)
        ]
        r = layer.n_groups * layer.head_dim
        factors, _, _ = convert_layer(layer, pipeline_spectra(layer, covariance_of(batches)), r, r)
        x = rng.standard_normal((8, 16))
        trace_g = gqa_forward(layer, x)
        trace_m = mla_forward(factors, layer.w_q, layer, x)
        drift = logit_drift(trace_g, trace_m)
        assert drift.max_abs <= 1e-8
        assert np.max(np.abs(trace_g.output - trace_m.output)) <= 1e-8

    def test_zero_input(self):
        rng = gen(423)
        layer = random_gqa_layer(rng)
        factors, _, _ = convert_layer(layer, plain_spectra(layer), 8, 8)
        trace = mla_forward(factors, layer.w_q, layer, np.zeros((3, 16)))
        assert np.array_equal(trace.output, np.zeros_like(trace.output))

    def test_cache_widths_and_scale(self):
        rng = gen(424)
        layer = random_gqa_layer(rng)
        factors, _, _ = convert_layer(layer, plain_spectra(layer), 6, 7)
        trace = mla_forward(factors, layer.w_q, layer, rng.standard_normal((3, 16)))
        assert (factors.r_k, factors.r_v, factors.cache_width) == (6, 7, 13)
        assert trace.scale_denominator == math.sqrt(layer.head_dim)


class TestHeadBuilders:
    """The per-kind builders eval combines with shared queries."""

    @pytest.mark.parametrize("n_groups", (1, 2, 4))
    def test_group_heads_are_each_heads_group_block(self, n_groups):
        rng = gen(4250 + n_groups)
        layer = random_gqa_layer(rng, n_groups=n_groups)
        x = rng.standard_normal((6, 16))
        heads = gqa_heads(layer, x)
        d_h = layer.head_dim
        for w_g, built in ((layer.w_k_g, heads.k), (layer.w_v_g, heads.v)):
            got = group_heads(w_g, layer, x)
            assert got.tobytes() == built.tobytes()
            for h in range(layer.n_heads):
                g = h * n_groups // layer.n_heads
                assert np.array_equal(got[h], (x @ w_g)[:, g * d_h:(g + 1) * d_h])

    def test_latent_forward_is_source_queries_and_latent_kv(self):
        # mla_heads projects the same queries as gqa_heads, bit for bit, so
        # a forward built from gqa_heads' q and latent_kv equals it.
        rng = gen(4254)
        layer = random_gqa_layer(rng)
        factors, _, _ = convert_layer(layer, plain_spectra(layer), 3, 5)
        x = rng.standard_normal((6, 16))
        k, v = latent_kv(factors, layer, x)
        shared = gqa_heads(layer, x)._replace(k=k, v=v)
        built = mla_heads(factors, layer.w_q, layer, x)
        for got, want in zip(shared, built):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_refusals(self):
        rng = gen(4255)
        layer = random_gqa_layer(rng)
        factors, _, _ = convert_layer(layer, plain_spectra(layer), 3, 5)
        narrow = random_gqa_layer(rng, d_model=8, n_heads=2, n_groups=1)
        x = rng.standard_normal((4, 16))
        with pytest.raises(ValidationError, match="input width 15"):
            latent_kv(factors, layer, x[:, :15])
        with pytest.raises(ValidationError, match="factor shapes"):
            latent_kv(factors, narrow, x[:, :8])
        with pytest.raises(ValidationError, match="grouped width 8"):
            group_heads(layer.w_k_g[:, :6], layer, x)
        with pytest.raises(ValidationError, match="d_model 16"):
            group_heads(layer.w_k_g, layer, x[:, :15])


class TestMlaForwardRope:
    def test_zero_adapters_rescale_content_logits(self):
        rng = gen(431)
        layer = random_gqa_layer(rng)
        factors, _, _ = convert_layer(layer, plain_spectra(layer), 8, 8)
        x = rng.standard_normal((5, 16))
        d_r = 4
        adapters = RopeAdapters(
            w_r_q=np.zeros((16, layer.n_heads * d_r)), w_r_k=np.zeros((16, d_r))
        )
        nope = mla_forward(factors, layer.w_q, layer, x)
        rope = mla_forward_rope(factors, layer.w_q, adapters, layer, x)
        ratio = math.sqrt(layer.head_dim) / math.sqrt(layer.head_dim + d_r)
        assert np.allclose(rope.logits, nope.logits * ratio, atol=1e-12)

    def test_shared_rope_key_across_heads(self):
        # with identical per-head rope-query blocks and zero content factors,
        # every head sees identical logits: the rope key is genuinely shared
        rng = gen(432)
        layer = random_gqa_layer(rng)
        d_r = 4
        factors, _, _ = convert_layer(layer, plain_spectra(layer), 8, 8)
        zeroed = type(factors)(
            np.zeros_like(factors.w_a_k), factors.w_b_k,
            np.zeros_like(factors.w_a_v), factors.w_b_v,
        )
        block = rng.standard_normal((16, d_r))
        adapters = RopeAdapters(
            w_r_q=np.tile(block, layer.n_heads), w_r_k=rng.standard_normal((16, d_r))
        )
        for t in (5, 200):
            x = rng.standard_normal((t, 16))
            trace = mla_forward_rope(zeroed, layer.w_q, adapters, layer, x)
            for h in range(1, layer.n_heads):
                assert np.array_equal(trace.logits[h], trace.logits[0])

    def test_row_stochastic_with_rope(self):
        rng = gen(433)
        layer = random_gqa_layer(rng)
        d_r = 6
        factors, _, _ = convert_layer(layer, plain_spectra(layer), 8, 8)
        adapters = RopeAdapters(
            w_r_q=rng.standard_normal((16, layer.n_heads * d_r)),
            w_r_k=rng.standard_normal((16, d_r)),
        )
        trace = mla_forward_rope(
            factors, layer.w_q, adapters, layer, rng.standard_normal((7, 16))
        )
        assert np.allclose(trace.weights.sum(axis=2), 1.0, atol=1e-9)

    def test_scale_denominator_tracks_rope_dim(self):
        rng = gen(434)
        layer = random_gqa_layer(rng)
        factors, _, _ = convert_layer(layer, plain_spectra(layer), 8, 8)
        x = rng.standard_normal((3, 16))
        for d_r in (2, 4):
            adapters = RopeAdapters(
                w_r_q=rng.standard_normal((16, layer.n_heads * d_r)),
                w_r_k=rng.standard_normal((16, d_r)),
            )
            trace = mla_forward_rope(factors, layer.w_q, adapters, layer, x)
            assert trace.scale_denominator == math.sqrt(layer.head_dim + d_r)

    @pytest.mark.parametrize("d_r", (0, 3))
    def test_rope_width_must_be_positive_and_even(self, d_r):
        rng = gen(435)
        layer = random_gqa_layer(rng)
        factors, _, _ = convert_layer(layer, plain_spectra(layer), 8, 8)
        adapters = RopeAdapters(
            w_r_q=np.zeros((16, layer.n_heads * d_r)), w_r_k=np.zeros((16, d_r))
        )
        with pytest.raises(ValidationError, match="positive and even"):
            mla_forward_rope(factors, layer.w_q, adapters, layer, np.zeros((3, 16)))


class TestLogitDrift:
    def test_identical_traces(self):
        rng = gen(441)
        layer = random_gqa_layer(rng)
        x = rng.standard_normal((4, 16))
        drift = logit_drift(gqa_forward(layer, x), gqa_forward(layer, x))
        assert drift == (0.0, 0.0)

    def test_shape_mismatch(self):
        rng = gen(442)
        layer = random_gqa_layer(rng)
        a = gqa_forward(layer, rng.standard_normal((3, 16)))
        b = gqa_forward(layer, rng.standard_normal((4, 16)))
        with pytest.raises(ValidationError):
            logit_drift(a, b)

    def test_matches_masked_formula(self):
        rng = gen(444)
        for t in BLOCK_EDGE_LENGTHS:
            mask = np.tril(np.ones((t, t), dtype=bool))
            a, b = (np.where(mask, rng.standard_normal((3, t, t)), 0.0) for _ in range(2))
            traces = [AttentionTrace(logits, np.zeros_like(logits), np.zeros((t, 1)), 1.0)
                      for logits in (a, b)]
            drift = logit_drift(*traces)
            max_abs, frob = masked_drift(a, b)
            assert abs(drift.max_abs - max_abs) <= 1e-12 * max_abs
            assert abs(drift.frob - frob) <= 1e-12 * frob

    def test_care_beats_plain_under_anisotropic_calibration(self):
        # Monte Carlo: at low rank, whitened factors should track the
        # attention logits better than plain SVD on inputs drawn from the
        # calibration distribution.
        rng = gen(443)
        wins = 0
        trials = 100
        for _ in range(trials):
            layer = random_gqa_layer(rng)
            batches = anisotropic_batches(rng, 4, 24, 16, cond=900.0)
            c = covariance_of(batches)
            r = 3
            care_factors, _, _ = convert_layer(layer, pipeline_spectra(layer, c), r, r)
            plain_factors, _, _ = convert_layer(layer, plain_spectra(layer), r, r)
            x = batches[0].x[:8]
            reference = gqa_forward(layer, x)
            care_drift = logit_drift(
                reference, mla_forward(care_factors, layer.w_q, layer, x)
            )
            plain_drift = logit_drift(
                reference, mla_forward(plain_factors, layer.w_q, layer, x)
            )
            wins += care_drift.frob <= plain_drift.frob
        assert wins >= 0.9 * trials


# Sequence lengths on both sides of the core's 64-row query tile, and of
# two such tiles.
BLOCK_EDGE_LENGTHS = (1, 63, 64, 65, 127, 128, 129, 300)


def assert_matches_reference(trace, reference):
    logits, weights, output = reference
    for got, want in ((trace.logits, logits), (trace.weights, weights),
                      (trace.output, output)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    upper = np.triu_indices(logits.shape[1], k=1)
    assert np.all(trace.logits[:, upper[0], upper[1]] == 0.0)
    assert np.all(trace.weights[:, upper[0], upper[1]] == 0.0)
    np.testing.assert_allclose(trace.weights.sum(axis=2), 1.0, rtol=0.0, atol=1e-12)


class TestBlockedCoreOracle:
    @pytest.mark.parametrize("n_groups", (1, 2, 4))
    @pytest.mark.parametrize("t", BLOCK_EDGE_LENGTHS)
    def test_forwards_match_reference(self, t, n_groups):
        rng = gen(4500 + 10 * t + n_groups)
        layer = random_gqa_layer(rng, n_groups=n_groups)
        factors, _, _ = convert_layer(layer, plain_spectra(layer), 3, 4)
        x = rng.standard_normal((t, 16))
        assert_matches_reference(gqa_forward(layer, x), reference_gqa(layer, x))

        assert_matches_reference(
            mla_forward(factors, layer.w_q, layer, x),
            reference_mla(factors, layer.w_q, layer, x),
        )

        d_r = 4
        adapters = RopeAdapters(
            w_r_q=rng.standard_normal((16, layer.n_heads * d_r)),
            w_r_k=rng.standard_normal((16, d_r)),
        )
        assert_matches_reference(
            mla_forward_rope(factors, layer.w_q, adapters, layer, x),
            reference_mla(factors, layer.w_q, layer, x, adapters),
        )


def reference_trace(reference):
    logits, weights, output = reference
    return AttentionTrace(logits, weights, output, 1.0)


class TestCompareOracle:
    @pytest.mark.parametrize("n_groups", (1, 2, 4))
    @pytest.mark.parametrize("t", BLOCK_EDGE_LENGTHS)
    def test_matches_reference_traces(self, t, n_groups):
        rng = gen(4600 + 10 * t + n_groups)
        layer = random_gqa_layer(rng, n_groups=n_groups)
        factors, _, _ = convert_layer(layer, plain_spectra(layer), 3, 4)
        x = rng.standard_normal((t, 16))
        d_r = 4
        adapters = RopeAdapters(
            w_r_q=rng.standard_normal((16, layer.n_heads * d_r)),
            w_r_k=rng.standard_normal((16, d_r)),
        )
        source = reference_gqa(layer, x)
        latents = (
            (mla_heads(factors, layer.w_q, layer, x),
             reference_mla(factors, layer.w_q, layer, x)),
            (mla_heads_rope(factors, layer.w_q, adapters, layer, x),
             reference_mla(factors, layer.w_q, layer, x, adapters)),
        )
        for heads, reference in latents:
            drift, output_a, output_b = compare(gqa_heads(layer, x), heads)
            np.testing.assert_allclose(output_a, source[2], rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(output_b, reference[2], rtol=1e-12, atol=1e-12)
            want = logit_drift(reference_trace(source), reference_trace(reference))
            assert want.max_abs > 0.0
            assert abs(drift.max_abs - want.max_abs) <= 1e-12 * want.max_abs
            assert abs(drift.frob - want.frob) <= 1e-12 * want.frob

    def test_identical_forwards_have_zero_drift(self):
        rng = gen(4650)
        layer = random_gqa_layer(rng)
        heads = gqa_heads(layer, rng.standard_normal((200, 16)))
        drift, output_a, output_b = compare(heads, heads)
        assert drift == (0.0, 0.0)
        assert np.array_equal(output_a, output_b)

    @pytest.mark.parametrize("name", ("w_k_g", "w_v_g"))
    def test_only_key_weights_reach_the_logits(self, name):
        # A change to the value weights moves the output and leaves every
        # logit as it was; a change to the key weights moves both.
        rng = gen(4653)
        layer = random_gqa_layer(rng)
        x = rng.standard_normal((70, 16))
        weight = getattr(layer, name)
        changed = dataclasses.replace(
            layer, **{name: weight + 0.1 * rng.standard_normal(weight.shape)})
        drift, output_a, output_b = compare(gqa_heads(layer, x), gqa_heads(changed, x))
        assert np.max(np.abs(output_a - output_b)) > 0.0
        if name == "w_v_g":
            assert drift == (0.0, 0.0)
        else:
            assert drift.max_abs > 0.0 and drift.frob > 0.0

    def test_token_count_mismatch(self):
        rng = gen(4651)
        layer = random_gqa_layer(rng)
        with pytest.raises(ValidationError):
            compare(gqa_heads(layer, rng.standard_normal((3, 16))),
                    gqa_heads(layer, rng.standard_normal((4, 16))))

    @pytest.mark.parametrize("n_heads", (4, 16))
    def test_working_set_does_not_grow_with_heads(self, n_heads):
        # Beyond its two outputs, compare holds a few tiles of 64 query rows
        # against T keys, whatever the head count.
        t, head_dim = 1024, 32
        rng = gen(4652 + n_heads)
        forwards = [
            Heads(*(rng.standard_normal((n_heads, t, head_dim)) for _ in range(3)),
                  math.sqrt(head_dim))
            for _ in range(2)
        ]
        tracemalloc.start()
        try:
            _, output_a, output_b = compare(*forwards)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        working = peak - output_a.nbytes - output_b.nbytes
        assert working < 8 * 64 * t * 8, (working, n_heads)


class TestKvCacheBytes:
    def test_paper_scale_gqa_row(self):
        footprint = kv_cache_bytes(32, 32768, 1, 1024 + 1024, 2)
        assert footprint.total_bytes == 4294967296
        assert round(footprint.megabytes, 2) == 4294.97

    def test_converted_row_within_tolerance(self):
        footprint = kv_cache_bytes(32, 32768, 1, 448 + 512, 2)
        assert abs(footprint.megabytes - 2013.24) / 2013.24 < 1e-3

    def test_reduction_percentage(self):
        small = kv_cache_bytes(32, 32768, 1, 960, 2)
        big = kv_cache_bytes(32, 32768, 1, 2048, 2)
        reduction = 1.0 - small.total_bytes / big.total_bytes
        assert round(reduction * 100, 3) == 53.125

    def test_zero_width(self):
        assert kv_cache_bytes(4, 128, 1, 0, 2).megabytes == 0.0

    def test_linear_in_each_argument(self):
        base = kv_cache_bytes(2, 16, 3, 10, 2).total_bytes
        assert kv_cache_bytes(4, 16, 3, 10, 2).total_bytes == 2 * base
        assert kv_cache_bytes(2, 32, 3, 10, 2).total_bytes == 2 * base
        assert kv_cache_bytes(2, 16, 6, 10, 2).total_bytes == 2 * base
        assert kv_cache_bytes(2, 16, 3, 20, 2).total_bytes == 2 * base
        assert kv_cache_bytes(2, 16, 3, 10, 4).total_bytes == 2 * base
