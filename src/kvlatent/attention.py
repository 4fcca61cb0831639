"""Toy causal attention forwards for source and converted layers.

These simulators stop at the attention output (no output projection, no
layer norm) so that a converted layer can be compared against its source as
a pure statement about the weights. Each forward only builds its Heads:
per-head queries, keys and values, stacked as (n_heads, T, d) arrays. The
grouped forward indexes each kind's group heads (group_heads) to the query
heads; the latent forward reconstructs K and V from the cached-width
latents (latent_kv). Two forwards of one layer share their query heads, so
eval projects the queries once per layer and pairs them with the grouped
and the latent K and V. The rotary variant adds a small decoupled position
channel, per-head rotary queries plus one rotary key per token shared by
every head, as one more feature block of each head's query and key, with
the softmax scale sqrt(head_dim + rope_dim) and the frequency base
ROPE_BASE. The latent forwards take the source layer's factorizer.Geometry
as their config; the rotary width rope_dim is read off the RopeAdapters, as
the columns of the shared key projection w_r_k. The rotary forward is
library API: the caller supplies its RopeAdapters, no manifest stores them,
and no CLI stage runs it. How many reals per token a layer caches is not
restated here: GqaLayer.cache_width and MlaFactors.cache_width own it, and
the rotary channel adds rope_dim.

One causal core serves every forward. It walks (head, query block) tiles
of 64 query rows and scores each tile only against the keys up to its last
row, into one (64, T) logit buffer per forward that every tile reuses. The
softmax scale is folded into the query rows, so no logit is divided. The
core masks the diagonal tile, exponentiates in place and normalises each
tile's output rows after the product with the values. Each masked logit
tile goes to one of two consumers. The trace forwards (gqa_forward,
mla_forward, mla_forward_rope) copy logits and normalised weights into full
(n_heads, T, T) arrays. compare walks two forwards' tiles in lockstep and
keeps only the logit drift and both outputs, so beyond its outputs it holds
a few tiles, whatever the head count.
"""

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import ValidationError
from .factorizer import Geometry, GqaLayer, MlaFactors

# Rotary frequency base of the decoupled rotary channel.
ROPE_BASE = 10000.0


@dataclass(frozen=True)
class RopeAdapters:
    """Projections feeding the rotary channel: per-head queries, shared key.
    The rotary width rope_dim is the column count of w_r_k."""

    w_r_q: np.ndarray
    w_r_k: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w_r_q", linalg.as_matrix(self.w_r_q, "w_r_q"))
        object.__setattr__(self, "w_r_k", linalg.as_matrix(self.w_r_k, "w_r_k"))


@dataclass(frozen=True)
class AttentionTrace:
    """Logits, attention weights, and output of one forward pass.

    Masked (future) positions hold exactly 0 in both logits and weights.
    """

    logits: np.ndarray  # (n_heads, T, T)
    weights: np.ndarray  # (n_heads, T, T)
    output: np.ndarray  # (T, d_model)
    scale_denominator: float


class DriftResult(NamedTuple):
    max_abs: float
    frob: float


class Heads(NamedTuple):
    """One forward as the causal core sees it.

    Per-head queries, keys and values stacked as (n_heads, T, d), and the
    softmax scale denominator. Queries and keys may carry more features
    than values.
    """

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    scale_denominator: float


class Comparison(NamedTuple):
    """Logit drift between two forwards, and each forward's (T, d) output."""

    drift: DriftResult
    output_a: np.ndarray
    output_b: np.ndarray


class CacheFootprint(NamedTuple):
    total_bytes: int
    megabytes: float


def rope_rotate(x, width: int, base: float) -> np.ndarray:
    """Rotate each row by its own position, in adjacent pairs.

    Pair j of a width-d block turns by angle t * base^(-2j/d) at row t
    (0-indexed). Every width-d block of columns gets the same angles, so a
    multi-head layout rotates each head identically.
    """
    x = linalg.as_matrix(x, "x")
    if width <= 0 or width % 2:
        raise ValidationError(f"rotation width must be positive and even, got {width}")
    if x.shape[1] % width:
        raise ValidationError(
            f"columns ({x.shape[1]}) must be a multiple of the rotation width {width}"
        )
    if base <= 0.0:
        raise ValidationError("base must be positive")
    n_rows, n_cols = x.shape
    half = width // 2
    blocks = n_cols // width
    theta = base ** (-2.0 * np.arange(half) / width)
    angles = np.arange(n_rows)[:, None] * theta[None, :]
    cos = np.cos(angles)[:, None, :]
    sin = np.sin(angles)[:, None, :]
    pairs = x.reshape(n_rows, blocks, half, 2)
    even = pairs[..., 0]
    odd = pairs[..., 1]
    out = np.empty_like(pairs)
    out[..., 0] = even * cos - odd * sin
    out[..., 1] = even * sin + odd * cos
    return out.reshape(n_rows, n_cols)


# Query rows per tile of the causal attention core.
_TILE = 64


class _CausalCore:
    """One walk of the causal core over one or more forwards of the same
    heads and tokens.

    tiles() walks (head, query block) tiles of _TILE rows. Each forward's
    tile is a view of that forward's one (_TILE * T) logit buffer, so a
    tile must be used before the next is asked for. The buffers, the
    diagonal tile's future mask, the scaled-query buffers and the
    (_TILE, 1) row max and row sum buffers are allocated once, here, and
    reused by every tile. attend() writes each forward's (T, n_heads, d_v)
    output in outputs.
    """

    def __init__(self, *forwards: Heads):
        n_heads, t, _ = forwards[0].q.shape
        self._forwards = forwards
        self._logits = [np.empty(_TILE * t) for _ in forwards]
        self._queries = [np.empty((_TILE, f.q.shape[2])) for f in forwards]
        self._future = np.triu(np.ones((_TILE, _TILE), dtype=bool), 1)
        self._row_max = np.empty((_TILE, 1))
        self._row_sum = np.empty((_TILE, 1))
        self.outputs = [np.empty((t, n_heads, f.v.shape[2])) for f in forwards]

    def tiles(self):
        """Yield (h, i0, i1, logits) for each tile of the walk.

        logits holds one (i1 - i0, i1) array per forward: head h's scaled
        logits of query rows [i0, i1) against keys [0, i1), with the future
        entries of the diagonal tile, columns [i0, i1), exactly 0. No key
        past the tile's last row is scored. The scale is folded into each
        query row, once per forward, so no logit is divided. The consumer
        may overwrite the logits.
        """
        n_heads, t, _ = self._forwards[0].q.shape
        for h in range(n_heads):
            for i0 in range(0, t, _TILE):
                i1 = min(i0 + _TILE, t)
                n = i1 - i0
                future = self._future[:n, :n]
                logits = []
                for f, buffer, q in zip(self._forwards, self._logits, self._queries):
                    tile = buffer[: n * i1].reshape(n, i1)
                    np.divide(f.q[h, i0:i1], f.scale_denominator, out=q[:n])
                    np.matmul(q[:n], f.k[h, :i1].T, out=tile)
                    np.copyto(tile[:, i0:], 0.0, where=future)
                    logits.append(tile)
                yield h, i0, i1, logits

    def attend(self, j: int, h: int, i0: int, tile) -> np.ndarray:
        """Turn forward j's logit tile from tiles() into unnormalised
        softmax weights in place, its future entries exactly 0, and write
        its output rows, normalised after the product with the values.
        Returns the (i1 - i0, 1) row sums, valid until the next call."""
        n, i1 = tile.shape
        row_max, row_sum = self._row_max[:n], self._row_sum[:n]
        np.copyto(tile[:, i0:], -np.inf, where=self._future[:n, :n])
        np.max(tile, axis=1, keepdims=True, out=row_max)
        tile -= row_max
        np.exp(tile, out=tile)
        np.sum(tile, axis=1, keepdims=True, out=row_sum)
        rows = self.outputs[j][i0:i1, h]
        np.matmul(tile, self._forwards[j].v[h, :i1], out=rows)
        rows /= row_sum
        return row_sum


def _trace(heads: Heads) -> AttentionTrace:
    """Full trace of one forward: (n_heads, T, T) logits and weights that
    hold exactly 0 above the diagonal, and the (T, n_heads * d_v) output
    with heads side by side."""
    n_heads, t, _ = heads.q.shape
    logits = np.zeros((n_heads, t, t))
    weights = np.zeros((n_heads, t, t))
    core = _CausalCore(heads)
    for h, i0, i1, (tile,) in core.tiles():
        logits[h, i0:i1, :i1] = tile
        row_sum = core.attend(0, h, i0, tile)
        np.divide(tile, row_sum, out=weights[h, i0:i1, :i1])
    output = core.outputs[0].reshape(t, -1)
    return AttentionTrace(logits, weights, output, heads.scale_denominator)


def compare(a: Heads, b: Heads) -> Comparison:
    """Logit drift between two forwards over the same tokens, and both
    outputs, in one pass.

    Walks the two forwards' logit tiles in lockstep. Each pair adds to the
    max-absolute and Frobenius drift over the causal region (future entries
    are 0 in both), then becomes attention weights and output rows. The
    result equals logit_drift of the two traces and their outputs, but only
    one tile of logits per forward, and one of their difference, is alive
    at a time, whatever the head count.
    """
    if a.q.shape[:2] != b.q.shape[:2]:
        raise ValidationError(
            f"forwards differ in heads or tokens: {a.q.shape[:2]} vs {b.q.shape[:2]}"
        )
    t = a.q.shape[1]
    core = _CausalCore(a, b)
    delta_buffer = np.empty(_TILE * t)
    max_abs = 0.0
    sum_sq = 0.0
    for h, i0, _, (tile_a, tile_b) in core.tiles():
        delta = delta_buffer[: tile_a.size]
        np.subtract(tile_a.reshape(-1), tile_b.reshape(-1), out=delta)
        sum_sq += float(delta @ delta)
        max_abs = max(max_abs, float(delta.max()), -float(delta.min()))
        core.attend(0, h, i0, tile_a)
        core.attend(1, h, i0, tile_b)
    output_a, output_b = (output.reshape(t, -1) for output in core.outputs)
    return Comparison(DriftResult(max_abs, math.sqrt(sum_sq)), output_a, output_b)


def _heads(a, width: int) -> np.ndarray:
    """(T, n * width) columns as n stacked (T, width) heads: shape (n, T, width)."""
    return a.reshape(a.shape[0], -1, width).transpose(1, 0, 2)


def gqa_heads(layer: GqaLayer, x) -> Heads:
    """Heads of the grouped forward: each query head meets its group's key
    and value head."""
    x = linalg.as_matrix(x, "x")
    if x.shape[1] != layer.d_model:
        raise ValidationError(
            f"input width {x.shape[1]} does not match d_model {layer.d_model}"
        )
    d_h = layer.head_dim
    q = _heads(x @ layer.w_q, d_h)
    k = group_heads(layer.w_k_g, layer, x)
    v = group_heads(layer.w_v_g, layer, x)
    return Heads(q, k, v, math.sqrt(d_h))


def group_heads(w_g, config: Geometry, x) -> np.ndarray:
    """One grouped projection's heads as the query heads meet them, shape
    (n_heads, T, head_dim): head h gets the block of its group,
    config.head_groups[h]."""
    x = linalg.as_matrix(x, "x")
    w_g = linalg.as_matrix(w_g, "w_g")
    if x.shape[1] != config.d_model or w_g.shape != (config.d_model, config.grouped_width):
        raise ValidationError(
            f"x {x.shape} and w_g {w_g.shape} do not match d_model {config.d_model} "
            f"and grouped width {config.grouped_width}"
        )
    return _heads(x @ w_g, config.head_dim)[config.head_groups]


def gqa_forward(layer: GqaLayer, x) -> AttentionTrace:
    """Reference grouped-attention forward without positional encoding."""
    return _trace(gqa_heads(layer, x))


def mla_heads(factors: MlaFactors, w_q, config: Geometry, x) -> Heads:
    """Heads of the latent forward without the rotary channel: K and V are
    reconstructed from the two cached latents. config is the source
    layer's geometry."""
    x = linalg.as_matrix(x, "x")
    k, v = latent_kv(factors, config, x)
    w_q = _query_projection(w_q, config)
    return Heads(_heads(x @ w_q, config.head_dim), k, v, math.sqrt(config.head_dim))


def latent_kv(factors: MlaFactors, config: Geometry, x) -> tuple[np.ndarray, np.ndarray]:
    """The K and V heads of the latent forward, each (n_heads, T, head_dim),
    reconstructed from the two cached latents x w_a. config is the source
    layer's geometry. The latent forwards pair them with the query heads;
    eval pairs them with the source forward's own."""
    x = linalg.as_matrix(x, "x")
    if x.shape[1] != config.d_model:
        raise ValidationError(
            f"input width {x.shape[1]} does not match d_model {config.d_model}"
        )
    if factors.d_model != config.d_model or factors.out_width != config.d_model:
        raise ValidationError("factor shapes do not match the layer geometry")
    d_h = config.head_dim
    k = _heads((x @ factors.w_a_k) @ factors.w_b_k, d_h)
    v = _heads((x @ factors.w_a_v) @ factors.w_b_v, d_h)
    return k, v


def mla_forward(factors: MlaFactors, w_q, config: Geometry, x) -> AttentionTrace:
    """Latent-KV forward without the rotary channel (content only)."""
    return _trace(mla_heads(factors, w_q, config, x))


def mla_heads_rope(
    factors: MlaFactors,
    w_q,
    adapters: RopeAdapters,
    config: Geometry,
    x,
) -> Heads:
    """Heads of the latent forward with the decoupled rotary channel.

    The rotary key is computed once per token and shared by every head, so
    it adds rope_dim reals to the per-token cache, alongside the two content
    latents. rope_dim is the width of adapters.w_r_k; rope_rotate refuses
    one that is not positive and even. Values come from the content channel alone. Each head
    scores [q_h, q_rope_h] against [k_h, k_rope], so the rotary channel is
    one more feature block of the same product, and the softmax scale is
    sqrt(head_dim + rope_dim).
    """
    x = linalg.as_matrix(x, "x")
    w_q = _query_projection(w_q, config)
    d_r = adapters.w_r_k.shape[1]
    if adapters.w_r_q.shape != (config.d_model, config.n_heads * d_r):
        raise ValidationError(
            f"w_r_q has shape {adapters.w_r_q.shape}, expected "
            f"{(config.d_model, config.n_heads * d_r)}"
        )
    if adapters.w_r_k.shape[0] != config.d_model:
        raise ValidationError(
            f"w_r_k has shape {adapters.w_r_k.shape}, expected {config.d_model} rows"
        )

    k, v = latent_kv(factors, config, x)
    q = _heads(x @ w_q, config.head_dim)
    q_rope = _heads(rope_rotate(x @ adapters.w_r_q, d_r, ROPE_BASE), d_r)
    k_rope = rope_rotate(x @ adapters.w_r_k, d_r, ROPE_BASE)  # shared by heads
    q = np.concatenate([q, q_rope], axis=2)
    k_rope = np.broadcast_to(k_rope, (config.n_heads, *k_rope.shape))
    k = np.concatenate([k, k_rope], axis=2)
    return Heads(q, k, v, math.sqrt(config.head_dim + d_r))


def mla_forward_rope(
    factors: MlaFactors,
    w_q,
    adapters: RopeAdapters,
    config: Geometry,
    x,
) -> AttentionTrace:
    """Latent-KV forward with the decoupled rotary channel enabled."""
    return _trace(mla_heads_rope(factors, w_q, adapters, config, x))


def _query_projection(w_q, config: Geometry) -> np.ndarray:
    w_q = linalg.as_matrix(w_q, "w_q")
    if w_q.shape != (config.d_model, config.d_model):
        raise ValidationError(f"w_q has shape {w_q.shape}")
    return w_q


def logit_drift(a: AttentionTrace, b: AttentionTrace) -> DriftResult:
    """Max-absolute and Frobenius drift of unmasked logits between two traces.

    Masked entries are exactly 0 in both traces, so they change neither
    figure; heads are walked with one reused T x T buffer.
    """
    if a.logits.shape != b.logits.shape:
        raise ValidationError(
            f"trace shapes differ: {a.logits.shape} vs {b.logits.shape}"
        )
    delta = np.empty(a.logits.shape[1:])
    flat = delta.reshape(-1)
    max_abs = 0.0
    sum_sq = 0.0
    for head_a, head_b in zip(a.logits, b.logits):
        np.subtract(head_a, head_b, out=delta)
        sum_sq += float(flat @ flat)
        np.abs(delta, out=delta)
        max_abs = max(max_abs, float(delta.max(initial=0.0)))
    return DriftResult(max_abs, math.sqrt(sum_sq))


def kv_cache_bytes(
    layers: int,
    seq_len: int,
    batch: int,
    width: int,
    bytes_per_element: int,
) -> CacheFootprint:
    """Cache footprint for `width` cached reals per token: bytes and MB (10^6)."""
    if layers < 1 or seq_len < 1 or batch < 1 or bytes_per_element < 1:
        raise ValidationError("layers, seq_len, batch, bytes_per_element must be >= 1")
    if width < 0:
        raise ValidationError("width cannot be negative")
    total = layers * seq_len * batch * width * bytes_per_element
    if total > sys.float_info.max:
        raise ValidationError(f"a cache of 2^{total.bit_length() - 1} bytes or more is beyond "
                              f"float range")
    return CacheFootprint(total, total / 1e6)
