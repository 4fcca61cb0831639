"""Whitened low-rank factorization and the GQA-to-latent weight mapping.

A layer's whitening operator S (calibration.Ridge: S^2 = (1 - alpha) C +
alpha lam I under the default weighting "damped", S = (1 - alpha) C +
alpha lam I under "C") weights the error ||S (W - W_hat)||_F. If
S W = U Sigma V^T, its rank-r optimum is W_hat = W V_r V_r^T, so only
Sigma and V are needed:

    w_a = W V_r                   (down-projection; equals S^-1 U_r Sigma_r)
    w_b = V_r^T                   (up-projection, orthonormal rows)

and the whitened residual is the discarded energy sum_{i>r} sigma_i^2.
It runs in two steps: a whitened SVD gives (Sigma, V^T), and truncate
keeps the top r.

The pipeline's whitened SVD takes two steps. raw_grams, which schedule
runs, forms C [W_k | W_v] in the one D x D x 2n product and, per kind,
the parameter-free n x n Grams W_g^T C W_g and (C W_g)^T (C W_g), which
schedule stores. layer_spectra, which schedule and convert both run,
forms each kind's whitened Gram (S W_g)^T (S W_g) from them and
W_g^T W_g (calibration.Ridge.gram) and eigendecomposes it as
V diag(sigma^2) V^T (gram_svd). Neither S, U nor any other D x D matrix
besides C is formed, nothing of size D is decomposed, and convert never
reads C: its ridge needs only tr(C), which schedule records. The Gram
resolves each sigma^2 to about n eps sigma_1^2, which bounds
the error of every tail sum_{i>r} sigma_i^2 at the same scale. eval's
activation residual (gram_residual) also reads only W_g^T C W_g, and
decomposes nothing.

whitened_svd and care_factorize are the dense reference path, which no
stage runs. They take S itself (calibration.whitening_operator) or any L
with L^T L = S^2, such as a Cholesky factor: L W has the singular values
and right singular vectors of S W, read off linalg.svd(L W). With S = I
this reduces to plain SVD truncation.

Geometry is a layer's shape and the one place it is checked: every size
is at least 1, d_model = n_heads * head_dim, n_groups divides n_heads, and
head h reads group floor(h * n_groups / n_heads). GroupedKv (a layer's
grouped K and V projections), its subclass GqaLayer and
manifest.LayerEntry are Geometries, and replicate_groups,
grouped_factorize, activation_residual and gram_residual take one.
The weight to approximate is the grouped projection W_g replicated to
full head width, W = W_g P, where P copies each group block to its
m = n_heads / n_groups heads and P P^T = m I. So if S W_g = U Sigma V^T,
then S W = U (sqrt(m) Sigma) (V^T P / sqrt(m)) is an SVD of S W.
grouped_factorize therefore truncates the whitened SVD of W_g at grouped
width (D x Geometry.grouped_width) and lifts its factors:

    w_a = sqrt(m) W_g V_r = W_g A,    A = sqrt(m) V_r
    w_b = replicate_groups(V_r^T) / sqrt(m)     (orthonormal rows)

MlaFactors carries A (a_k, a_v), which gram_residual checks, not solves for.

Residuals at head width are m times their grouped-width values; the
retained energy fraction is unchanged by the lift. The replicated weight
has rank grouped_width, which is also the latent width that leaves
the per-token cache unchanged; at that rank the factorization is exact.

Each layer format owns its per-token cache width: GroupedKv.cache_width
(and so GqaLayer's) is 2 * grouped_width, and MlaFactors.cache_width is
r_k + r_v, the latent widths read off the factor shapes.
"""

import math
from dataclasses import asdict, dataclass, field, fields
from typing import NamedTuple

import numpy as np

from . import linalg
from .calibration import CalibrationBatch, Ridge
from .errors import ValidationError

# Relative distance of w_a from W_g A above which gram_residual refuses it.
SPAN_TOL = 1e-10


@dataclass(frozen=True)
class Geometry:
    """Shape of one grouped-query attention layer: n_heads query heads of
    head_dim features that span d_model, reading n_groups shared key/value
    heads. The one place that checks it."""

    d_model: int
    n_heads: int
    head_dim: int
    n_groups: int

    def __post_init__(self):
        sizes = (self.d_model, self.n_heads, self.head_dim, self.n_groups)
        if min(sizes) < 1:
            raise ValidationError(
                f"d_model, n_heads, head_dim and n_groups must be >= 1, got {sizes}"
            )
        if self.n_heads * self.head_dim != self.d_model:
            raise ValidationError(
                f"n_heads * head_dim must equal d_model: "
                f"{self.n_heads} * {self.head_dim} != {self.d_model}"
            )
        if self.n_heads % self.n_groups != 0:
            raise ValidationError(
                f"n_groups {self.n_groups} does not divide n_heads {self.n_heads}"
            )

    @property
    def geometry(self) -> "Geometry":
        """These four sizes alone, without the fields a subclass adds."""
        return Geometry(self.d_model, self.n_heads, self.head_dim, self.n_groups)

    @property
    def grouped_width(self) -> int:
        """Columns of a grouped K or V projection: n_groups * head_dim."""
        return self.n_groups * self.head_dim

    @property
    def heads_per_group(self) -> int:
        """m = n_heads / n_groups, the heads that read each group."""
        return self.n_heads // self.n_groups

    @property
    def head_groups(self) -> np.ndarray:
        """The group each head reads: floor(h * n_groups / n_heads), so
        consecutive runs of heads_per_group heads share one group."""
        return np.arange(self.n_heads) * self.n_groups // self.n_heads


@dataclass(frozen=True)
class GroupedKv(Geometry):
    """The grouped key and value projections of one layer, each d_model x
    grouped_width: all that schedule and convert read of a source layer."""

    w_k_g: np.ndarray
    w_v_g: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        wk = linalg.as_matrix(self.w_k_g, "w_k_g")
        wv = linalg.as_matrix(self.w_v_g, "w_v_g")
        grouped = (self.d_model, self.grouped_width)
        if wk.shape != grouped or wv.shape != grouped:
            raise ValidationError(
                f"grouped projections must have shape {grouped}, "
                f"got {wk.shape} and {wv.shape}"
            )
        object.__setattr__(self, "w_k_g", wk)
        object.__setattr__(self, "w_v_g", wv)

    @property
    def cache_width(self) -> int:
        """Reals cached per token: one grouped key and one grouped value."""
        return 2 * self.grouped_width


@dataclass(frozen=True)
class GqaLayer(GroupedKv):
    """Weight bundle of one grouped-query attention layer: its grouped K and
    V projections and its d_model x d_model query projection, which is
    keyword-only."""

    w_q: np.ndarray = field(kw_only=True)

    def __post_init__(self):
        super().__post_init__()
        wq = linalg.as_matrix(self.w_q, "w_q")
        if wq.shape != (self.d_model, self.d_model):
            raise ValidationError(f"w_q has shape {wq.shape}")
        object.__setattr__(self, "w_q", wq)

    @classmethod
    def from_grouped(cls, kv: GroupedKv, w_q) -> "GqaLayer":
        """The layer of grouped projections `kv` and query projection `w_q`."""
        return cls(**asdict(kv.geometry), w_k_g=kv.w_k_g, w_v_g=kv.w_v_g, w_q=w_q)


class FactorPair(NamedTuple):
    """Down/up projection pair whose product approximates one weight."""

    w_a: np.ndarray
    w_b: np.ndarray


@dataclass(frozen=True)
class MlaFactors:
    """Latent factor bundle for one converted layer; the latent ranks r_k
    and r_v are the widths the factor shapes agree on. a_k and a_v, when
    given, are the coordinates A of each down-projection in its grouped
    weight's columns, w_a = W_g A (grouped_factorize)."""

    w_a_k: np.ndarray
    w_b_k: np.ndarray
    w_a_v: np.ndarray
    w_b_v: np.ndarray
    a_k: np.ndarray | None = None
    a_v: np.ndarray | None = None

    def __post_init__(self):
        arr = {f.name: linalg.as_matrix(getattr(self, f.name), f.name) for f in fields(self)
               if getattr(self, f.name) is not None}
        for kind in ("k", "v"):
            w_a, w_b, a = arr[f"w_a_{kind}"], arr[f"w_b_{kind}"], arr.get(f"a_{kind}")
            if w_a.shape[1] != w_b.shape[0] or (a is not None and a.shape[1] != w_a.shape[1]):
                raise ValidationError(
                    f"{kind.upper()} factors disagree on the latent width: {w_a.shape[1]} "
                    f"columns vs {w_b.shape[0]} rows"
                    + ("" if a is None else f" vs {a.shape[1]} coordinate columns")
                )
        if arr["w_a_k"].shape[0] != arr["w_a_v"].shape[0]:
            raise ValidationError("K and V down-projections disagree on d_model")
        if arr["w_b_k"].shape[1] != arr["w_b_v"].shape[1]:
            raise ValidationError("K and V up-projections disagree on output width")
        for name, value in arr.items():
            object.__setattr__(self, name, value)

    @property
    def d_model(self) -> int:
        return self.w_a_k.shape[0]

    @property
    def out_width(self) -> int:
        return self.w_b_k.shape[1]

    @property
    def r_k(self) -> int:
        return self.w_a_k.shape[1]

    @property
    def r_v(self) -> int:
        return self.w_a_v.shape[1]

    @property
    def cache_width(self) -> int:
        """Reals cached per token: the K and V latents."""
        return self.r_k + self.r_v


@dataclass(frozen=True)
class FactorizationReport:
    """Residuals of one factorization, and the fraction of the whitened
    energy ||S W||_F^2 that the kept rank retains: sum_{i<=r} sigma_i^2 /
    sum_i sigma_i^2 over the singular values of S W (1 for a zero W)."""

    weight_residual_sq: float
    whitened_residual_sq: float
    rank_used: int
    retained_energy: float


def replicate_groups(w_g, geometry: Geometry) -> np.ndarray:
    """Expand a grouped projection to full head width: head h receives the
    column block of its group, geometry.head_groups[h], so consecutive runs
    of heads_per_group heads share one group block."""
    w_g = linalg.as_matrix(w_g, "w_g")
    if w_g.shape[1] != geometry.grouped_width:
        raise ValidationError(
            f"grouped weight has {w_g.shape[1]} columns, expected {geometry.grouped_width}"
        )
    d = w_g.shape[0]
    blocks = w_g.reshape(d, geometry.n_groups, 1, geometry.head_dim)
    return np.repeat(blocks, geometry.heads_per_group, axis=2).reshape(d, geometry.d_model)


class WhitenedSvd(NamedTuple):
    """Descending singular values of S @ w and the matching right singular
    vectors, as rows of V^T."""

    singular_values: np.ndarray
    v_t: np.ndarray


def whitened_svd(w, l) -> WhitenedSvd:
    """Sigma and V^T of S @ w, from linalg.svd(l @ w): the dense reference
    for gram_svd. `l` is S or any L with L^T L = S^2.

    Each pair's sign follows linalg.svd's convention on the left singular
    vectors of l @ w.
    """
    w = linalg.as_matrix(w, "w")
    l = linalg.as_matrix(l, "whitener")
    if l.shape[1] != w.shape[0]:
        raise ValidationError(
            f"whitener {l.shape} does not match weight rows {w.shape[0]}"
        )
    res = linalg.svd(l @ w)
    return WhitenedSvd(res.singular_values, res.v_t)


def truncate(w, spectrum: WhitenedSvd, r: int) -> tuple[FactorPair, FactorizationReport]:
    """Rank-r factors of w from its whitened SVD: w_b = V_r^T, w_a = w V_r.

    The whitened residual is the discarded energy sum_{i>r} sigma_i^2, which
    is exactly ||S (w - w_a w_b)||_F^2 for the optimal truncation, so
    neither S nor Y is needed here.
    """
    w = linalg.as_matrix(w, "w")
    p = min(w.shape)
    if not 1 <= r <= p:
        raise ValidationError(f"rank {r} out of range [1, {p}]")
    sigma = np.asarray(spectrum.singular_values, dtype=np.float64)
    if sigma.shape != (p,) or spectrum.v_t.shape != (p, w.shape[1]):
        raise ValidationError(
            f"spectrum {sigma.shape}, {spectrum.v_t.shape} does not match a weight "
            f"of shape {w.shape}"
        )
    w_b = spectrum.v_t[:r].copy()
    w_a = w @ w_b.T
    energy = sigma**2
    total = float(np.sum(energy))
    report = FactorizationReport(
        weight_residual_sq=linalg.frobenius_norm_sq(w - w_a @ w_b),
        whitened_residual_sq=float(np.sum(energy[r:])),
        rank_used=r,
        retained_energy=float(np.sum(energy[:r])) / total if total > 0.0 else 1.0,
    )
    return FactorPair(w_a, w_b), report


def care_factorize(w, l, r: int) -> tuple[FactorPair, FactorizationReport]:
    """Rank-r factorization of w minimizing the whitened residual:
    truncate(w, whitened_svd(w, l), r), for S or any L with L^T L = S^2.
    """
    return truncate(w, whitened_svd(w, l), r)


def grouped_factorize(
    w_g, spectrum: WhitenedSvd, r: int, geometry: Geometry
) -> tuple[FactorPair, FactorizationReport, np.ndarray]:
    """Rank-r factors of replicate_groups(w_g), computed at grouped width from
    `spectrum`, the whitened_svd of w_g, and the n x r coordinates
    A = sqrt(m) V_r of the down-projection, w_a = w_g A.

    w_g is truncated at rank r in [1, geometry.grouped_width], the rank of
    the replicated weight, and its factors are lifted to head width.
    """
    grouped, report_g = truncate(w_g, spectrum, r)
    m = geometry.heads_per_group
    gain = math.sqrt(m)
    w_a = gain * grouped.w_a
    w_b = replicate_groups(grouped.w_b, geometry) / gain
    report = FactorizationReport(
        weight_residual_sq=m * report_g.weight_residual_sq,
        whitened_residual_sq=m * report_g.whitened_residual_sq,
        rank_used=r,
        retained_energy=report_g.retained_energy,
    )
    return FactorPair(w_a, w_b), report, gain * grouped.w_b.T


def activation_residual(
    batches: list[CalibrationBatch], w, w_a, w_b, geometry: Geometry | None = None
) -> float:
    """Batch-averaged squared activation error of the factored weight w_a @ w_b,
    (1/N) sum ||X_b W - (X_b w_a) w_b||_F^2.

    W is w itself or, with a geometry, the grouped weight w replicated to
    head width; then each X_b w is formed at
    grouped width and lifted with replicate_groups, so W never enters a
    product. Each batch passes through the rank-r latent, so the full-width
    product w_a @ w_b is never formed either.
    """
    if not batches:
        raise ValidationError("empty batch list")
    w = linalg.as_matrix(w, "w")
    w_a = linalg.as_matrix(w_a, "w_a")
    w_b = linalg.as_matrix(w_b, "w_b")
    width = w.shape[1] if geometry is None else geometry.d_model
    if w_a.shape[0] != w.shape[0] or w_b.shape[1] != width or w_a.shape[1] != w_b.shape[0]:
        raise ValidationError(
            f"factors {w_a.shape} @ {w_b.shape} do not approximate a "
            f"{(w.shape[0], width)} weight"
        )
    total = 0.0
    for batch in batches:
        if batch.x.shape[1] != w.shape[0]:
            raise ValidationError(
                f"batch dim {batch.x.shape[1]} does not match weight rows {w.shape[0]}"
            )
        diff = batch.x @ w
        if geometry is not None:
            diff = replicate_groups(diff, geometry)
        diff -= (batch.x @ w_a) @ w_b
        total += linalg.frobenius_norm_sq(diff)
    return total / len(batches)


def gram_residual(g, w_g, a, w_a, w_b, geometry: Geometry) -> float:
    """activation_residual of the factored weight w_a @ w_b against the
    grouped weight w_g replicated to head width, from the n x n Gram
    G = W_g^T C W_g of the covariance C = (1/N) sum_b X_b^T X_b of the N
    batches instead of the batches. `a` is the n x r certificate A of
    w_a = W_g A that convert writes (grouped_factorize); then

        dW = replicate_groups(W_g) - w_a w_b = W_g E,  E = replicate_groups(I_n) - A w_b,

    so (1/N) sum_b ||X_b dW||_F^2 = tr(dW^T C dW) = tr(E^T G E), for any w_b
    and any rank of W_g. A w_a farther than SPAN_TOL (relative) from W_g A
    is refused. Nothing is decomposed.
    """
    g, w_g, a, w_a, w_b = (linalg.as_matrix(x, name) for x, name in
                           ((g, "Gram"), (w_g, "w_g"), (a, "A"), (w_a, "w_a"), (w_b, "w_b")))
    n = geometry.grouped_width
    if (g.shape != (n, n) or w_g.shape[1] != n or w_a.shape[0] != w_g.shape[0]
            or a.shape != (n, w_a.shape[1]) or w_b.shape[1] != geometry.d_model
            or w_a.shape[1] != w_b.shape[0]):
        raise ValidationError(
            f"Gram {g.shape}, coordinates {a.shape} and factors {w_a.shape} @ {w_b.shape} do "
            f"not fit the grouped {w_g.shape} weight at head width {geometry.d_model}"
        )
    size = linalg.frobenius_norm_sq(w_a)
    off = linalg.frobenius_norm_sq(w_a - w_g @ a)
    if off > SPAN_TOL**2 * size:
        raise ValidationError(
            f"down-projection lies {math.sqrt(off / size):.2e} (relative) from the grouped "
            f"weight times its coordinates A (at most {SPAN_TOL:g} is accepted)"
        )
    e = replicate_groups(np.eye(n), geometry) - a @ w_b
    return float(np.einsum("ij,ij->", e, g @ e))


def gram_svd(gram) -> WhitenedSvd:
    """Sigma and V^T of S @ w from its n x n Gram G = (S w)^T (S w), as
    G = V diag(sigma^2) V^T.

    G's eigenvalues are PSD-clamped, which refuses a G that is not PSD
    beyond rounding noise (NumericalError), before the square root; each
    row of V^T takes linalg.sym_eig's sign convention.
    """
    eig = linalg.sym_eig(gram)
    vals, _ = linalg.clamp_psd(eig.eigenvalues)
    return WhitenedSvd(np.sqrt(vals), np.ascontiguousarray(eig.eigenvectors.T))


def raw_grams(layer: GroupedKv, c) -> np.ndarray:
    """The parameter-free Grams of the grouped K and V projections against
    covariance `c`, as one (2, 2, n, n) array: slab 0 is K and slab 1 is V,
    each W_g^T C W_g then (C W_g)^T (C W_g). What schedule stores; C
    [W_k | W_v] is the one D x D product."""
    c = linalg.as_matrix(c, "covariance")
    if c.shape != (layer.d_model, layer.d_model):
        raise ValidationError(f"covariance {c.shape} does not match d_model {layer.d_model}")
    n = layer.grouped_width
    c_w = c @ np.hstack((layer.w_k_g, layer.w_v_g))
    return np.stack([np.stack((w.T @ cw, cw.T @ cw))
                     for w, cw in ((layer.w_k_g, c_w[:, :n]), (layer.w_v_g, c_w[:, n:]))])


def layer_spectra(layer: GroupedKv, grams, ridge: Ridge) -> tuple[WhitenedSvd, WhitenedSvd]:
    """The whitened SVDs of the grouped K and V projections against the
    damped covariance `ridge`, from their raw_grams: what schedule
    water-fills and convert_layer truncates. Each kind's whitened Gram and
    its eigendecomposition are n x n."""
    n = layer.grouped_width
    grams = np.asarray(grams, dtype=np.float64)
    if grams.shape != (2, 2, n, n):
        raise ValidationError(f"Grams of shape {grams.shape}, expected {(2, 2, n, n)}")
    return tuple(gram_svd(ridge.gram(g, h, w.T @ w))
                 for w, (g, h) in zip((layer.w_k_g, layer.w_v_g), grams))


def convert_layer(
    layer: GroupedKv, spectra: tuple[WhitenedSvd, WhitenedSvd], r_k: int, r_v: int
) -> tuple[MlaFactors, FactorizationReport, FactorizationReport]:
    """Factorize the grouped K and V projections independently by truncating
    `spectra`, their whitened SVDs against one whitener (layer_spectra),
    with the coordinates a_k and a_v. The caller refuses a singular
    whitener first."""
    pair_k, report_k, a_k = grouped_factorize(layer.w_k_g, spectra[0], r_k, layer)
    pair_v, report_v, a_v = grouped_factorize(layer.w_v_g, spectra[1], r_v, layer)
    factors = MlaFactors(pair_k.w_a, pair_k.w_b, pair_v.w_a, pair_v.w_b, a_k, a_v)
    return factors, report_k, report_v
