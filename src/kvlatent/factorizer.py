"""Whitened low-rank factorization and the GQA-to-latent weight mapping.

care_factorize is the one whitened factorization. It finds the rank-r W_hat
that minimizes ||S (W - W_hat)||_F against a layer's whitening operator S
(a calibration.Whitener, built from one eigendecomposition of the
covariance and shared by K and V). If S W = U Sigma V^T, the optimum is
W_hat = W V_r V_r^T, so only Sigma and V are needed:

    w_a = W V_r                   (down-projection; equals S^-1 U_r Sigma_r)
    w_b = V_r^T                   (up-projection, orthonormal rows)

and the whitened residual is the discarded energy sum_{i>r} sigma_i^2.
It runs in two steps: whitened_svd computes (Sigma, V^T), and truncate
keeps the top r. layer_spectra takes the first step for a layer's K and
V; schedule water-fills on its result and stores it, and convert_layer
truncates it, stored or recomputed.

Neither S, S^-1 nor U is formed. The whitener's factor L = diag(s) Q^T has
L^T L = S^2, so Y = L W has the singular values and right singular vectors
of S W. The SVD is taken of the n x n R factor of Y = Q_Y R, which again
shares them, so the SVD has at most n rows. With S = I this reduces to
plain SVD truncation.

Geometry is a layer's shape and the one place it is checked: every size
is at least 1, d_model = n_heads * head_dim, n_groups divides n_heads, and
head h reads group floor(h * n_groups / n_heads). GroupedKv (a layer's
grouped K and V projections), its subclass GqaLayer and
manifest.LayerEntry are Geometries, and replicate_groups,
grouped_factorize, activation_residual and covariance_residual take one.
The weight to approximate is the grouped projection W_g replicated to
full head width, W = W_g P, where P copies each group block to its
m = n_heads / n_groups heads and P P^T = m I. So if S W_g = U Sigma V^T,
then S W = U (sqrt(m) Sigma) (V^T P / sqrt(m)) is an SVD of S W.
grouped_factorize therefore truncates the whitened SVD of W_g at grouped
width (D x Geometry.grouped_width) and lifts its factors:

    w_a = sqrt(m) W_g V_r
    w_b = replicate_groups(V_r^T) / sqrt(m)     (orthonormal rows)

Residuals at head width are m times their grouped-width values; the
retained energy fraction is unchanged by the lift. The replicated weight
has rank grouped_width, which is also the latent width that leaves
the per-token cache unchanged; at that rank the factorization is exact.

Each layer format owns its per-token cache width: GroupedKv.cache_width
(and so GqaLayer's) is 2 * grouped_width, and MlaFactors.cache_width is
r_k + r_v, the latent widths read off the factor shapes.
"""

import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from . import linalg
from .calibration import CalibrationBatch, Whitener
from .errors import ValidationError


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
    and r_v are the widths the factor shapes agree on."""

    w_a_k: np.ndarray
    w_b_k: np.ndarray
    w_a_v: np.ndarray
    w_b_v: np.ndarray

    def __post_init__(self):
        wak = linalg.as_matrix(self.w_a_k, "w_a_k")
        wbk = linalg.as_matrix(self.w_b_k, "w_b_k")
        wav = linalg.as_matrix(self.w_a_v, "w_a_v")
        wbv = linalg.as_matrix(self.w_b_v, "w_b_v")
        for kind, w_a, w_b in (("K", wak, wbk), ("V", wav, wbv)):
            if w_a.shape[1] != w_b.shape[0]:
                raise ValidationError(
                    f"{kind} factors disagree on the latent width: "
                    f"{w_a.shape[1]} columns vs {w_b.shape[0]} rows"
                )
        if wak.shape[0] != wav.shape[0]:
            raise ValidationError("K and V down-projections disagree on d_model")
        if wbk.shape[1] != wbv.shape[1]:
            raise ValidationError("K and V up-projections disagree on output width")
        for name, arr in (("w_a_k", wak), ("w_b_k", wbk), ("w_a_v", wav), ("w_b_v", wbv)):
            object.__setattr__(self, name, arr)

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


def whitened_svd(w, whitener: Whitener) -> WhitenedSvd:
    """Sigma and V^T of S @ w, from the SVD of the R factor of Y = L @ w.

    Each pair's sign follows linalg.svd's convention on the left singular
    vectors of R. Both schedule (which water-fills Sigma) and convert
    (which truncates V^T) take their spectra from here.
    """
    w = linalg.as_matrix(w, "w")
    if whitener.dim != w.shape[0]:
        raise ValidationError(
            f"whitener dim {whitener.dim} does not match weight rows {w.shape[0]}"
        )
    res = linalg.svd(linalg.qr_r(whitener.factor @ w))
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


def care_factorize(w, whitener: Whitener, r: int) -> tuple[FactorPair, FactorizationReport]:
    """Rank-r factorization of w minimizing the whitened residual:
    truncate(w, whitened_svd(w, whitener), r). The whitener must be
    shrinkage-regularized upstream; a singular one is refused.
    """
    whitener.check_invertible()
    return truncate(w, whitened_svd(w, whitener), r)


def grouped_factorize(
    w_g, spectrum: WhitenedSvd, r: int, geometry: Geometry
) -> tuple[FactorPair, FactorizationReport]:
    """Rank-r factors of replicate_groups(w_g), computed at grouped width from
    `spectrum`, the whitened_svd of w_g.

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
    return FactorPair(w_a, w_b), report


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


def covariance_residual(c, w_g, w_a, w_b, geometry: Geometry) -> float:
    """activation_residual of the factored weight w_a @ w_b against the
    grouped weight w_g replicated to head width, from the covariance
    C = (1/N) sum_b X_b^T X_b of the N batches instead of the batches:

        (1/N) sum_b ||X_b dW||_F^2 = tr(dW^T C dW),  dW = replicate_groups(w_g) - w_a w_b.

    It is summed over head blocks, C dW_h = (C w_g)_g(h) - (C w_a) (w_b)_h,
    so neither dW nor any other D x D product is formed; the cost is
    D^2 (grouped_width + r) plus D r d_model, whatever the token count.
    """
    c = linalg.as_matrix(c, "c")
    w_g = linalg.as_matrix(w_g, "w_g")
    w_a = linalg.as_matrix(w_a, "w_a")
    w_b = linalg.as_matrix(w_b, "w_b")
    d = w_g.shape[0]
    if c.shape != (d, d):
        raise ValidationError(f"covariance {c.shape} does not match weight rows {d}")
    if (w_g.shape[1] != geometry.grouped_width or w_a.shape[0] != d
            or w_b.shape[1] != geometry.d_model or w_a.shape[1] != w_b.shape[0]):
        raise ValidationError(
            f"factors {w_a.shape} @ {w_b.shape} do not approximate the grouped "
            f"{w_g.shape} weight at head width {geometry.d_model}"
        )
    c_w_g = c @ w_g
    c_w_a = c @ w_a
    hd = geometry.head_dim
    total = 0.0
    for h, g in enumerate(geometry.head_groups):
        group, head = slice(g * hd, (g + 1) * hd), slice(h * hd, (h + 1) * hd)
        diff = w_g[:, group] - w_a @ w_b[:, head]
        c_diff = c_w_g[:, group] - c_w_a @ w_b[:, head]
        total += float(np.vdot(diff, c_diff))
    return total


def ablate_singular_value(w, i: int) -> tuple[float, np.ndarray]:
    """The i-th largest singular value (1-based) of w, and w with it zeroed,
    both from one SVD."""
    w = linalg.as_matrix(w, "w")
    res = linalg.svd(w)
    p = int(res.singular_values.shape[0])
    if not 1 <= i <= p:
        raise ValidationError(f"index {i} out of range [1, {p}]")
    damped = res.singular_values.copy()
    damped[i - 1] = 0.0
    return float(res.singular_values[i - 1]), (res.u * damped) @ res.v_t


def layer_spectra(layer: GroupedKv, whitener: Whitener) -> tuple[WhitenedSvd, WhitenedSvd]:
    """whitened_svd of the grouped K and V projections against the layer's
    one whitener: what schedule water-fills and stores, and what
    convert_layer truncates."""
    return whitened_svd(layer.w_k_g, whitener), whitened_svd(layer.w_v_g, whitener)


def convert_layer(
    layer: GroupedKv, spectra: tuple[WhitenedSvd, WhitenedSvd], r_k: int, r_v: int
) -> tuple[MlaFactors, FactorizationReport, FactorizationReport]:
    """Factorize the grouped K and V projections independently by truncating
    `spectra`, their layer_spectra against one whitener, such as the ones
    schedule stored. The caller refuses a singular whitener first."""
    (pair_k, report_k) = grouped_factorize(layer.w_k_g, spectra[0], r_k, layer)
    (pair_v, report_v) = grouped_factorize(layer.w_v_g, spectra[1], r_v, layer)
    factors = MlaFactors(pair_k.w_a, pair_k.w_b, pair_v.w_a, pair_v.w_b)
    return factors, report_k, report_v
