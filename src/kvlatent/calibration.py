"""Calibration-batch ingestion, covariance estimation and the whitening setting.

The second moment is accumulated uncentered and unnormalized per batch:
C = (1/N) sum_b X_b^T X_b over the N batches of one layer. Whitening and
the rank scheduler both rely on the identity between the batch-averaged
activation error and the covariance-weighted weight error, which holds only
for this raw form; the textbook centered covariance (subtract the empirical
mean, optionally 1/(N-1)) is deliberately not used anywhere in the pipeline.

ShrinkageParams is the only owner of the weighting, alpha and lam defaults.
Every whitening shrinks the covariance to the damped covariance
B = (1 - alpha) C + alpha lam I, where "auto" lam is tr(C) / D. Weighting
"damped" (the default) whitens with S = B^(1/2), so S^2 = B, and weighting
"C" with S = B itself.

The pipeline never forms S. A Ridge holds the two scalars; its gram
is the n x n matrix (S W)^T (S W) of a D x n weight W, formed from C W,
whose eigendecomposition gives the whitened singular values and right
singular vectors (factorizer.layer_spectra). A Ridge refuses a numerically
singular S from two bounds alone, without any decomposition.

A Whitener is the same S in eigen form, from one D x D eigendecomposition
of C (build_whitener). No stage builds one: it is the dense reference that
the tests check the Gram path against.
"""

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .errors import NumericalError, ValidationError

WEIGHTING_DAMPED = "damped"
WEIGHTING_COV = "C"
WEIGHTINGS = (WEIGHTING_DAMPED, WEIGHTING_COV)
# The default weighting of earlier versions, S = (1 - alpha) sqrt(C) + alpha
# lam I. A document or flag that names it is refused rather than read as
# "damped", whose numbers differ.
WEIGHTING_RETIRED = "sqrtC"
# Whitener eigenvalues below this fraction of the largest are treated as
# singular; shrinkage keeps real pipelines well away from it.
WHITENER_FLOOR_REL = 1e-12
# A lam must be a float: an int beyond this, like inf, has no float value.
FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class CalibrationBatch:
    """One batch of layer-input activations, shape (tokens, dim)."""

    layer: int
    x: np.ndarray

    def __post_init__(self):
        x = linalg.as_matrix(self.x, "batch activations")
        if x.shape[0] < 1:
            raise ValidationError("a calibration batch needs at least one token")
        object.__setattr__(self, "x", x)


@dataclass(frozen=True)
class CovarianceAccumulator:
    """Running uncentered second-moment sum over a layer's batches."""

    dim: int
    batch_count: int = 0
    sum_xtx: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError("dim must be positive")
        if self.batch_count < 0:
            raise ValidationError("batch_count cannot be negative")
        s = self.sum_xtx
        if s is None:
            s = np.zeros((self.dim, self.dim))
        s = linalg.as_matrix(s, "sum_xtx")
        if s.shape != (self.dim, self.dim):
            raise ValidationError(
                f"sum_xtx shape {s.shape} does not match dim {self.dim}"
            )
        object.__setattr__(self, "sum_xtx", s)


def accumulate(acc: CovarianceAccumulator, batch: CalibrationBatch) -> CovarianceAccumulator:
    """Fold one batch into the accumulator, returning a new accumulator."""
    if batch.x.shape[1] != acc.dim:
        raise ValidationError(
            f"batch dim {batch.x.shape[1]} does not match accumulator dim {acc.dim}"
        )
    update = batch.x.T @ batch.x
    update = (update + update.T) / 2.0
    return CovarianceAccumulator(acc.dim, acc.batch_count + 1, acc.sum_xtx + update)


def finalize(acc: CovarianceAccumulator) -> np.ndarray:
    """Average the accumulated sum into the covariance matrix."""
    if acc.batch_count < 1:
        raise ValidationError("no calibration data: zero batches accumulated")
    c = acc.sum_xtx / acc.batch_count
    return (c + c.T) / 2.0


@dataclass(frozen=True)
class ShrinkageParams:
    """The setting a whitener is built from: the ridge blend
    B = (1 - alpha) C + alpha lam I keeping the covariance invertible, and
    the `weighting` that whitens with it, S = B^(1/2) ("damped") or S = B
    ("C"). lam may be "auto", which resolves to the mean eigenvalue of C,
    tr(C) / D. Numbers are ints or floats, not bools."""

    alpha: float = 0.01
    lam: float | str = "auto"
    weighting: str = WEIGHTING_DAMPED

    def __post_init__(self):
        if not _is_number(self.alpha) or not 0.0 < self.alpha < 1.0:
            raise ValidationError(f"alpha must be a number in (0, 1), got {self.alpha!r}")
        if self.lam != "auto" and not (_is_number(self.lam) and 0.0 < self.lam <= FLOAT_MAX):
            raise ValidationError(f"lambda must be finite and positive or 'auto', got {self.lam!r}")
        if self.weighting == WEIGHTING_RETIRED:
            raise ValidationError(
                f"weighting {WEIGHTING_RETIRED!r} is retired; use {WEIGHTING_DAMPED!r}, which "
                f"whitens with S^2 = (1 - alpha) C + alpha lam I, or {WEIGHTING_COV!r}"
            )
        if self.weighting not in WEIGHTINGS:
            raise ValidationError(f"unknown weighting {self.weighting!r}, not one of {WEIGHTINGS}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _resolve_lambda(params: ShrinkageParams, trace: float, dim: int) -> float:
    """Concrete ridge scale. "auto" is the mean eigenvalue of the covariance,
    tr(C) / D; a mean that is not positive falls back to 1.0 so the scale
    stays positive."""
    if params.lam != "auto":
        return float(params.lam)
    mean = trace / dim
    return mean if mean > 0.0 else 1.0


@dataclass(frozen=True)
class Ridge:
    """The scalars that, with C, define one layer's damped covariance
    B = (1 - alpha) C + alpha lam I, which is never formed: the setting,
    the resolved scale `lam` and `trace` = tr(C).

    The whitener is S = B^(1/2) under "damped" and S = B under "C"; gram
    gives (S W)^T (S W) for a weight W, from C W alone.
    """

    params: ShrinkageParams
    lam: float
    trace: float

    def gram(self, w: np.ndarray, c_w: np.ndarray) -> np.ndarray:
        """(S w)^T (S w), n x n, for a D x n weight w with c_w = C @ w:

            "damped":  (1 - alpha) w^T (C w) + alpha lam w^T w
            "C":       (B w)^T (B w),  B w = (1 - alpha) C w + alpha lam w

        The "damped" Gram is w^T B w. Under "C" the Gram is a square, PSD
        whatever C is, so w^T B w is checked first: one that is not PSD
        beyond rounding noise is refused (NumericalError), as factorizer.
        gram_svd refuses it under "damped". The ridge term sets the noise
        scale, so a w in C's null space is not refused.
        """
        alpha, shift = self.params.alpha, self.params.alpha * self.lam
        w_b_w = (1.0 - alpha) * (w.T @ c_w) + shift * (w.T @ w)
        if self.params.weighting == WEIGHTING_DAMPED:
            return w_b_w
        linalg.clamp_psd(linalg.sym_eig(w_b_w).eigenvalues)
        b_w = (1.0 - alpha) * c_w + shift * w
        return b_w.T @ b_w

    def check_invertible(self) -> None:
        """Refuse a numerically singular S, decided without a decomposition.

        For a PSD C, B's eigenvalues lie in [alpha lam, (1 - alpha) tr(C) +
        alpha lam]: the ridge bounds the smallest from below and the trace
        the largest from above. S is refused when the lower bound on its
        smallest eigenvalue is at most WHITENER_FLOOR_REL times the upper
        bound on its largest (square roots of both under "damped").
        """
        low = self.params.alpha * self.lam
        high = (1.0 - self.params.alpha) * max(self.trace, 0.0) + low
        if self.params.weighting == WEIGHTING_DAMPED:
            low, high = math.sqrt(low), math.sqrt(high)
        if not low > WHITENER_FLOOR_REL * high:
            raise NumericalError("singular whitener: apply shrinkage before factorizing")


def ridge(c: np.ndarray, params: ShrinkageParams) -> Ridge:
    """The damped covariance of the square matrix `c` under `params`; costs
    one trace."""
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValidationError(f"covariance must be square, got shape {c.shape}")
    trace = float(np.trace(c))
    return Ridge(params, _resolve_lambda(params, trace, c.shape[0]), trace)


@dataclass(frozen=True)
class Whitener:
    """One layer's shrunk whitening operator S, kept in eigen form: the
    dense reference for the Gram path, which no stage builds.

    S = Q diag(eigenvalues) Q^T, where Q holds the eigenvectors of the
    covariance C and `eigenvalues` are those of S, non-increasing:
    sqrt((1 - alpha) c_i + alpha lam) for "damped" and (1 - alpha) c_i +
    alpha lam for "C". `lam` is the resolved ridge scale and `clamped` the
    number of slightly negative eigenvalues of C that were set to zero.
    The factor L, S itself and the numerical-health figures all come from
    this one eigendecomposition.
    """

    eigenvectors: np.ndarray
    eigenvalues: np.ndarray
    lam: float
    weighting: str
    clamped: int = 0

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=np.float64)
        q = linalg.as_matrix(self.eigenvectors, "eigenvectors")
        if q.shape != (vals.size, vals.size):
            raise ValidationError(
                f"eigenvectors {q.shape} do not match {vals.size} eigenvalues"
            )
        object.__setattr__(self, "eigenvectors", q)
        object.__setattr__(self, "eigenvalues", vals)

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def condition(self) -> float:
        return self.lambda_max / self.lambda_min if self.lambda_min > 0.0 else float("inf")

    @cached_property
    def factor(self) -> np.ndarray:
        """L = diag(eigenvalues) Q^T, the whitener in its own eigenbasis.

        L^T L = S^2, so L @ w has the singular values and right singular
        vectors of S @ w, and ||L @ e||_F = ||S @ e||_F for any e. Forming
        L costs one row scaling; forming S costs a D x D x D product.
        """
        return self.eigenvalues[:, None] * self.eigenvectors.T

    @cached_property
    def matrix(self) -> np.ndarray:
        """S itself, symmetric."""
        q = self.eigenvectors
        s = (q * self.eigenvalues) @ q.T
        return (s + s.T) / 2.0

    def check_invertible(self) -> None:
        """Refuse a numerically singular S, which shrinkage should prevent."""
        lam_max = max(self.lambda_max, 0.0)
        if lam_max <= 0.0 or self.lambda_min <= WHITENER_FLOOR_REL * lam_max:
            raise NumericalError("singular whitener: apply shrinkage before factorizing")


def whitener_from_eig(eig: linalg.EigResult, params: ShrinkageParams) -> Whitener:
    """The shrunk whitener of a covariance, from its eigendecomposition.

    `eig` is `linalg.sym_eig` of C: raw eigenvalues, non-increasing, before
    any PSD clamp. The ridge scale resolves from their sum, tr(C). Both
    weightings refuse a C that is not PSD beyond rounding noise.
    """
    vals, clamped = linalg.clamp_psd(eig.eigenvalues)
    lam = _resolve_lambda(params, float(np.sum(eig.eigenvalues)), max(vals.size, 1))
    shrunk = (1.0 - params.alpha) * vals + params.alpha * lam
    if params.weighting == WEIGHTING_DAMPED:
        shrunk = np.sqrt(shrunk)
    return Whitener(eig.eigenvectors, shrunk, lam, params.weighting, clamped)


def build_whitener(c, params: ShrinkageParams) -> Whitener:
    """The shrunk whitener of covariance `c`, from one eigendecomposition."""
    return whitener_from_eig(linalg.sym_eig(c), params)


def whitening_operator(c, params: ShrinkageParams) -> np.ndarray:
    """The shrunk operator S, formed densely: the tests' reference."""
    return build_whitener(c, params).matrix
