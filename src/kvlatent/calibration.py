"""Calibration-batch ingestion and covariance estimation.

The second moment is accumulated uncentered and unnormalized per batch:
C = (1/N) sum_b X_b^T X_b over the N batches of one layer. Whitening and
the rank scheduler both rely on the identity between the batch-averaged
activation error and the covariance-weighted weight error, which holds only
for this raw form; the textbook centered covariance (subtract the empirical
mean, optionally 1/(N-1)) is deliberately not used anywhere in the pipeline.

A layer's Whitener comes from one eigendecomposition of C and one
ShrinkageParams, the only owner of the weighting, alpha and lam defaults.
"""

import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .errors import NumericalError, ValidationError

WEIGHTING_SQRT = "sqrtC"
WEIGHTING_COV = "C"
WEIGHTINGS = (WEIGHTING_SQRT, WEIGHTING_COV)
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
    """The setting a whitener is built from: its base operator, `weighting`,
    and the ridge blend (1 - alpha) * base + alpha * lam * I keeping it
    invertible. lam may be "auto", which resolves to the mean eigenvalue of
    the base operator (trace / dim). Numbers are ints or floats, not bools."""

    alpha: float = 0.01
    lam: float | str = "auto"
    weighting: str = WEIGHTING_SQRT

    def __post_init__(self):
        if not _is_number(self.alpha) or not 0.0 < self.alpha < 1.0:
            raise ValidationError(f"alpha must be a number in (0, 1), got {self.alpha!r}")
        if self.lam != "auto" and not (_is_number(self.lam) and 0.0 < self.lam <= FLOAT_MAX):
            raise ValidationError(f"lambda must be finite and positive or 'auto', got {self.lam!r}")
        if self.weighting not in WEIGHTINGS:
            raise ValidationError(f"unknown weighting {self.weighting!r}, not one of {WEIGHTINGS}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _lambda_for(params: ShrinkageParams, mean_eig: float) -> float:
    """Concrete ridge scale. "auto" is the mean eigenvalue of the operator
    being shrunk; a zero mean falls back to 1.0 so the scale stays positive."""
    if params.lam != "auto":
        return float(params.lam)
    return mean_eig if mean_eig > 0.0 else 1.0


@dataclass(frozen=True)
class Whitener:
    """One layer's shrunk whitening operator S, kept in eigen form.

    S = Q diag(eigenvalues) Q^T, where Q holds the eigenvectors of the
    covariance C and `eigenvalues` are those of S, non-increasing:
    (1 - alpha) sqrt(c_i) + alpha lam for "sqrtC" and (1 - alpha) c_i +
    alpha lam for "C". `lam` is the resolved ridge scale and `clamped` the
    number of slightly negative eigenvalues of C that were set to zero.
    The factor L, S itself and the numerical-health figures all come from
    this one eigendecomposition. A whitener built from eigenvalues alone
    (`eigenvectors` None) carries the health figures and check_invertible,
    but neither L nor S.
    """

    eigenvectors: np.ndarray | None
    eigenvalues: np.ndarray
    lam: float
    weighting: str
    clamped: int = 0

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=np.float64)
        if self.eigenvectors is not None:
            q = linalg.as_matrix(self.eigenvectors, "eigenvectors")
            if q.shape != (vals.size, vals.size):
                raise ValidationError(
                    f"eigenvectors {q.shape} do not match {vals.size} eigenvalues"
                )
            object.__setattr__(self, "eigenvectors", q)
        object.__setattr__(self, "eigenvalues", vals)

    def _basis(self) -> np.ndarray:
        if self.eigenvectors is None:
            raise ValidationError("whitener was built from eigenvalues alone")
        return self.eigenvectors

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
        return self.eigenvalues[:, None] * self._basis().T

    @cached_property
    def matrix(self) -> np.ndarray:
        """S itself, symmetric."""
        q = self._basis()
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
    any PSD clamp; with `eig.eigenvectors` None the whitener holds the
    shrunk eigenvalues alone. Weighting "sqrtC" shrinks the PSD square root
    of C; "C" uses the covariance itself, shrunk the same way with its own
    auto scale. Both refuse a C that is not PSD beyond rounding noise.
    """
    vals, clamped = linalg.clamp_psd(eig.eigenvalues)
    base = np.sqrt(vals) if params.weighting == WEIGHTING_SQRT else vals
    lam = _lambda_for(params, float(np.mean(base)))
    shrunk = (1.0 - params.alpha) * base + params.alpha * lam
    return Whitener(eig.eigenvectors, shrunk, lam, params.weighting, clamped)


def build_whitener(c, params: ShrinkageParams) -> Whitener:
    """The shrunk whitener of covariance `c`, from one eigendecomposition."""
    return whitener_from_eig(linalg.sym_eig(c), params)


def whitening_operator(c, params: ShrinkageParams) -> np.ndarray:
    """The shrunk operator that multiplies weights before factorization."""
    return build_whitener(c, params).matrix

