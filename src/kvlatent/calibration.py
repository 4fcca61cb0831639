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

The pipeline never forms S. A Ridge holds the two scalars, built from
tr(C) and D alone (ridge): schedule takes the trace of each covariance it
reads and records it with the layer's Grams, and convert builds its Ridge
from that record without reading C. Its gram is the n x n matrix
(S W)^T (S W) of a D x n weight W, formed from three parameter-free
n x n Grams, W^T C W, (C W)^T (C W) and W^T W, whose eigendecomposition
gives the whitened singular values and right singular vectors
(factorizer.layer_spectra). A Ridge refuses a numerically
singular S from two bounds alone, without any decomposition.

whitening_operator forms the same S densely, from one D x D
eigendecomposition of C. No stage calls it: it is the reference that the
tests check the Gram path against.
"""

import math
import sys
from dataclasses import dataclass, field

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
# A whitener whose smallest eigenvalue is below this fraction of its largest
# is treated as singular; shrinkage keeps real pipelines well away from it.
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


@dataclass(frozen=True)
class Ridge:
    """The scalars that, with C, define one layer's damped covariance
    B = (1 - alpha) C + alpha lam I, which is never formed: the setting,
    the resolved scale `lam` and `trace` = tr(C), the one figure of C
    itself that a Ridge needs (ridge).

    The whitener is S = B^(1/2) under "damped" and S = B under "C"; gram
    gives (S W)^T (S W) for a weight W from W's parameter-free Grams.
    """

    params: ShrinkageParams
    lam: float
    trace: float

    def gram(self, g: np.ndarray, h: np.ndarray, m: np.ndarray) -> np.ndarray:
        """(S w)^T (S w), n x n, for a D x n weight w from g = w^T C w,
        h = (C w)^T (C w) and m = w^T w, since B w = (1 - alpha) C w +
        alpha lam w:

            "damped":  w^T B w     = (1 - alpha) g + alpha lam m
            "C":       (B w)^T B w = (1 - alpha)^2 h
                                     + 2 (1 - alpha) alpha lam g + (alpha lam)^2 m

        Under "C" the Gram is a square, PSD whatever C is, so w^T B w is
        checked first: one that is not PSD beyond rounding noise is refused
        (NumericalError), as factorizer.gram_svd refuses it under "damped".
        The ridge term sets the noise scale, so a w in C's null space is not
        refused.
        """
        a, r = 1.0 - self.params.alpha, self.params.alpha * self.lam
        w_b_w = a * g + r * m
        if self.params.weighting == WEIGHTING_DAMPED:
            return w_b_w
        linalg.clamp_psd(linalg.sym_eig(w_b_w).eigenvalues)
        return a * a * h + 2.0 * a * r * g + r * r * m

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


def ridge(trace: float, dim: int, params: ShrinkageParams) -> Ridge:
    """The damped covariance under `params` of a `dim` x `dim` covariance C
    whose trace is `trace`, which is all of C it needs. "auto" lam resolves
    to the mean eigenvalue tr(C) / D; a mean that is not positive falls
    back to 1.0 so the scale stays positive."""
    if params.lam != "auto":
        lam = float(params.lam)
    else:
        mean = trace / dim
        lam = mean if mean > 0.0 else 1.0
    return Ridge(params, lam, trace)


def whitening_operator(c, params: ShrinkageParams) -> np.ndarray:
    """The shrunk operator S of covariance `c`, formed densely from one
    eigendecomposition of C: the tests' reference, which no stage calls.

    lam resolves as in ridge. Both weightings refuse a C that is not PSD
    beyond rounding noise (NumericalError, from linalg.clamp_psd).
    """
    c = linalg.as_matrix(c, "covariance")
    lam = ridge(float(np.trace(c)), len(c), params).lam
    eig = linalg.sym_eig(c)
    vals, _ = linalg.clamp_psd(eig.eigenvalues)
    shrunk = (1.0 - params.alpha) * vals + params.alpha * lam
    if params.weighting == WEIGHTING_DAMPED:
        shrunk = np.sqrt(shrunk)
    q = eig.eigenvectors
    s = (q * shrunk) @ q.T
    return (s + s.T) / 2.0
