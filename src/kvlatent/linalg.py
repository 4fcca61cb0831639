"""Dense linear algebra kernels with deterministic conventions.

All routines operate on 2-D float64 arrays and are pure functions of their
inputs. Eigen- and singular decompositions apply fixed sign conventions so
that identical input bytes always produce identical output bytes, which the
conversion pipeline relies on for reproducible artifacts.
"""

from typing import NamedTuple

import numpy as np

from .errors import NumericalError, ValidationError

# Relative symmetry slack accepted before symmetrizing internally.
SYMMETRY_TOL = 1e-8
# Negative eigenvalues above -PSD_CLAMP_REL * lambda_max count as rounding noise.
PSD_CLAMP_REL = 1e-8
# Entries below this magnitude are ignored when picking the sign anchor of a
# singular vector.
_SIGN_EPS = 1e-12


class SvdResult(NamedTuple):
    u: np.ndarray
    singular_values: np.ndarray
    v_t: np.ndarray


class EigResult(NamedTuple):
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return `a` as a finite 2-D float64 array."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def frobenius_norm_sq(a) -> float:
    """Sum of squared entries."""
    a = as_matrix(a, "a")
    return float(np.vdot(a, a))


def sym_eig(s) -> EigResult:
    """Eigendecomposition of a symmetric matrix, eigenvalues non-increasing.

    Sign convention: in each eigenvector the entry of largest magnitude is
    made positive, ties broken by lowest row index. The input is symmetrized
    as (S + S^T)/2 before decomposing.
    """
    s = as_matrix(s, "s")
    if s.shape[0] != s.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {s.shape}")
    scale = max(1.0, float(np.max(np.abs(s))) if s.size else 0.0)
    if s.size and float(np.max(np.abs(s - s.T))) > SYMMETRY_TOL * scale:
        raise ValidationError("input is not symmetric")
    sym = (s + s.T) / 2.0
    try:
        vals, vecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from None
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    _anchor_eig_signs(vecs)
    return EigResult(vals, vecs)


def _anchor_eig_signs(vecs: np.ndarray) -> None:
    """Flip columns in place so each column's entry of largest magnitude
    (lowest row on ties) is positive."""
    if vecs.size:
        anchor = np.argmax(np.abs(vecs), axis=0)
        vecs *= np.where(vecs[anchor, np.arange(vecs.shape[1])] < 0.0, -1.0, 1.0)


def psd_eig(s) -> tuple[EigResult, int]:
    """Eigendecomposition of a symmetric PSD matrix, with the clamp count.

    Eigenvalues in [-PSD_CLAMP_REL * lambda_max, 0) are clamped to zero and
    counted; anything more negative means the input is genuinely not PSD.
    """
    res = sym_eig(s)
    vals = res.eigenvalues
    lam_max = max(float(vals[0]) if vals.size else 0.0, 0.0)
    if vals.size and float(vals[-1]) < -PSD_CLAMP_REL * lam_max:
        raise NumericalError(
            f"matrix is not PSD: eigenvalue {vals[-1]:g} below clamp threshold"
        )
    clamped = int(np.count_nonzero(vals < 0.0))
    return EigResult(np.clip(vals, 0.0, None), res.eigenvectors), clamped


def sqrt_psd(s) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition (clamped as in psd_eig)."""
    res, _ = psd_eig(s)
    root = (res.eigenvectors * np.sqrt(res.eigenvalues)) @ res.eigenvectors.T
    return (root + root.T) / 2.0


def svd(a) -> SvdResult:
    """Singular value decomposition with a deterministic sign convention.

    In each column of U the first entry with magnitude above 1e-12 is made
    positive and the matching row of V^T is flipped in tandem.
    """
    a = as_matrix(a, "a")
    try:
        u, sing, v_t = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed to converge: {exc}") from None
    u = u.copy()
    v_t = v_t.copy()
    _anchor_svd_signs(u, v_t)
    return SvdResult(u, sing.copy(), v_t)


def _anchor_svd_signs(u: np.ndarray, v_t: np.ndarray) -> None:
    """Flip columns of `u` and the matching rows of `v_t` in place so the
    first entry of each column above _SIGN_EPS in magnitude is positive.
    Columns without such an entry are left as they are."""
    if u.size:
        significant = np.abs(u) > _SIGN_EPS
        first = np.argmax(significant, axis=0)
        cols = np.arange(u.shape[1])
        flip = significant[first, cols] & (u[first, cols] < 0.0)
        signs = np.where(flip, -1.0, 1.0)
        u *= signs
        v_t *= signs[:, None]


def qr_r(a) -> np.ndarray:
    """The upper-triangular factor R of a = Q R, without forming Q.

    R has shape (min(m, n), n) and shares the singular values and right
    singular vectors of `a`, so an (m, n) matrix with m >= n can be
    decomposed through its n x n factor instead.
    """
    a = as_matrix(a, "a")
    try:
        return np.linalg.qr(a, mode="r")
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"QR factorization failed: {exc}") from None


def singular_values(a) -> np.ndarray:
    """Descending singular values alone, without the singular vectors."""
    a = as_matrix(a, "a")
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed to converge: {exc}") from None

