"""Dense linear algebra kernels with deterministic conventions.

All routines operate on 2-D float64 arrays and are pure functions of their
inputs. Eigen- and singular decompositions apply fixed sign conventions so
that identical input bytes always produce identical output bytes, which the
conversion pipeline relies on for reproducible artifacts. They and
frobenius_norm_sq run numpy's bundled OpenBLAS on one thread: its `eigh` at
n = 256 and its long dot products give other bytes on two threads.
"""

import contextlib
import ctypes
import functools
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, ValidationError

# Relative symmetry slack accepted before symmetrizing internally.
SYMMETRY_TOL = 1e-8
# Negative eigenvalues above -PSD_CLAMP_REL * lambda_max count as rounding noise.
PSD_CLAMP_REL = 1e-8
# Rows per block of the upper triangle that sym_eig's symmetry check reads.
_SYMMETRY_BLOCK = 128
# Entries below this magnitude are ignored when picking the sign anchor of a
# singular vector.
_SIGN_EPS = 1e-12


@functools.cache
def _openblas_threads():
    """The thread-count getter and setter of the OpenBLAS in numpy's wheels
    (`numpy.libs`), or None where there is none (another BLAS build, say)."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(
            "libscipy_openblas*.so*")):
        with contextlib.suppress(OSError, AttributeError):
            lib = ctypes.CDLL(str(path))
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
            get.argtypes, get.restype = (), ctypes.c_int
            set_.argtypes, set_.restype = (ctypes.c_int,), None
            return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with OpenBLAS on one thread and restore the old count
    afterwards; where _openblas_threads finds none, run it unpinned."""
    get, set_ = _openblas_threads() or (lambda: None, lambda threads: None)
    old = get()
    set_(1)
    try:
        yield
    finally:
        set_(old)


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
    with _one_blas_thread():
        return float(np.vdot(a, a))


def sym_eig(s) -> EigResult:
    """Eigendecomposition of a symmetric matrix, eigenvalues non-increasing.

    Sign convention: in each eigenvector the entry of largest magnitude is
    made positive, ties broken by lowest row index. A nearly symmetric input
    is symmetrized as (S + S^T)/2 before decomposing; an exactly symmetric
    one is decomposed as it is, since (S + S^T)/2 is then S bit for bit.
    The eigenvectors come back C-contiguous.
    """
    s = as_matrix(s, "s")
    if s.shape[0] != s.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {s.shape}")
    if s.size:
        asym = _max_asymmetry(s)
        scale = max(1.0, float(np.max(s)), -float(np.min(s)))
        if asym > SYMMETRY_TOL * scale:
            raise ValidationError("input is not symmetric")
        if asym > 0.0:
            s = (s + s.T) / 2.0
    try:
        with _one_blas_thread():
            vals, vecs = np.linalg.eigh(s)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from None
    signs = _eig_signs(vecs)
    # Reverse to non-increasing order and anchor the signs in one pass.
    anchored = np.empty(vecs.shape)
    np.multiply(vecs[:, ::-1], signs[::-1], out=anchored)
    return EigResult(vals[::-1].copy(), anchored)


def _max_asymmetry(s: np.ndarray) -> float:
    """max(s - s^T), read over row blocks of the upper triangle.

    s_ij - s_ji is exactly -(s_ji - s_ij) in floating point, so the largest
    magnitude over the upper triangle equals the max over the whole matrix,
    and no n x n difference is formed.
    """
    n = s.shape[0]
    asym = 0.0
    for i in range(0, n, _SYMMETRY_BLOCK):
        j = min(i + _SYMMETRY_BLOCK, n)
        diff = s[i:j, i:] - s[i:, i:j].T
        asym = max(asym, float(np.max(diff)), -float(np.min(diff)))
    return asym


def _eig_signs(vecs: np.ndarray) -> np.ndarray:
    """+1 or -1 per column: the sign that makes the column's entry of
    largest magnitude (lowest row on ties) positive.

    A column whose largest positive and negative entries differ in
    magnitude takes its sign from the column max and min; only columns
    where they tie are searched row by row.
    """
    signs = np.ones(vecs.shape[1])
    if vecs.size:
        top = np.max(vecs, axis=0)
        bottom = -np.min(vecs, axis=0)
        signs[bottom > top] = -1.0
        for j in np.flatnonzero(bottom == top):
            col = vecs[:, j]
            if col[np.argmax(np.abs(col))] < 0.0:
                signs[j] = -1.0
    return signs


def clamp_psd(eigenvalues: np.ndarray) -> tuple[np.ndarray, int]:
    """Non-increasing eigenvalues of a PSD matrix with rounding noise
    clamped, and the number clamped.

    Eigenvalues in [-PSD_CLAMP_REL * lambda_max, 0) are set to zero and
    counted; anything more negative means the matrix is genuinely not PSD.
    """
    vals = eigenvalues
    lam_max = max(float(vals[0]) if vals.size else 0.0, 0.0)
    if vals.size and float(vals[-1]) < -PSD_CLAMP_REL * lam_max:
        raise NumericalError(
            f"matrix is not PSD: eigenvalue {vals[-1]:g} below clamp threshold"
        )
    clamped = int(np.count_nonzero(vals < 0.0))
    return np.clip(vals, 0.0, None), clamped


def sqrt_psd(s) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition (clamped by clamp_psd)."""
    res = sym_eig(s)
    vals, _ = clamp_psd(res.eigenvalues)
    root = (res.eigenvectors * np.sqrt(vals)) @ res.eigenvectors.T
    return (root + root.T) / 2.0


def svd(a) -> SvdResult:
    """Singular value decomposition with a deterministic sign convention.

    In each column of U the first entry with magnitude above 1e-12 is made
    positive and the matching row of V^T is flipped in tandem.
    """
    a = as_matrix(a, "a")
    try:
        with _one_blas_thread():
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
