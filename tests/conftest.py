"""Shared helpers for the test suite."""

import numpy as np

from kvlatent import linalg
from kvlatent.linalg import EigResult, SvdResult, as_matrix, frobenius_norm_sq
from kvlatent.rng import make_generator


def gen(seed: int) -> np.random.Generator:
    return make_generator(seed)


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_psd(rng: np.random.Generator, n: int, cond: float = 10.0) -> np.ndarray:
    """Symmetric PSD matrix with eigenvalues spanning [1/cond, 1]."""
    q = random_orthogonal(rng, n)
    eigs = np.geomspace(1.0, 1.0 / cond, n)
    return (q * eigs) @ q.T


def anisotropic_batches(rng, n_batches, tokens, dim, cond=900.0):
    """Calibration batches whose rows follow an anisotropic Gaussian.

    The population covariance has condition number `cond`; the empirical
    second moment lands close to it given enough rows.
    """
    from kvlatent.calibration import CalibrationBatch

    q = random_orthogonal(rng, dim)
    scales = np.geomspace(1.0, 1.0 / np.sqrt(cond), dim)
    mix = q * scales
    return [
        CalibrationBatch(0, rng.standard_normal((tokens, dim)) @ mix.T)
        for _ in range(n_batches)
    ]


def covariance_of(batches):
    from kvlatent import calibration

    acc = calibration.CovarianceAccumulator(batches[0].x.shape[1])
    for batch in batches:
        acc = calibration.accumulate(acc, batch)
    return calibration.finalize(acc)


def plain_spectra(layer):
    """The unwhitened SVDs of a layer's grouped K and V projections, by the
    dense reference path with S = I: what convert_layer truncates into
    plain SVD factors."""
    from kvlatent.factorizer import whitened_svd

    identity = np.eye(layer.d_model)
    return whitened_svd(layer.w_k_g, identity), whitened_svd(layer.w_v_g, identity)


def ridge_of(c, params):
    """calibration.ridge of the covariance c under params, from its trace
    and dimension, as schedule builds it."""
    from kvlatent.calibration import ridge

    return ridge(float(np.trace(c)), len(c), params)


def pipeline_spectra(layer, c, params=None):
    """factorizer.layer_spectra of a layer against covariance c, from its
    raw_grams, as the stages compute it."""
    from kvlatent.calibration import ShrinkageParams
    from kvlatent.factorizer import layer_spectra, raw_grams

    return layer_spectra(layer, raw_grams(layer, c), ridge_of(c, params or ShrinkageParams()))


def truncate_svd(res, r: int):
    """The top-r singular triplets of a linalg.SvdResult."""
    return SvdResult(res.u[:, :r], res.singular_values[:r], res.v_t[:r, :])


def reconstruct(res) -> np.ndarray:
    """Multiply an SVD's factors back together: U diag(sigma) V^T."""
    return (res.u * res.singular_values) @ res.v_t


def whitened_error_sq(whitener, w, w_hat) -> float:
    """||whitener @ (w - w_hat)||_F^2 against a raw whitener matrix."""
    return frobenius_norm_sq(whitener @ (w - w_hat))


def reference_sym_eig(s) -> EigResult:
    """The body `linalg.sym_eig` used to run, kept as the byte oracle: it
    always symmetrizes, reverses with copies and anchors signs in place.
    Its `eigh` runs on one BLAS thread, as sym_eig's does."""
    s = as_matrix(s, "s")
    scale = max(1.0, float(np.max(np.abs(s))) if s.size else 0.0)
    assert not s.size or float(np.max(np.abs(s - s.T))) <= 1e-8 * scale
    with linalg._one_blas_thread():
        vals, vecs = np.linalg.eigh((s + s.T) / 2.0)
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    if vecs.size:
        anchor = np.argmax(np.abs(vecs), axis=0)
        vecs *= np.where(vecs[anchor, np.arange(vecs.shape[1])] < 0.0, -1.0, 1.0)
    return EigResult(vals, vecs)
