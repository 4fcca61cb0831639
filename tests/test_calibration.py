import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import anisotropic_batches, covariance_of, gen, random_orthogonal, ridge_of
from kvlatent import linalg
from kvlatent.calibration import (
    WHITENER_FLOOR_REL,
    CalibrationBatch,
    CovarianceAccumulator,
    ShrinkageParams,
    accumulate,
    finalize,
    ridge,
    whitening_operator,
)
from kvlatent.errors import NumericalError, ValidationError


def batch(x, layer=0):
    return CalibrationBatch(layer=layer, x=np.asarray(x, dtype=float))


class TestAccumulate:
    def test_hand_computed_gram(self):
        acc = accumulate(CovarianceAccumulator(2), batch([[1.0, 0.0], [0.0, 2.0]]))
        assert acc.batch_count == 1
        assert np.allclose(acc.sum_xtx, [[1.0, 0.0], [0.0, 4.0]])

    def test_zero_batch(self):
        acc = accumulate(CovarianceAccumulator(2), batch([[1.0, 1.0]]))
        acc2 = accumulate(acc, batch(np.zeros((3, 2))))
        assert acc2.batch_count == 2
        assert np.array_equal(acc2.sum_xtx, acc.sum_xtx)

    def test_linearity(self):
        b = batch([[1.0, 2.0], [3.0, -1.0]])
        once = accumulate(CovarianceAccumulator(2), b)
        twice = accumulate(once, b)
        assert np.allclose(twice.sum_xtx, 2 * once.sum_xtx)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            accumulate(CovarianceAccumulator(3), batch([[1.0, 2.0]]))


class TestFinalize:
    def test_single_batch(self):
        acc = accumulate(CovarianceAccumulator(2), batch([[1.0, 0.0], [0.0, 2.0]]))
        assert np.allclose(finalize(acc), [[1.0, 0.0], [0.0, 4.0]])

    def test_all_zero_batches(self):
        acc = CovarianceAccumulator(2)
        for _ in range(3):
            acc = accumulate(acc, batch(np.zeros((2, 2))))
        assert np.array_equal(finalize(acc), np.zeros((2, 2)))

    def test_averaging_invariance(self):
        b = batch([[1.0, -2.0], [0.5, 3.0]])
        one = finalize(accumulate(CovarianceAccumulator(2), b))
        acc = CovarianceAccumulator(2)
        for _ in range(5):
            acc = accumulate(acc, b)
        assert np.allclose(finalize(acc), one)

    def test_zero_batches_error(self):
        with pytest.raises(ValidationError, match="no calibration data"):
            finalize(CovarianceAccumulator(4))

    def test_psd_property(self):
        rng = gen(102)
        for _ in range(10):
            batches = [batch(rng.standard_normal((3, 5))) for _ in range(4)]
            c = covariance_of(batches)
            for _ in range(5):
                v = rng.standard_normal(5)
                assert v @ c @ v >= -1e-10

    def test_scale_equivariance(self):
        rng = gen(103)
        batches = [batch(rng.standard_normal((4, 3))) for _ in range(3)]
        scaled = [batch(2.5 * b.x) for b in batches]
        assert np.allclose(covariance_of(scaled), 2.5**2 * covariance_of(batches))


class TestShrinkage:
    def test_params_validation(self):
        with pytest.raises(ValidationError):
            ShrinkageParams(alpha=0.0)
        with pytest.raises(ValidationError):
            ShrinkageParams(alpha=1.0)
        with pytest.raises(ValidationError):
            ShrinkageParams(alpha=0.5, lam=-1.0)
        with pytest.raises(ValidationError):
            ShrinkageParams(alpha=0.5, lam="later")

    def test_identity_fixed_point(self):
        out = whitening_operator(np.eye(3), ShrinkageParams(alpha=0.5, lam=1.0))
        assert np.allclose(out, np.eye(3))

    def test_zero_covariance(self):
        out = whitening_operator(np.zeros((2, 2)), ShrinkageParams(alpha=0.01, lam=2.0))
        assert np.allclose(out, math.sqrt(0.02) * np.eye(2))

    def test_per_eigenvalue_arithmetic(self):
        out = whitening_operator(np.diag([4.0, 0.0]), ShrinkageParams(alpha=0.01, lam=1.0))
        assert np.allclose(out, np.diag([math.sqrt(0.99 * 4.0 + 0.01), math.sqrt(0.01)]))

    def test_auto_lambda_is_mean_eigenvalue(self):
        # trace(diag(2, 0)) / 2 = 1, so "auto" matches lam=1.0 here
        c = np.diag([2.0, 0.0])
        auto = whitening_operator(c, ShrinkageParams(alpha=0.01, lam="auto"))
        explicit = whitening_operator(c, ShrinkageParams(alpha=0.01, lam=1.0))
        assert np.allclose(auto, explicit)

    def test_minimum_eigenvalue_floor(self):
        rng = gen(104)
        batches = [batch(rng.standard_normal((2, 6))) for _ in range(2)]
        c = covariance_of(batches)  # rank deficient: 4 rows for dim 6
        params = ShrinkageParams(alpha=0.01, lam="auto")
        out = whitening_operator(c, params)
        lam = np.trace(c) / c.shape[0]
        eigs = np.linalg.eigvalsh(out)
        assert eigs.min() >= math.sqrt(params.alpha * lam) * (1 - 1e-12)

    def test_invertible_after_shrinkage(self):
        rng = gen(105)
        batches = [batch(rng.standard_normal((3, 8))) for _ in range(2)]
        c = covariance_of(batches)
        params = ShrinkageParams(alpha=0.01, lam="auto")
        s = whitening_operator(c, params)
        ridge_of(c, params).check_invertible()
        inv = np.linalg.inv(s)
        assert np.all(np.isfinite(inv))
        assert np.max(np.abs(s @ inv - np.eye(8))) <= 1e-9

    def test_retired_weighting_names_its_successor(self):
        with pytest.raises(ValidationError, match="'sqrtC' is retired; use 'damped'"):
            ShrinkageParams(weighting="sqrtC")


class TestWhiteningOperator:
    def test_sqrt_mode_matches_shrunk_sqrt(self):
        # "damped" is the default: S = ((1 - alpha) C + alpha lam I)^(1/2)
        rng = gen(106)
        c = covariance_of([batch(rng.standard_normal((6, 4))) for _ in range(3)])
        params = ShrinkageParams()
        lam = np.trace(c) / 4
        explicit = linalg.sqrt_psd((1.0 - params.alpha) * c + params.alpha * lam * np.eye(4))
        out = whitening_operator(c, replace(params, weighting="damped"))
        assert np.array_equal(whitening_operator(c, params), out)
        assert np.max(np.abs(out - explicit)) <= 1e-12 * np.max(np.abs(explicit))

    def test_cov_mode_uses_covariance_directly(self):
        c = np.diag([4.0, 1.0])
        params = ShrinkageParams(alpha=0.5, lam=1.0, weighting="C")
        out = whitening_operator(c, params)
        assert np.allclose(out, np.diag([0.5 * 4.0 + 0.5, 0.5 * 1.0 + 0.5]))

    def test_modes_differ_on_anisotropic_input(self):
        c = np.diag([9.0, 1.0])
        params = ShrinkageParams(alpha=0.01, lam=1.0)
        damped_op = whitening_operator(c, replace(params, weighting="damped"))
        cov_op = whitening_operator(c, replace(params, weighting="C"))
        assert not np.allclose(damped_op, cov_op)

    def test_unknown_mode(self):
        with pytest.raises(ValidationError):
            whitening_operator(np.eye(2), ShrinkageParams(weighting="fisher"))

    @staticmethod
    def covariance(seed, dim=12):
        rng = gen(seed)
        return covariance_of(anisotropic_batches(rng, 4, 16, dim, cond=400.0))

    def test_inverse_round_trip(self):
        c = self.covariance(111)
        ridge_of(c, ShrinkageParams()).check_invertible()
        s = whitening_operator(c, ShrinkageParams())
        assert np.max(np.abs(s @ np.linalg.inv(s) - np.eye(12))) <= 1e-12

    @pytest.mark.parametrize("weighting", ["damped", "C"])
    @pytest.mark.parametrize("lam", ["auto", 0.3])
    def test_matches_the_formula(self, weighting, lam):
        c = self.covariance(112)
        params = ShrinkageParams(alpha=0.05, lam=lam, weighting=weighting)
        explicit = explicit_operator(c, params)
        scale = np.max(np.abs(explicit))
        assert np.max(np.abs(whitening_operator(c, params) - explicit)) <= 1e-12 * scale

    @pytest.mark.parametrize("weighting", ["damped", "C"])
    def test_auto_lambda_is_trace_over_dim(self, weighting):
        c = self.covariance(113)
        params = ShrinkageParams(weighting=weighting)
        expected = float(np.trace(c)) / c.shape[0]
        explicit = whitening_operator(c, replace(params, lam=expected))
        scale = np.max(np.abs(explicit))
        assert np.max(np.abs(whitening_operator(c, params) - explicit)) <= 1e-12 * scale
        assert ridge_of(c, params).lam == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("weighting", ["damped", "C"])
    def test_lambda_resolves_as_the_ridge_does(self, weighting):
        # The operator and the stages' Ridge resolve lam alike, including an
        # int lam and the fallback to 1.0 when tr(C) is not positive.
        for c, lam in ((self.covariance(114), "auto"), (self.covariance(114), 2),
                       (np.zeros((12, 12)), "auto")):
            params = ShrinkageParams(alpha=0.05, lam=lam, weighting=weighting)
            resolved = ridge_of(c, params).lam
            explicit = explicit_operator(c, replace(params, lam=resolved))
            scale = np.max(np.abs(explicit))
            assert np.max(np.abs(whitening_operator(c, params) - explicit)) <= 1e-12 * scale
        assert resolved == 1.0

    @pytest.mark.parametrize("weighting", ["damped", "C"])
    def test_factor_carries_the_whitened_metric(self, weighting):
        # A Cholesky factor L of S^2 (L^T L = S^2) gives the Ridge's Gram and
        # the whitened norms that S gives.
        rng = gen(116)
        c = self.covariance(116)
        params = ShrinkageParams(weighting=weighting)
        s = whitening_operator(c, params)
        factor = np.linalg.cholesky(s @ s).T
        assert np.max(np.abs(factor.T @ factor - s @ s)) <= 1e-12 * np.max(np.abs(s @ s))
        w = rng.standard_normal((12, 5))
        gram = ridge_of(c, params).gram(*raw_grams(c, w))
        by_factor = (factor @ w).T @ (factor @ w)
        assert np.max(np.abs(by_factor - gram)) <= 1e-12 * np.max(np.abs(gram))
        e = rng.standard_normal((12, 7))
        assert linalg.frobenius_norm_sq(factor @ e) == pytest.approx(
            linalg.frobenius_norm_sq(s @ e), rel=1e-12
        )

    def test_unknown_weighting(self):
        for weighting in ("fisher", "sqrtC"):
            with pytest.raises(ValidationError, match="weighting"):
                whitening_operator(np.eye(2), ShrinkageParams(weighting=weighting))

    @pytest.mark.parametrize("weighting", ["damped", "C"])
    def test_is_exactly_symmetric(self, weighting):
        s = whitening_operator(self.covariance(117), ShrinkageParams(weighting=weighting))
        assert np.array_equal(s, s.T)

    def test_clamp_band_is_shrunk_like_zero(self):
        q = random_orthogonal(gen(115), 5)
        c = (q * np.array([1.0, 0.5, 0.25, -1e-10, -5e-9])) @ q.T
        c = (c + c.T) / 2.0
        params = ShrinkageParams(alpha=0.01, lam=1.0)
        eigs = np.linalg.eigvalsh(whitening_operator(c, params))
        assert eigs[0] == pytest.approx(math.sqrt(params.alpha * 1.0), rel=1e-6)

    @pytest.mark.parametrize("weighting", ["damped", "C"])
    def test_not_psd_is_numerical_error(self, weighting):
        with pytest.raises(NumericalError, match="not PSD"):
            whitening_operator(np.diag([1.0, -0.1]), ShrinkageParams(weighting=weighting))


def raw_grams(c, w):
    """w's parameter-free Grams w^T C w, (C w)^T (C w) and w^T w, which
    Ridge.gram takes."""
    c_w = c @ w
    return w.T @ c_w, c_w.T @ c_w, w.T @ w


def explicit_operator(c, params):
    """S by its definition, from the dense ridge B = (1 - alpha) C + alpha
    lam I with "auto" lam = tr(C) / D: B^(1/2) for "damped", B for "C"."""
    lam = float(np.trace(c)) / c.shape[0] if params.lam == "auto" else params.lam
    b = (1.0 - params.alpha) * c + params.alpha * lam * np.eye(c.shape[0])
    return linalg.sqrt_psd(b) if params.weighting == "damped" else b


class TestRidge:
    """The damped covariance the stages whiten with, against the dense S."""

    @pytest.mark.parametrize("weighting", ["damped", "C"])
    @pytest.mark.parametrize("lam", ["auto", 0.3])
    def test_gram_is_the_whitened_weights_gram(self, weighting, lam):
        c = TestWhiteningOperator.covariance(118)
        w = gen(118).standard_normal((12, 5))
        params = ShrinkageParams(alpha=0.05, lam=lam, weighting=weighting)
        s_w = explicit_operator(c, params) @ w
        expected = s_w.T @ s_w
        got = ridge_of(c, params).gram(*raw_grams(c, w))
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_c_gram_refuses_a_covariance_that_is_not_psd(self):
        # (B w)^T (B w) is PSD whatever C is, so w^T B w is checked first.
        c = -np.eye(4)
        w = gen(119).standard_normal((4, 2))
        with pytest.raises(NumericalError, match="not PSD"):
            ridge_of(c, ShrinkageParams(weighting="C")).gram(*raw_grams(c, w))

    @pytest.mark.parametrize("weighting", ["damped", "C"])
    def test_weights_in_the_null_space_are_not_refused(self, weighting):
        # Activations span 48 of 64 rotated dimensions and w reads only the
        # other 16: w^T C w is rounding noise of either sign, which the
        # ridge term outweighs.
        rng = gen(120)
        q = random_orthogonal(rng, 64)
        x = rng.standard_normal((32, 48)) @ q[:, :48].T
        c = x.T @ x / 4.0
        w = q[:, 48:56] @ rng.standard_normal((8, 8))
        params = ShrinkageParams(alpha=0.01, weighting=weighting)
        s_w = explicit_operator(c, params) @ w
        expected = s_w.T @ s_w
        got = ridge_of(c, params).gram(*raw_grams(c, w))
        assert np.max(np.abs(got - expected)) <= 1e-10 * np.max(np.abs(expected))
        assert linalg.clamp_psd(linalg.sym_eig(got).eigenvalues)[0][-1] > 0.0

    @pytest.mark.parametrize("trace, lam", [(12.0, 1.0), (0.0, 1.0), (-3.0, 1.0)])
    def test_auto_lambda_is_the_mean_eigenvalue_or_one(self, trace, lam):
        # A ridge takes only tr(C) and D, here of a 12 x 12 covariance.
        assert ridge(trace, 12, ShrinkageParams()).lam == lam
        assert ridge(trace, 12, ShrinkageParams(lam=2.5)).lam == 2.5

    @pytest.mark.parametrize("weighting", ["damped", "C"])
    def test_bounds_bracket_the_dense_spectrum(self, weighting):
        # The refusal reads two bounds; the whitener's eigenvalues lie within.
        c = TestWhiteningOperator.covariance(119)
        params = ShrinkageParams(weighting=weighting)
        r = ridge_of(c, params)
        low = params.alpha * r.lam
        high = (1 - params.alpha) * r.trace + low
        if weighting == "damped":
            low, high = math.sqrt(low), math.sqrt(high)
        eigs = np.linalg.eigvalsh(whitening_operator(c, params))
        assert low * (1 - 1e-12) <= eigs[0]
        assert eigs[-1] <= high * (1 + 1e-12)

    @pytest.mark.parametrize("weighting", ["damped", "C"])
    def test_singular_ridge_refused_without_a_decomposition(self, weighting, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigh", None)
        c = covariance_of([batch(gen(120).standard_normal((4, 16)))])  # rank 4 in 16 dims
        ridge_of(c, ShrinkageParams(weighting=weighting)).check_invertible()
        with pytest.raises(NumericalError, match="singular whitener"):
            ridge_of(c, ShrinkageParams(lam=1e-300, weighting=weighting)).check_invertible()

    def test_refusal_threshold(self):
        # "C" at alpha 0.5 and tr(C) 1: S's eigenvalues lie in
        # [lam / 2, (1 + lam) / 2], a ratio of lam / (1 + lam).
        for ratio, refused in ((WHITENER_FLOOR_REL * 0.5, True), (WHITENER_FLOOR_REL * 2, False)):
            r = ridge(1.0, 2, ShrinkageParams(alpha=0.5, lam=ratio, weighting="C"))
            if refused:
                with pytest.raises(NumericalError):
                    r.check_invertible()
            else:
                r.check_invertible()
