import numpy as np
import pytest

from conftest import anisotropic_batches, covariance_of, gen, random_orthogonal
from kvlatent import linalg
from kvlatent.calibration import (
    CalibrationBatch,
    CovarianceAccumulator,
    ShrinkageParams,
    Whitener,
    accumulate,
    build_whitener,
    finalize,
    whitener_from_eig,
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
        assert np.allclose(out, 0.02 * np.eye(2))

    def test_per_eigenvalue_arithmetic(self):
        out = whitening_operator(np.diag([4.0, 0.0]), ShrinkageParams(alpha=0.01, lam=1.0))
        assert np.allclose(out, np.diag([0.99 * 2.0 + 0.01, 0.01]))

    def test_auto_lambda_is_mean_sqrt_eigenvalue(self):
        # trace(sqrt(diag(4, 0))) / 2 = 1, so "auto" matches lam=1.0 here
        c = np.diag([4.0, 0.0])
        auto = whitening_operator(c, ShrinkageParams(alpha=0.01, lam="auto"))
        explicit = whitening_operator(c, ShrinkageParams(alpha=0.01, lam=1.0))
        assert np.allclose(auto, explicit)

    def test_minimum_eigenvalue_floor(self):
        rng = gen(104)
        batches = [batch(rng.standard_normal((2, 6))) for _ in range(2)]
        c = covariance_of(batches)  # rank deficient: 4 rows for dim 6
        params = ShrinkageParams(alpha=0.01, lam="auto")
        out = whitening_operator(c, params)
        lam = np.trace(linalg.sqrt_psd(c)) / c.shape[0]
        eigs = np.linalg.eigvalsh(out)
        assert eigs.min() >= params.alpha * lam * (1 - 1e-12)

    def test_invertible_after_shrinkage(self):
        rng = gen(105)
        batches = [batch(rng.standard_normal((3, 8))) for _ in range(2)]
        c = covariance_of(batches)
        params = ShrinkageParams(alpha=0.01, lam="auto")
        whitener = build_whitener(c, params)
        whitener.check_invertible()
        inv = np.linalg.inv(whitener.matrix)
        assert np.all(np.isfinite(inv))
        assert np.max(np.abs(whitener.matrix @ inv - np.eye(8))) <= 1e-9


class TestWhiteningOperator:
    def test_sqrt_mode_matches_shrunk_sqrt(self):
        # "sqrtC" is the default: (1 - alpha) sqrt(C) + alpha lam I
        rng = gen(106)
        c = covariance_of([batch(rng.standard_normal((6, 4))) for _ in range(3)])
        params = ShrinkageParams()
        root = linalg.sqrt_psd(c)
        lam = np.trace(root) / 4
        explicit = (1.0 - params.alpha) * root + params.alpha * lam * np.eye(4)
        out = whitening_operator(c, params, "sqrtC")
        assert np.array_equal(whitening_operator(c, params), out)
        assert np.max(np.abs(out - explicit)) <= 1e-12 * np.max(np.abs(explicit))

    def test_cov_mode_uses_covariance_directly(self):
        c = np.diag([4.0, 1.0])
        params = ShrinkageParams(alpha=0.5, lam=1.0)
        out = whitening_operator(c, params, "C")
        assert np.allclose(out, np.diag([0.5 * 4.0 + 0.5, 0.5 * 1.0 + 0.5]))

    def test_modes_differ_on_anisotropic_input(self):
        c = np.diag([9.0, 1.0])
        params = ShrinkageParams(alpha=0.01, lam=1.0)
        sqrt_op = whitening_operator(c, params, "sqrtC")
        cov_op = whitening_operator(c, params, "C")
        assert not np.allclose(sqrt_op, cov_op)

    def test_unknown_mode(self):
        with pytest.raises(ValidationError):
            whitening_operator(np.eye(2), ShrinkageParams(), "fisher")


class TestWhitener:
    """The one-eigendecomposition whitener against the explicit formulas."""

    @staticmethod
    def covariance(seed, dim=12):
        rng = gen(seed)
        return covariance_of(anisotropic_batches(rng, 4, 16, dim, cond=400.0))

    @staticmethod
    def resolve_lambda(base, params):
        """The ridge scale by its definition: "auto" is trace(base) / dim."""
        return float(np.trace(base)) / base.shape[0] if params.lam == "auto" else params.lam

    def explicit_operator(self, c, params, weighting):
        base = linalg.sqrt_psd(c) if weighting == "sqrtC" else c
        lam = self.resolve_lambda(base, params)
        return (1.0 - params.alpha) * base + params.alpha * lam * np.eye(c.shape[0])

    def test_inverse_round_trip(self):
        whitener = build_whitener(self.covariance(111), ShrinkageParams())
        whitener.check_invertible()
        identity = whitener.matrix @ np.linalg.inv(whitener.matrix)
        assert np.max(np.abs(identity - np.eye(whitener.dim))) <= 1e-12

    @pytest.mark.parametrize("weighting", ["sqrtC", "C"])
    def test_factor_carries_the_whitened_metric(self, weighting):
        # L^T L = S^2, so L @ w and S @ w share singular values and norms
        rng = gen(116)
        whitener = build_whitener(self.covariance(116), ShrinkageParams(), weighting)
        s, factor = whitener.matrix, whitener.factor
        scale = np.max(np.abs(s @ s))
        assert np.max(np.abs(factor.T @ factor - s @ s)) <= 1e-12 * scale
        w = rng.standard_normal((whitener.dim, 5))
        sigma = np.linalg.svd(s @ w, compute_uv=False)
        assert np.max(np.abs(np.linalg.svd(factor @ w, compute_uv=False) - sigma)) <= (
            1e-12 * sigma[0]
        )
        e = rng.standard_normal((whitener.dim, 7))
        assert linalg.frobenius_norm_sq(factor @ e) == pytest.approx(
            linalg.frobenius_norm_sq(s @ e), rel=1e-12
        )

    @pytest.mark.parametrize("weighting", ["sqrtC", "C"])
    @pytest.mark.parametrize("lam", ["auto", 0.3])
    def test_matrix_matches_operator_and_formula(self, weighting, lam):
        c = self.covariance(112)
        params = ShrinkageParams(alpha=0.05, lam=lam)
        whitener = build_whitener(c, params, weighting)
        explicit = self.explicit_operator(c, params, weighting)
        scale = np.max(np.abs(explicit))
        assert np.max(np.abs(whitener.matrix - whitening_operator(c, params, weighting))) == 0.0
        assert np.max(np.abs(whitener.matrix - explicit)) <= 1e-12 * scale
        assert whitener.weighting == weighting

    @pytest.mark.parametrize("weighting", ["sqrtC", "C"])
    def test_lambda_matches_resolve_lambda(self, weighting):
        c = self.covariance(113)
        params = ShrinkageParams()
        base = linalg.sqrt_psd(c) if weighting == "sqrtC" else c
        expected = self.resolve_lambda(base, params)
        assert build_whitener(c, params, weighting).lam == pytest.approx(expected, rel=1e-12)

    def test_health_figures_match_spectrum(self):
        whitener = build_whitener(self.covariance(114), ShrinkageParams())
        eigs = np.linalg.eigvalsh(whitener.matrix)
        assert whitener.lambda_min == pytest.approx(eigs[0], rel=1e-12)
        assert whitener.lambda_max == pytest.approx(eigs[-1], rel=1e-12)
        assert whitener.condition == pytest.approx(eigs[-1] / eigs[0], rel=1e-12)
        assert whitener.clamped == 0

    def test_clamp_band_is_counted(self):
        q = random_orthogonal(gen(115), 5)
        c = (q * np.array([1.0, 0.5, 0.25, -1e-10, -5e-9])) @ q.T
        c = (c + c.T) / 2.0
        params = ShrinkageParams(alpha=0.01, lam=1.0)
        whitener = build_whitener(c, params)
        assert whitener.clamped == 2
        assert whitener.lambda_min == pytest.approx(params.alpha * 1.0, rel=1e-6)

    @pytest.mark.parametrize("weighting", ["sqrtC", "C"])
    def test_not_psd_is_numerical_error(self, weighting):
        with pytest.raises(NumericalError, match="not PSD"):
            build_whitener(np.diag([1.0, -0.1]), ShrinkageParams(), weighting)

    def test_singular_whitener_refused(self):
        whitener = Whitener(np.eye(3), np.array([1.0, 1.0, 0.0]), 1.0, "C")
        with pytest.raises(NumericalError, match="shrinkage"):
            whitener.check_invertible()

    def test_unknown_weighting(self):
        with pytest.raises(ValidationError):
            build_whitener(np.eye(2), ShrinkageParams(), "fisher")
        with pytest.raises(ValidationError):
            whitener_from_eig(linalg.sym_eig(np.eye(2)), ShrinkageParams(), "fisher")

    @pytest.mark.parametrize("weighting", ["sqrtC", "C"])
    def test_from_eig_is_build_whitener_on_sym_eig(self, weighting):
        # Including the clamp band, so the clamp count comes from raw eigenvalues.
        q = random_orthogonal(gen(117), 6)
        c = (q * np.array([2.0, 1.0, 0.5, 0.25, 0.0, -1e-10])) @ q.T
        c = (c + c.T) / 2.0
        params = ShrinkageParams(alpha=0.05, lam="auto")
        built = build_whitener(c, params, weighting)
        given = whitener_from_eig(linalg.sym_eig(c), params, weighting)
        assert given.eigenvectors.tobytes() == built.eigenvectors.tobytes()
        assert given.eigenvalues.tobytes() == built.eigenvalues.tobytes()
        assert (given.lam, given.clamped, given.weighting) == (
            built.lam, built.clamped, built.weighting)
        assert given.clamped >= 1
