import math

import numpy as np
import pytest

from conftest import (
    anisotropic_batches,
    covariance_of,
    gen,
    identity_whitener,
    random_orthogonal,
    random_psd,
    reconstruct,
    truncate_svd,
    whitened_error_sq,
)
from kvlatent import calibration, linalg, scheduler
from kvlatent.calibration import WHITENER_FLOOR_REL, Whitener
from kvlatent.errors import NumericalError, ValidationError
from kvlatent.factorizer import (
    FactorizationReport,
    FactorPair,
    Geometry,
    GqaLayer,
    MlaFactors,
    activation_residual,
    ablate_singular_value,
    care_factorize,
    convert_layer,
    covariance_residual,
    grouped_factorize,
    layer_spectra,
    replicate_groups,
    truncate,
    whitened_svd,
)


def random_gqa_layer(rng, d_model=16, n_heads=4, n_groups=2) -> GqaLayer:
    head_dim = d_model // n_heads
    scale = 1.0 / np.sqrt(d_model)
    return GqaLayer(
        d_model=d_model,
        n_heads=n_heads,
        head_dim=head_dim,
        n_groups=n_groups,
        w_q=rng.standard_normal((d_model, n_heads * head_dim)) * scale,
        w_k_g=rng.standard_normal((d_model, n_groups * head_dim)) * scale,
        w_v_g=rng.standard_normal((d_model, n_groups * head_dim)) * scale,
    )


def geometry(n_heads, n_groups, head_dim) -> Geometry:
    return Geometry(n_heads * head_dim, n_heads, head_dim, n_groups)


def reference_replicate_groups(w_g, n_heads, n_groups, head_dim):
    """Per-head slice copy: the loop replicate_groups replaced, kept as its
    oracle."""
    out = np.empty((w_g.shape[0], n_heads * head_dim))
    for h in range(n_heads):
        g = (h * n_groups) // n_heads
        out[:, h * head_dim : (h + 1) * head_dim] = w_g[
            :, g * head_dim : (g + 1) * head_dim
        ]
    return out


def reference_care_factorize(w, s, r):
    """Whitened factorization against a raw whitener matrix s, inverted by
    its own eigendecomposition: the oracle for care_factorize."""
    w = linalg.as_matrix(w, "w")
    s = linalg.as_matrix(s, "s")
    if s.shape != (w.shape[0], w.shape[0]):
        raise ValidationError(f"whitener shape {s.shape} does not match weight rows {w.shape[0]}")
    p = min(w.shape)
    if not 1 <= r <= p:
        raise ValidationError(f"rank {r} out of range [1, {p}]")
    eig = linalg.sym_eig(s)
    lam_max = max(float(eig.eigenvalues[0]), 0.0)
    if lam_max <= 0.0 or float(eig.eigenvalues[-1]) <= WHITENER_FLOOR_REL * lam_max:
        raise NumericalError("singular whitener: apply shrinkage before factorizing")
    unwhiten = (eig.eigenvectors / eig.eigenvalues) @ eig.eigenvectors.T
    unwhiten = (unwhiten + unwhiten.T) / 2.0
    full = linalg.svd(s @ w)
    top = truncate_svd(full, r)
    w_a = unwhiten @ (top.u * top.singular_values)
    w_b = top.v_t.copy()
    w_hat = w_a @ w_b
    energy = full.singular_values**2
    report = FactorizationReport(
        weight_residual_sq=linalg.frobenius_norm_sq(w - w_hat),
        whitened_residual_sq=whitened_error_sq(s, w, w_hat),
        rank_used=r,
        retained_energy=float(np.sum(energy[:r]) / np.sum(energy)) if energy[0] > 0 else 1.0,
    )
    return FactorPair(w_a, w_b), report


def assert_matches_reference(pair, report, oracle_pair, oracle, energy):
    """Products and residuals agree with the oracle to 1e-12 relative."""
    product = pair.w_a @ pair.w_b
    expected = oracle_pair.w_a @ oracle_pair.w_b
    assert np.linalg.norm(product - expected) <= 1e-12 * np.linalg.norm(expected)
    for ours, theirs in (
        (report.weight_residual_sq, oracle.weight_residual_sq),
        (report.whitened_residual_sq, oracle.whitened_residual_sq),
    ):
        # at the true rank both residuals are rounding noise, so the
        # tolerance is floored by the whitened energy
        assert abs(ours - theirs) <= 1e-12 * max(theirs, energy * 1e-3)
    assert abs(report.retained_energy - oracle.retained_energy) <= 1e-12
    assert report.rank_used == oracle.rank_used


class TestReplicateGroups:
    def test_no_replication_when_groups_equal_heads(self):
        rng = gen(301)
        w = rng.standard_normal((6, 6))
        assert np.array_equal(replicate_groups(w, geometry(3, 3, 2)), w)

    def test_single_group_duplicates(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = replicate_groups(b, geometry(2, 1, 2))
        assert np.array_equal(out, np.hstack([b, b]))

    def test_replicated_rank_bound(self):
        rng = gen(302)
        n_heads, n_groups, head_dim = 8, 2, 4
        w_g = rng.standard_normal((32, n_groups * head_dim))
        out = replicate_groups(w_g, geometry(n_heads, n_groups, head_dim))
        sigma = linalg.svd(out).singular_values
        assert sigma[n_groups * head_dim] <= 1e-10 * sigma[0]

    def test_block_layout(self):
        # head h reads group floor(h * g / n): groups 0,0,1,1 for 4 heads, 2 groups
        w_g = np.arange(8.0).reshape(2, 4)
        out = replicate_groups(w_g, geometry(4, 2, 2))
        assert np.array_equal(out[:, 0:2], w_g[:, 0:2])
        assert np.array_equal(out[:, 2:4], w_g[:, 0:2])
        assert np.array_equal(out[:, 4:6], w_g[:, 2:4])
        assert np.array_equal(out[:, 6:8], w_g[:, 2:4])

    def test_column_count_must_be_grouped_width(self):
        with pytest.raises(ValidationError, match="6 columns, expected 4"):
            replicate_groups(np.ones((4, 6)), geometry(4, 2, 2))

    @pytest.mark.parametrize("head_dim", (1, 3, 4))
    @pytest.mark.parametrize("n_heads", (1, 2, 4, 8))
    def test_matches_reference_loop(self, n_heads, head_dim):
        rng = gen(303 + 10 * n_heads + head_dim)
        for n_groups in (g for g in range(1, n_heads + 1) if n_heads % g == 0):
            w_g = rng.standard_normal((5, n_groups * head_dim))
            got = replicate_groups(w_g, geometry(n_heads, n_groups, head_dim))
            want = reference_replicate_groups(w_g, n_heads, n_groups, head_dim)
            assert got.tobytes() == want.tobytes()


class TestCareFactorize:
    def test_matches_reference(self):
        rng = gen(310)
        for weighting in ("sqrtC", "C"):
            c = covariance_of(anisotropic_batches(rng, 4, 24, 12, cond=400.0))
            params = calibration.ShrinkageParams(weighting=weighting)
            whitener = calibration.build_whitener(c, params)
            w = rng.standard_normal((12, 9))
            energy = linalg.frobenius_norm_sq(whitener.matrix @ w)
            for r in (1, 4, 9):
                pair, report = care_factorize(w, whitener, r)
                oracle_pair, oracle = reference_care_factorize(w, whitener.matrix, r)
                assert_matches_reference(pair, report, oracle_pair, oracle, energy)
                assert pair.w_a.shape == (12, r) and pair.w_b.shape == (r, 9)

    def test_identity_whitener_matches_plain_bitwise(self):
        # The identity whitener's factor is exactly I, so care_factorize
        # truncates the plain SVD of w's R factor, bit for bit.
        rng = gen(311)
        w = rng.standard_normal((8, 12))
        care_pair, care_report = care_factorize(w, identity_whitener(8), 3)
        plain_pair, plain_report = truncate(w, linalg.svd(linalg.qr_r(w)), 3)
        assert care_pair.w_a.tobytes() == plain_pair.w_a.tobytes()
        assert care_pair.w_b.tobytes() == plain_pair.w_b.tobytes()
        assert care_report == plain_report

    def test_factor_product_equals_reconstruction(self):
        rng = gen(312)
        w = rng.standard_normal((10, 14))
        s = calibration.build_whitener(random_psd(rng, 10, cond=50.0), calibration.ShrinkageParams())
        pair, report = care_factorize(w, s, 5)
        w_hat = pair.w_a @ pair.w_b
        whitened = linalg.svd(s.matrix @ w)
        expected = np.linalg.inv(s.matrix) @ reconstruct(truncate_svd(whitened, 5))
        assert np.allclose(w_hat, expected, rtol=1e-9, atol=1e-12)
        assert report.rank_used == 5

    def test_parity_rank_is_exact_for_replicated_weights(self):
        rng = gen(313)
        layer = random_gqa_layer(rng)
        w = replicate_groups(layer.w_k_g, layer)
        s = calibration.build_whitener(random_psd(rng, 16, cond=30.0), calibration.ShrinkageParams())
        r = layer.n_groups * layer.head_dim
        _, report = care_factorize(w, s, r)
        sigma_top = linalg.svd(s.matrix @ w).singular_values[0]
        assert report.whitened_residual_sq <= 1e-16 * sigma_top**2

    def test_anisotropic_care_beats_plain_at_rank_one(self):
        # covariance diag(100, 1): strong direction is dim 0, but the weight
        # puts its energy along dim 1. Plain SVD keeps the big weight
        # direction; whitening keeps what the activations actually see.
        sqrt_c = Whitener(np.eye(2), np.array([10.0, 1.0]), 1.0, "sqrtC")
        w = np.diag([2.0, 10.0])
        care_pair, care_report = care_factorize(w, sqrt_c, 1)
        plain_pair, plain_report = care_factorize(w, identity_whitener(2), 1)
        plain_whitened = whitened_error_sq(sqrt_c.matrix, w, plain_pair.w_a @ plain_pair.w_b)
        assert np.isclose(care_report.whitened_residual_sq, 100.0)
        assert np.isclose(plain_whitened, 400.0)
        assert care_report.whitened_residual_sq < plain_whitened

    def test_whitened_optimality(self):
        rng = gen(314)
        for _ in range(10):
            d, n, r = 8, 10, 3
            w = rng.standard_normal((d, n))
            s = calibration.build_whitener(random_psd(rng, d, cond=80.0), calibration.ShrinkageParams())
            pair, report = care_factorize(w, s, r)
            # equals the whitened tail energy
            sigma = linalg.svd(s.matrix @ w).singular_values
            tail = float(np.sum(sigma[r:] ** 2))
            assert abs(report.whitened_residual_sq - tail) <= 1e-9 * max(tail, 1e-9)
            # beats plain truncation and random factors in the whitened metric
            plain_pair, _ = care_factorize(w, identity_whitener(d), r)
            plain_score = whitened_error_sq(s.matrix, w, plain_pair.w_a @ plain_pair.w_b)
            random_score = whitened_error_sq(
                s.matrix, w, rng.standard_normal((d, r)) @ rng.standard_normal((r, n))
            )
            assert report.whitened_residual_sq <= plain_score + 1e-12
            assert report.whitened_residual_sq <= random_score + 1e-12

    def test_singular_whitener_rejected(self):
        singular = Whitener(np.eye(3), np.array([1.0, 1.0, 0.0]), 1.0, "C")
        with pytest.raises(NumericalError, match="shrinkage"):
            care_factorize(np.eye(3), singular, 1)

    def test_rank_out_of_range(self):
        with pytest.raises(ValidationError):
            care_factorize(np.eye(3), identity_whitener(3), 4)


def oracle_case(case, weighting, seed):
    """A whitener and a weight for the oracle comparison.

    "decaying": the whitened spectrum falls geometrically to 1e-10 sigma_1.
    "rank_deficient": a rank-4 weight, so the tail is exactly zero.
    "wide", "wide_decaying": fewer rows than columns (D < n).
    """
    rng = gen(seed)
    d, n = (6, 9) if case.startswith("wide") else (12, 9)
    c = covariance_of(anisotropic_batches(rng, 4, 24, d, cond=400.0))
    whitener = calibration.build_whitener(c, calibration.ShrinkageParams(weighting=weighting))
    if case == "rank_deficient":
        return whitener, rng.standard_normal((d, 4)) @ rng.standard_normal((4, n))
    if case == "wide":
        return whitener, rng.standard_normal((d, n))
    p = min(d, n)
    u = random_orthogonal(rng, d)[:, :p]
    v = random_orthogonal(rng, n)[:, :p]
    whitened = (u * np.geomspace(1.0, 1e-10, p)) @ v.T
    return whitener, np.linalg.solve(whitener.matrix, whitened)


class TestCareFactorizeAgainstOracle:
    """The R-factor path against the explicit S, S^-1 and U of the oracle."""

    CASES = ["decaying", "rank_deficient", "wide", "wide_decaying"]

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("weighting", ["sqrtC", "C"])
    def test_every_rank_matches_oracle(self, case, weighting):
        whitener, w = oracle_case(case, weighting, 391)
        energy = linalg.frobenius_norm_sq(whitener.matrix @ w)
        for r in range(1, min(w.shape) + 1):
            pair, report = care_factorize(w, whitener, r)
            oracle_pair, oracle = reference_care_factorize(w, whitener.matrix, r)
            product = pair.w_a @ pair.w_b
            expected = oracle_pair.w_a @ oracle_pair.w_b
            assert np.linalg.norm(product - expected) <= 1e-9 * np.linalg.norm(expected)
            assert report.whitened_residual_sq <= (
                oracle.whitened_residual_sq * (1 + 1e-12) + 1e-18 * energy
            )
            assert pair.w_a.shape == (w.shape[0], r) and pair.w_b.shape == (r, w.shape[1])
            assert report.rank_used == r

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("weighting", ["sqrtC", "C"])
    def test_retained_energy_is_one_minus_relative_residual(self, case, weighting):
        whitener, w = oracle_case(case, weighting, 392)
        energy = linalg.frobenius_norm_sq(whitener.matrix @ w)
        for r in range(1, min(w.shape) + 1):
            _, report = care_factorize(w, whitener, r)
            expected = 1.0 - report.whitened_residual_sq / energy
            assert abs(report.retained_energy - expected) <= 1e-9
        assert report.retained_energy == 1.0

    def test_zero_weight_retains_everything(self):
        _, report = care_factorize(np.zeros((4, 3)), identity_whitener(4), 2)
        assert report.retained_energy == 1.0
        assert report.whitened_residual_sq == 0.0

    def test_svd_runs_on_the_r_factor(self, monkeypatch):
        whitener, w = oracle_case("decaying", "sqrtC", 393)
        shapes = []
        real = linalg.svd

        def recording(a):
            shapes.append(a.shape)
            return real(a)

        monkeypatch.setattr(linalg, "svd", recording)
        care_factorize(w, whitener, 3)
        assert shapes == [(w.shape[1], w.shape[1])]


class TestGroupedFactorize:
    """The grouped-width path against the reference on the replicated weight."""

    N_HEADS, HEAD_DIM = 4, 4
    D = N_HEADS * HEAD_DIM

    def geometry(self, n_groups):
        return geometry(self.N_HEADS, n_groups, self.HEAD_DIM)

    def setup_case(self, seed, n_groups, weighting):
        rng = gen(seed)
        c = covariance_of(anisotropic_batches(rng, 4, 24, self.D, cond=400.0))
        whitener = calibration.build_whitener(c, calibration.ShrinkageParams(weighting=weighting))
        w_g = rng.standard_normal((self.D, n_groups * self.HEAD_DIM)) / np.sqrt(self.D)
        w = replicate_groups(w_g, self.geometry(n_groups))
        return whitener, w_g, w

    @pytest.mark.parametrize("n_groups", [1, 2, 4])
    @pytest.mark.parametrize("weighting", ["sqrtC", "C"])
    def test_matches_oracle(self, n_groups, weighting):
        whitener, w_g, w = self.setup_case(381, n_groups, weighting)
        full = n_groups * self.HEAD_DIM
        energy = linalg.frobenius_norm_sq(whitener.matrix @ w)
        for r in sorted({1, max(1, full // 2), full}):
            pair, report = grouped_factorize(
                w_g, whitened_svd(w_g, whitener), r, self.geometry(n_groups)
            )
            oracle_pair, oracle = reference_care_factorize(w, whitener.matrix, r)
            assert_matches_reference(pair, report, oracle_pair, oracle, energy)
            assert report.rank_used == r
            assert np.allclose(pair.w_b @ pair.w_b.T, np.eye(r), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_groups", [1, 2, 4])
    @pytest.mark.parametrize("weighting", ["sqrtC", "C"])
    def test_spectrum_is_lifted_grouped_spectrum(self, n_groups, weighting):
        whitener, w_g, w = self.setup_case(382, n_groups, weighting)
        full = n_groups * self.HEAD_DIM
        grouped = math.sqrt(self.N_HEADS // n_groups) * scheduler.whitened_spectrum(
            whitener.matrix, w_g
        )
        oracle = scheduler.whitened_spectrum(whitener.matrix, w)
        assert grouped.shape == (full,)
        assert np.max(np.abs(grouped - oracle[:full])) <= 1e-12 * oracle[0]
        assert np.all(oracle[full:] <= 1e-12 * oracle[0])

    def test_rank_out_of_range(self):
        whitener, w_g, _ = self.setup_case(384, 2, "sqrtC")
        for r in (0, self.geometry(2).grouped_width + 1):
            with pytest.raises(ValidationError):
                grouped_factorize(
                    w_g, whitened_svd(w_g, whitener), r, self.geometry(2)
                )

    def test_whitener_dim_mismatch(self):
        _, w_g, _ = self.setup_case(385, 2, "sqrtC")
        with pytest.raises(ValidationError):
            grouped_factorize(
                w_g, whitened_svd(w_g, identity_whitener(8)), 2, self.geometry(2)
            )


class TestTruncate:
    def test_whitened_residual_is_the_discarded_energy(self):
        # Against the residual formed from Y = L w, the quantity it replaces.
        rng = gen(386)
        c = covariance_of(anisotropic_batches(rng, 4, 24, 16, cond=400.0))
        whitener = calibration.build_whitener(c, calibration.ShrinkageParams())
        w = rng.standard_normal((16, 8))
        spectrum = whitened_svd(w, whitener)
        y = whitener.factor @ w
        for r in range(1, 9):
            _, report = truncate(w, spectrum, r)
            v_r = spectrum.v_t[:r]
            formed = linalg.frobenius_norm_sq(y - (y @ v_r.T) @ v_r)
            energy = linalg.frobenius_norm_sq(y)
            assert abs(report.whitened_residual_sq - formed) <= 1e-12 * energy
        assert truncate(w, spectrum, 8)[1].whitened_residual_sq == 0.0

    def test_refuses_a_spectrum_of_another_shape(self):
        rng = gen(387)
        w = rng.standard_normal((16, 8))
        spectrum = whitened_svd(w, identity_whitener(16))
        with pytest.raises(ValidationError, match="does not match"):
            truncate(w[:, :6], spectrum, 2)
        with pytest.raises(ValidationError, match="does not match"):
            truncate(w, spectrum._replace(singular_values=spectrum.singular_values[:7]), 2)


class TestPlainFactorize:
    def test_diagonal_truncation(self):
        pair, _ = care_factorize(np.diag([3.0, 2.0, 1.0]), identity_whitener(3), 2)
        assert np.allclose(pair.w_a @ pair.w_b, np.diag([3.0, 2.0, 0.0]), atol=1e-12)

    def test_weight_residual_equals_tail_energy(self):
        rng = gen(321)
        w = rng.standard_normal((9, 13))
        sigma = linalg.svd(w).singular_values
        for r in (1, 4, 9):
            _, report = care_factorize(w, identity_whitener(9), r)
            tail = float(np.sum(sigma[r:] ** 2))
            assert abs(report.weight_residual_sq - tail) <= 1e-9 * max(tail, 1e-12)

    def test_full_rank_recovers_weight(self):
        rng = gen(322)
        w = rng.standard_normal((7, 5))
        pair, report = care_factorize(w, identity_whitener(7), 5)
        assert np.allclose(pair.w_a @ pair.w_b, w, atol=1e-12)
        assert report.weight_residual_sq <= 1e-24


class TestActivationResidual:
    def test_zero_when_exact(self):
        rng = gen(331)
        w = rng.standard_normal((4, 6))
        batches = [calibration.CalibrationBatch(0, rng.standard_normal((5, 4)))]
        assert activation_residual(batches, w, np.eye(4), w.copy()) == 0.0

    def test_identity_activations(self):
        rng = gen(332)
        w = rng.standard_normal((4, 6))
        w_hat = rng.standard_normal((4, 6))
        batches = [calibration.CalibrationBatch(0, np.eye(4))]
        expected = linalg.frobenius_norm_sq(w - w_hat)
        assert np.isclose(activation_residual(batches, w, np.eye(4), w_hat), expected)

    def test_matches_whitened_error(self):
        # batch-averaged activation error == || sqrt(C) (w - w_hat) ||_F^2
        rng = gen(333)
        for _ in range(10):
            d = int(rng.integers(2, 9))
            batches = [
                calibration.CalibrationBatch(0, rng.standard_normal((int(rng.integers(1, 7)), d)))
                for _ in range(int(rng.integers(1, 5)))
            ]
            w = rng.standard_normal((d, 5))
            w_hat = rng.standard_normal((d, 5))
            c = covariance_of(batches)
            whitened = whitened_error_sq(linalg.sqrt_psd(c), w, w_hat)
            empirical = activation_residual(batches, w, np.eye(d), w_hat)
            assert abs(empirical - whitened) <= 1e-9 * whitened

    def test_factored_form_matches_product(self):
        # the latent route (X w_a) w_b gives the residual of w_hat = w_a w_b
        rng = gen(334)
        batches = [calibration.CalibrationBatch(0, rng.standard_normal((9, 6)))
                   for _ in range(3)]
        w = rng.standard_normal((6, 8))
        w_a = rng.standard_normal((6, 2))
        w_b = rng.standard_normal((2, 8))
        expected = np.mean([
            linalg.frobenius_norm_sq(b.x @ w - b.x @ (w_a @ w_b)) for b in batches
        ])
        assert abs(activation_residual(batches, w, w_a, w_b) - expected) <= 1e-12 * expected

    def test_factor_shape_mismatch(self):
        with pytest.raises(ValidationError):
            activation_residual(
                [calibration.CalibrationBatch(0, np.eye(3))],
                np.eye(3), np.ones((3, 2)), np.ones((1, 3)),
            )

    def test_empty_batches(self):
        with pytest.raises(ValidationError):
            activation_residual([], np.eye(2), np.eye(2), np.eye(2))


class TestCovarianceResidual:
    @pytest.mark.parametrize("n_groups", [1, 2, 4])
    def test_matches_batch_residual_at_every_rank(self, n_groups):
        # tr(dW^T C dW) against the batch oracle, on the factors convert
        # writes. At full grouped rank both read rounding noise, so there
        # the test takes an absolute floor far below any live residual.
        rng = gen(340 + n_groups)
        layer = random_gqa_layer(rng, d_model=16, n_heads=4, n_groups=n_groups)
        batches = anisotropic_batches(rng, 3, 12, 16, cond=100.0)
        c = covariance_of(batches)
        spectra = layer_spectra(layer, calibration.build_whitener(c, calibration.ShrinkageParams()))
        for r in range(1, layer.grouped_width + 1):
            factors, _, _ = convert_layer(layer, spectra, r, r)
            for w_g, w_a, w_b in ((layer.w_k_g, factors.w_a_k, factors.w_b_k),
                                  (layer.w_v_g, factors.w_a_v, factors.w_b_v)):
                got = covariance_residual(c, w_g, w_a, w_b, layer)
                want = activation_residual(batches, w_g, w_a, w_b, layer)
                energy = activation_residual(batches, w_g, w_a, 0.0 * w_b, layer)
                if r < layer.grouped_width:
                    assert abs(got - want) <= 1e-12 * want, (r, got, want)
                else:
                    assert max(abs(got), abs(want)) <= 1e-24 * energy, (r, got, want)

    def test_head_blocks_of_a_general_up_projection(self):
        # Head blocks of w_b need not repeat per group, as convert's do.
        rng = gen(345)
        geometry = Geometry(8, 4, 2, 2)
        batches = [calibration.CalibrationBatch(0, rng.standard_normal((5, 8)))
                   for _ in range(3)]
        w_g = rng.standard_normal((8, 4))
        w_a = rng.standard_normal((8, 3))
        w_b = rng.standard_normal((3, 8))
        want = activation_residual(batches, w_g, w_a, w_b, geometry)
        got = covariance_residual(covariance_of(batches), w_g, w_a, w_b, geometry)
        assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("shapes", [
        ((8, 7), (8, 4), (8, 3), (3, 8)),   # covariance not D x D
        ((8, 8), (8, 6), (8, 3), (3, 8)),   # w_g not grouped width
        ((8, 8), (8, 4), (8, 3), (2, 8)),   # latent widths disagree
        ((8, 8), (8, 4), (8, 3), (3, 6)),   # w_b not head width
    ])
    def test_shape_mismatch(self, shapes):
        c, w_g, w_a, w_b = (np.ones(shape) for shape in shapes)
        with pytest.raises(ValidationError):
            covariance_residual(c, w_g, w_a, w_b, Geometry(8, 4, 2, 2))


class TestAblateSingularValue:
    def test_diagonal(self):
        sigma, out = ablate_singular_value(np.diag([3.0, 2.0, 1.0]), 2)
        assert np.allclose(out, np.diag([3.0, 0.0, 1.0]), atol=1e-12)
        assert sigma == pytest.approx(2.0, abs=1e-12)

    def test_residual_is_squared_singular_value(self):
        rng = gen(351)
        w = rng.standard_normal((6, 8))
        sigma = linalg.svd(w).singular_values
        for i in (1, 3, 6):
            sigma_i, out = ablate_singular_value(w, i)
            assert sigma_i == sigma[i - 1]
            assert np.isclose(linalg.frobenius_norm_sq(w - out), sigma[i - 1] ** 2)

    def test_zero_singular_value_is_noop(self):
        rng = gen(352)
        base = rng.standard_normal((5, 2))
        w = base @ rng.standard_normal((2, 5))  # rank 2, sigma_3 = 0
        _, out = ablate_singular_value(w, 3)
        assert np.max(np.abs(out - w)) < 1e-10

    def test_index_out_of_range(self):
        with pytest.raises(ValidationError):
            ablate_singular_value(np.eye(3), 0)
        with pytest.raises(ValidationError):
            ablate_singular_value(np.eye(3), 4)


class TestConvertLayer:
    def test_parity_rank_exactness(self):
        rng = gen(361)
        layer = random_gqa_layer(rng)
        s = calibration.build_whitener(random_psd(rng, 16, cond=20.0), calibration.ShrinkageParams())
        r = layer.n_groups * layer.head_dim
        factors, report_k, report_v = convert_layer(layer, layer_spectra(layer, s), r, r)
        for report, w_g in ((report_k, layer.w_k_g), (report_v, layer.w_v_g)):
            w = replicate_groups(w_g, layer)
            top = linalg.svd(s.matrix @ w).singular_values[0]
            assert report.whitened_residual_sq <= 1e-16 * top**2
        assert factors.r_k == factors.r_v == r

    def test_identity_covariance_full_rank_is_lossless(self):
        rng = gen(362)
        layer = random_gqa_layer(rng)
        r = layer.grouped_width
        factors, _, _ = convert_layer(layer, layer_spectra(layer, identity_whitener(16)), r, r)
        w_k = replicate_groups(layer.w_k_g, layer)
        w_v = replicate_groups(layer.w_v_g, layer)
        assert np.allclose(factors.w_a_k @ factors.w_b_k, w_k, atol=1e-12)
        assert np.allclose(factors.w_a_v @ factors.w_b_v, w_v, atol=1e-12)

    def test_weighting_modes_differ_on_anisotropic_data(self):
        rng = gen(363)
        layer = random_gqa_layer(rng)
        batches = anisotropic_batches(rng, 4, 32, 16, cond=400.0)
        c = covariance_of(batches)
        op_sqrt = calibration.build_whitener(c, calibration.ShrinkageParams(weighting="sqrtC"))
        op_cov = calibration.build_whitener(c, calibration.ShrinkageParams(weighting="C"))
        r = 4  # low rank so the metrics actually bind
        _, rep_sqrt, _ = convert_layer(layer, layer_spectra(layer, op_sqrt), r, r)
        _, rep_cov, _ = convert_layer(layer, layer_spectra(layer, op_cov), r, r)
        assert rep_sqrt.weight_residual_sq != rep_cov.weight_residual_sq

    def test_rejects_bad_profile_rank(self):
        rng = gen(364)
        layer = random_gqa_layer(rng)
        with pytest.raises(ValidationError):
            convert_layer(layer, layer_spectra(layer, identity_whitener(16)), 17, 4)


class TestMlaFactors:
    def test_ranks_and_cache_width_follow_the_shapes(self):
        rng = gen(381)
        factors = MlaFactors(
            rng.standard_normal((16, 3)), rng.standard_normal((3, 16)),
            rng.standard_normal((16, 5)), rng.standard_normal((5, 16)),
        )
        assert (factors.r_k, factors.r_v, factors.cache_width) == (3, 5, 8)
        assert (factors.d_model, factors.out_width) == (16, 16)

    @pytest.mark.parametrize("kind", ("K", "V"))
    def test_refuses_disagreeing_latent_widths(self, kind):
        rng = gen(382)
        w_a = {"K": (16, 3), "V": (16, 5)}
        w_b = {"K": (3, 16), "V": (5, 16)}
        w_b[kind] = (w_b[kind][0] + 1, 16)
        with pytest.raises(ValidationError, match=f"{kind} factors disagree on the latent width"):
            MlaFactors(
                rng.standard_normal(w_a["K"]), rng.standard_normal(w_b["K"]),
                rng.standard_normal(w_a["V"]), rng.standard_normal(w_b["V"]),
            )


class TestGqaLayerValidation:
    def test_head_width_must_match_d_model(self):
        rng = gen(371)
        with pytest.raises(ValidationError):
            GqaLayer(16, 4, 5, 2,
                     w_q=rng.standard_normal((16, 20)),
                     w_k_g=rng.standard_normal((16, 10)),
                     w_v_g=rng.standard_normal((16, 10)))

    def test_groups_must_divide_heads(self):
        rng = gen(372)
        with pytest.raises(ValidationError):
            GqaLayer(16, 4, 4, 3,
                     w_q=rng.standard_normal((16, 16)),
                     w_k_g=rng.standard_normal((16, 12)),
                     w_v_g=rng.standard_normal((16, 12)))


class TestGeometry:
    @pytest.mark.parametrize("sizes", [
        (16, 4, 5, 2),   # n_heads * head_dim != d_model
        (16, 4, 4, 3),   # n_groups does not divide n_heads
        (16, 4, 4, 8),   # more groups than heads
        (0, 0, 4, 1),
        (16, 4, 4, 0),
        (-8, -2, 4, 1),
        (16, 16, 1, -4),
    ])
    def test_refused(self, sizes):
        with pytest.raises(ValidationError):
            Geometry(*sizes)

    @pytest.mark.parametrize("n_heads", (1, 2, 4, 6, 8))
    def test_derived_quantities(self, n_heads):
        for n_groups in (g for g in range(1, n_heads + 1) if n_heads % g == 0):
            g = geometry(n_heads, n_groups, 3)
            assert g.grouped_width == 3 * n_groups
            assert g.heads_per_group * n_groups == n_heads
            assert g.head_groups.tolist() == [h * n_groups // n_heads for h in range(n_heads)]

    def test_subclasses_share_one_geometry(self):
        layer = random_gqa_layer(gen(373))
        assert isinstance(layer, Geometry)
        assert layer.geometry == Geometry(16, 4, 4, 2)
        assert layer.geometry != geometry(4, 4, 4)
