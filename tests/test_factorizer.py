import math

import numpy as np
import pytest

from conftest import (
    anisotropic_batches,
    covariance_of,
    gen,
    pipeline_spectra,
    plain_spectra,
    random_orthogonal,
    random_psd,
    reconstruct,
    truncate_svd,
    whitened_error_sq,
)
from kvlatent import calibration, linalg, scheduler
from kvlatent.calibration import WHITENER_FLOOR_REL
from kvlatent.errors import NumericalError, ValidationError
from kvlatent.factorizer import (
    FactorizationReport,
    FactorPair,
    Geometry,
    GqaLayer,
    GroupedKv,
    MlaFactors,
    activation_residual,
    care_factorize,
    convert_layer,
    gram_residual,
    gram_svd,
    grouped_factorize,
    raw_grams,
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
        for weighting in ("damped", "C"):
            c = covariance_of(anisotropic_batches(rng, 4, 24, 12, cond=400.0))
            params = calibration.ShrinkageParams(weighting=weighting)
            whitener = calibration.whitening_operator(c, params)
            w = rng.standard_normal((12, 9))
            energy = linalg.frobenius_norm_sq(whitener @ w)
            for r in (1, 4, 9):
                pair, report = care_factorize(w, whitener, r)
                oracle_pair, oracle = reference_care_factorize(w, whitener, r)
                assert_matches_reference(pair, report, oracle_pair, oracle, energy)
                assert pair.w_a.shape == (12, r) and pair.w_b.shape == (r, 9)

    def test_identity_whitener_matches_plain_bitwise(self):
        # I @ w is w bit for bit, so care_factorize truncates the plain SVD.
        rng = gen(311)
        w = rng.standard_normal((8, 12))
        care_pair, care_report = care_factorize(w, np.eye(8), 3)
        plain_pair, plain_report = truncate(w, linalg.svd(w), 3)
        assert care_pair.w_a.tobytes() == plain_pair.w_a.tobytes()
        assert care_pair.w_b.tobytes() == plain_pair.w_b.tobytes()
        assert care_report == plain_report

    def test_factor_product_equals_reconstruction(self):
        rng = gen(312)
        w = rng.standard_normal((10, 14))
        s = calibration.whitening_operator(
            random_psd(rng, 10, cond=50.0), calibration.ShrinkageParams()
        )
        pair, report = care_factorize(w, s, 5)
        w_hat = pair.w_a @ pair.w_b
        whitened = linalg.svd(s @ w)
        expected = np.linalg.inv(s) @ reconstruct(truncate_svd(whitened, 5))
        assert np.allclose(w_hat, expected, rtol=1e-9, atol=1e-12)
        assert report.rank_used == 5

    def test_parity_rank_is_exact_for_replicated_weights(self):
        rng = gen(313)
        layer = random_gqa_layer(rng)
        w = replicate_groups(layer.w_k_g, layer)
        s = calibration.whitening_operator(
            random_psd(rng, 16, cond=30.0), calibration.ShrinkageParams()
        )
        r = layer.n_groups * layer.head_dim
        _, report = care_factorize(w, s, r)
        sigma_top = linalg.svd(s @ w).singular_values[0]
        assert report.whitened_residual_sq <= 1e-16 * sigma_top**2

    def test_anisotropic_care_beats_plain_at_rank_one(self):
        # covariance diag(100, 1): strong direction is dim 0, but the weight
        # puts its energy along dim 1. Plain SVD keeps the big weight
        # direction; whitening keeps what the activations actually see.
        sqrt_c = np.diag([10.0, 1.0])
        w = np.diag([2.0, 10.0])
        care_pair, care_report = care_factorize(w, sqrt_c, 1)
        plain_pair, plain_report = care_factorize(w, np.eye(2), 1)
        plain_whitened = whitened_error_sq(sqrt_c, w, plain_pair.w_a @ plain_pair.w_b)
        assert np.isclose(care_report.whitened_residual_sq, 100.0)
        assert np.isclose(plain_whitened, 400.0)
        assert care_report.whitened_residual_sq < plain_whitened

    def test_whitened_optimality(self):
        rng = gen(314)
        for _ in range(10):
            d, n, r = 8, 10, 3
            w = rng.standard_normal((d, n))
            s = calibration.whitening_operator(
                random_psd(rng, d, cond=80.0), calibration.ShrinkageParams()
            )
            pair, report = care_factorize(w, s, r)
            # equals the whitened tail energy
            sigma = linalg.svd(s @ w).singular_values
            tail = float(np.sum(sigma[r:] ** 2))
            assert abs(report.whitened_residual_sq - tail) <= 1e-9 * max(tail, 1e-9)
            # beats plain truncation and random factors in the whitened metric
            plain_pair, _ = care_factorize(w, np.eye(d), r)
            plain_score = whitened_error_sq(s, w, plain_pair.w_a @ plain_pair.w_b)
            random_score = whitened_error_sq(
                s, w, rng.standard_normal((d, r)) @ rng.standard_normal((r, n))
            )
            assert report.whitened_residual_sq <= plain_score + 1e-12
            assert report.whitened_residual_sq <= random_score + 1e-12

    @pytest.mark.parametrize("weighting", ["damped", "C"])
    def test_any_factor_of_s_squared_gives_the_same_svd(self, weighting):
        # L^T L = S^2, so L @ w and S @ w share singular values, right
        # singular vectors up to sign, and whitened norms.
        rng = gen(316)
        c = covariance_of(anisotropic_batches(rng, 4, 16, 12, cond=400.0))
        s = calibration.whitening_operator(c, calibration.ShrinkageParams(weighting=weighting))
        factor = np.linalg.cholesky(s @ s).T
        assert np.max(np.abs(factor.T @ factor - s @ s)) <= 1e-12 * np.max(np.abs(s @ s))
        w = rng.standard_normal((12, 5))
        by_s, by_factor = whitened_svd(w, s), whitened_svd(w, factor)
        sigma = by_s.singular_values
        assert np.max(np.abs(by_factor.singular_values - sigma)) <= 1e-12 * sigma[0]
        alignment = np.abs(by_factor.v_t @ by_s.v_t.T)
        assert np.max(np.abs(alignment - np.eye(5))) <= 1e-9
        e = rng.standard_normal((12, 7))
        assert linalg.frobenius_norm_sq(factor @ e) == pytest.approx(
            linalg.frobenius_norm_sq(s @ e), rel=1e-12
        )

    def test_singular_whitener_is_factorized(self):
        # Nothing inverts S, so a singular one is factorized like any other;
        # the stages refuse it earlier, by Ridge.check_invertible.
        w = gen(317).standard_normal((3, 4))
        l = np.diag([2.0, 1.0, 0.0])
        pair, report = care_factorize(w, l, 1)
        sigma = linalg.svd(l @ w).singular_values
        assert sigma[-1] == 0.0 or sigma[-1] <= 1e-15 * sigma[0]
        assert report.whitened_residual_sq == pytest.approx(float(np.sum(sigma[1:] ** 2)),
                                                            rel=1e-12)
        assert whitened_error_sq(l, w, pair.w_a @ pair.w_b) == pytest.approx(
            report.whitened_residual_sq, rel=1e-9)

    def test_rank_out_of_range(self):
        with pytest.raises(ValidationError):
            care_factorize(np.eye(3), np.eye(3), 4)


def oracle_case(case, weighting, seed):
    """A whitener and a weight for the oracle comparison.

    "decaying": the whitened spectrum falls geometrically to 1e-10 sigma_1.
    "rank_deficient": a rank-4 weight, so the tail is exactly zero.
    "wide", "wide_decaying": fewer rows than columns (D < n).
    """
    rng = gen(seed)
    d, n = (6, 9) if case.startswith("wide") else (12, 9)
    c = covariance_of(anisotropic_batches(rng, 4, 24, d, cond=400.0))
    whitener = calibration.whitening_operator(c, calibration.ShrinkageParams(weighting=weighting))
    if case == "rank_deficient":
        return whitener, rng.standard_normal((d, 4)) @ rng.standard_normal((4, n))
    if case == "wide":
        return whitener, rng.standard_normal((d, n))
    p = min(d, n)
    u = random_orthogonal(rng, d)[:, :p]
    v = random_orthogonal(rng, n)[:, :p]
    whitened = (u * np.geomspace(1.0, 1e-10, p)) @ v.T
    return whitener, np.linalg.solve(whitener, whitened)


class TestCareFactorizeAgainstOracle:
    """The dense path against the explicit S, S^-1 and U of the oracle."""

    CASES = ["decaying", "rank_deficient", "wide", "wide_decaying"]

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("weighting", ["damped", "C"])
    def test_every_rank_matches_oracle(self, case, weighting):
        whitener, w = oracle_case(case, weighting, 391)
        energy = linalg.frobenius_norm_sq(whitener @ w)
        for r in range(1, min(w.shape) + 1):
            pair, report = care_factorize(w, whitener, r)
            oracle_pair, oracle = reference_care_factorize(w, whitener, r)
            product = pair.w_a @ pair.w_b
            expected = oracle_pair.w_a @ oracle_pair.w_b
            assert np.linalg.norm(product - expected) <= 1e-9 * np.linalg.norm(expected)
            assert report.whitened_residual_sq <= (
                oracle.whitened_residual_sq * (1 + 1e-12) + 1e-18 * energy
            )
            assert pair.w_a.shape == (w.shape[0], r) and pair.w_b.shape == (r, w.shape[1])
            assert report.rank_used == r

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("weighting", ["damped", "C"])
    def test_retained_energy_is_one_minus_relative_residual(self, case, weighting):
        whitener, w = oracle_case(case, weighting, 392)
        energy = linalg.frobenius_norm_sq(whitener @ w)
        for r in range(1, min(w.shape) + 1):
            _, report = care_factorize(w, whitener, r)
            expected = 1.0 - report.whitened_residual_sq / energy
            assert abs(report.retained_energy - expected) <= 1e-9
        assert report.retained_energy == 1.0

    def test_zero_weight_retains_everything(self):
        _, report = care_factorize(np.zeros((4, 3)), np.eye(4), 2)
        assert report.retained_energy == 1.0
        assert report.whitened_residual_sq == 0.0

    def test_one_svd_of_the_whitened_weight(self, monkeypatch):
        whitener, w = oracle_case("decaying", "damped", 393)
        shapes = []
        real = linalg.svd

        def recording(a):
            shapes.append(a.shape)
            return real(a)

        monkeypatch.setattr(linalg, "svd", recording)
        care_factorize(w, whitener, 3)
        assert shapes == [w.shape]


class TestGroupedFactorize:
    """The grouped-width path against the reference on the replicated weight."""

    N_HEADS, HEAD_DIM = 4, 4
    D = N_HEADS * HEAD_DIM

    def geometry(self, n_groups):
        return geometry(self.N_HEADS, n_groups, self.HEAD_DIM)

    def setup_case(self, seed, n_groups, weighting):
        rng = gen(seed)
        c = covariance_of(anisotropic_batches(rng, 4, 24, self.D, cond=400.0))
        whitener = calibration.whitening_operator(
            c, calibration.ShrinkageParams(weighting=weighting)
        )
        w_g = rng.standard_normal((self.D, n_groups * self.HEAD_DIM)) / np.sqrt(self.D)
        w = replicate_groups(w_g, self.geometry(n_groups))
        return whitener, w_g, w

    @pytest.mark.parametrize("n_groups", [1, 2, 4])
    @pytest.mark.parametrize("weighting", ["damped", "C"])
    def test_matches_oracle(self, n_groups, weighting):
        whitener, w_g, w = self.setup_case(381, n_groups, weighting)
        full = n_groups * self.HEAD_DIM
        energy = linalg.frobenius_norm_sq(whitener @ w)
        for r in sorted({1, max(1, full // 2), full}):
            pair, report, a = grouped_factorize(
                w_g, whitened_svd(w_g, whitener), r, self.geometry(n_groups)
            )
            oracle_pair, oracle = reference_care_factorize(w, whitener, r)
            assert_matches_reference(pair, report, oracle_pair, oracle, energy)
            assert report.rank_used == r
            assert np.allclose(pair.w_b @ pair.w_b.T, np.eye(r), rtol=0, atol=1e-12)
            # The coordinates certify the down-projection: w_a = W_g A.
            assert a.shape == (full, r)
            assert linalg.frobenius_norm_sq(pair.w_a - w_g @ a) <= (
                1e-24 * linalg.frobenius_norm_sq(pair.w_a))

    @pytest.mark.parametrize("n_groups", [1, 2, 4])
    @pytest.mark.parametrize("weighting", ["damped", "C"])
    def test_spectrum_is_lifted_grouped_spectrum(self, n_groups, weighting):
        whitener, w_g, w = self.setup_case(382, n_groups, weighting)
        full = n_groups * self.HEAD_DIM
        grouped = math.sqrt(self.N_HEADS // n_groups) * scheduler.whitened_spectrum(
            whitener, w_g
        )
        oracle = scheduler.whitened_spectrum(whitener, w)
        assert grouped.shape == (full,)
        assert np.max(np.abs(grouped - oracle[:full])) <= 1e-12 * oracle[0]
        assert np.all(oracle[full:] <= 1e-12 * oracle[0])

    def test_rank_out_of_range(self):
        whitener, w_g, _ = self.setup_case(384, 2, "damped")
        for r in (0, self.geometry(2).grouped_width + 1):
            with pytest.raises(ValidationError):
                grouped_factorize(
                    w_g, whitened_svd(w_g, whitener), r, self.geometry(2)
                )

    def test_whitener_dim_mismatch(self):
        _, w_g, _ = self.setup_case(385, 2, "damped")
        with pytest.raises(ValidationError):
            grouped_factorize(
                w_g, whitened_svd(w_g, np.eye(8)), 2, self.geometry(2)
            )


class TestLayerSpectraAgainstDenseReference:
    """The pipeline's Gram path against the slow reference: the dense S of
    a D x D decomposition of the damped covariance, and the SVD of S W at
    head width, W = replicate_groups(W_g).

    The Gram resolves each sigma^2 to about n eps sigma_1^2, so the
    singular values are compared as energies, sigma^2, on the sigma_1^2
    scale, and every rank-r tail on the scale of the total energy. A
    rank-deficient W_g has true zeros that the Gram returns as rounding
    noise of that size.
    """

    HEADS, HEAD_DIM = 4, 4
    D = HEADS * HEAD_DIM

    def case(self, seed, n_groups, covariance, deficient):
        rng = gen(seed)
        layer = random_gqa_layer(rng, d_model=self.D, n_heads=self.HEADS, n_groups=n_groups)
        if covariance == "anisotropic":
            c = covariance_of(anisotropic_batches(rng, 4, 24, self.D, cond=900.0))
        else:  # 12 tokens in 16 dimensions
            c = covariance_of([calibration.CalibrationBatch(0, rng.standard_normal((12, self.D)))])
        if deficient:  # W_k_g of rank 2, and W_v_g with a zero column
            n = layer.grouped_width
            w_v = layer.w_v_g.copy()
            w_v[:, -1] = 0.0
            layer = GroupedKv(**vars(layer.geometry),
                              w_k_g=rng.standard_normal((self.D, 2))
                              @ rng.standard_normal((2, n)),
                              w_v_g=w_v)
        return layer, c

    @staticmethod
    def dense_operator(c, params):
        lam = float(np.trace(c)) / c.shape[0] if params.lam == "auto" else params.lam
        vals, vecs = np.linalg.eigh((1.0 - params.alpha) * c + params.alpha * lam * np.eye(len(c)))
        vals = np.clip(vals, 0.0, None)
        shrunk = np.sqrt(vals) if params.weighting == "damped" else vals
        return (vecs * shrunk) @ vecs.T

    @pytest.mark.parametrize("weighting", ["damped", "C"])
    @pytest.mark.parametrize("n_groups", [1, 2, 4])
    @pytest.mark.parametrize("covariance", ["anisotropic", "rank_deficient"])
    @pytest.mark.parametrize("deficient", [False, True], ids=["full_w", "deficient_w"])
    def test_sigma_and_every_tail_match(self, weighting, n_groups, covariance, deficient):
        layer, c = self.case(395 + n_groups, n_groups, covariance, deficient)
        params = calibration.ShrinkageParams(weighting=weighting)
        s = self.dense_operator(c, params)
        spectra = pipeline_spectra(layer, c, params)
        m = layer.heads_per_group
        n = layer.grouped_width
        for w_g, spectrum in zip((layer.w_k_g, layer.w_v_g), spectra):
            w = replicate_groups(w_g, layer)
            ref = np.linalg.svd(s @ w, compute_uv=False)
            assert np.all(ref[n:] <= 1e-12 * ref[0])
            energy = float(np.sum(ref**2))
            got = m * spectrum.singular_values**2
            assert np.max(np.abs(got - ref[:n] ** 2)) <= 1e-12 * ref[0] ** 2
            for r in range(1, n + 1):
                pair, report, _ = grouped_factorize(w_g, spectrum, r, layer)
                tail = float(np.sum(ref[r:] ** 2))
                formed = linalg.frobenius_norm_sq(s @ (w - pair.w_a @ pair.w_b))
                assert abs(report.whitened_residual_sq - tail) <= 1e-12 * energy, r
                assert abs(formed - tail) <= 1e-12 * energy, r

    def test_decomposes_nothing_of_size_d(self, monkeypatch):
        layer = random_gqa_layer(gen(399))
        shapes = []
        real = linalg.sym_eig

        def recording(a):
            shapes.append(a.shape)
            return real(a)

        monkeypatch.setattr(linalg, "sym_eig", recording)
        monkeypatch.setattr(linalg, "svd", None)
        pipeline_spectra(layer, random_psd(gen(399), 16))
        assert shapes == [(8, 8), (8, 8)]

    def test_gram_that_is_not_psd_is_refused(self):
        with pytest.raises(NumericalError, match="not PSD"):
            gram_svd(np.diag([1.0, -0.5]))

    def test_covariance_of_another_width_is_refused(self):
        layer = random_gqa_layer(gen(398))
        with pytest.raises(ValidationError, match="does not match d_model"):
            pipeline_spectra(layer, np.eye(8))


class TestTruncate:
    def test_whitened_residual_is_the_discarded_energy(self):
        # Against the residual formed from Y = S w, the quantity it replaces.
        rng = gen(386)
        c = covariance_of(anisotropic_batches(rng, 4, 24, 16, cond=400.0))
        whitener = calibration.whitening_operator(c, calibration.ShrinkageParams())
        w = rng.standard_normal((16, 8))
        spectrum = whitened_svd(w, whitener)
        y = whitener @ w
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
        spectrum = whitened_svd(w, np.eye(16))
        with pytest.raises(ValidationError, match="does not match"):
            truncate(w[:, :6], spectrum, 2)
        with pytest.raises(ValidationError, match="does not match"):
            truncate(w, spectrum._replace(singular_values=spectrum.singular_values[:7]), 2)


class TestPlainFactorize:
    def test_diagonal_truncation(self):
        pair, _ = care_factorize(np.diag([3.0, 2.0, 1.0]), np.eye(3), 2)
        assert np.allclose(pair.w_a @ pair.w_b, np.diag([3.0, 2.0, 0.0]), atol=1e-12)

    def test_weight_residual_equals_tail_energy(self):
        rng = gen(321)
        w = rng.standard_normal((9, 13))
        sigma = linalg.svd(w).singular_values
        for r in (1, 4, 9):
            _, report = care_factorize(w, np.eye(9), r)
            tail = float(np.sum(sigma[r:] ** 2))
            assert abs(report.weight_residual_sq - tail) <= 1e-9 * max(tail, 1e-12)

    def test_full_rank_recovers_weight(self):
        rng = gen(322)
        w = rng.standard_normal((7, 5))
        pair, report = care_factorize(w, np.eye(7), 5)
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


def gram_of(w_g, batches) -> np.ndarray:
    """W_g^T C W_g over the covariance of `batches`."""
    return w_g.T @ covariance_of(batches) @ w_g


class TestGramResidual:
    @pytest.mark.parametrize("n_groups", [1, 2, 4])
    def test_matches_batch_residual_at_every_rank(self, n_groups):
        # tr(E^T G E) from the Grams schedule stores, against the batch
        # oracle, on the factors convert writes. At full grouped rank both
        # read rounding noise, so there the test takes an absolute floor far
        # below any live residual.
        rng = gen(340 + n_groups)
        layer = random_gqa_layer(rng, d_model=16, n_heads=4, n_groups=n_groups)
        batches = anisotropic_batches(rng, 3, 12, 16, cond=100.0)
        c = covariance_of(batches)
        spectra = pipeline_spectra(layer, c)
        grams = raw_grams(layer, c)
        for r in range(1, layer.grouped_width + 1):
            factors, _, _ = convert_layer(layer, spectra, r, r)
            for (g, _), w_g, a, w_a, w_b in zip(grams, (layer.w_k_g, layer.w_v_g),
                                                (factors.a_k, factors.a_v),
                                                (factors.w_a_k, factors.w_a_v),
                                                (factors.w_b_k, factors.w_b_v)):
                got = gram_residual(g, w_g, a, w_a, w_b, layer)
                want = activation_residual(batches, w_g, w_a, w_b, layer)
                energy = activation_residual(batches, w_g, w_a, 0.0 * w_b, layer)
                if r < layer.grouped_width:
                    assert abs(got - want) <= 1e-12 * want, (r, got, want)
                else:
                    assert max(abs(got), abs(want)) <= 1e-24 * energy, (r, got, want)

    @staticmethod
    def against_batches(rng, geometry, w_b, w_g=None):
        """(gram_residual, activation_residual) of a random grouped weight
        (or `w_g`) and a down-projection w_a = W_g A of random coordinates
        A, with up-projection w_b."""
        d = geometry.d_model
        batches = [calibration.CalibrationBatch(0, rng.standard_normal((7, d)))
                   for _ in range(3)]
        if w_g is None:
            w_g = rng.standard_normal((d, geometry.grouped_width))
        a = rng.standard_normal((geometry.grouped_width, w_b.shape[0]))
        w_a = w_g @ a
        return (gram_residual(gram_of(w_g, batches), w_g, a, w_a, w_b, geometry),
                activation_residual(batches, w_g, w_a, w_b, geometry))

    def test_head_blocks_of_a_general_up_projection(self):
        # Head blocks of w_b need not repeat per group, as convert's do.
        rng = gen(345)
        got, want = self.against_batches(rng, Geometry(8, 4, 2, 2), rng.standard_normal((3, 8)))
        assert abs(got - want) <= 1e-12 * want

    def test_some_heads_of_a_group_repeat_a_block(self):
        # Group 0: heads 0, 1 and 3 share one block, head 2 has its own.
        # Group 1: all four heads share one block.
        rng = gen(346)
        geometry = Geometry(16, 8, 2, 2)
        w_b = rng.standard_normal((3, 16))
        for h in (1, 3):
            w_b[:, 2 * h:2 * h + 2] = w_b[:, 0:2]
        for h in (5, 6, 7):
            w_b[:, 2 * h:2 * h + 2] = w_b[:, 8:10]
        got, want = self.against_batches(rng, geometry, w_b)
        assert abs(got - want) <= 1e-12 * want

    def test_equal_blocks_of_different_groups_do_not_merge(self):
        # Every head has the same w_b block, but each group has its own
        # w_g block, so the groups' dW blocks differ.
        rng = gen(347)
        geometry = Geometry(12, 6, 2, 3)
        w_b = np.tile(rng.standard_normal((4, 2)), geometry.n_heads)
        got, want = self.against_batches(rng, geometry, w_b)
        assert abs(got - want) <= 1e-12 * want

    def test_rank_deficient_grouped_weight(self):
        # A zero column and a repeated one: W_g^T W_g is singular, and the
        # coordinates still certify w_a = W_g A.
        rng = gen(348)
        geometry = Geometry(8, 4, 2, 2)
        w_g = rng.standard_normal((8, 4))
        w_g[:, 1] = 0.0
        w_g[:, 3] = w_g[:, 2]
        got, want = self.against_batches(rng, geometry, rng.standard_normal((3, 8)), w_g)
        assert abs(got - want) <= 1e-12 * want

    REFUSAL = "from the grouped weight times its coordinates A"

    @pytest.mark.parametrize("push", [1e-6, 1.0])
    def test_down_projection_outside_the_span_is_refused(self, push):
        rng = gen(349)
        geometry = Geometry(8, 4, 2, 2)
        w_g = rng.standard_normal((8, 4))
        a = rng.standard_normal((4, 3))
        w_a = w_g @ a
        # A unit direction orthogonal to W_g's columns.
        q, _ = np.linalg.qr(np.hstack((w_g, rng.standard_normal((8, 1)))))
        w_a[:, 1] += push * np.linalg.norm(w_a) * q[:, 4]
        with pytest.raises(ValidationError, match=self.REFUSAL):
            gram_residual(np.eye(4), w_g, a, w_a, rng.standard_normal((3, 8)), geometry)

    @pytest.mark.parametrize("push", [1e-6, 1.0])
    def test_coordinates_that_do_not_give_the_down_projection_are_refused(self, push):
        # w_a lies in W_g's span, but is not W_g A.
        rng = gen(350)
        geometry = Geometry(8, 4, 2, 2)
        w_g = rng.standard_normal((8, 4))
        a = rng.standard_normal((4, 3))
        w_a = w_g @ a
        a[2, 1] += push * np.linalg.norm(a)
        with pytest.raises(ValidationError, match=self.REFUSAL):
            gram_residual(np.eye(4), w_g, a, w_a, rng.standard_normal((3, 8)), geometry)

    @pytest.mark.parametrize("shapes", [
        ((4, 3), (8, 4), (4, 3), (8, 3), (3, 8)),   # Gram not n x n
        ((4, 4), (8, 6), (4, 3), (8, 3), (3, 8)),   # w_g not grouped width
        ((4, 4), (8, 4), (4, 3), (8, 3), (2, 8)),   # latent widths disagree
        ((4, 4), (8, 4), (4, 3), (8, 3), (3, 6)),   # w_b not head width
        ((4, 4), (8, 4), (4, 3), (7, 3), (3, 8)),   # w_a not d_model rows
        ((4, 4), (8, 4), (3, 3), (8, 3), (3, 8)),   # A not n rows
        ((4, 4), (8, 4), (4, 2), (8, 3), (3, 8)),   # A not the latent width
    ])
    def test_shape_mismatch(self, shapes):
        g, w_g, a, w_a, w_b = (np.ones(shape) for shape in shapes)
        with pytest.raises(ValidationError):
            gram_residual(g, w_g, a, w_a, w_b, Geometry(8, 4, 2, 2))


class TestConvertLayer:
    def test_parity_rank_exactness(self):
        rng = gen(361)
        layer = random_gqa_layer(rng)
        c = random_psd(rng, 16, cond=20.0)
        s = calibration.whitening_operator(c, calibration.ShrinkageParams())
        r = layer.n_groups * layer.head_dim
        factors, report_k, report_v = convert_layer(layer, pipeline_spectra(layer, c), r, r)
        for report, w_g in ((report_k, layer.w_k_g), (report_v, layer.w_v_g)):
            w = replicate_groups(w_g, layer)
            top = linalg.svd(s @ w).singular_values[0]
            assert report.whitened_residual_sq <= 1e-16 * top**2
        assert factors.r_k == factors.r_v == r

    def test_identity_covariance_full_rank_is_lossless(self):
        rng = gen(362)
        layer = random_gqa_layer(rng)
        r = layer.grouped_width
        factors, _, _ = convert_layer(layer, plain_spectra(layer), r, r)
        w_k = replicate_groups(layer.w_k_g, layer)
        w_v = replicate_groups(layer.w_v_g, layer)
        assert np.allclose(factors.w_a_k @ factors.w_b_k, w_k, atol=1e-12)
        assert np.allclose(factors.w_a_v @ factors.w_b_v, w_v, atol=1e-12)

    def test_weighting_modes_differ_on_anisotropic_data(self):
        rng = gen(363)
        layer = random_gqa_layer(rng)
        batches = anisotropic_batches(rng, 4, 32, 16, cond=400.0)
        c = covariance_of(batches)
        spectra = {weighting: pipeline_spectra(layer, c, calibration.ShrinkageParams(
            weighting=weighting)) for weighting in ("damped", "C")}
        r = 4  # low rank so the metrics actually bind
        _, rep_damped, _ = convert_layer(layer, spectra["damped"], r, r)
        _, rep_cov, _ = convert_layer(layer, spectra["C"], r, r)
        assert rep_damped.weight_residual_sq != rep_cov.weight_residual_sq

    def test_rejects_bad_profile_rank(self):
        rng = gen(364)
        layer = random_gqa_layer(rng)
        with pytest.raises(ValidationError):
            convert_layer(layer, plain_spectra(layer), 17, 4)


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

    @pytest.mark.parametrize("kind", ("K", "V"))
    def test_refuses_coordinates_of_another_latent_width(self, kind):
        rng = gen(383)
        a = {"K": (8, 3), "V": (8, 5)}
        a[kind] = (8, a[kind][1] + 1)
        with pytest.raises(ValidationError, match=f"{kind} factors disagree on the latent width"):
            MlaFactors(
                rng.standard_normal((16, 3)), rng.standard_normal((3, 16)),
                rng.standard_normal((16, 5)), rng.standard_normal((5, 16)),
                rng.standard_normal(a["K"]), rng.standard_normal(a["V"]),
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
