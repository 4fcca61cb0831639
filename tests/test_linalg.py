import numpy as np
import pytest

from conftest import gen, random_psd, reconstruct, reference_sym_eig, ridge_of, truncate_svd
from kvlatent import linalg
from kvlatent.calibration import ShrinkageParams, whitening_operator
from kvlatent.errors import NumericalError, ValidationError


def reference_eig_signs(vecs: np.ndarray) -> np.ndarray:
    """The per-column sign loop `sym_eig` used to run, kept as the oracle."""
    vecs = vecs.copy()
    for j in range(vecs.shape[1]):
        anchor = int(np.argmax(np.abs(vecs[:, j])))
        if vecs[anchor, j] < 0.0:
            vecs[:, j] = -vecs[:, j]
    return vecs


def reference_svd_signs(u: np.ndarray, v_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The per-column sign loop `svd` used to run, kept as the oracle."""
    u, v_t = u.copy(), v_t.copy()
    for j in range(u.shape[1]):
        significant = np.nonzero(np.abs(u[:, j]) > linalg._SIGN_EPS)[0]
        if significant.size and u[significant[0], j] < 0.0:
            u[:, j] = -u[:, j]
            v_t[j, :] = -v_t[j, :]
    return u, v_t


def bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal bytes, so a -0.0 against a 0.0 counts as a difference."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# Columns the sign rules must treat exactly as the loops do: ties between
# the largest magnitudes, a zero column, a column whose entries all sit
# below _SIGN_EPS, one whose first entry above it is tiny and negative, and
# signed zeros.
SIGN_EDGE_COLUMNS = np.array([
    [0.5, -0.5, 0.0, 1e-13, -1e-13, -0.0, -0.3],
    [-0.5, 0.5, 0.0, -1e-13, 5e-13, 0.0, 0.3],
    [0.5, 0.5, 0.0, 1e-14, -2e-12, -0.0, -0.3],
    [-0.5, -0.5, 0.0, 0.0, 0.7, 0.0, 0.3],
])


class TestFrobeniusNormSq:
    def test_zero(self):
        assert linalg.frobenius_norm_sq(np.zeros((3, 2))) == 0.0

    def test_three_four(self):
        assert linalg.frobenius_norm_sq(np.array([[3.0, 4.0]])) == 25.0

    def test_identity(self):
        assert linalg.frobenius_norm_sq(np.eye(3)) == 3.0


class TestSymEig:
    def test_diagonal(self):
        res = linalg.sym_eig(np.diag([4.0, 1.0]))
        assert np.allclose(res.eigenvalues, [4.0, 1.0])
        assert np.allclose(np.abs(res.eigenvectors), np.eye(2))

    def test_two_by_two(self):
        # characteristic polynomial of [[2,1],[1,2]]: (2-l)^2 - 1 = 0 -> l = 3, 1
        res = linalg.sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(res.eigenvalues, [3.0, 1.0])

    def test_zero_matrix(self):
        res = linalg.sym_eig(np.zeros((2, 2)))
        assert np.allclose(res.eigenvalues, [0.0, 0.0])

    def test_non_square(self):
        with pytest.raises(ValidationError):
            linalg.sym_eig(np.ones((2, 3)))

    def test_non_symmetric(self):
        with pytest.raises(ValidationError):
            linalg.sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_sign_convention(self):
        rng = gen(11)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            s = rng.standard_normal((n, n))
            res = linalg.sym_eig(s + s.T)
            for j in range(n):
                col = res.eigenvectors[:, j]
                assert col[np.argmax(np.abs(col))] > 0

    def test_reconstruction(self):
        rng = gen(12)
        for _ in range(20):
            n = int(rng.integers(2, 33))
            a = rng.standard_normal((n, n))
            s = (a + a.T) / 2
            res = linalg.sym_eig(s)
            rebuilt = (res.eigenvectors * res.eigenvalues) @ res.eigenvectors.T
            scale = max(np.linalg.norm(s), 1e-30)
            assert np.linalg.norm(rebuilt - s) <= 1e-9 * scale
            # orthonormal columns
            q = res.eigenvectors
            assert np.max(np.abs(q.T @ q - np.eye(n))) < 1e-10

    def test_signs_match_reference_loop(self):
        rng = gen(14)
        for n in (1, 2, 5, 33, 128):
            a = rng.standard_normal((n, n))
            s = (a + a.T) / 2
            vals, vecs = np.linalg.eigh(s)
            res = linalg.sym_eig(s)
            assert bits_equal(res.eigenvalues, vals[::-1].copy())
            assert bits_equal(res.eigenvectors, reference_eig_signs(vecs[:, ::-1].copy()))

    def test_tied_anchor_takes_lowest_row(self):
        # eigenvectors of [[2, 1], [1, 2]] are (1, ±1)/√2: both entries tie
        s = np.array([[2.0, 1.0], [1.0, 2.0]])
        res = linalg.sym_eig(s)
        assert np.all(res.eigenvectors[0] > 0)
        _, vecs = np.linalg.eigh(s)
        assert bits_equal(res.eigenvectors, reference_eig_signs(vecs[:, ::-1].copy()))

    def test_sign_rule_on_edge_columns(self):
        for cols in (SIGN_EDGE_COLUMNS, -SIGN_EDGE_COLUMNS, np.zeros((3, 0))):
            assert bits_equal(cols * linalg._eig_signs(cols), reference_eig_signs(cols))

    def test_empty_matrix(self):
        res = linalg.sym_eig(np.zeros((0, 0)))
        assert res.eigenvalues.shape == (0,) and res.eigenvectors.shape == (0, 0)

    def test_deterministic_bytes(self):
        rng = gen(13)
        a = rng.standard_normal((16, 16))
        s = a + a.T
        r1 = linalg.sym_eig(s.copy())
        r2 = linalg.sym_eig(s.copy())
        assert r1.eigenvalues.tobytes() == r2.eigenvalues.tobytes()
        assert r1.eigenvectors.tobytes() == r2.eigenvectors.tobytes()


class TestSymEigMatchesReference:
    """The trimmed sym_eig returns the old body's bytes."""

    def assert_same_bytes(self, s):
        res, ref = linalg.sym_eig(s), reference_sym_eig(s)
        assert bits_equal(res.eigenvalues, ref.eigenvalues)
        assert bits_equal(res.eigenvectors, ref.eigenvectors)
        assert res.eigenvectors.flags.c_contiguous

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_exactly_symmetric(self, n):
        a = gen(31 + n).standard_normal((n, n))
        s = a + a.T
        assert np.array_equal(s, s.T)
        self.assert_same_bytes(s)

    @pytest.mark.parametrize("n", [2, 7, 64])
    def test_nearly_symmetric(self, n):
        a = gen(41 + n).standard_normal((n, n))
        s = a + a.T
        s[0, 1] += 1e-12
        assert not np.array_equal(s, s.T)
        self.assert_same_bytes(s)

    def test_tied_and_degenerate_columns(self):
        for s in (np.array([[2.0, 1.0], [1.0, 2.0]]), np.eye(4), np.zeros((3, 3)),
                  np.diag([1.0, -1.0, 1.0])):
            self.assert_same_bytes(s)

    # The symmetry check reads 128-row blocks of the upper triangle; these
    # asymmetric entries sit on block edges, in the last (partial) block and
    # in the far corner.
    ASYMMETRIC_AT = [(127, 128), (128, 127), (255, 256), (0, 299), (299, 0),
                     (290, 295), (298, 299)]

    @pytest.mark.parametrize("i, j", ASYMMETRIC_AT)
    def test_one_asymmetric_entry_is_symmetrized(self, i, j):
        a = gen(53).standard_normal((300, 300))
        s = a + a.T
        s[i, j] += 1e-12
        assert linalg._max_asymmetry(s) == float(np.max(s - s.T)) > 0.0
        self.assert_same_bytes(s)

    @pytest.mark.parametrize("i, j", ASYMMETRIC_AT)
    def test_one_asymmetric_entry_is_refused(self, i, j):
        a = gen(54).standard_normal((300, 300))
        s = a + a.T
        s[i, j] += 1e-3
        assert linalg._max_asymmetry(s) == float(np.max(s - s.T))
        with pytest.raises(ValidationError, match="not symmetric"):
            linalg.sym_eig(s)

    def test_covariance_at_benchmark_width(self):
        x = gen(51).standard_normal((1100, 1024))
        c = x.T @ x / 1100.0
        c = (c + c.T) / 2.0
        self.assert_same_bytes(c)
        self.assert_same_bytes(np.asfortranarray(c))


class TestClampPsd:
    def test_clamps_and_counts_the_noise_band(self):
        vals, clamped = linalg.clamp_psd(np.array([2.0, 0.0, -1e-9, -1e-8]))
        assert clamped == 2
        assert bits_equal(vals, np.array([2.0, 0.0, 0.0, 0.0]))

    def test_refuses_below_the_band(self):
        with pytest.raises(NumericalError, match="not PSD"):
            linalg.clamp_psd(np.array([1.0, -1e-7]))

    def test_all_negative_is_refused(self):
        with pytest.raises(NumericalError):
            linalg.clamp_psd(np.array([-1.0, -1.0]))


class TestSqrtPsd:
    def test_diagonal(self):
        assert np.allclose(linalg.sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_identity(self):
        assert np.allclose(linalg.sqrt_psd(np.eye(3)), np.eye(3))

    def test_square_back(self):
        s = np.array([[2.0, 1.0], [1.0, 2.0]])
        root = linalg.sqrt_psd(s)
        assert np.max(np.abs(root @ root - s)) < 1e-10
        assert np.array_equal(root, root.T)

    def test_clamps_tiny_negatives(self):
        s = np.diag([1.0, -1e-9])  # within the noise clamp
        root = linalg.sqrt_psd(s)
        assert np.allclose(root, np.diag([1.0, 0.0]))

    def test_rejects_indefinite(self):
        with pytest.raises(NumericalError):
            linalg.sqrt_psd(np.diag([1.0, -0.5]))

    def test_random_psd_roundtrip(self):
        rng = gen(21)
        for _ in range(10):
            n = int(rng.integers(2, 33))
            s = random_psd(rng, n)
            root = linalg.sqrt_psd(s)
            assert np.linalg.norm(root @ root - s) <= 1e-8 * np.linalg.norm(s)


class TestInvSqrtPsd:
    """The inverse of the shrunk PSD square root under the default "damped"
    weighting, by np.linalg.inv of calibration.whitening_operator, and the
    refusal of a singular whitener by Ridge.check_invertible. The pipeline
    itself never forms S^-1."""

    def test_diagonal(self):
        # S = sqrt(0.5 * diag(11.5, 49) + 0.5 * I) = diag(2.5, 5)
        s = whitening_operator(np.diag([11.5, 49.0]), ShrinkageParams(alpha=0.5, lam=1.0))
        assert np.allclose(np.linalg.inv(s), np.diag([0.4, 0.2]))

    def test_identity(self):
        s = whitening_operator(np.eye(4), ShrinkageParams(alpha=0.5, lam=1.0))
        assert np.allclose(np.linalg.inv(s), np.eye(4))

    def test_product_with_sqrt_is_identity(self):
        rng = gen(22)
        for _ in range(10):
            c = random_psd(rng, 4, cond=5.0) + 0.1 * np.eye(4)
            ridge_of(c, ShrinkageParams()).check_invertible()
            s = whitening_operator(c, ShrinkageParams())
            product = np.linalg.inv(s) @ s
            assert np.max(np.abs(product - np.eye(4))) < 1e-9

    def test_product_with_sqrt_on_shrunk_random_sizes(self):
        # covariances up to 32x32 whose square roots span a condition of 100
        rng = gen(23)
        for _ in range(10):
            n = int(rng.integers(2, 33))
            c = random_psd(rng, n, cond=1e4)
            ridge_of(c, ShrinkageParams()).check_invertible()
            s = whitening_operator(c, ShrinkageParams())
            product = np.linalg.inv(s) @ s
            assert np.max(np.abs(product - np.eye(n))) < 1e-8

    def test_rejects_small_eigenvalue(self):
        # S = sqrt(0.5 diag(1, 0) + 0.5 lam I): a condition of about 1e13.
        c = np.diag([1.0, 0.0])
        params = ShrinkageParams(alpha=0.5, lam=1e-26)
        eigs = np.linalg.eigvalsh(whitening_operator(c, params))
        assert eigs[0] < 1e-12 * eigs[-1]
        with pytest.raises(NumericalError, match="singular whitener"):
            ridge_of(c, params).check_invertible()

    def test_rejects_nonpositive_min_eig(self):
        # alpha lam underflows to 0.0, so S's lower bound is zero.
        for weighting in ("damped", "C"):
            r = ridge_of(np.eye(2), ShrinkageParams(lam=5e-324, weighting=weighting))
            assert ShrinkageParams().alpha * r.lam == 0.0
            with pytest.raises(NumericalError, match="singular whitener"):
                r.check_invertible()


class TestSvd:
    def test_diagonal(self):
        res = linalg.svd(np.diag([3.0, 2.0]))
        assert np.allclose(res.singular_values, [3.0, 2.0])

    def test_rank_one(self):
        u = np.array([2.0, 1.0, 2.0])  # norm 3
        v = np.array([0.0, 2.0])  # norm 2
        res = linalg.svd(np.outer(u, v))
        assert np.allclose(res.singular_values, [6.0, 0.0], atol=1e-12)

    def test_zero_matrix(self):
        res = linalg.svd(np.zeros((3, 2)))
        assert np.allclose(res.singular_values, 0.0)

    def test_sign_convention(self):
        rng = gen(31)
        for _ in range(20):
            m, n = int(rng.integers(2, 12)), int(rng.integers(2, 12))
            res = linalg.svd(rng.standard_normal((m, n)))
            for j in range(res.u.shape[1]):
                col = res.u[:, j]
                significant = np.nonzero(np.abs(col) > 1e-12)[0]
                assert significant.size and col[significant[0]] > 0

    def test_signs_match_reference_loop(self):
        rng = gen(34)
        for m, n in ((1, 1), (3, 7), (7, 3), (40, 40), (96, 64)):
            a = rng.standard_normal((m, n))
            u, sing, v_t = np.linalg.svd(a, full_matrices=False)
            res = linalg.svd(a)
            ref_u, ref_v_t = reference_svd_signs(u, v_t)
            assert bits_equal(res.u, ref_u) and bits_equal(res.v_t, ref_v_t)
            assert bits_equal(res.singular_values, sing)

    def test_sign_rule_on_edge_columns(self):
        rng = gen(35)
        for cols in (SIGN_EDGE_COLUMNS, -SIGN_EDGE_COLUMNS, np.zeros((3, 0)), np.zeros((0, 0))):
            v_t = rng.standard_normal((cols.shape[1], 5))
            u, flipped_v_t = cols.copy(), v_t.copy()
            linalg._anchor_svd_signs(u, flipped_v_t)
            ref_u, ref_v_t = reference_svd_signs(cols, v_t)
            assert bits_equal(u, ref_u) and bits_equal(flipped_v_t, ref_v_t)

    def test_reconstruction_and_orthonormality(self):
        rng = gen(32)
        for _ in range(20):
            m, n = int(rng.integers(2, 33)), int(rng.integers(2, 33))
            a = rng.standard_normal((m, n))
            res = linalg.svd(a)
            assert np.all(np.diff(res.singular_values) <= 0)
            assert np.all(res.singular_values >= 0)
            err = np.linalg.norm(reconstruct(res) - a)
            assert err <= 1e-9 * np.linalg.norm(a)
            p = res.singular_values.size
            assert np.max(np.abs(res.u.T @ res.u - np.eye(p))) < 1e-10
            assert np.max(np.abs(res.v_t @ res.v_t.T - np.eye(p))) < 1e-10

    def test_deterministic_bytes(self):
        rng = gen(33)
        a = rng.standard_normal((10, 14))
        r1 = linalg.svd(a.copy())
        r2 = linalg.svd(a.copy())
        assert r1.u.tobytes() == r2.u.tobytes()
        assert r1.singular_values.tobytes() == r2.singular_values.tobytes()
        assert r1.v_t.tobytes() == r2.v_t.tobytes()

    @pytest.mark.parametrize("shape", [(12, 5), (5, 5), (4, 9), (1, 3)])
    def test_singular_values_match_lapack_values_alone(self, shape):
        # The whitened spectra are read off svd's singular_values, as LAPACK
        # gives them without the singular vectors.
        a = gen(36).standard_normal(shape)
        sigma = np.linalg.svd(a, compute_uv=False)
        got = linalg.svd(a).singular_values
        assert got.shape == (min(shape),)
        assert np.max(np.abs(got - sigma)) <= 1e-12 * sigma[0]


class TestTruncateSvd:
    def test_full_rank_identity(self):
        rng = gen(41)
        a = rng.standard_normal((5, 7))
        res = linalg.svd(a)
        full = truncate_svd(res, res.singular_values.size)
        assert np.array_equal(full.u, res.u)
        assert np.array_equal(full.singular_values, res.singular_values)
        assert np.array_equal(full.v_t, res.v_t)

    def test_prefix_selection(self):
        res = linalg.svd(np.diag([3.0, 2.0, 1.0]))
        top = truncate_svd(res, 2)
        assert np.allclose(top.singular_values, [3.0, 2.0])
        assert top.u.shape == (3, 2)
        assert top.v_t.shape == (2, 3)

    def test_residual_matches_tail_energy(self):
        # independent oracle: compute the residual directly per rank
        rng = gen(42)
        for _ in range(10):
            m, n = int(rng.integers(2, 17)), int(rng.integers(2, 17))
            a = rng.standard_normal((m, n))
            res = linalg.svd(a)
            total = linalg.frobenius_norm_sq(a)
            for r in range(1, res.singular_values.size + 1):
                approx = reconstruct(truncate_svd(res, r))
                residual = linalg.frobenius_norm_sq(a - approx)
                tail = float(np.sum(res.singular_values[r:] ** 2))
                assert abs(residual - tail) <= 1e-9 * tail + 1e-12 * total
