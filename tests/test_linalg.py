import numpy as np
import pytest

from framecs.errors import ContractViolation
from framecs.linalg import least_squares_min_norm, sym_eig_extremes


class TestSymEigExtremes:
    def test_identity(self):
        lo, hi = sym_eig_extremes(np.eye(2))
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        lo, hi = sym_eig_extremes(np.diag([0.25, 4.0]))
        assert (lo, hi) == pytest.approx((0.25, 4.0), abs=1e-12)

    def test_two_by_two(self):
        # characteristic polynomial (2 - t)^2 - 1 = 0 -> t in {1, 3}
        lo, hi = sym_eig_extremes(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert (lo, hi) == pytest.approx((1.0, 3.0), abs=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ContractViolation):
            sym_eig_extremes(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ContractViolation):
            sym_eig_extremes(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_nan(self):
        with pytest.raises(ContractViolation):
            sym_eig_extremes(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_known_spectrum_dim_256(self):
        # planted spectrum at the largest supported size, 1e-10 relative
        rng = np.random.default_rng(42)
        q, _ = np.linalg.qr(rng.standard_normal((256, 256)))
        eigs = np.sort(rng.uniform(-5.0, 5.0, size=256))
        m = (q * eigs) @ q.T
        lo, hi = sym_eig_extremes(m, tol=1e-8)
        assert lo == pytest.approx(eigs[0], rel=1e-10, abs=1e-10)
        assert hi == pytest.approx(eigs[-1], rel=1e-10, abs=1e-10)

    def test_rayleigh_quotient_bracketing(self):
        rng = np.random.default_rng(11)
        g = rng.standard_normal((6, 6))
        m = g + g.T
        lo, hi = sym_eig_extremes(m)
        for _ in range(1000):
            v = rng.standard_normal(6)
            quot = (v @ m @ v) / (v @ v)
            assert lo - 1e-8 <= quot <= hi + 1e-8


class TestLeastSquaresMinNorm:
    def test_identity(self):
        x, res = least_squares_min_norm(np.eye(3), np.array([1.0, 2.0, 3.0]))
        assert np.allclose(x, [1, 2, 3], atol=1e-12)
        assert res == pytest.approx(0.0, abs=1e-12)

    def test_decoupled(self):
        x, res = least_squares_min_norm(np.diag([1.0, 0.0]), np.array([1.0, 1.0]))
        assert np.allclose(x, [1.0, 0.0], atol=1e-12)
        assert res == pytest.approx(1.0, abs=1e-12)

    def test_min_norm_single_equation(self):
        # x1 + x2 = 2 has minimal-norm solution (1, 1)
        x, res = least_squares_min_norm(np.array([[1.0, 1.0]]), np.array([2.0]))
        assert np.allclose(x, [1.0, 1.0], atol=1e-12)
        assert res == pytest.approx(0.0, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ContractViolation):
            least_squares_min_norm(np.eye(2), np.ones(3))

    def test_local_optimality_probe(self):
        rng = np.random.default_rng(21)
        m = rng.standard_normal((5, 3))
        b = rng.standard_normal(5)
        x, res = least_squares_min_norm(m, b)
        for _ in range(1000):
            delta = rng.standard_normal(3) * 10.0 ** rng.uniform(-6, 0)
            assert np.linalg.norm(m @ (x + delta) - b) >= res - 1e-12
