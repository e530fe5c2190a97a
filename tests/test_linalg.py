import numpy as np
import pytest

from framecs.errors import ContractViolation
from framecs.linalg import least_squares_min_norm


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
