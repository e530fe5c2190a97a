import hashlib
import math

import numpy as np
import pytest

from framecs.errors import ContractViolation
from framecs.sensing import (
    SensingModel,
    concentration_probe,
    gen_gaussian,
    gen_matrix,
    measure,
)


class TestGenerators:
    def test_gaussian_deterministic(self):
        assert np.array_equal(gen_gaussian(6, 4, seed=5), gen_gaussian(6, 4, seed=5))

    def test_gaussian_single_entry(self):
        a = gen_gaussian(1, 1, seed=0)
        assert a.shape == (1, 1) and np.isfinite(a[0, 0])

    def test_gaussian_column_normalization(self):
        # entry variance 1/m makes E||column||^2 = 1
        m = 64
        means = [float(np.mean(np.linalg.norm(gen_gaussian(m, 8, seed=s), axis=0) ** 2))
                 for s in range(200)]
        assert 0.9 <= np.mean(means) <= 1.1

    def test_bernoulli_entries(self):
        m = 9
        a = gen_matrix("bernoulli", m, 5, seed=3)
        assert np.all(np.isin(a, [1 / np.sqrt(m), -1 / np.sqrt(m)]))
        assert np.allclose(np.linalg.norm(a, axis=0), 1.0, atol=1e-12)

    def test_bernoulli_deterministic(self):
        assert np.array_equal(gen_matrix("bernoulli", 4, 4, seed=8),
                              gen_matrix("bernoulli", 4, 4, seed=8))

    def test_reject_bad_dims(self):
        with pytest.raises(ContractViolation):
            gen_gaussian(0, 3, seed=0)

    def test_reject_unknown_kind(self):
        with pytest.raises(ContractViolation):
            gen_matrix("rademacher", 3, 3, seed=0)

    # ids read kind-gen_kind-digest, the form the suite has always used
    @pytest.mark.parametrize("kind, digest", [
        pytest.param(kind, digest, id="%s-gen_%s-%s" % (kind, kind, digest))
        for kind, digest in (
            ("gaussian", "9606577bfc00a234161b3b20032a151ec594d2dd00b4144e748b15f387d2d7de"),
            ("bernoulli", "6a8561e412fcb6b68d70413d5e3d7cf22f2df15555b8b5c2f518ebc082a2c15f"))])
    def test_pinned_bits(self, kind, digest):
        # every bit of a seeded draw is part of the output contract (`sense
        # gen`, every experiment record); the digests are of float64 bytes
        a = gen_matrix(kind, 7, 5, seed=123)
        assert hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest() == digest
        if kind == "gaussian":
            assert np.array_equal(gen_gaussian(7, 5, seed=123), a)


class TestMeasure:
    def test_noiseless(self):
        a = gen_gaussian(5, 3, seed=1)
        f = np.array([1.0, 0.0, -2.0])
        model = measure(a, f, "none")
        assert np.array_equal(model.y, a @ f)
        assert model.epsilon == 0.0

    def test_bounded_norm_is_exact(self):
        a = gen_gaussian(6, 3, seed=2)
        model = measure(a, np.ones(3), "bounded", 0.1, seed=7)
        assert np.linalg.norm(model.z) == pytest.approx(0.1, rel=1e-12)
        assert model.epsilon == 0.1

    def test_gaussian_zero_sigma(self):
        a = gen_gaussian(4, 2, seed=3)
        model = measure(a, np.ones(2), "gaussian", 0.0, seed=1)
        assert np.all(model.z == 0.0) and model.epsilon == 0.0

    def test_gaussian_budget_is_honest(self):
        a = gen_gaussian(4, 2, seed=4)
        model = measure(a, np.ones(2), "gaussian", 0.3, seed=2)
        assert model.epsilon == pytest.approx(np.linalg.norm(model.z), abs=0.0)

    def test_stored_y_reproduces_bitwise(self):
        a = gen_gaussian(7, 4, seed=5)
        f = np.arange(4.0)
        model = measure(a, f, "bounded", 0.05, seed=6)
        assert np.array_equal(model.y, model.A @ model.f_true + model.z)

    def test_negative_level_rejected(self):
        for level in (-0.1, math.nan, math.inf):
            with pytest.raises(ContractViolation):
                measure(np.eye(2), np.ones(2), "bounded", level)

    def test_model_validates_budget(self):
        with pytest.raises(ContractViolation):
            SensingModel(A=np.eye(2), y=np.ones(2), epsilon=0.0,
                         f_true=np.zeros(2), z=np.ones(2))
        for eps in (-0.1, math.nan, math.inf):
            with pytest.raises(ContractViolation):
                SensingModel(A=np.eye(2), y=np.ones(2), epsilon=eps)


class TestConcentrationProbe:
    def test_large_m_concentrates(self):
        nu = np.arange(1.0, 9.0)
        freq = concentration_probe("gaussian", 4096, 8, nu, 0.5, trials=200, seed=1)
        assert freq == 0.0

    def test_single_measurement_is_loose(self):
        nu = np.ones(3)
        freq = concentration_probe("gaussian", 1, 3, nu, 0.99, trials=1000, seed=2)
        assert freq > 0.0

    def test_monotone_in_m(self):
        nu = np.ones(6)
        hi = concentration_probe("gaussian", 4, 6, nu, 0.5, trials=400, seed=3)
        lo = concentration_probe("gaussian", 256, 6, nu, 0.5, trials=400, seed=3)
        assert lo <= hi + 0.05

    def test_bernoulli_generator(self):
        freq = concentration_probe("bernoulli", 512, 4, np.ones(4), 0.5,
                                   trials=100, seed=4)
        assert freq <= 0.05

    def test_deterministic(self):
        nu = np.arange(1.0, 5.0)
        a = concentration_probe("gaussian", 16, 4, nu, 0.3, trials=50, seed=9)
        b = concentration_probe("gaussian", 16, 4, nu, 0.3, trials=50, seed=9)
        assert a == b

    @pytest.mark.parametrize("kind, pinned", [
        ("gaussian", (0.485, 0.40540540540540543)),
        ("bernoulli", (0.53, 0.5405405405405406)),
    ])
    def test_pinned_frequencies(self, kind, pinned):
        assert concentration_probe(kind, 12, 6, np.arange(1.0, 7.0), 0.25, 200, seed=17) \
            == pinned[0]
        assert concentration_probe(kind, 3, 6, np.ones(6), 0.5, 37, seed=5) == pinned[1]

    @pytest.mark.parametrize("m", [0, -2])
    def test_rejects_bad_dims(self, m):
        with pytest.raises(ContractViolation):
            concentration_probe("gaussian", m, 3, np.ones(3), 0.5, 10, 0)

    def test_zero_nu_rejected(self):
        with pytest.raises(ContractViolation):
            concentration_probe("gaussian", 4, 3, np.zeros(3), 0.5, 10, 0)
