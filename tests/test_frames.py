import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framecs.errors import ContractViolation
from framecs.frames import (
    TightFrame,
    tightness_defect,
    best_s_term,
    column_coherence,
    load_matrix,
    lq_mass,
    make_dct_frame,
    make_identity_frame,
    make_random_tight_frame,
    make_union_frame,
    s_term_head,
    save_matrix,
)


def all_frames():
    return [
        make_identity_frame(5),
        make_dct_frame(6),
        make_union_frame(np.eye(4), make_dct_frame(4).matrix),
        make_random_tight_frame(5, 9, seed=2),
        make_random_tight_frame(7, 7, seed=3),
    ]


class TestConstruction:
    def test_identity(self):
        f = make_identity_frame(3)
        assert f.n == f.d == 3
        assert np.array_equal(f.matrix, np.eye(3))
        assert tightness_defect(f.matrix) <= 1e-14

    def test_identity_scalar(self):
        f = make_identity_frame(1)
        assert f.matrix.shape == (1, 1) and f.matrix[0, 0] == 1.0

    def test_dct_n2_by_hand(self):
        f = make_dct_frame(2)
        r = 1.0 / np.sqrt(2.0)
        assert np.abs(f.matrix[:, 0] - [r, r]).max() < 1e-14
        assert np.abs(f.matrix[:, 1] - [r, -r]).max() < 1e-14

    def test_dct_orthonormal(self):
        for n in (1, 2, 5, 16):
            f = make_dct_frame(n)
            assert tightness_defect(f.matrix) <= 1e-10
            g = f.matrix.T @ f.matrix
            assert np.abs(g - np.eye(n)).max() <= 1e-10

    def test_union_of_identical_bases(self):
        f = make_union_frame(np.eye(3), np.eye(3))
        assert f.d == 6
        assert tightness_defect(f.matrix) <= 1e-12
        assert column_coherence(f.matrix) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(np.linalg.norm(f.matrix, axis=0), 1 / np.sqrt(2))

    def test_union_identity_dct(self):
        f = make_union_frame(np.eye(4), make_dct_frame(4).matrix)
        assert tightness_defect(f.matrix) <= 1e-10

    def test_union_rejects_non_orthonormal(self):
        with pytest.raises(ContractViolation):
            make_union_frame(np.eye(3) * 2.0, np.eye(3))

    @pytest.mark.parametrize("call, message", [
        (lambda: TightFrame(np.ones((2, 1))), "d >= n >= 1"),
        (lambda: make_identity_frame(0), "n must be >= 1"),
        (lambda: make_dct_frame(0), "n must be >= 1"),
        (lambda: make_random_tight_frame(-2, 6, 0), "n must be >= 1"),
        (lambda: make_random_tight_frame(-1, -1, 0), "n must be >= 1"),
        (lambda: make_union_frame(np.ones((2, 3)), np.eye(2)), "b1 must be square"),
        (lambda: make_union_frame(np.eye(2), np.eye(3)), "matching shapes"),
        (lambda: column_coherence(np.array([[1.0, 0.0], [1.0, 0.0]])), "zero column"),
    ], ids=["d < n", "identity n = 0", "dct n = 0", "random n = -2, d = 6",
            "random n = d = -1", "union non-square", "union shapes", "coherence zero column"])
    def test_rejects(self, call, message):
        with pytest.raises(ContractViolation, match=message):
            call()

    def test_random_tight(self):
        f = make_random_tight_frame(4, 8, seed=1)
        assert tightness_defect(f.matrix) <= 1e-10

    def test_random_square_is_orthonormal(self):
        f = make_random_tight_frame(5, 5, seed=4)
        assert tightness_defect(f.matrix) <= 1e-10
        assert column_coherence(f.matrix) <= 1e-8

    def test_random_deterministic(self):
        a = make_random_tight_frame(4, 8, seed=7)
        b = make_random_tight_frame(4, 8, seed=7)
        assert np.array_equal(a.matrix, b.matrix)

    def test_random_rejects_d_lt_n(self):
        with pytest.raises(ContractViolation):
            make_random_tight_frame(5, 4, seed=0)

    def test_rejects_zero_column(self):
        m = np.hstack([np.eye(3), np.zeros((3, 1))])
        # DD* = I exactly, but a zero column violates the frame invariant
        with pytest.raises(ContractViolation):
            TightFrame(m)

    def test_rejects_scaled_identity(self):
        # D = 2I has DD* = 4I, defect 3
        with pytest.raises(ContractViolation):
            TightFrame(2.0 * np.eye(3))

    def test_defect_of_scaled_identity(self):
        assert tightness_defect(2.0 * np.eye(3)) == pytest.approx(3.0, abs=1e-12)

    def test_defect_of_tight_matrix(self):
        assert tightness_defect(np.eye(4)) <= 1e-14

    def test_defect_of_identity(self):
        # I I* - I = 0: both ends of the spectrum sit at zero
        assert tightness_defect(np.eye(2)) == pytest.approx(0.0, abs=1e-12)

    def test_defect_takes_the_larger_end(self):
        # DD* - I = diag(-0.99, 0.44): the negative end is the defect
        assert tightness_defect(np.diag([0.1, 1.2])) == pytest.approx(0.99, abs=1e-12)

    def test_defect_of_a_full_two_by_two(self):
        # D = sqrtm([[2, 1], [1, 2]]) has DD* - I with eigenvalues 0 and 2
        r = np.sqrt(3.0)
        m = np.array([[r + 1.0, r - 1.0], [r - 1.0, r + 1.0]]) / 2.0
        assert tightness_defect(m) == pytest.approx(2.0, abs=1e-12)

    def test_defect_bounds_the_energy_deviation(self):
        # | ||D* v||^2 - ||v||^2 | <= defect ||v||^2 for every v
        rng = np.random.default_rng(11)
        m = rng.standard_normal((6, 9)) / 3.0
        defect = tightness_defect(m)
        for _ in range(1000):
            v = rng.standard_normal(6)
            dev = abs(float(np.sum((m.T @ v) ** 2)) - float(v @ v))
            assert dev <= defect * float(v @ v) + 1e-8

    def test_defect_of_known_spectrum_dim_256(self):
        # D = Q diag(sqrt(1 + e)) has DD* - I = Q diag(e) Q^T
        rng = np.random.default_rng(42)
        q, _ = np.linalg.qr(rng.standard_normal((256, 256)))
        eigs = rng.uniform(-0.9, 4.0, size=256)
        want = max(abs(eigs.min()), abs(eigs.max()))
        assert tightness_defect(q * np.sqrt(1.0 + eigs)) == pytest.approx(want, rel=1e-10)

    def test_defect_rejects_nan(self):
        with pytest.raises(ContractViolation):
            tightness_defect(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_defect_rejects_overflow(self):
        with np.errstate(over="ignore"), pytest.raises(ContractViolation):
            tightness_defect(np.full((2, 2), 1e200))


class TestTransforms:
    def test_analysis_identity(self):
        f = make_identity_frame(3)
        v = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(f.matrix.T @ v, v)

    def test_analysis_union(self):
        f = make_union_frame(np.eye(2), np.eye(2))
        x = f.matrix.T @ np.array([np.sqrt(2.0), 0.0])
        assert np.allclose(x, [1.0, 0.0, 1.0, 0.0], atol=1e-14)

    def test_parseval_and_reconstruction(self):
        rng = np.random.default_rng(8)
        for frame in all_frames():
            for _ in range(1000):
                v = rng.standard_normal(frame.n)
                coeffs = frame.matrix.T @ v
                norm = np.linalg.norm(v)
                assert abs(np.linalg.norm(coeffs) - norm) <= 1e-8 * max(norm, 1e-30)
                assert np.linalg.norm(frame.matrix @ coeffs - v) <= 1e-8 * max(norm, 1e-30)

    def test_synthesize_basis_vector(self):
        frame = make_random_tight_frame(4, 6, seed=5)
        e2 = np.zeros(6)
        e2[2] = 1.0
        assert np.array_equal(frame.matrix @ e2, frame.matrix[:, 2])


class TestCoherence:
    def test_identity_zero(self):
        assert column_coherence(make_identity_frame(4).matrix) == pytest.approx(0.0, abs=1e-14)

    def test_union_identity_dct_n2(self):
        # the largest inner product is the largest DCT entry, 1/sqrt(2)
        f = make_union_frame(np.eye(2), make_dct_frame(2).matrix)
        assert column_coherence(f.matrix) == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((4, 7))
        for c in (0.1, 2.0, 1337.0):
            assert column_coherence(c * m) == pytest.approx(column_coherence(m), rel=1e-12)

    def test_needs_two_columns(self):
        with pytest.raises(ContractViolation):
            column_coherence(make_identity_frame(1).matrix)


# small integers give ties and zeros; magnitudes stay clear of underflow
entries = st.integers(-3, 3).map(float) | st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3)


class TestBestSTerm:
    def test_basic(self):
        head, tail_l1 = best_s_term(np.array([3.0, -1.0, 2.0]), 2)
        assert head.tolist() == [0, 2]
        assert tail_l1 == pytest.approx(1.0)

    def test_s_zero(self):
        head, tail_l1 = best_s_term(np.array([3.0, -1.0, 2.0]), 0)
        assert head.size == 0
        assert tail_l1 == pytest.approx(6.0)

    def test_tie_breaking_lowest_index(self):
        head, tail_l1 = best_s_term(np.array([1.0, 1.0, 1.0]), 2)
        assert head.tolist() == [0, 1]
        assert tail_l1 == pytest.approx(1.0)
        # largest first, then the lowest index among equal magnitudes
        assert s_term_head(np.array([1.0, -2.0, 0.0, 2.0, -1.0]), 4).tolist() == [1, 3, 0, 4]

    def test_tail_lq(self):
        tail_lq = best_s_term(np.array([3.0, -1.0, 2.0, 0.5]), 2, q=0.5)[1]
        expected = (1.0 ** 0.5 + 0.5 ** 0.5) ** 2.0
        assert tail_lq == pytest.approx(expected, rel=1e-12)

    def test_sparsity_invariant(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            x = rng.standard_normal(9)
            s = int(rng.integers(0, 10))
            head, tail_l1 = best_s_term(x, s)
            assert len(set(head.tolist())) == head.size == s
            assert tail_l1 >= 0.0

    def test_refuses_bad_s_and_q(self):
        x = np.array([3.0, -1.0, 2.0])
        for s in (-1, 4):
            with pytest.raises(ContractViolation):
                s_term_head(x, s)
            with pytest.raises(ContractViolation):
                best_s_term(x, s)
        for q in (0.0, 1.5):
            with pytest.raises(ContractViolation):
                best_s_term(x, 1, q)

    def test_lq_mass(self):
        x = np.array([[4.0, -1.0, 0.0], [0.0, 9.0, -16.0]])
        assert lq_mass(x[0], 1.0) == 5.0
        assert lq_mass(x[1], 0.5) == 7.0
        assert isinstance(lq_mass(x[0], 0.5), float)
        assert lq_mass(x, 0.5, axis=1).tolist() == [3.0, 7.0]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(entries, min_size=1, max_size=12), st.data(), st.floats(0.05, 1.0))
    def test_tail_identities(self, values, data, q):
        x = np.array(values)
        s = data.draw(st.integers(0, x.shape[0]))
        head, tail_lq = best_s_term(x, s, q)
        tail_l1 = best_s_term(x, s)[1]
        assert np.array_equal(head, s_term_head(x, s))
        assert len(set(head.tolist())) == head.size == s
        kept = np.abs(x[head])
        rest = np.delete(np.arange(x.shape[0]), head)
        assert np.all(np.diff(kept) <= 0.0)  # largest first
        if s and rest.size:
            assert kept.min() >= np.abs(x[rest]).max()
            # a dropped entry that ties the smallest kept one comes later
            tied = rest[np.abs(x[rest]) == kept.min()]
            assert not tied.size or tied.min() > head[kept == kept.min()].max()
        l1 = float(np.abs(x).sum())
        assert tail_l1 == pytest.approx(l1 - float(kept.sum()), rel=1e-12, abs=1e-12 * l1)
        assert tail_lq ** q == pytest.approx(float(np.sum(np.abs(x[rest]) ** q)),
                                             rel=1e-9, abs=1e-300)
        assert tail_lq >= tail_l1 * (1.0 - 1e-12)
        if q == 1.0:
            assert tail_lq == tail_l1

    def test_exhaustive_optimality(self):
        from itertools import combinations
        rng = np.random.default_rng(12)
        for length in (5, 8, 12):
            x = rng.standard_normal(length)
            for s in range(length + 1):
                kept = np.zeros(length)
                head = best_s_term(x, s)[0]
                kept[head] = x[head]
                err = np.linalg.norm(x - kept)
                for subset in combinations(range(length), s):
                    alt = np.zeros(length)
                    alt[list(subset)] = x[list(subset)]
                    assert err <= np.linalg.norm(x - alt) + 1e-12


class TestMatrixFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        m = rng.standard_normal((5, 7)) * 10.0 ** rng.integers(-8, 8, size=(5, 7))
        path = tmp_path / "m.txt"
        save_matrix(path, m)
        back = load_matrix(path)
        assert np.array_equal(back, m)
        save_matrix(tmp_path / "m2.txt", back)
        assert (tmp_path / "m.txt").read_bytes() == (tmp_path / "m2.txt").read_bytes()

    def test_frame_round_trip(self, tmp_path):
        frame = make_random_tight_frame(4, 6, seed=14)
        path = tmp_path / "f.txt"
        save_matrix(path, frame.matrix)
        back = TightFrame(load_matrix(path))
        assert np.array_equal(back.matrix, frame.matrix)

    def test_header_format(self, tmp_path):
        save_matrix(tmp_path / "m.txt", np.eye(2))
        first = (tmp_path / "m.txt").read_text(encoding="utf-8").splitlines()[0]
        assert first == "2 2"
