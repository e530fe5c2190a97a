import json
import math
import warnings
from itertools import combinations, islice
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from framecs import drip
from framecs.drip import (
    SpectrumExtremes,
    exact_drip,
    random_spectrum_extremes,
    spectrum_extremes,
    support_chunks,
    support_spectrum_range,
)
from framecs.errors import ContractViolation, EnumerationLimitError
from framecs.frames import (
    make_frame,
    make_identity_frame,
    make_random_tight_frame,
    make_union_frame,
)
from framecs.linalg import DEFAULT_TOL, as_matrix
from framecs.rng import derive_seed, rng_from_seed
from framecs.sensing import gen_gaussian, gen_matrix
from framecs.serialize import json_dumps
from rip_reference import exact_rip


class TestExactDrip:
    def test_identity_measurement_any_frame(self):
        frame = make_random_tight_frame(4, 7, seed=1)
        for s in (1, 2, 3):
            assert exact_drip(np.eye(4), frame, s).delta <= 1e-12

    def test_scaled_identity(self):
        frame = make_identity_frame(3)
        rep = exact_drip(2.0 * np.eye(3), frame, 1)
        assert rep.delta == pytest.approx(3.0, abs=1e-12)

    # K = 1e400 on the identity, and K about 1e320 on a random frame: no
    # constant can be read off either
    @pytest.mark.parametrize("frame, a", [
        (make_identity_frame(1), np.array([[1e200]])),
        (make_random_tight_frame(4, 7, seed=1), 1e160 * gen_gaussian(9, 4, seed=1))],
        ids=["identity", "random"])
    @pytest.mark.parametrize("run", [
        lambda a, frame: exact_drip(a, frame, 1),
        lambda a, frame: random_spectrum_extremes(a, frame, 1, 3, seed=0)],
        ids=["exact", "lower"])
    def test_refuses_a_pencil_that_overflows(self, run, frame, a):
        with pytest.raises(ContractViolation, match="the pencil of A on the frame overflows"):
            run(a, frame)

    # K about 1e200, whose square overflows: the one flat pair of a single
    # column, and the pair roots of a random frame, scale with K
    @pytest.mark.parametrize("frame, a, s", [
        (make_identity_frame(1), np.ones((1, 1)), 1),
        (make_random_tight_frame(4, 7, seed=1), gen_gaussian(9, 4, seed=1), 2)],
        ids=["identity", "random"])
    def test_large_pencil_within_floats(self, frame, a, s):
        unit, scaled = spectrum_extremes(a, frame, s), spectrum_extremes(1e100 * a, frame, s)
        assert scaled.lo == pytest.approx(1e200 * unit.lo, rel=1e-12)
        assert scaled.hi == pytest.approx(1e200 * unit.hi, rel=1e-12)
        assert (scaled.lo_at, scaled.hi_at) == (unit.lo_at, unit.hi_at)

    def test_diag_s1(self):
        rep = exact_drip(np.diag([1.0, 0.5]), make_identity_frame(2), 1)
        assert rep.delta == pytest.approx(0.75, abs=1e-12)
        assert rep.witness_support == (1,)
        assert rep.supports_examined == 2

    def test_diag_s2(self):
        rep = exact_drip(np.diag([1.0, 0.5]), make_identity_frame(2), 2)
        assert rep.delta == pytest.approx(0.75, abs=1e-12)
        assert rep.supports_examined == 1

    def test_monotone_in_s(self):
        for seed in range(6):
            frame = make_random_tight_frame(5, 8, seed=seed)
            a = gen_gaussian(10, 5, seed=seed + 100)
            deltas = [exact_drip(a, frame, s).delta for s in (1, 2, 3, 4)]
            for lo, hi in zip(deltas, deltas[1:]):
                assert hi >= lo - 1e-12

    def test_witness_reproduces_delta(self):
        for seed in range(6):
            frame = make_random_tight_frame(4, 7, seed=seed)
            a = gen_gaussian(9, 4, seed=seed + 200)
            rep = exact_drip(a, frame, 2)
            assert support_deviation(a, frame, rep.witness_support) \
                == pytest.approx(rep.delta, abs=1e-10)

    def test_definition_sampling(self):
        rng = np.random.default_rng(31)
        frame = make_random_tight_frame(5, 9, seed=4)
        a = gen_gaussian(12, 5, seed=5)
        s = 2
        delta = exact_drip(a, frame, s).delta
        d = frame.matrix
        for _ in range(1000):
            v = np.zeros(9)
            sup = rng.choice(9, s, replace=False)
            v[sup] = rng.standard_normal(s)
            dv = d @ v
            adv = a @ dv
            ndv = dv @ dv
            assert (1 - delta - 1e-8) * ndv <= adv @ adv <= (1 + delta + 1e-8) * ndv

    def test_inner_product_bound(self):
        # for s-sparse u, v: <ADu, ADv> <= delta_2s ||Du|| ||Dv|| + <Du, Dv>
        rng = np.random.default_rng(32)
        frame = make_random_tight_frame(5, 8, seed=6)
        a = gen_gaussian(11, 5, seed=7)
        s = 2
        delta2 = exact_drip(a, frame, 2 * s).delta
        d = frame.matrix
        for _ in range(1000):
            u = np.zeros(8)
            v = np.zeros(8)
            u[rng.choice(8, s, replace=False)] = rng.standard_normal(s)
            v[rng.choice(8, s, replace=False)] = rng.standard_normal(s)
            du, dv = d @ u, d @ v
            lhs = (a @ du) @ (a @ dv)
            rhs = delta2 * np.linalg.norm(du) * np.linalg.norm(dv) + du @ dv
            assert lhs <= rhs + 1e-8

    def test_rank_deficient_supports(self):
        # union of a basis with itself: the support {i, n+i} spans a single
        # direction, so the pair behaves exactly like the singleton {i}
        from framecs.frames import make_union_frame
        frame = make_union_frame(np.eye(3), np.eye(3))
        rng = np.random.default_rng(77)
        a = rng.standard_normal((5, 3)) / np.sqrt(5)
        singles = exact_drip(a, frame, 1).delta
        for i in range(3):
            pair_dev = support_deviation(a, frame, (i, 3 + i))
            single_dev = support_deviation(a, frame, (i,))
            assert pair_dev == pytest.approx(single_dev, abs=1e-12)
        assert exact_drip(a, frame, 2).delta >= singles - 1e-12

    def test_enumeration_guard(self):
        frame = make_random_tight_frame(8, 60, seed=8)
        a = gen_gaussian(16, 8, seed=9)
        with pytest.raises(EnumerationLimitError, match="framecs drip lower"):
            exact_drip(a, frame, 8)

    def test_rejects_bad_s(self):
        with pytest.raises(ContractViolation):
            exact_drip(np.eye(3), make_identity_frame(3), 0)


class TestExactRip:
    def test_orthonormal_columns(self):
        q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((6, 4)))
        assert exact_rip(q, 2).delta <= 1e-12

    def test_diag(self):
        rep = exact_rip(np.diag([1.0, 0.5]), 1)
        assert rep.delta == pytest.approx(0.75, abs=1e-12)

    def test_matches_drip_with_identity_frame(self):
        for seed in range(50):
            n = 4 + seed % 4
            a = gen_gaussian(2 * n, n, seed=seed)
            s = 1 + seed % 3
            frame = make_identity_frame(n)
            assert exact_rip(a, s).delta \
                == pytest.approx(exact_drip(a, frame, s).delta, abs=1e-10)

    def test_order_scaling_bound(self):
        # delta at order c*s is at most c times delta at order 2s (c >= 2)
        for seed in range(8):
            a = gen_gaussian(20, 8, seed=seed + 400)
            d2 = exact_rip(a, 2).delta
            for c in (2, 3, 4):
                dc = exact_rip(a, c).delta
                assert dc <= c * d2 + 1e-10


class TestRandomLowerBound:
    def test_never_exceeds_exact(self):
        for seed in range(10):
            frame = make_random_tight_frame(4, 7, seed=seed)
            a = gen_gaussian(8, 4, seed=seed + 300)
            exact = exact_drip(a, frame, 2).delta
            lower = random_spectrum_extremes(a, frame, 2, 40, seed).report(2).delta
            assert lower <= exact + 1e-10

    def test_exhaustive_coincides(self):
        frame = make_random_tight_frame(3, 5, seed=11)
        a = gen_gaussian(6, 3, seed=12)
        exact = exact_drip(a, frame, 1).delta
        # 200 draws over 5 singleton supports covers all of them
        lower = random_spectrum_extremes(a, frame, 1, 200, 13).report(1)
        assert lower.delta == pytest.approx(exact, abs=1e-12)

    def test_deterministic(self):
        frame = make_random_tight_frame(4, 6, seed=14)
        a = gen_gaussian(7, 4, seed=15)
        r1 = random_spectrum_extremes(a, frame, 2, 25, 16).report(2)
        r2 = random_spectrum_extremes(a, frame, 2, 25, 16).report(2)
        assert r1 == r2


class TestSupportSpectrumRange:
    def test_scaling_law(self):
        frame = make_random_tight_frame(4, 6, seed=17)
        a = gen_gaussian(9, 4, seed=18)
        lo, hi = support_spectrum_range(a, frame, 2)
        lo2, hi2 = support_spectrum_range(2.0 * a, frame, 2)
        assert lo2 == pytest.approx(4 * lo, rel=1e-10)
        assert hi2 == pytest.approx(4 * hi, rel=1e-10)

    def test_consistent_with_delta(self):
        frame = make_random_tight_frame(4, 6, seed=19)
        a = gen_gaussian(9, 4, seed=20)
        lo, hi = support_spectrum_range(a, frame, 2)
        delta = exact_drip(a, frame, 2).delta
        assert delta == pytest.approx(max(hi - 1.0, 1.0 - lo), abs=1e-12)


class TestSerialization:
    def test_json_fields(self):
        rep = exact_drip(np.diag([1.0, 0.5]), make_identity_frame(2), 1)
        payload = json.loads(json_dumps(rep))
        assert list(payload) == ["s", "delta", "method", "witness_support",
                                 "supports_examined"]
        assert payload["s"] == 1
        assert payload["method"] == "exact"
        assert payload["witness_support"] == [1]
        assert payload["supports_examined"] == 2
        assert payload["delta"] == 0.75


# ---------------------------------------------------------------------------
# the batched kernel against a one-support-at-a-time reference


def orthonormal_range_basis(m, tol=DEFAULT_TOL):
    """Orthonormal columns spanning range(m): columns whose singular value
    is <= tol * sigma_max are dropped; an all-zero input gives zero columns."""
    m = as_matrix(m)
    if min(m.shape) == 0:
        return np.zeros((m.shape[0], 0))
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    if s[0] <= 0.0:
        return np.zeros((m.shape[0], 0))
    return u[:, :int(np.count_nonzero(s > tol * s[0]))].copy()


def reference_spectrum(a, mat, support):
    """(lo, hi) on range(D_T) from an SVD basis and eigvalsh, one support at
    a time."""
    basis = orthonormal_range_basis(mat[:, list(support)])
    w = np.linalg.eigvalsh(basis.T @ a.T @ a @ basis)
    return w[0], w[-1]


def support_deviation(a, frame, support):
    """The deviation max(hi - 1, 1 - lo) on one support (witness
    validation)."""
    lo, hi = reference_spectrum(a, frame.matrix, support)
    return max(hi - 1.0, 1.0 - lo)


def reference_drip(a, mat, supports):
    delta, witness = -1.0, ()
    for support in supports:
        lo, hi = reference_spectrum(a, mat, support)
        dev = max(hi - 1.0, 1.0 - lo)
        if dev > delta:
            delta, witness = dev, tuple(support)
    return delta, witness


def kernel_spectra(a, frame, supports):
    """The kernel `drip._spectra`: (lo, hi) per row of `supports`."""
    return drip._spectra(frame.matrix, a.T @ a, np.asarray(supports, dtype=np.intp))


def check_kernel(a, frame, t):
    supports = list(combinations(range(frame.d), t))
    lo, hi = kernel_spectra(a, frame, supports)
    for support, l, h in zip(supports, lo, hi):
        spec = reference_spectrum(a, frame.matrix, support)
        assert l == pytest.approx(spec[0], abs=1e-12)
        assert h == pytest.approx(spec[1], abs=1e-12)


dims = st.tuples(st.integers(2, 5), st.integers(0, 3), st.integers(1, 10),
                 st.integers(0, 10**6))


class TestSupportSpectra:
    @settings(max_examples=40, deadline=None)
    @given(dims, st.integers(1, 8))
    def test_random_frames_match_reference(self, dim, t):
        n, extra, m, seed = dim
        frame = make_random_tight_frame(n, n + extra, seed=seed)
        assume(t <= frame.d)  # t > n covers 2s > n
        check_kernel(gen_gaussian(m, n, seed=seed + 1), frame, t)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 4), st.integers(0, 10**6))
    def test_union_of_a_basis_with_itself(self, n, t, seed):
        # {i, n + i} spans one direction: rank-deficient supports
        frame = make_union_frame(np.eye(n), np.eye(n))
        check_kernel(gen_gaussian(2 * n, n, seed=seed), frame, t)

    def test_matches_the_per_support_basis_at_m_160(self):
        frame = make_random_tight_frame(10, 14, seed=3)
        check_kernel(gen_gaussian(160, 10, seed=4), frame, 4)

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_gram_conditions_from_1_to_1e12(self, t):
        # I and a rotation of I: {i, 6 + i} is a pair of columns at angle
        # 0.5, 0.02 or 1e-6 (still full rank under the rank rule), with
        # cond(Phi_T) about 16, 1e4 and 1e12; {0, 2} is orthonormal
        rot = np.eye(6)
        for (i, j), angle in (((0, 1), 0.5), ((2, 3), 0.02), ((4, 5), 1e-6)):
            c, s = np.cos(angle), np.sin(angle)
            rot[[i, i, j, j], [i, j, i, j]] = c, -s, s, c
        frame = make_union_frame(np.eye(6), rot)
        conds = [np.linalg.cond(frame.matrix[:, [i, 6 + i]].T @ frame.matrix[:, [i, 6 + i]])
                 for i in (0, 2, 4)]
        assert 10 < conds[0] < 1e2 < conds[1] < 1e5 < 1e11 < conds[2] < 1e13
        check_kernel(gen_gaussian(13, 6, seed=t), frame, t)


def mp_delta(a, mat, s):
    """The constant of order s from the pencil (H_T, Phi_T) of every support,
    each full rank, in 40-digit arithmetic from the float inputs."""
    with mp.workdps(40):
        dm = mp.matrix(mat.tolist())
        ad = mp.matrix(a.tolist()) * dm
        phi, h = dm.T * dm, ad.T * ad
        lo, hi = mp.inf, -mp.inf
        for t in combinations(range(mat.shape[1]), s):
            inv = mp.inverse(mp.cholesky(mp.matrix([[phi[i, j] for j in t] for i in t])))
            w = mp.eigsy(inv * mp.matrix([[h[i, j] for j in t] for i in t]) * inv.T,
                         eigvals_only=True)
            lo, hi = min(lo, min(w)), max(hi, max(w))
        return max(hi - 1, 1 - lo)


def mp_range_spectrum(a, mat, support):
    """(lo, hi) of A^T A on range(D_T) in 40-digit arithmetic from the float
    inputs: an orthonormal basis of range(D_T) by Gram-Schmidt (each column
    orthogonalized twice, and dropped when less than 1e-30 of its norm
    remains), then eigsy of the projected form.  No SVD, no rank rule
    sigma > DEFAULT_TOL sigma_max."""
    with mp.workdps(40):
        am = mp.matrix(a.tolist())
        basis = []
        for j in support:
            col = mp.matrix(mat[:, j].tolist())
            size = mp.norm(col)
            for _ in range(2):
                for q in basis:
                    col -= (q.T * col)[0, 0] * q
            if mp.norm(col) > mp.mpf(10) ** -30 * size:
                basis.append(col / mp.norm(col))
        q = mp.matrix(mat.shape[0], len(basis))
        for k, col in enumerate(basis):
            q[:, k] = col
        aq = am * q
        w = mp.eigsy(aq.T * aq, eigvals_only=True)
        return min(w), max(w)


class TestRankDeficientAgainstMpmath:
    """The kernel on the supports of a union frame [B, B] / sqrt(2)
    that hold both copies of a column, where D_T is rank-deficient, against
    `mp_range_spectrum`, which shares nothing with the kernel's algorithm."""

    @pytest.mark.parametrize("basis", ["identity", "rotated"])
    @pytest.mark.parametrize("n, t", [(2, 2), (3, 2), (3, 3), (3, 4), (4, 3), (4, 5)])
    def test_matches_the_40_digit_range_basis(self, n, t, basis):
        rng = np.random.default_rng(10 * n + t)
        b = np.eye(n) if basis == "identity" else \
            np.linalg.qr(rng.standard_normal((n, n)))[0]
        frame = make_union_frame(b, b)
        a = gen_gaussian(2 * n + 1, n, seed=10 * n + t)
        supports = [sup for sup in combinations(range(2 * n), t)
                    if any(j + n in sup for j in sup)]
        lo, hi = kernel_spectra(a, frame, supports)
        for sup, l, h in zip(supports, lo, hi):
            want = mp_range_spectrum(a, frame.matrix, sup)
            assert abs(l - want[0]) <= 1e-12 and abs(h - want[1]) <= 1e-12, sup


class TestAccuracy:
    """The exact constant against a 40-digit evaluation that shares nothing
    with the kernel's algorithm (no SVD of D_T, no rank rule)."""

    @pytest.mark.parametrize("seed", range(12))
    def test_within_32_ulps_of_the_pencil(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        d, s, m = (int(rng.integers(n, 9)), int(rng.integers(1, 3)),
                   int(rng.integers(n, 3 * n + 1)))
        frame = make_random_tight_frame(n, d, seed=seed)
        a = gen_gaussian(m, n, seed=seed + 1000)
        delta = exact_drip(a, frame, s).delta
        # at most 7.8 ulps on these 12
        assert abs(mp.mpf(delta) - mp_delta(a, frame.matrix, s)) <= 32 * np.spacing(delta)


class TestOnePass:
    def test_report_names_the_pass_it_came_from(self):
        frame = make_random_tight_frame(6, 9, seed=0)
        a = gen_gaussian(6, 6, seed=0)
        lower = random_spectrum_extremes(a, frame, 2, 10, seed=0).report(2)
        exact = spectrum_extremes(a, frame, 2).report(2)
        assert lower.method == "random_lower_bound"
        assert exact.method == "exact"
        assert lower.delta <= exact.delta

    @settings(max_examples=40, deadline=None)
    @given(dims, st.integers(1, 4), st.floats(0.3, 3.0))
    def test_rescaled_report_is_exact_drip_of_scaled_matrix(self, dim, s, c):
        n, extra, m, seed = dim
        frame = make_random_tight_frame(n, n + extra, seed=seed)
        assume(s <= frame.d)
        a = gen_gaussian(m, n, seed=seed + 1)
        ext = spectrum_extremes(a, frame, s)
        # keep away from a round-off tie between the two extremes
        assume(abs((c * c * ext.hi - 1.0) - (1.0 - c * c * ext.lo)) > 1e-9)
        got = ext.report(s, c * c)
        want = exact_drip(c * a, frame, s)
        assert got.delta == pytest.approx(want.delta, abs=1e-12)
        if s < n and s <= m:
            # otherwise many supports share one extreme up to round-off
            # (all of them span R^n, or A kills a direction of each), and
            # which of them comes first is decided by round-off
            assert got.witness_support == want.witness_support
        assert got.supports_examined == want.supports_examined

    @settings(max_examples=40, deadline=None)
    @given(dims, st.integers(1, 4), st.floats(0.1, 10.0))
    def test_scaling_identity(self, dim, s, c):
        n, extra, m, seed = dim
        frame = make_random_tight_frame(n, n + extra, seed=seed)
        assume(s <= frame.d)
        a = gen_gaussian(m, n, seed=seed + 1)
        lo, hi = support_spectrum_range(a, frame, s)
        lo_c, hi_c = support_spectrum_range(c * a, frame, s)
        assert lo_c == pytest.approx(c * c * lo, rel=1e-12, abs=1e-12)
        assert hi_c == pytest.approx(c * c * hi, rel=1e-12)

    def test_exact_drip_matches_reference_loop(self):
        for seed in range(6):
            frame = make_random_tight_frame(5, 8, seed=seed)
            a = gen_gaussian(10, 5, seed=seed + 50)
            for s in (1, 2, 3, 6):
                rep = exact_drip(a, frame, s)
                delta, witness = reference_drip(
                    a, frame.matrix, combinations(range(8), s))
                assert rep.delta == pytest.approx(delta, abs=1e-12)
                if s < 5:  # at s >= n every support spans R^n: round-off ties
                    assert rep.witness_support == witness

    def test_ties_go_to_the_earliest_support(self):
        # every support is an exact isometry: deviation 0 everywhere
        rep = exact_drip(np.eye(3), make_identity_frame(3), 1)
        assert (rep.delta, rep.witness_support) == (0.0, (0,))
        assert exact_drip(np.eye(3), make_identity_frame(3), 2).witness_support == (0, 1)


def reference_extremes(a, frame, supports, method):
    """The pass's result from every support's spectrum, none skipped."""
    supports = [tuple(sup) for sup in supports]
    lo, hi = kernel_spectra(a, frame, supports)
    i, j = int(np.argmin(lo)), int(np.argmax(hi))
    return SpectrumExtremes(lo=float(lo[i]), lo_at=(i, supports[i]),
                            hi=float(hi[j]), hi_at=(j, supports[j]),
                            supports_examined=len(supports), method=method)


def random_draws(d, s, trials, seed):
    """The supports random_spectrum_extremes draws, in draw order."""
    rng = rng_from_seed(seed)
    return [tuple(sorted(rng.choice(d, size=s, replace=False).tolist()))
            for _ in range(trials)]


class TestSkippedSupports:
    """A pass skips the eigensolves of supports proved inside the extremes so
    far; its result must be the reduction over every support's spectrum."""

    @settings(max_examples=60, deadline=None)
    @given(dims, st.integers(1, 8), st.sampled_from(["random", "union", "lower"]),
           st.sampled_from([None, 64, 256]))
    def test_equals_the_reduction_over_every_support(self, dim, s, kind, chunk):
        n, extra, m, seed = dim
        if kind == "union":  # duplicate columns: rank-deficient supports
            frame = make_union_frame(np.eye(n), np.eye(n))
        else:
            frame = make_random_tight_frame(n, n + extra, seed=seed)
        assume(s <= frame.d)  # s > n covers 2s > n
        a = gen_gaussian(m, n, seed=seed + 1)
        # a small chunk budget carries the extremes across chunks of a few
        # (64) to a few dozen (256) supports
        with mock.patch.object(drip, "CHUNK_FLOATS", chunk or drip.CHUNK_FLOATS):
            if kind == "lower":
                got = random_spectrum_extremes(a, frame, s, 50, seed)
                want = reference_extremes(a, frame, random_draws(frame.d, s, 50, seed),
                                          "random_lower_bound")
            else:
                got = spectrum_extremes(a, frame, s)
                want = reference_extremes(a, frame, combinations(range(frame.d), s),
                                          "exact")
        assert got == want

    @staticmethod
    def near_tie_instance(gap):
        # identity frame, H = A^T A block diagonal, order 3.  Column 0 alone
        # reaches 1.9 (the supports holding it are solved first: each has a
        # pair key of 1.9); the coupled triples {1, 2, 3} and {5, 6, 7}
        # (H = I + b (J - I) on each) reach 1 + 2 b = 1.9 (1 + gap) with pair
        # keys of only 1 + b, about 1.45, so they are solved only if not
        # skipped
        h = np.diag([1.9, 1.0, 1.0, 1.0, 0.01, 1.0, 1.0, 1.0])
        b = 0.5 * (1.9 * (1.0 + gap) - 1.0)
        for block in ([1, 2, 3], [5, 6, 7]):
            h[np.ix_(block, block)] += b * (1.0 - np.eye(3))
        return np.linalg.cholesky(h).T, make_identity_frame(8)

    @pytest.mark.parametrize("gap", [1e-12, 0.0])
    def test_a_support_at_the_running_extreme_is_solved(self, gap):
        a, frame = self.near_tie_instance(gap)
        got = spectrum_extremes(a, frame, 3)
        want = reference_extremes(a, frame, combinations(range(8), 3), "exact")
        assert got == want
        if gap:
            # {1, 2, 3} exceeds 1.9 by about 2e-12 and comes first of the two
            assert got.hi_at == (list(combinations(range(8), 3)).index((1, 2, 3)), (1, 2, 3))
            assert got.hi > 1.9 * (1.0 + 0.5 * gap)

    @staticmethod
    def count_solves(monkeypatch):
        """Patch np.linalg.svd and eigvalsh to count the matrices they take."""
        counts = {"svd": 0, "eigvalsh": 0}
        for name in counts:
            real = getattr(np.linalg, name)

            def counted(x, *args, _real=real, _name=name, **kwargs):
                counts[_name] += len(x)
                return _real(x, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return counts

    def test_most_supports_skip_their_eigensolves(self, monkeypatch):
        # the largest p1_auto benchmark instance: (n, d, m) = (16, 24, 320),
        # order 4, 10 626 supports; a pass that solves every support takes
        # 10 626 svd and 10 626 eigvalsh matrices
        frame = make_frame("random", 16, 24, derive_seed(109, 9))
        a = gen_matrix("gaussian", 320, 16, derive_seed(209, 9))
        counts = self.count_solves(monkeypatch)
        ext = spectrum_extremes(a, frame, 4)
        monkeypatch.undo()
        assert ext.supports_examined == 10626
        assert ext == reference_extremes(a, frame, combinations(range(24), 4), "exact")
        # 11 of them here
        assert counts["svd"] <= 0.01 * 10626
        assert counts["eigvalsh"] <= counts["svd"]

    @staticmethod
    def p1_auto_round(r):
        """The (a, frame) of the ten order-4 passes of round r of the p1_auto
        benchmark at seed 0, as run_trial seeds them: its grid has 4, 3, 2
        and 1 trials per round of the sizes below, config 3 * size + noise
        level, the level turning with the position p in the round, and trial
        10 r + p."""
        sizes = ((8, 12, 128, 4), (10, 14, 160, 3), (12, 16, 192, 2), (16, 24, 320, 1))
        slots = [(size, n, d, m) for size, (n, d, m, count) in enumerate(sizes)
                 for _ in range(count)]
        for p, (size, n, d, m) in enumerate(slots):
            config, t = 3 * size + (p + r) % 3, 10 * r + p
            yield (gen_matrix("gaussian", m, n, derive_seed(200 + config, t)),
                   make_frame("random", n, d, derive_seed(100 + config, t)))

    def test_benchmark_rounds_solve_few_supports(self, monkeypatch):
        # rounds 0 (the benchmark's reference round) and 1: 387 supports
        # solved in all.  Keys from the diagonal quotients alone took 642,
        # the top end of the order reversed 745, and the bottom key taken
        # as the largest bottom of the pairs 451, and solving every support
        # left open after the first round's proof 1 228
        instances = [*self.p1_auto_round(0), *self.p1_auto_round(1)]
        counts = self.count_solves(monkeypatch)
        got = [spectrum_extremes(a, frame, 4) for a, frame in instances]
        monkeypatch.undo()
        assert got == [reference_extremes(a, frame, combinations(range(frame.d), 4), "exact")
                       for a, frame in instances]
        assert counts["svd"] <= 400
        assert counts["eigvalsh"] <= counts["svd"]


class TestProof:
    """The exclusion's proof: a block is definite only where a Cholesky of it,
    shifted by c = 2 (k + 2) k u scale, ends with every pivot positive."""

    U = 2.0 ** -53

    @pytest.mark.parametrize("k", [1, 2, 4, 7])
    def test_proves_well_conditioned_blocks(self, k):
        rng = np.random.default_rng(k)
        blocks = []
        for _ in range(50):
            q, _ = np.linalg.qr(rng.standard_normal((k, k)))
            blocks.append((q * rng.uniform(0.5, 2.0, k)) @ q.T)
        x = np.stack(blocks, axis=-1)  # blocks on the leading axes
        assert drip._definite(x, 2.0).all()

    def test_refuses_an_indefinite_block(self):
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
        for w in ([1.0, 0.5, -1e-3], [-1e-3, 0.5, 1.0], [2.0, -0.5, 1.0]):
            x = ((q * w) @ q.T)[:, :, None]
            assert not drip._definite(x, 2.0).any()

    def test_failed_blocks_overflow_quietly(self):
        # s = 7 > n = 3: every block is singular, and past its failed pivot
        # the elimination squares entries of about 1e40 until they overflow
        frame = make_random_tight_frame(3, 8, seed=4)
        a = gen_gaussian(7, 3, seed=4)
        unit = spectrum_extremes(a, frame, 7)
        scaled = spectrum_extremes(1e20 * a, frame, 7)
        assert scaled.hi == pytest.approx(1e40 * unit.hi, rel=1e-12)

    # k = 2, scale = 1: c = 16 u = 2^-49, and the elimination of a diagonal
    # block is exact
    @pytest.mark.parametrize("lam, proved", [(8 * U, False), (16 * U, False),
                                             (32 * U, True), (1.0, True)])
    def test_proves_a_smallest_eigenvalue_only_above_the_shift(self, lam, proved):
        x = np.diag([1.0, lam])[:, :, None]
        assert drip._definite(x, 1.0)[0] == proved
        x = np.diag([lam, 1.0])[:, :, None]
        assert drip._definite(x, 1.0)[0] == proved

    @pytest.mark.parametrize("seed", range(5))
    def test_never_proves_a_support_with_duplicate_columns(self, seed):
        # D = [B, B] / sqrt(2): D_T has a null vector whenever T holds j and
        # j + n; no interval proves such a support, however wide
        n = 4
        b, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
        frame = make_union_frame(b, b)
        a = gen_gaussian(9, n, seed=seed)
        unit = drip._unit_pencil(a, frame.matrix)
        idx = np.array([t for t in combinations(range(2 * n), 3)
                        if any(j + n in t for j in t)])
        assert not drip._pencil_inside(idx, unit, -1e3, 1e3).any()
        others = np.array([t for t in combinations(range(2 * n), 3)
                           if not any(j + n in t for j in t)])
        assert drip._pencil_inside(others, unit, -1e3, 1e3).all()

    def test_each_side_bounds_its_own_extreme(self):
        # identity frame: G = I and K = A^T A = diag(w), so support {i, j}
        # has the spectrum {w_i, w_j}
        w = np.array([0.5, 1.0, 1.5, 2.0])
        unit = drip._unit_pencil(np.diag(np.sqrt(w)), make_identity_frame(4).matrix)
        idx = np.array([[0, 1], [1, 2], [2, 3]])
        assert drip._pencil_inside(idx, unit, 0.4, 2.1).tolist() == [True, True, True]
        assert drip._pencil_inside(idx, unit, 0.6, 2.1).tolist() == [False, True, True]
        assert drip._pencil_inside(idx, unit, 0.4, 1.9).tolist() == [True, True, False]
        # a support at an extreme, or within the margin of one, is refused
        assert drip._pencil_inside(idx, unit, 0.5, 2.0).tolist() == [False, True, False]
        near = (0.5 * (1 - 1e-10), 2.0 * (1 + 1e-10))
        assert drip._pencil_inside(idx, unit, *near).tolist() == [False, True, False]


def mp_pair_roots(k, g):
    """(smaller, larger) root t of det(K - t G), G = [[1, g], [g, 1]], for a
    2 x 2 K, from 40-digit eigsy of L^-1 K L^-T (G = L L^T) with the float
    inputs."""
    with mp.workdps(40):
        inv = mp.inverse(mp.cholesky(mp.matrix([[1, g], [g, 1]])))
        w = mp.eigsy(inv * mp.matrix(k.tolist()) * inv.T, eigvals_only=True)
        return float(min(w)), float(max(w))


class TestPairKeys:
    """The pick order's keys: the extremes of the 2 x 2 pencils of a
    support's pairs, which are Ritz values of A^T A on range(D_T) and so lie
    inside its spectrum."""

    U = 2.0 ** -53

    @pytest.mark.parametrize("seed", range(40))
    def test_closed_form_matches_40_digit_roots(self, seed):
        rng = np.random.default_rng(seed)
        g = rng.uniform(-0.999, 0.999)
        w = rng.standard_normal((3, 2)) * 10.0 ** rng.uniform(-3, 3)
        k = w.T @ w
        top, bottom = drip._pair_extremes(k, np.array([[1.0, g], [g, 1.0]]))
        lo, hi = mp_pair_roots(k, g)
        # a root carries about u max|K| / (1 - g^2) of forming b and c
        tol = 64 * self.U * np.abs(k).max() / (1.0 - g * g)
        assert abs(top[0, 1] - hi) <= tol and abs(bottom[0, 1] - lo) <= tol
        assert (top[1, 0], bottom[1, 0]) == (top[0, 1], bottom[0, 1])
        assert np.diagonal(top).tolist() == np.diagonal(bottom).tolist() == \
            np.diagonal(k).tolist()

    @staticmethod
    def frames():
        rot = np.eye(6)
        for (i, j), angle in (((0, 1), 0.5), ((2, 3), 0.02), ((4, 5), 1e-6)):
            c, s = np.cos(angle), np.sin(angle)
            rot[[i, i, j, j], [i, j, i, j]] = c, -s, s, c
        b, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((4, 4)))
        return {"random": make_random_tight_frame(5, 8, seed=3),
                # duplicate columns: singular 2 x 2 G blocks
                "union": make_union_frame(b, b),
                # pairs at angles 0.5, 0.02 and 1e-6 (1 - g^2 = 1e-12: flat)
                "rotated": make_union_frame(np.eye(6), rot)}

    @pytest.mark.parametrize("kind", ["random", "union", "rotated"])
    @pytest.mark.parametrize("s, m", [(1, 3), (2, 1), (2, 9), (3, 4), (4, 11)])
    def test_keys_lie_inside_every_support_spectrum(self, kind, s, m):
        frame = self.frames()[kind]
        a = gen_gaussian(m, frame.n, seed=7 * s + m)
        unit = drip._unit_pencil(a, frame.matrix)
        idx = np.array(list(combinations(range(frame.d), s)))
        key_hi, key_lo = drip._pair_keys(unit, idx)
        lo, hi = kernel_spectra(a, frame, idx)
        # the closed form's round-off, about u max|K| / (1 - g^2), at the
        # least 1 - g^2 it is taken at
        det_g = 1.0 - unit.g ** 2
        tol = 64 * self.U * unit.k_max / det_g[det_g > drip.FLAT_PAIR].min()
        assert (key_hi <= hi + tol).all() and (key_lo >= lo - tol).all()
        assert (key_lo <= key_hi).all()
        if s == 1:  # the diagonal quotient K_tt
            assert key_hi.tolist() == key_lo.tolist() == np.diagonal(unit.k).tolist()

    @pytest.mark.parametrize("a", [np.diag([1.0, 0.0, 2.0]), np.zeros((2, 3))])
    def test_degenerate_pairs_raise_no_warning(self, a):
        # G_{i, i + 3} = 1 and K_ii = 0 where A D e_i = 0
        frame = make_union_frame(np.eye(3), np.eye(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            unit = drip._unit_pencil(a, frame.matrix)
        q = np.diagonal(unit.k)
        for i in range(3):
            assert unit.top[i, i + 3] == max(q[i], q[i + 3])
            assert unit.bottom[i, i + 3] == min(q[i], q[i + 3])
        assert np.isfinite(unit.top).all() and np.isfinite(unit.bottom).all()


class TestFoundBySearch:
    """Instances, found by search, where a planted fault in the exclusion
    makes a pass differ from the reduction over every support: with no
    margin (INSIDE_RTOL = 0) it skips supports that tie an extreme up to
    round-off (lo near 0 at m = 1; hi 1.4e-15 relative above the running
    extreme at m = 7), and with G left unscaled (= Phi) supports outside the
    extremes.  The hypothesis test above meets such instances on some runs
    only."""

    @pytest.mark.parametrize("dim, kind, chunk", [((3, 2, 1, 170307), "lower", None),
                                                  ((2, 2, 7, 115251), "lower", 256),
                                                  ((5, 2, 4, 446768), "random", None),
                                                  ((5, 2, 6, 975447), "lower", 256)])
    def test_equals_the_reduction_over_every_support(self, dim, kind, chunk):
        n, extra, m, seed = dim
        frame = make_random_tight_frame(n, n + extra, seed=seed)
        a = gen_gaussian(m, n, seed=seed + 1)
        with mock.patch.object(drip, "CHUNK_FLOATS", chunk or drip.CHUNK_FLOATS):
            if kind == "lower":
                got = random_spectrum_extremes(a, frame, 2, 50, seed)
                want = reference_extremes(a, frame, random_draws(frame.d, 2, 50, seed),
                                          "random_lower_bound")
            else:
                got = spectrum_extremes(a, frame, 2)
                want = reference_extremes(a, frame, combinations(range(frame.d), 2), "exact")
        assert got == want


class TestSupportChunks:
    @pytest.mark.parametrize("d, k, rows", [
        (7, 3, 4), (7, 3, 5), (7, 3, 35), (7, 3, 1), (7, 3, 1000),
        (6, 0, 3), (6, 6, 2), (5, 5, 1), (1, 1, 1), (10, 1, 3), (9, 4, 126)])
    def test_chunks_of_the_combinations(self, d, k, rows):
        chunks = list(support_chunks(d, k, rows))
        stream = combinations(range(d), k)
        want = [list(islice(stream, rows)) for _ in range(len(chunks) + 1)]
        assert want[-1] == []  # nothing is left after the last chunk
        assert [c.shape for c in chunks] == [(len(w), k) for w in want[:-1]]
        assert [c.tolist() for c in chunks] == [[list(t) for t in w] for w in want[:-1]]
        assert all(c.dtype == np.intp for c in chunks)
        assert sum(map(len, chunks)) == math.comb(d, k)


class TestRandomLowerBoundDraws:
    @pytest.mark.parametrize("seed", [0, 16, 99])
    def test_same_supports_and_delta_as_the_per_draw_loop(self, seed):
        frame = make_random_tight_frame(5, 9, seed=seed)
        a = gen_gaussian(11, 5, seed=seed + 1)
        delta, witness = reference_drip(a, frame.matrix, random_draws(9, 3, 600, seed + 2))
        rep = random_spectrum_extremes(a, frame, 3, 600, seed + 2).report(3)
        assert rep.delta == pytest.approx(delta, abs=1e-12)
        assert rep.witness_support == witness
        assert rep.supports_examined == 600


class TestOrthonormalRangeBasis:
    def test_rank_one(self):
        b = orthonormal_range_basis(np.array([[1.0, 2.0], [0.0, 0.0]]))
        assert b.shape == (2, 1)
        assert abs(abs(b[0, 0]) - 1.0) < 1e-12 and abs(b[1, 0]) < 1e-12

    def test_full_rank_identity(self):
        b = orthonormal_range_basis(np.eye(3))
        assert b.shape == (3, 3)
        assert np.abs(b.T @ b - np.eye(3)).max() < 1e-12

    def test_rank_one_symmetric(self):
        # SVD by hand: [[1,1],[1,1]] has the single direction (1,1)/sqrt(2)
        b = orthonormal_range_basis(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert b.shape == (2, 1)
        assert np.abs(np.abs(b[:, 0]) - 1.0 / np.sqrt(2)).max() < 1e-12

    def test_zero_matrix_gives_zero_columns(self):
        b = orthonormal_range_basis(np.zeros((3, 2)))
        assert b.shape == (3, 0)

    def test_projection_property(self):
        rng = np.random.default_rng(5)
        for trial in range(25):
            rows, cols = rng.integers(2, 7, size=2)
            rank = int(rng.integers(1, min(rows, cols) + 1))
            m = (rng.standard_normal((rows, rank))
                 @ rng.standard_normal((rank, cols)))
            b = orthonormal_range_basis(m, tol=1e-10)
            assert np.abs(b.T @ b - np.eye(b.shape[1])).max() <= 1e-9
            fro = np.linalg.norm(m)
            assert np.linalg.norm(m - b @ (b.T @ m)) <= 1e-9 * max(fro, 1.0)
