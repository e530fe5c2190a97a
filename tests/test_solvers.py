import math
from itertools import combinations
from unittest import mock

import numpy as np
import pytest

from framecs import solvers
from framecs.drip import exact_drip, support_spectrum_range
from framecs.errors import ContractViolation
from framecs.experiment import _draw_signal
from framecs.frames import make_dct_frame, make_identity_frame, make_random_tight_frame
from framecs.guarantees import error_bound, constants_general, threshold_general
from framecs.linalg import numeric_rank
from framecs.sensing import SensingModel, gen_gaussian, measure
from framecs.solvers import (
    CONTINUATION_FACTOR,
    MAX_ITERS,
    SMOOTHING_FLOOR,
    TOL,
    _span_coordinates,
    _weighted_solve,
    feasibility_slack,
    solve_p0_oracle,
    solve_p1,
    solve_pq,
)


def normalized_instance(seed, n=8, d=12, m=128, s=2, eps=0.05, frame_kind="random"):
    """Seeded instance with A rescaled to its smallest order-2s constant."""
    if frame_kind == "random":
        frame = make_random_tight_frame(n, d, seed=seed)
    else:
        frame = make_dct_frame(n)
    a = gen_gaussian(m, n, seed=seed + 10_000)
    lo, hi = support_spectrum_range(a, frame, 2 * s)
    a = a * math.sqrt(2.0 / (hi + lo))
    rng = np.random.default_rng(seed + 20_000)
    x = np.zeros(frame.d)
    x[rng.choice(frame.d, s, replace=False)] = rng.standard_normal(s)
    f = frame.matrix @ x
    mode = "bounded" if eps > 0 else "none"
    model = measure(a, f, mode, eps, seed=seed + 30_000)
    return frame, a, f, model


class TestSolverOptions:
    # the solvers take no options: their stop rule is a pair of constants
    def test_defaults(self):
        assert (MAX_ITERS, TOL) == (20000, 1e-9)
        assert (CONTINUATION_FACTOR, SMOOTHING_FLOOR) == (0.7, 1e-10)

    def test_validation(self):
        # a P1 stop and the no-feasible-point exit accept a residual up to
        # eps + TOL, so TOL must stay within the slack of every eps
        assert TOL <= feasibility_slack(0.0)


class TestSolveP1:
    def test_pinned_feasible_point(self):
        # D = I, A = I, eps = 0: the constraint pins f = y
        y = np.array([1.0, -0.5, 2.0])
        model = SensingModel(A=np.eye(3), y=y, epsilon=0.0)
        res = solve_p1(make_identity_frame(3), model)
        assert res.converged
        assert np.linalg.norm(res.f_hat - y) <= 1e-8

    def test_zero_feasible_shortcut(self):
        model = SensingModel(A=np.eye(2), y=np.array([0.1, 0.0]), epsilon=0.5)
        res = solve_p1(make_identity_frame(2), model)
        assert res.converged and res.objective == 0.0
        assert np.array_equal(res.f_hat, np.zeros(2))

    @pytest.mark.parametrize("eps", [0.0, 0.5])
    def test_no_feasible_point_returns_at_once(self, eps):
        # a generic y in R^20 lies far from the range of a 20 x 6 A
        a = gen_gaussian(20, 6, seed=1)
        y = np.random.default_rng(0).standard_normal(20)
        model = SensingModel(A=a, y=y, epsilon=eps)
        res = solve_p1(make_identity_frame(6), model)
        f0 = np.linalg.lstsq(a, y, rcond=1e-10)[0]
        res0 = np.linalg.norm(a @ f0 - y)
        assert res.iterations == 0 and not res.converged
        assert res.diagnostics["note"] == "no_feasible_point"
        # the residual is the result's own; the note does not repeat it
        assert "min_residual" not in res.diagnostics
        assert res.residual == pytest.approx(res0, rel=1e-12) and res0 > eps + 1.0
        assert np.allclose(res.f_hat, f0, atol=1e-12)
        assert res.objective == float(np.abs(res.f_hat).sum())
        pq = solve_pq(make_identity_frame(6), model, 0.5)
        assert pq.diagnostics["note"] == "no_feasible_point" and pq.iterations == 0

    def test_unique_feasible_point(self):
        # eps = 0 and m >= n: A is injective, so f0 is the only feasible point
        frame, a, f, model = normalized_instance(2, eps=0.0)
        res = solve_p1(frame, model)
        assert res.iterations == 0 and res.converged
        assert res.diagnostics["note"] == "unique_feasible_point"
        assert np.linalg.norm(res.f_hat - f) <= 1e-14
        assert res.residual == np.linalg.norm(a @ res.f_hat - model.y)
        pq = solve_pq(frame, model, 0.5)
        assert pq.iterations == 0 and pq.converged
        assert pq.diagnostics == {"note": "unique_feasible_point"}
        assert pq.f_hat.tobytes() == res.f_hat.tobytes()

    def test_noiseless_undersampled_iterates(self):
        # eps = 0 and m < n: a whole affine line is feasible, so the loop runs
        frame = make_dct_frame(16)
        a = gen_gaussian(10, 16, seed=0)
        rng = np.random.default_rng(1)
        x = np.zeros(16)
        x[rng.choice(16, 2, replace=False)] = \
            rng.standard_normal(2) + np.sign(rng.standard_normal(2))
        model = measure(a, frame.matrix @ x, "none")
        res = solve_p1(frame, model)
        assert res.converged and res.iterations > 0
        assert "note" not in res.diagnostics
        assert res.residual == np.linalg.norm(a @ res.f_hat - model.y) <= 1e-9
        assert res.iterations == reference_p1_loop(frame, model)[1]

    def test_max_iters_returns_the_last_iterate(self, monkeypatch):
        monkeypatch.setattr(solvers, "MAX_ITERS", 1)
        frame, a, f, model = normalized_instance(7)
        res = solve_p1(frame, model)
        assert res.iterations == 1 and not res.converged
        assert res.residual == np.linalg.norm(model.A @ res.f_hat - model.y)

    def test_matches_l0_oracle_noiseless(self):
        # orthobasis frame, 2-sparse analysis coefficients, eps = 0
        frame = make_dct_frame(12)
        a = gen_gaussian(9, 12, seed=41)
        rng = np.random.default_rng(42)
        x = np.zeros(12)
        x[[3, 8]] = rng.standard_normal(2) + np.sign(rng.standard_normal(2))
        f = frame.matrix @ x
        model = measure(a, f, "none")
        oracle = solve_p0_oracle(frame, model, s_max=2)
        assert oracle.converged and np.linalg.norm(oracle.f_hat - f) <= 1e-9
        res = solve_p1(frame, model)
        assert res.converged
        assert np.linalg.norm(res.f_hat - f) <= 1e-4

    def test_feasibility_invariant(self):
        for seed in range(5):
            frame, a, f, model = normalized_instance(seed)
            res = solve_p1(frame, model)
            if res.converged:
                assert res.residual <= model.epsilon * (1 + 1e-6) + 1e-9

    def test_objective_reevaluates(self):
        frame, a, f, model = normalized_instance(7)
        res = solve_p1(frame, model)
        assert res.objective == pytest.approx(
            float(np.abs(frame.matrix.T @ res.f_hat).sum()), abs=0.0)

    def test_guarantee_bound_end_to_end(self):
        frame, a, f, model = normalized_instance(11)
        delta = exact_drip(a, frame, 4).delta
        assert delta < threshold_general()
        res = solve_p1(frame, model)
        assert res.converged
        coeffs = frame.matrix.T @ f
        assert np.abs(frame.matrix.T @ res.f_hat).sum() <= np.abs(coeffs).sum()
        c0, c1 = constants_general(delta)
        from framecs.frames import best_s_term
        tail = best_s_term(coeffs, 2)[1]
        bound = error_bound(c0, c1, tail, 2, model.epsilon)
        assert np.linalg.norm(res.f_hat - f) <= bound * (1 + 1e-6)

    def test_perturbation_optimality_probe(self):
        frame, a, f, model = normalized_instance(17, eps=0.05)
        res = solve_p1(frame, model)
        assert res.converged
        rng = np.random.default_rng(99)
        eps = model.epsilon
        base_res = a @ res.f_hat - model.y
        for _ in range(100):
            delta_vec = rng.standard_normal(frame.n) * 10.0 ** rng.uniform(-4, -1)
            cand = res.f_hat + delta_vec
            r = a @ cand - model.y
            nr = np.linalg.norm(r)
            if nr > eps:
                # walk back toward the solver's point until feasible
                t_lo, t_hi = 0.0, 1.0
                for _ in range(60):
                    t = 0.5 * (t_lo + t_hi)
                    if np.linalg.norm(base_res + t * (r - base_res)) <= eps:
                        t_lo = t
                    else:
                        t_hi = t
                cand = res.f_hat + t_lo * delta_vec
            assert np.abs(frame.matrix.T @ cand).sum() \
                >= res.objective - 1e-6

    def test_surrogate_invariant(self):
        for seed in range(5):
            frame, a, f, model = normalized_instance(seed + 60)
            res = solve_p1(frame, model)
            if res.converged:
                assert float(np.abs(frame.matrix.T @ res.f_hat).sum()) \
                    <= float(np.abs(frame.matrix.T @ f).sum()) + 1e-6

    def test_operator_norm_is_exact(self, monkeypatch):
        # tall Gaussian matrices; the step sizes rest on the exact ||A||_2
        monkeypatch.setattr(solvers, "MAX_ITERS", 1)
        for seed in range(10):
            a = gen_gaussian(160, 10, seed=seed + 80)
            model = SensingModel(A=a, y=np.ones(160), epsilon=0.0)
            res = solve_p1(make_identity_frame(10), model)
            assert res.diagnostics["operator_norm"] == pytest.approx(
                np.linalg.norm(a, 2), rel=1e-13)


class TestSolvePq:
    def test_q_domain(self):
        model = SensingModel(A=np.eye(2), y=np.ones(2), epsilon=0.0)
        with pytest.raises(ContractViolation):
            solve_pq(make_identity_frame(2), model, 1.0)

    def test_zero_feasible_shortcut(self):
        # ||y|| <= eps: zero is optimal and no weighted solve is made
        model = SensingModel(A=np.eye(2), y=np.array([0.1, 0.0]), epsilon=0.5)
        res = solve_pq(make_identity_frame(2), model, 0.5)
        assert np.array_equal(res.f_hat, np.zeros(2))
        assert res.objective == 0.0 and res.converged and res.iterations == 0
        assert res.diagnostics == {"note": "zero_feasible"}

    def test_zero_instance(self):
        model = SensingModel(A=np.eye(3), y=np.zeros(3), epsilon=0.0)
        res = solve_pq(make_identity_frame(3), model, 0.5)
        assert res.converged and res.iterations <= 1
        assert np.array_equal(res.f_hat, np.zeros(3))

    def test_exact_sparse_recovery(self):
        # noiseless orthobasis instance with a unique sparsest solution
        frame = make_dct_frame(10)
        a = gen_gaussian(30, 10, seed=71)
        rng = np.random.default_rng(72)
        x = np.zeros(10)
        x[[1, 6]] = rng.standard_normal(2) + np.sign(rng.standard_normal(2))
        f = frame.matrix @ x
        model = measure(a, f, "none")
        oracle = solve_p0_oracle(frame, model, s_max=2)
        assert oracle.converged and np.linalg.norm(oracle.f_hat - f) <= 1e-9
        res = solve_pq(frame, model, 0.5)
        assert res.converged
        assert np.linalg.norm(res.f_hat - f) <= 1e-4

    def test_q_near_one_matches_p1(self):
        frame, a, f, model = normalized_instance(23, eps=0.0)
        obj_p1 = solve_p1(frame, model).objective
        obj_pq = solve_pq(frame, model, 0.99).objective
        assert obj_pq <= obj_p1 * 1.02 + 1e-9
        assert obj_pq >= obj_p1 * 0.9

    def test_feasibility_noisy(self):
        frame, a, f, model = normalized_instance(29, eps=0.1)
        res = solve_pq(frame, model, 0.5)
        assert res.converged
        assert res.residual <= model.epsilon * (1 + 1e-6) + 1e-9

    def test_descent_within_levels(self):
        # classical majorize-minimize property at fixed smoothing, on a noisy
        # instance: the feasible set is a ball, so the iterates move
        frame, a, f, model = normalized_instance(31, eps=0.05)
        q, dmat = 0.5, frame.matrix
        a_red, y_red, f, _, exit_note = _span_coordinates(model)
        assert exit_note is None
        mu = float(np.abs(dmat.T @ f).max())
        descents = 0
        for _ in range(4):
            coeffs = dmat.T @ f
            trace = [float(np.sum((coeffs * coeffs + mu * mu) ** (q / 2)))]
            for _ in range(10):
                weights = (coeffs * coeffs + mu * mu) ** (q / 2 - 1)
                f = _weighted_solve(dmat, a_red, y_red, model.epsilon, weights)[0]
                coeffs = dmat.T @ f
                trace.append(float(np.sum((coeffs * coeffs + mu * mu) ** (q / 2))))
            diffs = np.diff(trace)
            assert np.all(diffs <= 1e-10)
            descents += bool(diffs.min() < -1e-10)
            mu *= CONTINUATION_FACTOR
        assert descents > 0

    def test_undersampled_dct(self):
        # the paper's regime m < n: noiseless recovery agrees with the l0
        # oracle, and the noisy solution lies in the eps-ball
        frame = make_dct_frame(16)
        a = gen_gaussian(10, 16, seed=0)
        rng = np.random.default_rng(1)
        x = np.zeros(16)
        x[rng.choice(16, 2, replace=False)] = \
            rng.standard_normal(2) + np.sign(rng.standard_normal(2))
        f = frame.matrix @ x
        model = measure(a, f, "none")
        oracle = solve_p0_oracle(frame, model, s_max=2)
        assert oracle.converged
        res = solve_pq(frame, model, 0.5)
        assert res.converged
        assert np.linalg.norm(res.f_hat - oracle.f_hat) <= 1e-4
        noisy = measure(a, f, "bounded", 0.05, seed=2)
        res = solve_pq(frame, noisy, 0.5)
        assert res.converged
        assert res.residual <= noisy.epsilon * (1 + 1e-6) + 1e-9

    def test_objective_reevaluates(self):
        frame, a, f, model = normalized_instance(37, eps=0.05)
        res = solve_pq(frame, model, 0.7)
        coeffs = frame.matrix.T @ res.f_hat
        assert res.objective == pytest.approx(float(np.sum(np.abs(coeffs) ** 0.7)),
                                              abs=0.0)


def _penalized_oracle(dmat, a, y, weights, lam):
    """min ||sqrt(W) D* f||^2 + lam ||A f - y||^2 as one stacked least
    squares [sqrt(W) D*; sqrt(lam) A] f = [0; sqrt(lam) y]."""
    top = np.sqrt(weights)[:, None] * dmat.T
    rhs = np.concatenate([np.zeros(dmat.shape[1]), math.sqrt(lam) * y])
    return np.linalg.lstsq(np.vstack([top, math.sqrt(lam) * a]), rhs, rcond=1e-10)[0]


def _null_space_oracle(dmat, a, y, weights):
    """min ||sqrt(W) D* f|| over f0 + null(A), f0 the minimum-norm solution."""
    f0 = np.linalg.lstsq(a, y, rcond=1e-10)[0]
    _, svals, vt = np.linalg.svd(a, full_matrices=True)
    null_basis = vt[int(np.count_nonzero(svals > 1e-12 * svals[0])):].T
    root_w = np.sqrt(weights)
    lhs = (root_w[:, None] * dmat.T) @ null_basis
    c = np.linalg.lstsq(lhs, -(root_w * (dmat.T @ f0)), rcond=1e-10)[0]
    return f0 + null_basis @ c


class TestSpanCoordinates:
    @pytest.mark.parametrize("m, n, equal_columns", [
        (5, 8, False), (20, 8, False), (20, 8, True)])
    def test_keeps_the_residual(self, m, n, equal_columns):
        a = gen_gaussian(m, n, seed=m + n)
        if equal_columns:
            a[:, 1] = a[:, 0]
        rng = np.random.default_rng(m)
        # y outside range(A) whenever A has fewer than m independent columns
        model = SensingModel(A=a, y=rng.standard_normal(m), epsilon=0.1)
        a_red, y_red, _, norm_a, _ = _span_coordinates(model)
        assert a_red.shape == (min(m, n) + 1, n) and y_red.shape == (min(m, n) + 1,)
        assert norm_a == pytest.approx(np.linalg.norm(a, 2), rel=1e-13)
        for _ in range(5):
            f = rng.standard_normal(n)
            full = np.linalg.norm(a @ f - model.y)
            assert abs(np.linalg.norm(a_red @ f - y_red) - full) <= 1e-12 * full

    def test_rank_one_short_of_n_takes_no_exit(self):
        # eps = 0 and rank(A) = n - 1: A f = y has a line of solutions, so
        # neither the unique-point exit nor any other applies, and P1 iterates
        a = gen_gaussian(20, 8, seed=28)
        a[:, 1] = a[:, 0]
        model = SensingModel(A=a, y=a @ np.arange(1.0, 9.0), epsilon=0.0)
        assert _span_coordinates(model)[4] is None
        res = solve_p1(make_identity_frame(8), model)
        assert res.iterations > 0 and "note" not in res.diagnostics

    # the rank rule keeps two equal singular values of 1e-310, so the start
    # has entries 1e310: refused by every program, not returned as NaN, and
    # by P0 before it solves any support
    @pytest.mark.parametrize("program, eps", [
        ("p1", 0.0), ("pq", 0.0), ("p0", 0.0), ("p1", 0.1), ("pq", 0.1)])
    def test_refuses_a_start_that_overflows(self, program, eps):
        model = SensingModel(A=np.diag([1e-310, 1e-310]), y=np.ones(2), epsilon=eps)
        solve = {"p1": solve_p1, "pq": lambda fr, m: solve_pq(fr, m, 0.5),
                 "p0": lambda fr, m: solve_p0_oracle(fr, m, 1)}[program]
        searched = AssertionError("a support was solved before the start was read")
        with mock.patch.object(solvers, "_cosupport_chunks", side_effect=searched), \
                pytest.raises(ContractViolation, match="the minimum-norm start overflows"):
            solve(make_identity_frame(2), model)


class TestWeightedSolve:
    @pytest.mark.parametrize("m", [5, 20])
    @pytest.mark.parametrize("spread", [1.0, 4.0])
    def test_noisy_matches_penalized_least_squares(self, m, spread):
        frame = make_random_tight_frame(8, 12, seed=m)
        a = gen_gaussian(m, 8, seed=m + 1)
        rng = np.random.default_rng(m + 2)
        weights = 10.0 ** rng.uniform(-spread, spread, 12)
        model = measure(a, frame.matrix @ rng.standard_normal(12), "bounded", 0.1,
                        seed=m + 3)
        f, lam = _weighted_solve(frame.matrix, a, model.y, 0.1, weights)
        residual = float(np.linalg.norm(a @ f - model.y))
        assert 0.1 * (1 - 1e-9) <= residual <= 0.1 * (1 + 1e-12)
        oracle = _penalized_oracle(frame.matrix, a, model.y, weights, lam)
        assert np.linalg.norm(f - oracle) <= 1e-8 * np.linalg.norm(oracle)
        # the span(A, y) data term gives the same solve
        a_red, y_red = _span_coordinates(model)[:2]
        f_red, lam_red = _weighted_solve(frame.matrix, a_red, y_red, 0.1, weights)
        assert np.linalg.norm(f_red - f) <= 1e-12 * np.linalg.norm(f)
        assert lam_red == pytest.approx(lam, rel=1e-10)

    @pytest.mark.parametrize("spread", [1.0, 4.0])
    def test_noiseless_matches_null_space(self, spread):
        frame = make_random_tight_frame(8, 12, seed=5)
        a = gen_gaussian(5, 8, seed=6)
        rng = np.random.default_rng(7)
        weights = 10.0 ** rng.uniform(-spread, spread, 12)
        y = a @ rng.standard_normal(8)
        f, lam = _weighted_solve(frame.matrix, a, y, 0.0, weights)
        assert lam is None
        oracle = _null_space_oracle(frame.matrix, a, y, weights)
        assert np.linalg.norm(f - oracle) <= 1e-8 * np.linalg.norm(oracle)
        # the span(A, y) data term gives the same solve
        a_red, y_red = _span_coordinates(SensingModel(A=a, y=y, epsilon=0.0))[:2]
        f_red, lam_red = _weighted_solve(frame.matrix, a_red, y_red, 0.0, weights)
        assert lam_red is None
        assert np.linalg.norm(f_red - f) <= 1e-12 * np.linalg.norm(f)

    # rank(A) = 3 < 6 and y outside range(A): the singular values of A Q S^-1
    # past the rank count as 0, and the floor the residual falls to counts
    # their beta^2 once
    @pytest.mark.parametrize("scale", [1.2, 2.0])
    def test_rank_deficient_a_lands_on_the_boundary(self, scale):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((8, 3)) @ rng.standard_normal((3, 6))
        y = a @ rng.standard_normal(6) + 0.5 * rng.standard_normal(8)
        u = np.linalg.svd(a)[0][:, :3]
        eps = scale * float(np.linalg.norm(y - u @ (u.T @ y)))
        frame = make_dct_frame(6)
        f, lam = _weighted_solve(frame.matrix, a, y, eps, np.ones(6))
        assert 0.0 < lam < math.inf
        assert float(np.linalg.norm(a @ f - y)) == pytest.approx(eps, rel=1e-9)
        oracle = _penalized_oracle(frame.matrix, a, y, np.ones(6), lam)
        assert np.linalg.norm(f - oracle) <= 1e-8 * np.linalg.norm(oracle)
        res = solve_pq(frame, SensingModel(A=a, y=y, epsilon=eps), 0.5)
        assert res.converged and res.residual == pytest.approx(eps, rel=1e-9)


# each program as a call on (frame, model)
PROGRAM_CALLS = {"P1": solve_p1,
                 "Pq": lambda frame, model: solve_pq(frame, model, 0.5),
                 "P0": lambda frame, model: solve_p0_oracle(frame, model, 2)}


class TestOneResult:
    @pytest.mark.parametrize("program", PROGRAM_CALLS)
    def test_residual_is_that_of_f_hat(self, program):
        # P0 finds no support on this noisy y and returns the minimum-norm
        # point, with a residual > 0 like the noisy P1 and Pq points
        frame, a, _, model = normalized_instance(3, m=24)
        if program == "P0":
            model = SensingModel(A=a, y=model.y, epsilon=0.0)
        res = PROGRAM_CALLS[program](frame, model)
        assert res.program == program and res.residual > 0.01
        assert res.residual == pytest.approx(float(np.linalg.norm(a @ res.f_hat - model.y)),
                                             rel=1e-14)


class TestSolveP0:
    def test_identity_instance(self):
        y = np.array([0.0, 3.0, 0.0, -1.0])
        model = SensingModel(A=np.eye(4), y=y, epsilon=0.0)
        res = solve_p0_oracle(make_identity_frame(4), model, s_max=3)
        assert res.converged
        assert np.array_equal(res.f_hat, y)
        assert res.objective == 2.0

    def test_zero_observation(self):
        model = SensingModel(A=np.eye(3), y=np.zeros(3), epsilon=0.0)
        res = solve_p0_oracle(make_identity_frame(3), model, s_max=2)
        assert res.converged and res.objective == 0.0
        assert res.iterations == 1  # the empty support came first

    def test_exact_recovery_when_delta_lt_one(self):
        recovered = 0
        for seed in range(10):
            frame = make_identity_frame(10)
            a = gen_gaussian(12, 10, seed=seed + 500)
            lo, hi = support_spectrum_range(a, frame, 4)
            a = a * math.sqrt(2.0 / (hi + lo))
            assert exact_drip(a, frame, 4).delta < 1.0
            rng = np.random.default_rng(seed)
            x = np.zeros(10)
            x[rng.choice(10, 2, replace=False)] = \
                rng.standard_normal(2) + np.sign(rng.standard_normal(2))
            model = measure(a, frame.matrix @ x, "none")
            res = solve_p0_oracle(frame, model, s_max=2)
            assert res.converged
            assert np.linalg.norm(res.f_hat - frame.matrix @ x) <= 1e-9
            recovered += 1
        assert recovered == 10

    def test_objective_dominance(self):
        # planted 3-sparse signal: the oracle may only ever do better
        frame = make_dct_frame(9)
        a = gen_gaussian(9, 9, seed=43)
        rng = np.random.default_rng(44)
        x = np.zeros(9)
        x[rng.choice(9, 3, replace=False)] = 1.0 + rng.random(3)
        model = measure(a, frame.matrix @ x, "none")
        res = solve_p0_oracle(frame, model, s_max=3)
        assert res.converged
        assert res.objective <= np.count_nonzero(x)

    def test_rejects_noise(self):
        model = SensingModel(A=np.eye(2), y=np.ones(2), epsilon=0.1)
        with pytest.raises(ContractViolation):
            solve_p0_oracle(make_identity_frame(2), model, 1)

    @pytest.mark.parametrize("s_max", [-1, 3])
    def test_rejects_s_max_outside_zero_to_d(self, s_max):
        model = SensingModel(A=np.eye(2), y=np.ones(2), epsilon=0.0)
        with pytest.raises(ContractViolation, match=r"s_max in \[0, d\] required"):
            solve_p0_oracle(make_identity_frame(2), model, s_max)


def reference_p0_oracle(frame, model, s_max, tol=1e-9):
    """The l0 oracle one support at a time, each stacked system
    {D*_{T^c} f = 0, A f = y} solved by np.linalg.lstsq and a hit being a
    residual within tol * ||y||: (support, iterations, f_hat), support None
    when no support up to s_max solves."""
    a, y, dmat = model.A, model.y, frame.matrix
    tol = tol * np.linalg.norm(y)
    tested = 0
    for size in range(s_max + 1):
        for support in combinations(range(frame.d), size):
            tested += 1
            comp = [i for i in range(frame.d) if i not in support]
            stacked = np.vstack([dmat[:, comp].T, a])
            rhs = np.concatenate([np.zeros(len(comp)), y])
            f = np.linalg.lstsq(stacked, rhs, rcond=1e-10)[0]
            if np.linalg.norm(stacked @ f - rhs) <= tol:
                return list(support), tested, f
    return None, tested, np.linalg.lstsq(a, y, rcond=1e-10)[0]


def p0_instance(kind, n, d, m, support, seed):
    """Noiseless model whose signal f has analysis support `support`: f lies
    in the null space of D*_{T^c}, T^c the complement of the support (for a
    redundant frame |T^c| < n is needed).  support None gives a generic f."""
    if kind == "random":
        frame = make_random_tight_frame(n, d, seed=seed)
    else:
        frame = {"identity": make_identity_frame, "dct": make_dct_frame}[kind](n)
    rng = np.random.default_rng(seed)
    if support is None:
        f = rng.standard_normal(n)
    else:
        comp = [i for i in range(frame.d) if i not in support]
        _, svals, vt = np.linalg.svd(frame.matrix[:, comp].T)
        null_basis = vt[np.count_nonzero(svals > 1e-10 * svals[0]):].T
        f = null_basis @ (rng.standard_normal(null_basis.shape[1]) + 1.0)
    return frame, measure(gen_gaussian(m, n, seed=seed + 1), f, "none")


class TestP0MatchesThePerSupportLoop:
    """The batched oracle against `reference_p0_oracle`: the same support,
    the same position in the enumeration and the same point."""

    HITS = [
        # kind, n, d, m, planted support, s_max, seed
        ("identity", 8, 8, 10, (2, 5), 2, 0),
        ("dct", 12, 12, 9, (3, 8), 2, 1),
        # past the first chunk of its size (position 108 of C(16, 2) = 120)
        ("dct", 16, 16, 10, (10, 14), 2, 2),
        ("random", 6, 8, 4, (1, 4, 6), 3, 3),
        # past the first chunk of its size (C(14, 5) = 2002 supports)
        ("random", 10, 14, 8, (6, 8, 10, 12, 13), 5, 4),
        # m = 2 < 2s: every support of size 2 solves, the first one wins
        ("identity", 8, 8, 2, (4, 6), 2, 5),
        ("random", 6, 8, 1, (2, 5, 7), 3, 6),
    ]
    MISSES = [
        # denser than s_max: A injective, so f_hat is f
        ("identity", 6, 6, 8, (0, 2, 5), 1, 7),
        # m < n: f_hat is the minimum-norm solution, not f
        ("dct", 10, 10, 6, (1, 4, 6, 9), 2, 8),
        # |T^c| >= n on every support up to s_max: only f = 0 solves
        ("random", 8, 12, 6, None, 2, 9),
    ]

    @staticmethod
    def check(case, chunk):
        kind, n, d, m, support, s_max, seed = case
        frame, model = p0_instance(kind, n, d, m, support, seed)
        with mock.patch.object(solvers, "CHUNK_FLOATS", chunk or solvers.CHUNK_FLOATS):
            res = solve_p0_oracle(frame, model, s_max)
        want_support, iterations, f_hat = reference_p0_oracle(frame, model, s_max)
        assert res.iterations == iterations
        assert np.linalg.norm(res.f_hat - f_hat) <= 1e-9 * (1.0 + np.linalg.norm(f_hat))
        assert res.residual == np.linalg.norm(model.A @ res.f_hat - model.y)
        cutoff = 1e-9 * np.linalg.norm(model.y)
        assert res.objective == np.count_nonzero(np.abs(frame.matrix.T @ res.f_hat) > cutoff)
        return res, want_support, cutoff

    # chunks of the default size, and of one support (256 floats)
    @pytest.mark.parametrize("chunk", [None, 256])
    @pytest.mark.parametrize("case", HITS)
    def test_hit(self, case, chunk):
        res, want_support, cutoff = self.check(case, chunk)
        assert res.converged
        assert res.diagnostics["support"] == want_support
        assert res.diagnostics["stacked_residual"] <= cutoff
        kind, n, d, m, support, s_max, _ = case
        if m >= len(support) + 1:
            assert want_support == list(support)
        if (kind, n) in (("dct", 16), ("random", 10)):
            # the instance is meant to win past the first chunk of its size
            earlier = sum(math.comb(d, k) for k in range(len(support)))
            assert res.iterations - earlier > solvers.CHUNK_FLOATS // ((d + m) * n)

    @pytest.mark.parametrize("chunk", [None, 256])
    @pytest.mark.parametrize("case", MISSES)
    def test_no_hit_returns_the_minimum_norm_point(self, case, chunk):
        res, want_support, _ = self.check(case, chunk)
        _, _, d, _, _, s_max, _ = case
        assert want_support is None and not res.converged
        assert res.iterations == sum(math.comb(d, k) for k in range(s_max + 1))
        assert res.diagnostics == {"note": "no feasible support up to s_max=%d" % s_max}

    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e-9, 1e-3, 1.0, 1e4, 1e6, 1e8, 1e160])
    def test_hit_rule_is_relative_to_y(self, scale):
        # the (12, 9) DCT case with y scaled: an absolute residual cutoff of
        # 1e-9 found its planted support at 1e4 but not at 1e6 or 1e8, and a
        # cutoff of 1e-9 max(1, ||y||) took the empty support at 1e-9; a
        # cutoff of 1e-9 ||y|| took it where ||y||^2 leaves floats (1e-170,
        # 1e-300 and 1e160)
        frame, model = p0_instance(*self.HITS[1][:5], self.HITS[1][6])
        res = solve_p0_oracle(frame, SensingModel(model.A, model.y * scale, 0.0), 2)
        assert res.converged
        assert res.diagnostics["support"] == [3, 8]
        assert res.objective == 2.0

    # both points are finite on y / 2^e and overflow scaled back: the start of
    # A = diag(1e-300, 1e-300), y = (1e10, 1e10), and the first hit of
    # A = (1e-5, 1), y = 1e305, support [0] with f_0 = 1e310
    @pytest.mark.parametrize("a, y", [(np.diag([1e-300, 1e-300]), [1e10, 1e10]),
                                      (np.array([[1e-5, 1.0]]), [1e305])],
                             ids=["start", "hit"])
    def test_refuses_a_point_that_overflows(self, a, y):
        model = SensingModel(a, np.array(y), 0.0)
        with pytest.raises(ContractViolation, match="the l0 oracle's point overflows"):
            solve_p0_oracle(make_identity_frame(2), model, 1)


def vertex_l1_minimum(frame, a, y):
    """min ||D* f||_1 over {A f = y}.  Each piece {sign(D* f) = const} of the
    feasible set is a polyhedron with no line (D* is injective), and the
    objective is linear on it, so the minimum sits at a vertex: a cosupport
    of size n - rank A whose system {D*_cosupport f = 0, A f = y} has rank n.
    `_cosupport_chunks` solves every such system, a support (the
    complement of a cosupport) per row: (minimum, vertices)."""
    n, d = frame.n, frame.d
    size = d - (n - numeric_rank(np.linalg.svd(a, compute_uv=False)))
    best, vertices = math.inf, 0
    for _, f, residual, rank in solvers._cosupport_chunks(frame, a, y, size):
        f = f[rank == n]
        assert np.all(residual[rank == n] <= 1e-9 * np.linalg.norm(y))
        if len(f):
            best = min(best, float(np.abs(f @ frame.matrix).sum(axis=1).min()))
        vertices += len(f)
    return best, vertices


class TestP1MeetsTheVertexOptimum:
    """Noiseless P1 at m < n against the exact optimum of `vertex_l1_minimum`."""

    # |rel| <= 1.9e-9 on the DCT cases and 3.7e-9 on the random ones that converge
    OBJECTIVE_RTOL = 1e-7

    @pytest.mark.parametrize("kind, seed", [("dct", k) for k in range(6)]
                             + [("random", k) for k in range(6)])
    def test_objective_is_the_vertex_minimum(self, kind, seed):
        if kind == "dct":
            frame, a = make_dct_frame(12), gen_gaussian(8, 12, seed=seed)
        else:
            frame = make_random_tight_frame(10, 14, seed=seed + 50)
            a = gen_gaussian(7, 10, seed=seed)
        model = measure(a, _draw_signal(frame, 2, seed + 1), "none")
        best, vertices = vertex_l1_minimum(frame, a, model.y)
        assert vertices == {"dct": math.comb(12, 4), "random": math.comb(14, 3)}[kind]
        res = solve_p1(frame, model)
        # random seed 3 runs out of its 20 000 iterations, and says so
        assert res.converged or (kind, seed) == ("random", 3)
        if res.converged:
            assert abs(res.objective - best) <= self.OBJECTIVE_RTOL * best

    def test_rank_is_that_of_the_stacked_system(self):
        # A with two repeated rows: rank 8 on 10 rows, so the stacked systems
        # of supports of sizes 8, 9 and 10 have rank 12, 11 and 10; the
        # chunks cover the supports in order, each within CHUNK_FLOATS
        frame, a = make_dct_frame(12), gen_gaussian(8, 12, seed=0)
        a = np.vstack([a, a[:2]])
        y = a @ np.ones(12)
        ranks = set()
        for size in (8, 9, 10):
            chunks = list(solvers._cosupport_chunks(frame, a, y, size))
            assert np.concatenate([c[0] for c in chunks]).tolist() == [
                list(t) for t in combinations(range(12), size)]
            assert all(len(idx) == 1 or len(idx) * (12 + 10) * 12 <= solvers.CHUNK_FLOATS
                       for idx, *_ in chunks)
            for idx, _, _, rank in chunks:
                for support, r in zip(idx, rank):
                    cosupport = [i for i in range(12) if i not in support]
                    stacked = np.vstack([frame.matrix[:, cosupport].T, a])
                    assert r == np.linalg.matrix_rank(stacked)
                ranks.update(rank.tolist())
        assert ranks == {10, 11, 12}


def reference_p1_loop(frame, model):
    """The primal-dual loop of `solve_p1` on the full data term (A, y), not in
    span(A, y) coordinates, returning its best feasible iterate, not its
    last: (f_hat, iterations, objective, objective_trace, tau)."""
    max_iters, tol = MAX_ITERS, TOL
    a, y, eps = model.A, model.y, model.epsilon
    dmat = frame.matrix
    d = frame.d
    f, _, _, svals = np.linalg.lstsq(a, y, rcond=1e-10)
    big_k = math.sqrt(1.0 + (float(svals[0]) * (1.0 + 1e-6)) ** 2)
    tau = sigma = 0.99 / big_k
    stacked = np.vstack([dmat.T, a])
    feas_tol = min(tol, eps * 1e-6 + 1e-9)

    def evaluate(candidate):
        image = stacked @ candidate
        return float(np.abs(image[:d]).sum()), float(np.linalg.norm(image[d:] - y))

    best_obj, best_f = math.inf, None
    obj0, res0 = evaluate(f)
    if res0 - eps <= feas_tol:
        best_obj, best_f = obj0, f.copy()
    trace = [best_obj if best_f is not None else obj0]
    p, r = np.zeros(d), np.zeros(a.shape[0])
    f_bar = f.copy()
    balance = 0.5
    for iterations in range(1, max_iters + 1):
        image_bar = stacked @ f_bar
        p_new = np.clip(p + sigma * image_bar[:d], -1.0, 1.0)
        w = r + sigma * (image_bar[d:] - y)
        norm_w = float(np.linalg.norm(w))
        r_new = w * max(0.0, 1.0 - sigma * eps / norm_w) if norm_w > 0.0 and eps > 0.0 else w
        dual_new = np.concatenate([p_new, r_new])
        f_new = f - tau * (stacked.T @ dual_new)
        step = float(np.linalg.norm(f_new - f))
        ref = 1.0 + float(np.linalg.norm(f))
        if iterations % 10 == 0 and balance > 1e-4:
            dual_step = np.concatenate([p, r]) - dual_new
            primal_res = np.linalg.norm((f - f_new) / tau - stacked.T @ dual_step)
            dual_res = np.linalg.norm(dual_step / sigma - stacked @ (f - f_new))
            if primal_res > 2.0 * dual_res:
                tau, sigma, balance = tau * (1.0 + balance), sigma / (1.0 + balance), balance * 0.95
            elif dual_res > 2.0 * primal_res:
                tau, sigma, balance = tau / (1.0 + balance), sigma * (1.0 + balance), balance * 0.95
        f_bar = 2.0 * f_new - f
        f = f_new
        p, r = p_new, r_new
        obj, res = evaluate(f)
        viol = max(0.0, res - eps)
        if viol <= feas_tol and obj < best_obj:
            best_obj, best_f = obj, f.copy()
        trace.append(best_obj if best_f is not None else obj)
        if step <= tol * ref and viol <= feas_tol:
            break
    f_hat = f if best_f is None else best_f
    return f_hat, iterations, float(np.abs(dmat.T @ f_hat).sum()), trace, tau


class TestLeanP1Step:
    # the same steps, save that solve_p1 runs in span(A, y) coordinates and
    # returns its last iterate, the reference in the full space returning its
    # best feasible one; tolerances fixed before measuring
    OBJECTIVE_RTOL = 1e-12
    F_HAT_TOL = 1e-9

    @pytest.mark.parametrize("kwargs", [
        dict(seed=0, n=8, d=12, m=128, eps=0.05),
        dict(seed=1, n=6, d=9, m=48, eps=0.1),
        # m = 2n: tau grows 7 times and shrinks 16 times
        dict(seed=5, n=5, d=7, m=10, s=1, eps=0.05),
        # the shape of a p1_auto trial
        dict(seed=3, n=10, d=14, m=160, eps=0.05),
    ])
    def test_matches_the_reference_loop(self, kwargs):
        frame, a, f, model = normalized_instance(**kwargs)
        res = solve_p1(frame, model)
        f_hat, iterations, objective, _, tau = reference_p1_loop(frame, model)
        assert res.iterations == iterations
        assert abs(res.objective - objective) <= self.OBJECTIVE_RTOL * objective
        assert np.linalg.norm(res.f_hat - f_hat) <= self.F_HAT_TOL * (
            1.0 + np.linalg.norm(f_hat))
        # the rebalancing moved the steps, in both loops alike
        assert res.diagnostics["tau"] == pytest.approx(tau, rel=1e-12)
        assert tau != 0.99 / math.sqrt(
            1.0 + (res.diagnostics["operator_norm"] * (1.0 + 1e-6)) ** 2)
