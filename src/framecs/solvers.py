"""Solvers for the three analysis-model recovery programs.

  P1 (convex):     min ||D* f||_1      s.t. ||A f - y||_2 <= eps
                   first-order primal-dual splitting over the stacked map
                   (D*, A); both dual proximal maps are closed form.
  Pq (nonconvex):  min ||D* f||_q^q    s.t. ||A f - y||_2 <= eps, 0 < q < 1
                   smoothed iteratively reweighted least squares with a
                   geometric continuation on the smoothing level; returns a
                   stationary point, not a certified global minimizer.
  P0 (oracle):     min ||D* f||_0      s.t. A f = y
                   exhaustive support search, noiseless only: the first hit
                   of the cosupport kernel `_cosupport_solutions` over the
                   chunks of `drip.support_chunks`.

Both iterative solvers start from one thin SVD of A (`_span_coordinates`),
share its three early exits and are fully deterministic.
"""

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .drip import CHUNK_FLOATS, check_budget, support_chunks
from .errors import ContractViolation
from .frames import TightFrame, lq_mass
from .linalg import numeric_rank
from .sensing import SensingModel

PROGRAM_P1 = "P1"
PROGRAM_PQ = "Pq"
PROGRAM_P0 = "P0"

# the lq smoothing schedule: mu shrinks by this factor per level, to the floor
CONTINUATION_FACTOR = 0.7
SMOOTHING_FLOOR = 1e-10


@dataclass(frozen=True)
class SolverOptions:
    max_iters: int = 20000
    tol: float = 1e-9

    def __post_init__(self):
        if self.max_iters < 1 or not 0 < self.tol < math.inf:
            raise ContractViolation("max_iters >= 1 and a finite tol > 0 required")


@dataclass(frozen=True)
class RecoveryResult:
    f_hat: np.ndarray
    iterations: int
    converged: bool
    residual: float
    objective: float
    program: str
    diagnostics: Dict = field(default_factory=dict)

    def to_json_dict(self):
        # per-iteration traces stay in memory only
        diag = {k: v for k, v in self.diagnostics.items() if k != "level_traces"}
        return {**vars(self), "diagnostics": diag}


def feasibility_slack(eps: float) -> float:
    """How far past eps a result may lie: every solver result keeps the
    invariant ||A f_hat - y|| <= eps + feasibility_slack(eps)."""
    return eps * 1e-6 + 1e-9


def _feasibility_tol(eps: float, tol: float) -> float:
    # convergence never certifies more infeasibility than the invariant allows
    return min(tol, feasibility_slack(eps))


def _residual(a, f, y) -> float:
    gap = a @ f - y
    return math.sqrt(gap @ gap)


def _result(model: SensingModel, f, iterations, converged, program, objective,
            diagnostics) -> RecoveryResult:
    """The one constructor of a solver result: its residual is always
    ||A f - y|| of `model`, and each program passes its own objective."""
    return RecoveryResult(f_hat=f, iterations=iterations, converged=converged,
                          residual=_residual(model.A, f, model.y), objective=objective,
                          program=program, diagnostics=diagnostics)


def _span_coordinates(model: SensingModel, tol: float):
    """(A', y', f0, ||A||_2, exit) from one thin SVD A = U S V^T.

    A' = [S V^T; 0] and y' = [U^T y; ||y - U U^T y||] keep every singular
    value, so ||A' f - y'|| = ||A f - y|| for every f on min(m, n) + 1 rows.
    f0 is the minimum-norm least-squares point V_r S_r^-1 U_r^T y (r the
    `numeric_rank` of A).  exit is None, or the note of a case the solvers
    return at once with f0: zero lies in the eps-ball ("zero_feasible", and
    f0 is zero); f0 misses it, so no point is feasible ("no_feasible_point");
    eps = 0 and rank(A) = n ("unique_feasible_point").
    """
    a, y, eps = model.A, model.y, model.epsilon
    u, svals, vt = np.linalg.svd(a, full_matrices=False)
    norm_a = float(svals[0]) if svals.size else 0.0
    coords = u.T @ y
    y_perp = y - u @ coords
    a_red = np.vstack([svals[:, None] * vt, np.zeros(a.shape[1])])
    y_red = np.append(coords, math.sqrt(y_perp @ y_perp))
    if float(np.linalg.norm(y)) <= eps:
        # zero is feasible and no point has a smaller objective
        return a_red, y_red, np.zeros(a.shape[1]), norm_a, {"note": "zero_feasible"}

    rank = int(numeric_rank(svals))
    f0 = vt[:rank].T @ (coords[:rank] / svals[:rank])
    residual = _residual(a, f0, y)
    exit_note = None
    if residual - eps > _feasibility_tol(eps, tol):
        # f0 is the minimum-norm least-squares point: nothing comes closer
        exit_note = {"note": "no_feasible_point", "min_residual": residual}
    elif eps == 0.0 and rank == a.shape[1]:
        # A is injective: A f = y has no other solution
        exit_note = {"note": "unique_feasible_point"}
    return a_red, y_red, f0, norm_a, exit_note


def solve_p1(frame: TightFrame, model: SensingModel,
             opts: Optional[SolverOptions] = None) -> RecoveryResult:
    """Primal-dual splitting for the constrained l1 analysis program.

    The loop starts from f0 of `_span_coordinates` and runs on its data
    term: the eps-ball dual never leaves span(A, y), so with
    K' = [D*; A'] the dual has min(m, n) + 1 entries instead of m, and the
    iterates are those of the full-space loop in exact arithmetic.

    Dual updates are componentwise clipping to [-1, 1] for the l1 block and
    the translated shrink map for the eps-ball block; step sizes satisfy
    tau * sigma * ||K||^2 <= 1 where ||K||^2 <= 1 + ||A||^2 (the tight frame
    contributes exactly 1).  tau and sigma are rebalanced on the fly to
    equalize the primal and dual residuals with geometrically diminishing
    adjustments, which keeps the product (hence convergence) intact while
    avoiding the long plateaus of fixed steps.  The residual is evaluated
    only on steps that pass the step test; the final iterate is returned
    with its residual ||A f - y|| in the full space.  The three exits of
    `_span_coordinates` return f0 with 0 iterations and their note.
    """
    opts = opts or SolverOptions()
    a, y, eps = frame.check_matrix(model.A), model.y, model.epsilon
    dmat = frame.matrix
    d, n = frame.d, frame.n

    a_red, y_red, f, norm_a, exit_note = _span_coordinates(model, opts.tol)
    big_k = math.sqrt(1.0 + (norm_a * (1.0 + 1e-6)) ** 2)
    tau = sigma = 0.99 / big_k

    def result(f_hat, iterations, converged, step, **note):
        return _result(model, f_hat, iterations, converged, PROGRAM_P1,
                       lq_mass(dmat.T @ f_hat, 1.0),
                       {"tau": tau, "sigma": sigma, "operator_norm": norm_a,
                        "final_step": step, **note})

    if exit_note:
        return result(f, 0, exit_note["note"] != "no_feasible_point", 0.0, **exit_note)

    feas_tol = _feasibility_tol(eps, opts.tol)
    stacked = np.vstack([dmat.T, a_red])
    stacked_t = stacked.T
    # the loop writes into these instead of allocating; (dual, p, r) and
    # (dual_new, p_new, r_new), like f and f_new, swap each step
    image = np.empty(stacked.shape[0])
    image_p, image_r = image[:d], image[d:]
    dual, dual_new = np.zeros_like(image), np.empty_like(image)
    p, r, p_new, r_new = dual[:d], dual[d:], dual_new[:d], dual_new[d:]
    dual_step = np.empty_like(image)
    back, f_new, move = np.empty(n), np.empty(n), np.empty(n)
    f_bar = f.copy()
    tol = opts.tol
    converged = False
    balance = 0.5  # diminishing rebalancing strength

    for iterations in range(1, opts.max_iters + 1):
        stacked.dot(f_bar, out=image)
        # p_new = clip(p + sigma K_1 f_bar, -1, 1)
        np.multiply(image_p, sigma, out=p_new)
        p_new += p
        np.minimum(np.maximum(p_new, -1.0, out=p_new), 1.0, out=p_new)
        # r_new = shrink(r + sigma (A' f_bar - y')) onto the eps-ball dual
        np.subtract(image_r, y_red, out=r_new)
        r_new *= sigma
        r_new += r
        norm_w = math.sqrt(r_new.dot(r_new))
        if norm_w > 0.0 and eps > 0.0:
            r_new *= max(0.0, 1.0 - sigma * eps / norm_w)
        stacked_t.dot(dual_new, out=back)
        back *= tau
        np.subtract(f, back, out=f_new)
        np.subtract(f_new, f, out=move)
        step = math.sqrt(move.dot(move))

        if iterations % 10 == 0 and balance > 1e-4:
            # f_bar is free until it is rebuilt below
            np.subtract(dual, dual_new, out=dual_step)
            np.subtract(f, f_new, out=f_bar)
            stacked.dot(f_bar, out=image)
            f_bar /= tau
            stacked_t.dot(dual_step, out=back)
            f_bar -= back
            primal_res = math.sqrt(f_bar.dot(f_bar))
            dual_step /= sigma
            dual_step -= image
            dual_res = math.sqrt(dual_step.dot(dual_step))
            if primal_res > 2.0 * dual_res:
                tau *= 1.0 + balance
                sigma /= 1.0 + balance
                balance *= 0.95
            elif dual_res > 2.0 * primal_res:
                tau /= 1.0 + balance
                sigma *= 1.0 + balance
                balance *= 0.95

        if step <= tol * (1.0 + math.sqrt(f.dot(f))):
            if _residual(a, f_new, y) - eps <= feas_tol:
                f = f_new
                converged = True
                break
        np.multiply(f_new, 2.0, out=f_bar)
        f_bar -= f
        f, f_new = f_new, f
        dual, dual_new, p, p_new, r, r_new = dual_new, dual, p_new, p, r_new, r

    return result(f, iterations, converged, step)


def _smoothed_objective(coeffs: np.ndarray, mu: float, q: float) -> float:
    return float(np.sum((coeffs * coeffs + mu * mu) ** (q / 2.0)))


def _weighted_solve(dmat, a, y, eps, weights):
    """argmin ||sqrt(W) D* f||_2 s.t. ||A f - y||_2 <= eps, and its penalty
    weight lambda (None for the limit lambda -> inf).

    sqrt(W) D* = P S Q^T and A Q S^-1 = U Sigma V^T give the penalized
    minimizer f = Q S^-1 V diag(c) U^T y, c = lambda sigma / (1 + lambda
    sigma^2), and ||A f - y||^2 = sum (w x)^2 + floor, with beta = U^T y,
    w = beta / sigma^2 and x = 1 / (1/sigma^2 + lambda) over sigma > 0, and
    floor = ||y - U beta||^2 plus the beta^2 of sigma = 0 (sigma past the
    `numeric_rank` counts as 0).  eps = 0, or eps^2 <= floor, takes
    c = 1/sigma.  Otherwise Newton on phi(lambda) = 1/||A f - y|| = 1/eps
    (More & Sorensen 1983) starts at lambda = 0, where phi = 1/||y|| < 1/eps
    (the solvers exit on a feasible zero).  phi rises, and phi'' <= 0 is
    (sum w^2 x^3)^2 <= (sum w^2 x^2 + floor)(sum w^2 x^4), Cauchy-Schwarz: each
    step, along a tangent above phi, moves right but not past the root, so the
    iterates never leave the bracket (lo, hi), which only guards round-off.
    """
    _, s, qt = np.linalg.svd(np.sqrt(weights)[:, None] * dmat.T, full_matrices=False)
    q_s = qt.T / s
    u, sig, vt = np.linalg.svd(a @ q_s, full_matrices=False)
    sig[numeric_rank(sig):] = 0.0
    sig2 = sig * sig
    beta = u.T @ y
    perp2 = float(np.sum((y - u @ beta) ** 2))
    if float(np.sum(beta[sig == 0.0] ** 2)) + perp2 >= eps * eps:
        c = np.divide(1.0, sig, out=np.zeros_like(sig), where=sig > 0.0)
        return q_s @ (vt.T @ (c * beta)), None
    lam, lo, hi = 0.0, 0.0, math.inf
    for _ in range(100):
        t = 1.0 / (1.0 + lam * sig2)
        r = beta * t
        res = math.sqrt(float(r @ r) + perp2)
        if abs(res - eps) <= 1e-14 * eps:
            break
        if res > eps:
            lo = lam
        else:
            hi = lam
        lam += (1.0 / eps - 1.0 / res) * res ** 3 / float(np.sum(sig2 * r * r * t))
        if not lo < lam < hi:
            lam = 0.5 * (lo + hi)
    c = lam * sig / (1.0 + lam * sig2)
    return q_s @ (vt.T @ (c * beta)), lam


def solve_pq(frame: TightFrame, model: SensingModel, q: float,
             opts: Optional[SolverOptions] = None) -> RecoveryResult:
    """Iteratively reweighted least squares for the lq analysis program.

    Weights w_i = ((D* f)_i^2 + mu^2)^(q/2 - 1) at smoothing level mu, which
    decays geometrically to the floor.  Start and exits are those of
    `solve_p1` (`_span_coordinates`).  Each weighted subproblem
    min ||sqrt(W) D* f||_2 s.t. ||A' f - y'||_2 <= eps is solved in closed
    form by `_weighted_solve`, which factors A' Q S^-1 (min(m, n) + 1 rows),
    on the boundary when eps > 0 and on the least-squares set when eps = 0.
    """
    if not 0.0 < q < 1.0:
        raise ContractViolation("solve_pq needs 0 < q < 1")
    opts = opts or SolverOptions()
    frame.check_matrix(model.A)
    eps, dmat = model.epsilon, frame.matrix

    def result(f, iters, converged, extra):
        return _result(model, f, iters, converged, PROGRAM_PQ,
                       lq_mass(dmat.T @ f, q), extra)

    a_red, y_red, f, _, exit_note = _span_coordinates(model, opts.tol)
    if exit_note:
        return result(f, 0, exit_note["note"] != "no_feasible_point", exit_note)

    mu = max(float(np.abs(dmat.T @ f).max()), SMOOTHING_FLOOR)
    lam = None
    total_solves = 0
    level_traces = []
    converged = False
    f_prev_level = None
    inner_cap = 25

    while total_solves < opts.max_iters:
        level_trace = []
        for _ in range(inner_cap):
            coeffs = dmat.T @ f
            weights = (coeffs * coeffs + mu * mu) ** (q / 2.0 - 1.0)
            f_new, lam = _weighted_solve(dmat, a_red, y_red, eps, weights)
            total_solves += 1
            level_trace.append(_smoothed_objective(dmat.T @ f_new, mu, q))
            inner_step = float(np.linalg.norm(f_new - f))
            inner_ref = 1.0 + float(np.linalg.norm(f))
            f = f_new
            if inner_step <= opts.tol * inner_ref or total_solves >= opts.max_iters:
                break
        level_traces.append(level_trace)
        if f_prev_level is not None:
            level_step = float(np.linalg.norm(f - f_prev_level))
            if level_step <= opts.tol * (1.0 + float(np.linalg.norm(f_prev_level))):
                converged = True
                break
        f_prev_level = f.copy()
        mu = max(CONTINUATION_FACTOR * mu, SMOOTHING_FLOOR)

    return result(f, total_solves, converged, {
        "mu_final": mu, "lambda_final": lam,
        "levels": len(level_traces), "level_traces": level_traces,
    })


def _cosupport_solutions(frame: TightFrame, a, y, supports):
    """(f, residual, rank) per row T of the index array `supports`: the
    minimum-norm least-squares solution of {D*_{T^c} f = 0, A f = y} ([D*; A]
    with the rows of T zeroed), its residual and the system's `numeric_rank`
    (n: f is the only solution).  One batched SVD; the pseudo-inverse keeps
    the order of operations of NumPy's own, so f is bit for bit the same."""
    rhs = np.concatenate([np.zeros(frame.d), y])
    batch = np.repeat(np.vstack([frame.matrix.T, a])[None], len(supports), axis=0)
    batch[np.arange(len(supports))[:, None], supports] = 0.0
    u, svals, vt = np.linalg.svd(batch, full_matrices=False)
    rank = numeric_rank(svals)
    kept = np.arange(svals.shape[1]) < rank[:, None]
    inv = np.divide(1.0, svals, out=np.zeros_like(svals), where=kept)
    f = (vt.transpose(0, 2, 1) @ (inv[:, :, None] * u.transpose(0, 2, 1))) @ rhs
    residual = np.linalg.norm((batch @ f[:, :, None])[:, :, 0] - rhs, axis=1)
    return f, residual, rank


def solve_p0_oracle(frame: TightFrame, model: SensingModel, s_max: int,
                    tol: float = 1e-9) -> RecoveryResult:
    """Exhaustive search for the sparsest analysis representation.

    Supports are enumerated in increasing size, lexicographically within a
    size, in chunks of `support_chunks` (at most CHUNK_FLOATS floats of
    [D*; A] each); the first support whose system {D*_{T^c} f = 0, A f = y}
    `_cosupport_solutions` solves within tol * ||y|| wins, and `iterations`
    is its position (at y = 0 the empty support, exactly).  With no winner
    up to s_max, f_hat is the minimum-norm solution of A f = y, unconverged.
    The objective counts the entries of D* f_hat above tol * ||y|| in
    magnitude, so the search is invariant to the scale of y.
    """
    if model.epsilon > 0:
        raise ContractViolation("the l0 oracle is noiseless; got epsilon > 0")
    a, y, d = frame.check_matrix(model.A), model.y, frame.d
    if not 0 <= s_max <= d or not 0 < tol < math.inf:
        raise ContractViolation("s_max in [0, d] and a finite tol > 0 required")
    check_budget(sum(math.comb(d, k) for k in range(s_max + 1)),
                 "sum of C(%d, k) over k <= %d" % (d, s_max))
    dmat = frame.matrix
    tol = tol * float(np.linalg.norm(y))

    def result(f, iterations, converged, **diagnostics):
        return _result(model, f, iterations, converged, PROGRAM_P0,
                       float(np.count_nonzero(np.abs(dmat.T @ f) > tol)), diagnostics)

    rows = max(1, CHUNK_FLOATS // ((d + a.shape[0]) * frame.n))
    tested = 0
    for size in range(s_max + 1):
        for idx in support_chunks(d, size, rows):
            f, residual, _ = _cosupport_solutions(frame, a, y, idx)
            i = int(np.argmax(residual <= tol))  # the first hit, if any
            if residual[i] <= tol:
                return result(f[i], tested + i + 1, True, support=idx[i].tolist(),
                              stacked_residual=float(residual[i]))
            tested += len(idx)
    return result(_span_coordinates(model, tol)[2], tested, False,
                  note="no feasible support up to s_max=%d" % s_max)
