"""Recovery-guarantee constants, applicability certificates, and numerical
audits of the inequality chain behind them.

Three regimes are certified, each keyed to a contraction factor rho that must
stay below 1:

  general_l1       rho^2 = 4 (1 + 5 d - 4 d^2) / ((1 - d)(32 - 25 d)),
                   applicable for d < (77 - sqrt(1337)) / 82 ~ 0.4931;
  special_n_le_4s  rho^2 = (1 + d)^2 / (8 (1 - d)),
                   applicable for n <= 4 s and d < 4 sqrt(2) - 5 ~ 0.656;
  lq               rho(q)^2 = d/(1-d) + q ((2-q)/(2-d))^(2/q-1) / (2^(2/q) (1-d)),
                   applicable for d < 1/2 and q below the root q0 of rho(q) = 1,

writing d for the order-2s isometry constant.  In every applicable regime the
reconstruction error obeys  C0 * tail / s^(1/q - 1/2) + C1 * eps  with

  C1 = 2 (1 + C0 / sqrt(2)) / sqrt(1 - d)

and a regime-specific C0.

A regime's precondition on d (and q) is tested only by its constants_*,
which raise NotApplicableError outside it; certify builds its certificates
from them, and audit_lemmas and experiment.evaluate read those.
"""

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import ContractViolation, NotApplicableError
from .frames import TightFrame, lq_mass, s_term_head
from .linalg import as_vector
from .solvers import feasibility_slack

REGIME_GENERAL = "general_l1"
REGIME_SPECIAL = "special_n_le_4s"
REGIME_LQ = "lq"

# A record "holds" when slack >= -AUDIT_RTOL * max(1, |rhs|): separates
# genuine violations from round-off.
AUDIT_RTOL = 1e-8

# Relative slack of the minimizer-surrogate gate: on an exact recovery both
# objectives agree to the last bits, and round-off alone must not decide it.
SURROGATE_RTOL = 1e-12


# ---------------------------------------------------------------------------
# contraction factors and thresholds


def rho_general(delta: float) -> float:
    """Contraction factor of the general l1 regime; defined for delta < 2/3."""
    if not 0.0 <= delta < 2.0 / 3.0:
        raise ContractViolation("rho_general needs 0 <= delta < 2/3, got %g" % delta)
    num = 4.0 * (1.0 + 5.0 * delta - 4.0 * delta * delta)
    den = (1.0 - delta) * (32.0 - 25.0 * delta)
    return math.sqrt(num / den)


def threshold_general() -> float:
    """Root of rho_general = 1, i.e. of 41 d^2 - 77 d + 28 = 0."""
    return (77.0 - math.sqrt(1337.0)) / 82.0


def rho_special(delta: float) -> float:
    """Contraction factor of the n <= 4s regime; defined for delta < 1."""
    if not 0.0 <= delta < 1.0:
        raise ContractViolation("rho_special needs 0 <= delta < 1, got %g" % delta)
    return math.sqrt((1.0 + delta) ** 2 / (8.0 * (1.0 - delta)))


def threshold_special() -> float:
    """Root of rho_special = 1, i.e. of d^2 + 10 d - 7 = 0."""
    return 4.0 * math.sqrt(2.0) - 5.0


def rho_q(delta: float, q: float) -> float:
    """Contraction factor of the lq regime.

    Evaluated in log space so that tiny q (where 2^(2/q) overflows a float)
    degrades gracefully to the q -> 0 limit sqrt(delta / (1 - delta)).
    """
    if not 0.0 <= delta < 1.0:
        raise ContractViolation("rho_q needs 0 <= delta < 1, got %g" % delta)
    if not 0.0 < q <= 1.0:
        raise ContractViolation("rho_q needs q in (0, 1], got %g" % q)
    e = 2.0 / q - 1.0
    log_term = (
        math.log(q)
        + e * (math.log(2.0 - q) - math.log(2.0 - delta))
        - (2.0 / q) * math.log(2.0)
        - math.log(1.0 - delta)
    )
    term = math.exp(log_term) if log_term > -745.0 else 0.0
    return math.sqrt(delta / (1.0 - delta) + term)


def q_zero(delta: float) -> float:
    """Largest q in (0, 1] with rho_q(delta, q) < 1 for all smaller q, to
    within 1e-9 from below.

    Returns 1 when rho_q(delta, 1) < 1; otherwise the lower end of a
    bisection bracket of the root of rho_q(delta, .) = 1 on [1e-6, 1], of
    width 1e-9 (rho_q(delta, .) is increasing in q), so rho_q(delta, q0) < 1.
    """
    if not 0.0 <= delta < 0.5:
        raise ContractViolation("q_zero needs 0 <= delta < 1/2, got %g" % delta)
    if rho_q(delta, 1.0) < 1.0:
        return 1.0
    # at 1e-6 the q term of rho_q^2 underflows to 0, leaving delta / (1 - delta) < 1
    lo, hi = 1e-6, 1.0
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if rho_q(delta, mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# error-bound constants


def _contracting(rho: float, regime: str, delta: float) -> float:
    """`rho` if below 1: the rounded thresholds and q0 admit a few floats where
    it is not, and there the regime does not apply."""
    if not rho < 1.0:
        raise NotApplicableError("%s guarantee needs rho < 1, got rho = %r at delta = %r"
                                 % (regime, rho, delta))
    return rho


def _c1_from_c0(c0: float, delta: float) -> float:
    return 2.0 / math.sqrt(1.0 - delta) * (1.0 + c0 / math.sqrt(2.0))


def constants_general(delta: float) -> Tuple[float, float]:
    thr = threshold_general()
    if not 0.0 <= delta < thr:
        raise NotApplicableError(
            "general l1 guarantee needs delta < %.10g, got %.10g" % (thr, delta))
    rho = _contracting(rho_general(delta), "general l1", delta)
    c0 = 4.0 / (1.0 - rho) * math.sqrt(
        2.0 * (2.0 - delta) / ((1.0 - delta) * (32.0 - 25.0 * delta))
    )
    return c0, _c1_from_c0(c0, delta)


def constants_special(delta: float) -> Tuple[float, float]:
    thr = threshold_special()
    if not 0.0 <= delta < thr:
        raise NotApplicableError(
            "special-case guarantee needs delta < %.10g, got %.10g" % (thr, delta))
    rho = _contracting(rho_special(delta), "special-case", delta)
    c0 = math.sqrt(2.0) / ((1.0 - rho) * math.sqrt(1.0 - delta))
    return c0, _c1_from_c0(c0, delta)


def constants_q(delta: float, q: float) -> Tuple[float, float]:
    if not 0.0 <= delta < 0.5:
        raise NotApplicableError(
            "lq guarantee needs delta < 1/2, got %.10g" % delta)
    q0 = q_zero(delta)
    # at q0 == 1 the factor stays below 1 on all of (0, 1]: q = 1 is admitted
    if not (0.0 < q < q0 or (q0 == 1.0 and 0.0 < q <= 1.0)):
        raise NotApplicableError(
            "lq guarantee needs q < q0(delta) = %.10g, got q = %.10g" % (q0, q))
    rho = _contracting(rho_q(delta, q), "lq", delta)
    try:
        rho_pow_q = rho ** q
        lead = 2.0 ** (1.0 / q - 1.0) / (1.0 - rho_pow_q) ** (1.0 / q)
        inner = ((2.0 - delta) * (2.0 - q) ** ((2.0 - q) / q) * q
                 + 2.0 ** (2.0 / q) * delta) / (1.0 - delta)
        c0 = lead * math.sqrt(inner)
    except (OverflowError, ZeroDivisionError):
        c0 = math.inf
    c1 = _c1_from_c0(c0, delta)  # finite only when c0 is
    if not math.isfinite(c1):  # the regime applies; its constants leave the floats
        raise ContractViolation("lq constants overflow at q = %.10g, delta = %.10g" % (q, delta))
    return c0, c1


def error_bound(c0: float, c1: float, tail: float, s: int, eps: float,
                q: float = 1.0) -> float:
    """Reconstruction-error bound  C0 * tail / s^(1/q - 1/2) + C1 * eps."""
    if min(c0, c1, tail, eps) < 0 or s < 1:
        raise ContractViolation("error_bound inputs must be nonnegative, s >= 1")
    if not 0.0 < q <= 1.0:
        raise ContractViolation("q must be in (0, 1]")
    return c0 * tail / s ** (1.0 / q - 0.5) + c1 * eps


# ---------------------------------------------------------------------------
# applicability certificates


@dataclass(frozen=True)
class GuaranteeCertificate:
    regime: str
    delta_2s: float
    s: int
    q: float
    rho: Optional[float]
    C0: Optional[float]
    C1: Optional[float]
    q0: Optional[float]
    applicable: bool
    precondition_text: str


def _check_finite_nonnegative(name: str, value: float):
    if not 0.0 <= value < math.inf:
        raise ContractViolation("%s must be a finite number >= 0, got %r" % (name, value))


def certify(delta_2s: float, n: int, s: int, q_opt: Optional[float] = None
            ) -> List[GuaranteeCertificate]:
    """One certificate per regime: general, special, then lq when q_opt is
    given.  Inapplicable regimes are reported with applicable=False, never
    as errors."""
    _check_finite_nonnegative("delta_2s", delta_2s)
    if n < 1 or s < 1:
        raise ContractViolation("n and s must be >= 1")
    if q_opt is not None and not 0.0 < q_opt <= 1.0:
        raise ContractViolation("q must be in (0, 1]")

    def cert(regime, text, rho, rho_domain, constants, q=None, q0=None, other_holds=True):
        # rho where it is defined (delta < rho_domain); C0 and C1 where
        # other_holds (a precondition not about delta) and constants admits
        # delta (and q, which rho and constants then take too)
        args = (delta_2s,) if q is None else (delta_2s, q)
        c0 = c1 = None
        if other_holds:
            try:
                c0, c1 = constants(*args)
            except NotApplicableError:
                pass
        return GuaranteeCertificate(
            regime=regime, delta_2s=delta_2s, s=s, q=1.0 if q is None else q,
            rho=rho(*args) if delta_2s < rho_domain else None, C0=c0, C1=c1, q0=q0,
            applicable=c0 is not None, precondition_text=text)

    certs = [cert(REGIME_GENERAL, "delta_2s < (77 - sqrt(1337))/82 ~ 0.4931",
                  rho_general, 2.0 / 3.0, constants_general),
             cert(REGIME_SPECIAL, "n <= 4 s and delta_2s < 4 sqrt(2) - 5 ~ 0.656",
                  rho_special, 1.0, constants_special, other_holds=n <= 4 * s)]
    if q_opt is not None:
        certs.append(cert(REGIME_LQ, "delta_2s < 1/2 and q < q0(delta_2s)",
                          rho_q, 1.0, constants_q, q=q_opt,
                          q0=q_zero(delta_2s) if delta_2s < 0.5 else None))
    return certs


# ---------------------------------------------------------------------------
# block partitions


def block_partition(x_f, x_h, s: int) -> Tuple[Tuple[int, ...], ...]:
    """Index blocks T_0, T_1, ..., T_l.

    T_0 is the s-term head of x_f; the remaining indices, ordered by the
    same rule on |x_h| (`frames.s_term_head`: largest first, ties to the
    lowest index, which makes the partition deterministic), are chopped
    into consecutive blocks of size s (the last may be smaller).  Each block
    is sorted.
    """
    x_f = as_vector(x_f)
    x_h = as_vector(x_h)
    d = x_f.shape[0]
    if x_h.shape[0] != d:
        raise ContractViolation("x_f and x_h must have equal length")
    if not 1 <= s <= d:
        raise ContractViolation("s must satisfy 1 <= s <= d")

    head = s_term_head(x_f, s)
    rest_mask = np.ones(d, dtype=bool)
    rest_mask[head] = False
    rest = np.flatnonzero(rest_mask)
    rest = rest[s_term_head(x_h[rest], rest.shape[0])]
    chunks = [head] + [rest[start:start + s] for start in range(0, rest.shape[0], s)]
    return tuple(tuple(sorted(int(i) for i in chunk)) for chunk in chunks)


def _first_share(mass: np.ndarray) -> float:
    """omega: the share of the tail mass sum(mass[1:]) carried by T_1, and 0
    when there is no tail block or the tail mass vanishes.  One summation of
    one array, so the share never exceeds 1."""
    tail = float(mass[1:].sum())
    return float(mass[1]) / tail if tail > 0.0 else 0.0


# ---------------------------------------------------------------------------
# inequality audits


@dataclass(frozen=True)
class InequalityAuditRecord:
    lemma_id: str
    lhs: float
    rhs: float
    slack: float
    holds: bool
    intermediates: Dict[str, float] = field(default_factory=dict)


def _record(lemma_id: str, lhs: float, rhs: float, **intermediates) -> InequalityAuditRecord:
    slack = rhs - lhs
    holds = slack >= -AUDIT_RTOL * max(1.0, abs(rhs))
    clean = {k: (float(v) if isinstance(v, (int, float, np.floating)) else v)
             for k, v in intermediates.items()}
    return InequalityAuditRecord(lemma_id=lemma_id, lhs=float(lhs), rhs=float(rhs),
                                 slack=float(slack), holds=bool(holds),
                                 intermediates=clean)


def _worst_record(lemma_id: str, cases) -> InequalityAuditRecord:
    """One record for a family of instances of an inequality: the case
    (lhs, rhs, intermediates) with the largest lhs - rhs, the first on ties,
    or a vacuous 0 <= 0 when the family is empty."""
    worst = max(cases, key=lambda c: c[0] - c[1], default=None)
    if worst is None:
        return _record(lemma_id, 0.0, 0.0, vacuous=1.0)
    return _record(lemma_id, worst[0], worst[1], **worst[2])


def surrogate_gate(x_hat, x_true, q: float) -> Tuple[bool, float, float]:
    """The minimizer-surrogate gate on analysis coefficients D* f_hat and
    D* f: (holds, objective of x_hat, objective of x_true), the objective
    being sum |x_i|^q (the l1 norm at q = 1).  The guarantees only speak of
    a candidate that does not beat the true signal's objective, up to the
    relative round-off slack SURROGATE_RTOL."""
    obj_hat = lq_mass(x_hat, q)
    obj_true = lq_mass(x_true, q)
    return obj_hat <= obj_true * (1.0 + SURROGATE_RTOL), obj_hat, obj_true


def audit_lemmas(frame: TightFrame, a, f, f_hat, s: int, q: float, eps: float,
                 delta_2s: float, y=None) -> List[InequalityAuditRecord]:
    """Numerically audit the inequality chain on one concrete instance.

    delta_2s must be the exact order-2s isometry constant of (a, frame).
    The analysis coefficients of h = f_hat - f are split once into the
    blocks T_0, ..., T_l of block_partition, and one table, row j holding
    D* h on T_j, gives every per-block quantity as a row reduction: the l2,
    l1 and lq^q norms, the images under D and A D, and the shares omega
    (l1) and omega_q (lq^q) of T_1 in the tail mass.  Each audited
    inequality yields one record with its left side, right side, slack, and
    proof intermediates.  Hypothesis checks are hard preconditions:

      * f_hat (and f) must be feasible: within eps of y when y is given,
        otherwise ||A h|| <= 2 eps up to solver tolerance;
      * the result being checked must not beat the true signal's objective
        in the norm of its own program (minimizer surrogate, surrogate_gate):
        l1 for q = 1, lq^q for q < 1.

    Inequalities whose extra hypotheses fail (the surrogate of the *other*
    norm, a regime whose certify certificate is not applicable, or the
    short-partition requirement of the n <= 4s chain) are skipped rather
    than reported as violations.
    """
    a = frame.check_matrix(a)
    f = as_vector(f)
    f_hat = as_vector(f_hat)
    # certify also rejects a bad delta_2s, s or q
    general, special, lq = certify(delta_2s, frame.n, s, q_opt=q)
    _check_finite_nonnegative("eps", eps)
    if f.shape[0] != frame.n or f_hat.shape[0] != frame.n:
        raise ContractViolation("the signals must have the frame's %d entries" % frame.n)

    dmat = frame.matrix
    h = f_hat - f
    xf = dmat.T @ f
    xh = dmat.T @ h

    feas_slack = feasibility_slack(eps)
    if y is not None:
        y = as_vector(y)
        if y.shape[0] != a.shape[0]:
            raise ContractViolation("y length %d != m=%d" % (y.shape[0], a.shape[0]))
        res_hat = float(np.linalg.norm(a @ f_hat - y))
        res_true = float(np.linalg.norm(a @ f - y))
        if res_hat > eps + feas_slack:
            raise ContractViolation(
                "candidate is infeasible: ||A f_hat - y|| = %g > eps = %g" % (res_hat, eps)
            )
        if res_true > eps + feas_slack:
            raise ContractViolation(
                "true signal is infeasible: ||A f - y|| = %g > eps = %g" % (res_true, eps)
            )
    else:
        ah = float(np.linalg.norm(a @ h))
        if ah > 2.0 * eps + 2.0 * feas_slack:
            raise ContractViolation(
                "||A (f_hat - f)|| = %g exceeds 2 eps = %g" % (ah, 2.0 * eps)
            )

    x_hat = dmat.T @ f_hat
    l1_gate, l1_hat, l1_true = surrogate_gate(x_hat, xf, 1.0)
    lq_gate, lqq_hat, lqq_true = surrogate_gate(x_hat, xf, q)
    if not lq_gate:
        norm = "1" if q == 1.0 else "q^q"
        raise ContractViolation(
            "minimizer surrogate violated: ||D* f_hat||_%s = %.17g > ||D* f||_%s = %.17g"
            % (norm, lqq_hat, norm, lqq_true)
        )

    blocks = block_partition(xf, xh, s)
    l = len(blocks) - 1

    # the block table: row j of coef is D* h on T_j (zero elsewhere), and
    # spread[j] the largest minus the smallest |entry| of T_j, a short block
    # padded with zeros; every per-block quantity is a row reduction of it
    coef = np.zeros((l + 1, xh.shape[0]))
    spread = np.zeros(l + 1)
    for j, blk in enumerate(blocks):
        idx = list(blk)
        coef[j, idx] = xh[idx]
        block_mags = np.abs(xh[idx])
        spread[j] = block_mags.max() - (block_mags.min() if len(idx) == s else 0.0)
    dz = coef @ dmat.T   # row j: D applied to block j
    adz = dz @ a.T       # row j: A D applied to block j
    sq = (coef * coef).sum(axis=1)  # squared l2 norms
    l2 = np.sqrt(sq)
    l1 = lq_mass(coef, 1.0, axis=1)
    lqq = lq_mass(coef, q, axis=1)  # lq^q masses
    omega1 = _first_share(l1)
    omega_q = _first_share(lqq)

    sum_l2_tail = float(l2[2:].sum())
    sum_sq_tail = float(sq[2:].sum())
    sum_l1_blocks = float(l1[1:].sum())
    sum_lqq_blocks = float(lqq[1:].sum())
    tail_energy = sum_sq_tail + delta_2s * sum_l2_tail ** 2
    # D* f off its head T_0, as frames.best_s_term drops it
    tail = xf.copy()
    tail[list(blocks[0])] = 0.0
    tail_l1, tail_lqq = lq_mass(tail, 1.0), lq_mass(tail, q)

    # images of T_2 u ... u T_l, of T_0 u T_1 and of T_2 u T_3, as row sums
    tail_image = adz[2:].sum(axis=0)
    adz01 = adz[:2].sum(axis=0)
    dz23, adz23 = dz[2:4].sum(axis=0), adz[2:4].sum(axis=0)
    head_image_sq = float(adz01 @ adz01)
    head_sq = float(sq[:2].sum())
    sq23 = float(sq[2:4].sum())

    def contraction_rhs_l1(rho):
        # the bound on the l1 block mass both l1 chains close with
        return (2.0 / (1.0 - rho) * tail_l1
                + 2.0 * math.sqrt(2.0) / ((1.0 - rho) * math.sqrt(1.0 - delta_2s))
                * math.sqrt(s) * eps)

    records = []

    # pairwise inner-product bound for s-sparse blocks
    dgram, agram = dz @ dz.T, adz @ adz.T
    dnorm = np.sqrt(np.diag(dgram))
    records.append(_worst_record("sparse_image_correlation", (
        (agram[i, j], delta_2s * dnorm[i] * dnorm[j] + dgram[i, j],
         {"block_i": i, "block_j": j})
        for i in range(l + 1) for j in range(i + 1, l + 1))))

    # energy of the summed far-tail image
    lhs_23 = float(tail_image @ tail_image)
    records.append(_record("far_tail_image_energy", lhs_23, tail_energy))
    records.append(_record("far_tail_vs_head_energy", lhs_23 - head_image_sq,
                           tail_energy - (1.0 - delta_2s) * head_sq))

    # far-tail energy against the l1 block masses
    rhs_31 = omega1 * (1.0 - omega1) / s * sum_l1_blocks ** 2
    records.append(_record("tail_l2_from_l1_mass", sum_sq_tail, rhs_31, omega=omega1))

    # per-block norm comparison feeding the sharpened estimate
    records.append(_worst_record("block_l2_l1_interpolation", (
        (math.sqrt(s) * l2[j], l1[j] + s * spread[j] / 4.0, {"block": j})
        for j in range(2, l + 1))))

    rhs_32 = (omega1 * (1.0 - omega1) + delta_2s * (1.0 - 0.75 * omega1) ** 2) / s \
        * sum_l1_blocks ** 2
    records.append(_record("weighted_tail_energy_l1", tail_energy, rhs_32, omega=omega1))

    ah_norm = float(np.linalg.norm(a @ h))
    records.append(_record("feasibility_gap", ah_norm, 2.0 * eps))

    if l1_gate:
        records.append(_record("cone_l1", sum_l1_blocks, 2.0 * tail_l1 + l1[0],
                               objective_gap=l1_true - l1_hat))

        if general.applicable:
            records.append(_record("block_mass_contraction_l1", sum_l1_blocks,
                                   contraction_rhs_l1(general.rho),
                                   N=math.sqrt(max(tail_energy, 0.0)),
                                   rho=general.rho, omega=omega1))

    # short-partition chain (meaningful whenever at most three tail blocks)
    lhs_34a = float(adz23 @ adz23)
    mid_34 = (1.0 + delta_2s) * float(dz23 @ dz23)
    rhs_34b = (1.0 + delta_2s) * sq23
    records.append(_record("short_tail_image_energy", lhs_34a, mid_34))
    records.append(_record("short_tail_synthesis_energy", mid_34, rhs_34b))
    if l <= 3:
        # only then do T_2, T_3 exhaust everything past T_01, which the
        # identity behind this estimate requires
        records.append(_record("short_tail_vs_head_energy",
                               lhs_34a - head_image_sq,
                               rhs_34b - (1.0 - delta_2s) * head_sq))

    # l <= 3 means d <= 4s, and so n <= 4s
    if l1_gate and l <= 3 and special.applicable:
        records.append(_record("block_mass_contraction_short", sum_l1_blocks,
                               contraction_rhs_l1(special.rho),
                               N=math.sqrt((1.0 + delta_2s) * sq23),
                               rho=special.rho, omega=omega1))

    # lq chain (at q = 1 it coincides with the l1 chain)
    exp_tail = (2.0 - q) / q
    rhs_41 = (1.0 - omega_q) * omega_q ** exp_tail / s ** exp_tail \
        * sum_lqq_blocks ** (2.0 / q)
    records.append(_record("tail_l2_from_lq_mass", sum_sq_tail, rhs_41, omega_q=omega_q))

    records.append(_worst_record("block_l2_lq_interpolation", (
        (s ** (1.0 / q - 0.5) * l2[j], lqq[j] ** (1.0 / q) + s ** (1.0 / q) * spread[j],
         {"block": j})
        for j in range(2, l + 1))))

    rhs_42 = ((1.0 - omega_q) * omega_q ** exp_tail + delta_2s) / s ** (2.0 / q - 1.0) \
        * sum_lqq_blocks ** (2.0 / q)
    records.append(_record("weighted_tail_energy_lq", tail_energy, rhs_42, omega_q=omega_q))

    records.append(_record("cone_lq", sum_lqq_blocks, 2.0 * tail_lqq + lqq[0],
                           objective_gap=lqq_true - lqq_hat))

    if lq.applicable:
        denom = (1.0 - lq.rho ** q) ** (1.0 / q)
        rhs = (2.0 ** (2.0 / q - 1.0) / denom * tail_lqq ** (1.0 / q)
               + 2.0 ** (2.0 / q - 0.5) * s ** (1.0 / q - 0.5) * eps
               / (denom * math.sqrt(1.0 - delta_2s)))
        records.append(_record("block_mass_contraction_lq", sum_lqq_blocks ** (1.0 / q), rhs,
                               N=math.sqrt(max(tail_energy, 0.0)), rho_q=lq.rho,
                               omega_q=omega_q, q0=lq.q0))

    return records
