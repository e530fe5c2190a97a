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
from them, and audit_lemmas and experiment.run_trial read those.
"""

import bisect
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import ContractViolation, NotApplicableError
from .frames import TightFrame
from .linalg import as_matrix, as_vector

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
    """Largest q in (0, 1] with rho_q(delta, q) < 1 for all smaller q.

    Returns 1 when rho_q(delta, 1) < 1; otherwise the root of
    rho_q(delta, .) = 1, bracketed by the first point of a fixed grid with
    rho_q >= 1 (found by binary search: rho_q(delta, .) is increasing in q)
    and refined by bisection to absolute tolerance 1e-9.
    """
    if not 0.0 <= delta < 0.5:
        raise ContractViolation("q_zero needs 0 <= delta < 1/2, got %g" % delta)
    if rho_q(delta, 1.0) < 1.0:
        return 1.0
    # grid[-1] is exactly 1.0, where rho_q >= 1, so the search finds a point
    grid = np.linspace(1e-6, 1.0, 2049)
    k = bisect.bisect_left(grid, True, lo=1, key=lambda qv: rho_q(delta, float(qv)) >= 1.0)
    lo, hi = float(grid[k - 1]), float(grid[k])
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if rho_q(delta, mid) < 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-9:
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# error-bound constants


def _c1_from_c0(c0: float, delta: float) -> float:
    return 2.0 / math.sqrt(1.0 - delta) * (1.0 + c0 / math.sqrt(2.0))


def constants_general(delta: float) -> Tuple[float, float]:
    thr = threshold_general()
    if not 0.0 <= delta < thr:
        raise NotApplicableError(
            "general l1 guarantee needs delta < %.10g, got %.10g" % (thr, delta))
    rho = rho_general(delta)
    c0 = 4.0 / (1.0 - rho) * math.sqrt(
        2.0 * (2.0 - delta) / ((1.0 - delta) * (32.0 - 25.0 * delta))
    )
    return c0, _c1_from_c0(c0, delta)


def constants_special(delta: float) -> Tuple[float, float]:
    thr = threshold_special()
    if not 0.0 <= delta < thr:
        raise NotApplicableError(
            "special-case guarantee needs delta < %.10g, got %.10g" % (thr, delta))
    rho = rho_special(delta)
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
    try:
        rho_pow_q = rho_q(delta, q) ** q
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


_NOT_APPLICABLE = {"C0": None, "C1": None, "applicable": False}


def _constant_fields(constants, *args) -> Dict:
    """C0, C1 and applicable of a certificate, from one constants_* call."""
    try:
        c0, c1 = constants(*args)
    except NotApplicableError:
        return _NOT_APPLICABLE
    return {"C0": c0, "C1": c1, "applicable": True}


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
    certs = [GuaranteeCertificate(
        regime=REGIME_GENERAL, delta_2s=delta_2s, s=s, q=1.0,
        rho=rho_general(delta_2s) if delta_2s < 2.0 / 3.0 else None, q0=None,
        precondition_text="delta_2s < (77 - sqrt(1337))/82 ~ 0.4931",
        **_constant_fields(constants_general, delta_2s),
    ), GuaranteeCertificate(
        regime=REGIME_SPECIAL, delta_2s=delta_2s, s=s, q=1.0,
        rho=rho_special(delta_2s) if delta_2s < 1.0 else None, q0=None,
        precondition_text="n <= 4 s and delta_2s < 4 sqrt(2) - 5 ~ 0.656",
        # n <= 4 s is the one precondition that is not about delta
        **(_constant_fields(constants_special, delta_2s) if n <= 4 * s else _NOT_APPLICABLE),
    )]
    if q_opt is not None:
        certs.append(GuaranteeCertificate(
            regime=REGIME_LQ, delta_2s=delta_2s, s=s, q=q_opt,
            rho=rho_q(delta_2s, q_opt) if delta_2s < 1.0 else None,
            q0=q_zero(delta_2s) if delta_2s < 0.5 else None,
            precondition_text="delta_2s < 1/2 and q < q0(delta_2s)",
            **_constant_fields(constants_q, delta_2s, q_opt),
        ))
    return certs


# ---------------------------------------------------------------------------
# block partitions


@dataclass(frozen=True)
class BlockPartition:
    """Index blocks T_0, T_1, ..., T_l and the share omega of the first
    off-support block.

    T_0 holds the s largest |x_f| entries; the remaining indices are sorted
    by |x_h| descending and chopped into consecutive blocks of size s (the
    last may be smaller).  Ties always resolve to the lowest index, which
    makes the partition deterministic.  omega is the fraction of the
    off-support mass (l1, or lq^q for q < 1) carried by T_1, and 0 when that
    mass vanishes.
    """

    s: int
    blocks: Tuple[Tuple[int, ...], ...]
    omega: float

    @property
    def l(self) -> int:
        return len(self.blocks) - 1


def block_partition(x_f, x_h, s: int, q: float = 1.0) -> BlockPartition:
    x_f = as_vector(x_f)
    x_h = as_vector(x_h)
    d = x_f.shape[0]
    if x_h.shape[0] != d:
        raise ContractViolation("x_f and x_h must have equal length")
    if not 1 <= s <= d:
        raise ContractViolation("s must satisfy 1 <= s <= d")
    if not 0.0 < q <= 1.0:
        raise ContractViolation("q must be in (0, 1]")

    head = np.argsort(-np.abs(x_f), kind="stable")[:s]
    t0 = tuple(sorted(int(i) for i in head))
    rest_mask = np.ones(d, dtype=bool)
    rest_mask[list(t0)] = False
    rest = np.flatnonzero(rest_mask)
    rest = rest[np.argsort(-np.abs(x_h[rest]), kind="stable")]

    blocks = [t0]
    for start in range(0, rest.shape[0], s):
        chunk = rest[start:start + s]
        blocks.append(tuple(sorted(int(i) for i in chunk)))

    mass = np.abs(x_h[rest]) ** q
    total = float(mass.sum())
    if total == 0.0 or len(blocks) == 1:
        omega = 0.0
    else:
        first = float(np.sum(np.abs(x_h[list(blocks[1])]) ** q))
        omega = min(1.0, first / total)
    return BlockPartition(s=int(s), blocks=tuple(blocks), omega=omega)


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


def _lq_q(v: np.ndarray, q: float) -> float:
    return float(np.sum(np.abs(v) ** q))


def surrogate_gate(x_hat, x_true, q: float) -> Tuple[bool, float, float]:
    """The minimizer-surrogate gate on analysis coefficients D* f_hat and
    D* f: (holds, objective of x_hat, objective of x_true), the objective
    being sum |x_i|^q (the l1 norm at q = 1).  The guarantees only speak of
    a candidate that does not beat the true signal's objective, up to the
    relative round-off slack SURROGATE_RTOL."""
    obj_hat = _lq_q(x_hat, q)
    obj_true = _lq_q(x_true, q)
    return obj_hat <= obj_true * (1.0 + SURROGATE_RTOL), obj_hat, obj_true


def audit_lemmas(frame: TightFrame, a, f, f_hat, s: int, q: float, eps: float,
                 delta_2s: float, y=None) -> List[InequalityAuditRecord]:
    """Numerically audit the inequality chain on one concrete instance.

    delta_2s must be the exact order-2s isometry constant of (a, frame).
    The difference h = f_hat - f is partitioned into blocks; each audited
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
    a = as_matrix(a)
    f = as_vector(f)
    f_hat = as_vector(f_hat)
    # certify also rejects a bad delta_2s, s or q
    general, special, lq = certify(delta_2s, frame.n, s, q_opt=q)
    _check_finite_nonnegative("eps", eps)
    if a.shape[1] != frame.n or f.shape[0] != frame.n or f_hat.shape[0] != frame.n:
        raise ContractViolation("shape mismatch between matrix, frame, and signals")

    dmat = frame.matrix
    h = f_hat - f
    xf = dmat.T @ f
    xh = dmat.T @ h

    feas_slack = eps * 1e-6 + 1e-9
    if y is not None:
        y = as_vector(y)
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

    part = block_partition(xf, xh, s)
    omega1 = part.omega
    omega_q = block_partition(xf, xh, s, q).omega if q < 1.0 else omega1
    blocks = part.blocks
    l = part.l

    # per-block coefficient restrictions and their images
    coef = []        # xh restricted to each block (dense length-d vectors)
    dz = []          # D applied to each restriction
    adz = []         # A D applied to each restriction
    for blk in blocks:
        zj = np.zeros_like(xh)
        idx = list(blk)
        zj[idx] = xh[idx]
        coef.append(zj)
        dj = dmat @ zj
        dz.append(dj)
        adz.append(a @ dj)

    def block_l2(j):
        return float(np.linalg.norm(coef[j]))

    def block_l1(j):
        return float(np.abs(coef[j]).sum())

    def block_lq(j):
        return float(np.sum(np.abs(coef[j]) ** q) ** (1.0 / q))

    def block_lqq(j):
        return _lq_q(coef[j], q)

    def block_spread(j):
        # largest minus smallest |entry| of a tail block, a short one padded with zeros
        mags = np.abs(xh[list(blocks[j])])
        return float(mags.max()) - (float(mags.min()) if mags.size == part.s else 0.0)

    sum_l2_tail = sum(block_l2(j) for j in range(2, l + 1))
    sum_sq_tail = sum(block_l2(j) ** 2 for j in range(2, l + 1))
    sum_l1_blocks = sum(block_l1(j) for j in range(1, l + 1))
    sum_lqq_blocks = sum(block_lqq(j) for j in range(1, l + 1))
    tail_l1 = float(np.abs(xf).sum()) - float(np.abs(xf[list(blocks[0])]).sum())
    tail_lq = float(np.sum(np.abs(np.delete(xf, list(blocks[0]))) ** q) ** (1.0 / q))

    def contraction_rhs_l1(rho):
        # the bound on the l1 block mass both l1 chains close with
        return (2.0 / (1.0 - rho) * tail_l1
                + 2.0 * math.sqrt(2.0) / ((1.0 - rho) * math.sqrt(1.0 - delta_2s))
                * math.sqrt(s) * eps)

    records = []

    # pairwise inner-product bound for s-sparse blocks
    records.append(_worst_record("sparse_image_correlation", (
        (float(adz[i] @ adz[j]),
         delta_2s * np.linalg.norm(dz[i]) * np.linalg.norm(dz[j]) + float(dz[i] @ dz[j]),
         {"block_i": i, "block_j": j})
        for i in range(l + 1) for j in range(i + 1, l + 1))))

    # energy of the summed far-tail image
    tail_image = np.zeros(a.shape[0])
    for j in range(2, l + 1):
        tail_image = tail_image + adz[j]
    lhs_23 = float(tail_image @ tail_image)
    rhs_23 = sum_sq_tail + delta_2s * sum_l2_tail ** 2
    records.append(_record("far_tail_image_energy", lhs_23, rhs_23))

    z01 = coef[0] + (coef[1] if l >= 1 else 0.0)
    dz01 = dmat @ z01
    adz01 = a @ dz01
    l2_z01_sq = float(z01 @ z01)
    lhs_24 = lhs_23 - float(adz01 @ adz01)
    rhs_24 = rhs_23 - (1.0 - delta_2s) * l2_z01_sq
    records.append(_record("far_tail_vs_head_energy", lhs_24, rhs_24))

    # far-tail energy against the l1 block masses
    rhs_31 = omega1 * (1.0 - omega1) / s * sum_l1_blocks ** 2
    records.append(_record("tail_l2_from_l1_mass", sum_sq_tail, rhs_31, omega=omega1))

    # per-block norm comparison feeding the sharpened estimate
    records.append(_worst_record("block_l2_l1_interpolation", (
        (math.sqrt(s) * block_l2(j), block_l1(j) + s * block_spread(j) / 4.0, {"block": j})
        for j in range(2, l + 1))))

    rhs_32 = (omega1 * (1.0 - omega1) + delta_2s * (1.0 - 0.75 * omega1) ** 2) / s \
        * sum_l1_blocks ** 2
    lhs_32 = sum_sq_tail + delta_2s * sum_l2_tail ** 2
    records.append(_record("weighted_tail_energy_l1", lhs_32, rhs_32, omega=omega1))

    ah_norm = float(np.linalg.norm(a @ h))
    records.append(_record("feasibility_gap", ah_norm, 2.0 * eps))

    if l1_gate:
        rhs_cone = 2.0 * tail_l1 + block_l1(0)
        records.append(_record("cone_l1", sum_l1_blocks, rhs_cone,
                               objective_gap=l1_true - l1_hat))

        if general.applicable:
            records.append(_record("block_mass_contraction_l1", sum_l1_blocks,
                                   contraction_rhs_l1(general.rho),
                                   N=math.sqrt(max(lhs_32, 0.0)),
                                   rho=general.rho, omega=omega1))

    # short-partition chain (meaningful whenever at most three tail blocks)
    z23 = np.zeros_like(xh)
    for j in (2, 3):
        if j <= l:
            z23 = z23 + coef[j]
    dz23 = dmat @ z23
    adz23 = a @ dz23
    lhs_34a = float(adz23 @ adz23)
    mid_34 = (1.0 + delta_2s) * float(dz23 @ dz23)
    rhs_34b = (1.0 + delta_2s) * float(z23 @ z23)
    records.append(_record("short_tail_image_energy", lhs_34a, mid_34))
    records.append(_record("short_tail_synthesis_energy", mid_34, rhs_34b))
    if l <= 3:
        # only then do T_2, T_3 exhaust everything past T_01, which the
        # identity behind this estimate requires
        records.append(_record("short_tail_vs_head_energy",
                               lhs_34a - float(adz01 @ adz01),
                               rhs_34b - (1.0 - delta_2s) * l2_z01_sq))

    # l <= 3 means d <= 4s, and so n <= 4s
    if l1_gate and l <= 3 and special.applicable:
        records.append(_record("block_mass_contraction_short", sum_l1_blocks,
                               contraction_rhs_l1(special.rho),
                               N=math.sqrt(1.0 + delta_2s) * float(np.linalg.norm(z23)),
                               rho=special.rho, omega=omega1))

    # lq chain (at q = 1 it coincides with the l1 chain)
    exp_tail = (2.0 - q) / q
    rhs_41 = (1.0 - omega_q) * omega_q ** exp_tail / s ** exp_tail \
        * sum_lqq_blocks ** (2.0 / q)
    records.append(_record("tail_l2_from_lq_mass", sum_sq_tail, rhs_41, omega_q=omega_q))

    records.append(_worst_record("block_l2_lq_interpolation", (
        (s ** (1.0 / q - 0.5) * block_l2(j), block_lq(j) + s ** (1.0 / q) * block_spread(j),
         {"block": j})
        for j in range(2, l + 1))))

    rhs_42 = ((1.0 - omega_q) * omega_q ** exp_tail + delta_2s) / s ** (2.0 / q - 1.0) \
        * sum_lqq_blocks ** (2.0 / q)
    records.append(_record("weighted_tail_energy_lq", lhs_32, rhs_42, omega_q=omega_q))

    if lq_gate:
        rhs_cone_q = 2.0 * _lq_q(np.delete(xf, list(blocks[0])), q) + block_lqq(0)
        records.append(_record("cone_lq", sum_lqq_blocks, rhs_cone_q,
                               objective_gap=lqq_true - lqq_hat))

        if lq.applicable:
            denom = (1.0 - lq.rho ** q) ** (1.0 / q)
            rhs = (2.0 ** (2.0 / q - 1.0) / denom * tail_lq
                   + 2.0 ** (2.0 / q - 0.5) * s ** (1.0 / q - 0.5) * eps
                   / (denom * math.sqrt(1.0 - delta_2s)))
            records.append(_record("block_mass_contraction_lq", sum_lqq_blocks ** (1.0 / q), rhs,
                                   N=math.sqrt(max(lhs_32, 0.0)), rho_q=lq.rho,
                                   omega_q=omega_q, q0=lq.q0))

    return records
