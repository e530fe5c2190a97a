"""Correctness checks made apart from ``framecs``.

Nothing here calls into ``framecs``: inputs are regenerated from the seeds a
record carries, following the documented recipes (N(0, 1/m) Gaussian
matrices; random tight frames as the first n rows of the orthogonal factor
of a seeded Gaussian d x d matrix), and the isometry constant comes from the
generalized per-support eigenproblem solved by ``scipy.linalg.eigh``.  Each
check returns a list of failure messages; an empty list means it passed.
"""

import math
from itertools import combinations

import numpy as np
import scipy.linalg

_MASK = (1 << 63) - 1
DELTA_ATOL = 1e-9
DCT_ERR = 1e-4


def _rng(seed):
    return np.random.default_rng(np.random.SeedSequence(int(seed) & _MASK))


def gaussian_matrix(m, n, seed):
    return _rng(seed).standard_normal((m, n)) / math.sqrt(m)


def random_tight_frame(n, d, seed):
    q, r = np.linalg.qr(_rng(seed).standard_normal((d, d)))
    diag = np.diag(r)
    return (q * np.sign(np.where(diag == 0.0, 1.0, diag)))[:n, :]


def auto_min_delta(a, dmat, order):
    """Isometry constant of order `order` after the auto_min rescaling.

    On each support T the constant's quadratic form is the pencil
    (D_T* A* A D_T, D_T* D_T); with global extreme eigenvalues L_min, L_max
    the scale c^2 = 2 / (L_max + L_min) gives (L_max - L_min)/(L_max + L_min).
    """
    lo, hi = math.inf, -math.inf
    image = a @ dmat
    for support in combinations(range(dmat.shape[1]), order):
        cols = list(support)
        dt, at = dmat[:, cols], image[:, cols]
        w = scipy.linalg.eigh(at.T @ at, dt.T @ dt, eigvals_only=True)
        lo, hi = min(lo, w[0]), max(hi, w[-1])
    return (hi - lo) / (hi + lo)


def check_delta(label, rec):
    """The record's delta_2s against one recomputed from its seeds."""
    dmat = random_tight_frame(rec.n, rec.d, rec.seeds["frame"])
    a = gaussian_matrix(rec.m, rec.n, rec.seeds["matrix"])
    want = auto_min_delta(a, dmat, 2 * rec.s)
    if not abs(rec.delta_2s - want) <= DELTA_ATOL:
        return ["%s: delta_2s %.17g, independent %.17g" % (label, rec.delta_2s, want)]
    return []


def check_result(label, rec):
    """Checks on one trial's result: an ExperimentRecord or an AuditOutcome."""
    if hasattr(rec, "records"):
        return check_audit_outcome(label, rec)
    return check_bound(label, rec) + check_audit(label, rec)


def check_bound(label, rec):
    """err <= C0 tail / s^(1/q - 1/2) + C1 eps on every record marked ok."""
    if rec.status != "ok":
        return []
    q = 1.0 if rec.q is None else rec.q
    bound = rec.C0 * rec.tail / rec.s ** (1.0 / q - 0.5) + rec.C1 * rec.eps
    out = []
    if not rec.err_l2 <= bound * (1.0 + 1e-6):
        out.append("%s: err %.17g exceeds bound %.17g" % (label, rec.err_l2, bound))
    if rec.within_bound is not True:
        out.append("%s: status ok but within_bound is %r" % (label, rec.within_bound))
    return out


def check_audit(label, rec):
    if rec.audit_pass != rec.audit_total:
        return ["%s: audit %d/%d" % (label, rec.audit_pass, rec.audit_total)]
    return []


def check_audit_outcome(label, outcome):
    bad = [r[0] for r in outcome.records if not r[3]]
    if bad:
        return ["%s: audited records fail: %s" % (label, ", ".join(bad))]
    return []


def check_feasible(label, a, y, eps, f_hat):
    res = float(np.linalg.norm(a @ f_hat - y))
    if not res <= eps * (1.0 + 1e-6) + 1e-9:
        return ["%s: ||A f_hat - y|| = %.17g > eps = %.17g" % (label, res, eps)]
    return []


def check_exact_recovery(label, rec):
    if not rec.err_l2 <= DCT_ERR:
        return ["%s: err %.3g > %g" % (label, rec.err_l2, DCT_ERR)]
    return []


def check_same_bytes(label, first, second):
    if first != second:
        return ["%s: timed and traced passes wrote different bytes" % label]
    return []
