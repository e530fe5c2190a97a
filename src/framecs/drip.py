"""Restricted isometry constants adapted to a tight frame.

The constant of order s is the smallest delta with

    (1 - delta) ||Dv||^2 <= ||ADv||^2 <= (1 + delta) ||Dv||^2

over all s-sparse coefficient vectors v.  At desk scale it is computed
exactly by enumerating supports: on each support T the quadratic form is
restricted to an orthonormal basis of range(D_T), which handles linearly
dependent frame columns without generalized eigensolvers, and directions
with Dv = 0 impose no constraint.  Enumerating only |T| = s suffices since
range(D_T') is contained in range(D_T) for T' inside T.

Every public function here is a reduction over one kernel,
`support_spectra`, which treats a chunk of supports with one stacked SVD
and one batched eigensolve per rank.  A pass keeps only the global
extremes of the per-support spectra (`SpectrumExtremes`); since scaling A
by c maps every spectrum by c^2, one pass gives the constant at any scale.
"""

import math
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Iterable, Optional, Tuple

import numpy as np

from .errors import ContractViolation, EnumerationLimitError
from .frames import TightFrame
from .linalg import DEFAULT_TOL, as_matrix
from .rng import rng_from_seed
from .serialize import json_dumps

# Keeps exact computation under minutes at desk scale; past this only the
# randomized lower bound is offered -- never a silently approximate "exact".
ENUMERATION_LIMIT = 10**7

# Bound on the floats of the kernel's largest temporaries (the stacked D_T,
# U_T and images A U_T of one chunk of supports of size s): chunks amortize
# the per-call overhead while peak memory stays flat in C(d, s) and in m.
CHUNK_FLOATS = 2**15

METHOD_EXACT = "exact"
METHOD_LOWER = "random_lower_bound"


@dataclass(frozen=True)
class RipReport:
    s: int
    delta: float
    witness_support: Tuple[int, ...]
    method: str
    supports_examined: int

    def to_json_dict(self):
        return {
            "s": self.s,
            "delta": self.delta,
            "method": self.method,
            "witness_support": list(self.witness_support),
            "supports_examined": self.supports_examined,
        }

    def to_json(self) -> str:
        return json_dumps(self.to_json_dict())


def _check_shapes(a: np.ndarray, frame: TightFrame):
    if a.shape[1] != frame.n:
        raise ContractViolation(
            "measurement matrix has %d columns but the frame is %d-dimensional"
            % (a.shape[1], frame.n)
        )


def _checked(a, frame: TightFrame, s: int) -> np.ndarray:
    a = as_matrix(a)
    _check_shapes(a, frame)
    if not 1 <= s <= frame.d:
        raise ContractViolation("s must satisfy 1 <= s <= d")
    return a


def _extreme(lo: float, hi: float) -> float:
    return max(hi - 1.0, 1.0 - lo)


def _restricted_extremes(a: np.ndarray, basis: np.ndarray):
    # (A U)^T (A U) rather than U^T (A^T A) U: the same product, in the same
    # order, as a one-support-at-a-time evaluation, so every eigenvalue (and
    # with it every scale picked from them) is reproduced bit for bit
    image = a @ basis
    w = np.linalg.eigvalsh(image.transpose(0, 2, 1) @ image)
    return w[:, 0], w[:, -1]


def _spectra(a: np.ndarray, mat: np.ndarray, idx: np.ndarray):
    """Kernel body: (lo, hi) per row of the support index array `idx`."""
    k, t = idx.shape
    lo = np.full(k, np.inf)
    hi = np.full(k, -np.inf)
    if t == 0:
        return lo, hi
    u, sv, _ = np.linalg.svd(mat[:, idx].transpose(1, 0, 2), full_matrices=False)
    # the package-wide rank rule: sigma > tol * sigma_max, and rank 0 when
    # sigma_max <= 0
    top = sv[:, :1]
    rank = np.count_nonzero(sv > DEFAULT_TOL * top, axis=1)
    rank[top[:, 0] <= 0.0] = 0
    full = u.shape[2]
    if np.all(rank == full):
        return _restricted_extremes(a, u)
    for r in range(1, full + 1):
        sel = np.flatnonzero(rank == r)
        if sel.size:
            lo[sel], hi[sel] = _restricted_extremes(a, u[sel, :, :r])
    return lo, hi


def support_spectra(a, frame: TightFrame, supports) -> Tuple[np.ndarray, np.ndarray]:
    """Extreme eigenvalues (lo, hi) of the measurement quadratic form on
    range(D_T), for each support T (a row of `supports`).

    The form is restricted to the left singular vectors of D_T with
    sigma > DEFAULT_TOL * sigma_max.  A rank-zero support has an empty
    spectrum, reported as (+inf, -inf): it imposes no constraint.
    """
    a = as_matrix(a)
    _check_shapes(a, frame)
    idx = np.asarray(supports, dtype=np.intp)
    if idx.ndim != 2:
        raise ContractViolation("supports must be a 2-d array of column indices")
    if idx.size and not (0 <= idx.min() and idx.max() < frame.d):
        raise ContractViolation("support indices must lie in [0, %d)" % frame.d)
    return _spectra(a, frame.matrix, idx)


@dataclass(frozen=True)
class SpectrumExtremes:
    """The global extremes of the per-support spectra over a stream of
    supports.  Each `*_at` is (position in the stream, support) of the first
    support reaching that extreme; `null_at` marks the first rank-zero
    support, if any, whose deviation is 0 at every scale.
    """

    lo: float
    lo_at: Tuple[int, Tuple[int, ...]]
    hi: float
    hi_at: Tuple[int, Tuple[int, ...]]
    null_at: Optional[Tuple[int, Tuple[int, ...]]]
    supports_examined: int

    def spectrum_range(self) -> Tuple[float, float]:
        """(lambda_min, lambda_max), a rank-zero support counting as (1, 1)."""
        lo, hi = self.lo, self.hi
        if self.null_at is not None:
            lo, hi = min(lo, 1.0), max(hi, 1.0)
        return float(lo), float(hi)

    def report(self, s: int, scale2: float = 1.0, method: str = METHOD_EXACT) -> RipReport:
        """The constant of A scaled by sqrt(scale2):
        max(scale2 hi - 1, 1 - scale2 lo), the earliest extreme winning ties."""
        candidates = []
        if self.null_at is not None:
            candidates.append((0.0, self.null_at))
        if math.isfinite(self.hi):
            candidates.append((scale2 * self.hi - 1.0, self.hi_at))
            candidates.append((1.0 - scale2 * self.lo, self.lo_at))
        delta, (_, witness) = max(candidates, key=lambda c: (c[0], -c[1][0]))
        return RipReport(s=int(s), delta=float(delta), witness_support=witness,
                         method=method, supports_examined=self.supports_examined)


def _scan(a: np.ndarray, frame: TightFrame, s: int, supports: Iterable) -> SpectrumExtremes:
    mat = frame.matrix
    chunk_size = max(1, CHUNK_FLOATS // (max(a.shape[0], frame.n) * s))
    lo, lo_at = np.inf, (0, ())
    hi, hi_at = -np.inf, (0, ())
    null_at = None
    stream = iter(supports)
    start = 0
    while True:
        chunk = list(islice(stream, chunk_size))
        if not chunk:
            break
        c_lo, c_hi = _spectra(a, mat, np.array(chunk, dtype=np.intp))
        i = int(np.argmin(c_lo))
        if c_lo[i] < lo:
            lo, lo_at = float(c_lo[i]), (start + i, chunk[i])
        i = int(np.argmax(c_hi))
        if c_hi[i] > hi:
            hi, hi_at = float(c_hi[i]), (start + i, chunk[i])
        if null_at is None:
            empty = np.flatnonzero(np.isposinf(c_lo))
            if empty.size:
                null_at = (start + int(empty[0]), chunk[empty[0]])
        start += len(chunk)
    return SpectrumExtremes(lo=lo, lo_at=lo_at, hi=hi, hi_at=hi_at,
                            null_at=null_at, supports_examined=start)


def spectrum_extremes(a, frame: TightFrame, s: int) -> SpectrumExtremes:
    """One exact pass over all C(d, s) supports, in lexicographic order."""
    a = _checked(a, frame, s)
    d = frame.d
    count = math.comb(d, s)
    if count > ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            "C(%d, %d) = %d supports exceeds the exact budget %d; "
            "use random_lower_bound instead" % (d, s, count, ENUMERATION_LIMIT)
        )
    return _scan(a, frame, s, combinations(range(d), s))


def exact_drip(a, frame: TightFrame, s: int) -> RipReport:
    """Exact frame-adapted restricted isometry constant by enumeration."""
    return spectrum_extremes(a, frame, s).report(s)


def support_spectrum_range(a, frame: TightFrame, s: int) -> Tuple[float, float]:
    """Global (lambda_min, lambda_max) of the per-support quadratic forms at
    order s.  Useful for rescaling a measurement matrix to a target constant:
    scaling A by c maps the range to (c^2 lambda_min, c^2 lambda_max)."""
    return spectrum_extremes(a, frame, s).spectrum_range()


def exact_rip(a, s: int) -> RipReport:
    """Classical restricted isometry constant (identity dictionary)."""
    a = as_matrix(a)
    n = a.shape[1]
    if not 1 <= s <= n:
        raise ContractViolation("s must satisfy 1 <= s <= n")
    count = math.comb(n, s)
    if count > ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            "C(%d, %d) = %d supports exceeds the exact budget %d"
            % (n, s, count, ENUMERATION_LIMIT)
        )
    gram = a.T @ a
    delta = -1.0
    witness: Tuple[int, ...] = ()
    for support in combinations(range(n), s):
        idx = list(support)
        w = np.linalg.eigvalsh(gram[np.ix_(idx, idx)])
        dev = _extreme(float(w[0]), float(w[-1]))
        if dev > delta:
            delta = dev
            witness = support
    return RipReport(s=int(s), delta=float(delta), witness_support=witness,
                     method=METHOD_EXACT, supports_examined=count)


def random_spectrum_extremes(a, frame: TightFrame, s: int, trials: int,
                             seed: int) -> SpectrumExtremes:
    """One pass over `trials` seeded random supports, each sorted, in draw
    order; its extremes lie inside those of the exact pass."""
    a = _checked(a, frame, s)
    if trials < 1:
        raise ContractViolation("trials must be >= 1")
    rng = rng_from_seed(seed)
    draws = (tuple(sorted(rng.choice(frame.d, size=s, replace=False).tolist()))
             for _ in range(trials))
    return _scan(a, frame, s, draws)


def random_lower_bound(a, frame: TightFrame, s: int, trials: int, seed: int) -> RipReport:
    """Lower bound on the exact constant from seeded random supports."""
    return random_spectrum_extremes(a, frame, s, trials, seed).report(s, method=METHOD_LOWER)


def support_deviation(a, frame: TightFrame, support) -> float:
    """Re-evaluate the deviation on one support (witness validation)."""
    lo, hi = support_spectra(a, frame, [tuple(support)])
    if np.isposinf(lo[0]):
        return 0.0
    return _extreme(float(lo[0]), float(hi[0]))
