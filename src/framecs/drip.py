"""Restricted isometry constants adapted to a tight frame.

The constant of order s is the smallest delta with

    (1 - delta) ||Dv||^2 <= ||ADv||^2 <= (1 + delta) ||Dv||^2

over all s-sparse coefficient vectors v.  At desk scale it is computed
exactly by enumerating supports: on each support T the quadratic form is
restricted to range(D_T), so linearly dependent frame columns need no
special case and directions with Dv = 0 impose no constraint.  Enumerating
only |T| = s suffices since range(D_T') is contained in range(D_T) for T'
inside T.

Every public function here is a reduction over one private kernel,
`_spectra`.  On each support T it takes the SVD of D_T, keeps the left
singular vectors U_T inside its `linalg.numeric_rank` (a basis of range(D_T);
a TightFrame has no zero column, so no D_T has rank 0) and reads the
spectrum off eigvalsh(U_T^T A^T A U_T).  A chunk of supports, an index
array from `support_chunks` (the one enumerator, which the l0 oracle also
reads), is one batched SVD and one batched eigvalsh per rank.  A pass keeps
only the global extremes of the per-support spectra (`SpectrumExtremes`);
since scaling A by c maps every spectrum by c^2, one pass gives the
constant at any scale.

A pass solves only the supports that could move those extremes.  Where D_T
has full column rank, the spectrum is that of the pencil (H_T, Phi_T) of the
|T| x |T| blocks of Phi = D^T D and H = (A D)^T (A D).  A pass forms once
the unit-diagonal pencil (K, G) = (R H R, R Phi R), R = diag(Phi)^-1/2,
whose blocks K_T - t G_T are congruent to H_T - t Phi_T.  In each chunk it
first solves the few supports whose diagonal quotients K_tt reach furthest
out.  It skips any other support T (and, after the first chunk, any of
those) once K_T - t G_T is proved negative definite at t just below the
highest eigenvalue so far and positive definite at t just above the lowest:
a Cholesky without pivoting, in numpy arithmetic, of each block shifted by
a multiple of the unit roundoff that covers forming and eliminating it
(Rump 2006) ends with every pivot positive.  A skipped support lies inside
the extremes by the relative margin INSIDE_RTOL, far above round-off, so it
could neither move nor tie one: the pass returns, to the bit, the
`SpectrumExtremes` of solving every support.
"""

import math
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Iterator, Tuple

import numpy as np

from .errors import ContractViolation, EnumerationLimitError
from .frames import TightFrame
from .linalg import numeric_rank
from .rng import rng_from_seed

# Keeps exact computation under minutes at desk scale; past this only the
# randomized lower bound is offered -- never a silently approximate "exact".
ENUMERATION_LIMIT = 10**7

# Bound on the floats of the kernel's largest temporaries (for a chunk of k
# supports of size s: the stacked n x s D_T and their bases U_T, and the
# gathered s x s blocks), k * max(n, s) * s; the exclusion test holds two
# s x s blocks per support.  The cosupport kernel of the solvers caps its
# batches of stacked [D*; A] at this many floats (its batched SVD and
# pseudo-inverse are a few times that).  Chunks amortize the per-call
# overhead while peak memory stays flat in C(d, s) and in m.
CHUNK_FLOATS = 2**15

# How far inside the extremes so far (relative to the larger) a skipped
# support is proved to lie: far above the kernel's round-off (~1e-14).
INSIDE_RTOL = 1e-9

# Supports per chunk solved first for each extreme (fewest matrices on held-out instances).
SEEDS = 12

METHOD_EXACT = "exact"
METHOD_LOWER = "random_lower_bound"


def check_budget(count: int, what: str, advice: str = "") -> None:
    """Refuse an exact enumeration of `count` supports (`what` says which)
    past ENUMERATION_LIMIT, appending `advice` to the error."""
    if count > ENUMERATION_LIMIT:
        raise EnumerationLimitError("%s = %d supports exceed the exact budget %d%s"
                                    % (what, count, ENUMERATION_LIMIT, advice))


@dataclass(frozen=True)
class RipReport:
    s: int
    delta: float
    method: str
    witness_support: Tuple[int, ...]
    supports_examined: int


def support_chunks(d: int, k: int, rows: int) -> Iterator[np.ndarray]:
    """The C(d, k) supports of size k in [0, d), in lexicographic order, as
    intp arrays of `rows` rows each (the last may be shorter), as successive
    islice(combinations(range(d), k), rows) would cut them.  k = 0 gives the
    one empty support."""
    total = math.comb(d, k)
    flat = chain.from_iterable(combinations(range(d), k))
    for start in range(0, total, rows):
        count = min(rows, total - start)
        yield np.fromiter(flat, dtype=np.intp, count=count * k).reshape(count, k)


def _chunk_rows(frame: TightFrame, s: int) -> int:
    return max(1, CHUNK_FLOATS // (max(frame.n, s) * s))


def _checked(a, frame: TightFrame, s: int) -> np.ndarray:
    a = frame.check_matrix(a)
    if not 1 <= s <= frame.d:
        raise ContractViolation("s must satisfy 1 <= s <= d")
    return a


def _spectra(mat: np.ndarray, gram: np.ndarray, idx: np.ndarray):
    """The kernel: (lo, hi) of U_T^T gram U_T per row T of the support index
    array `idx`, U_T the left singular vectors of D_T = mat[:, T] inside its
    `numeric_rank` (the package-wide rank rule)."""
    lo = np.empty(len(idx))
    hi = np.empty(len(idx))
    u, sv, _ = np.linalg.svd(mat[:, idx].transpose(1, 0, 2), full_matrices=False)
    rank = numeric_rank(sv)
    for r in range(1, u.shape[2] + 1):
        sel = np.flatnonzero(rank == r)
        if sel.size:
            basis = u[sel, :, :r]
            w = np.linalg.eigvalsh(basis.transpose(0, 2, 1) @ gram @ basis)
            lo[sel], hi[sel] = w[:, 0], w[:, -1]
    return lo, hi


def _definite(x: np.ndarray, scale) -> np.ndarray:
    """Where each symmetric k x k block x[:, :, j...] (blocks on the two
    leading axes), formed in floats from terms whose absolute values sum to
    at most `scale` per entry, is proved positive definite.  Cholesky without
    pivoting of x - c I, c = 2 (k + 2) k u scale (u = 2^-53), ends with every
    pivot positive only if the exact block has
    lambda_min >= c - (k^2 + 3k + 1) u scale (1 + O(k u)) > 0: c covers
    forming x and the elimination (Rump, BIT 46, 2006), barring underflow.
    Overwrites x."""
    k = x.shape[0]
    diag = np.arange(k)
    x[diag, diag] -= 2 * (k + 2) * k * 2.0**-53 * scale
    ok = np.ones(x.shape[2:], dtype=bool)
    for j in range(k):
        ok &= x[j, j] > 0
        col = x[j + 1:, j] / np.sqrt(np.where(ok, x[j, j], 1.0))
        x[j + 1:, j + 1:] -= col[:, None] * col[None, :]
    return ok


def _pencil_inside(idx: np.ndarray, unit, lo: float, hi: float) -> np.ndarray:
    """Where the pencil (H_T, Phi_T) of a support (a row of `idx`) is proved
    to have every eigenvalue in (t_lo, t_hi) = (lo + margin, hi - margin),
    margin = INSIDE_RTOL max(|lo|, |hi|): t_hi G_T - K_T > 0 and
    K_T - t_lo G_T > 0 in `unit` = (K, G) = (R H R, R Phi R), whose blocks are
    congruent to H_T - t Phi_T.  A singular Phi_T never passes: both
    differences vanish on its null vectors."""
    k, g = unit
    margin = INSIDE_RTOL * max(abs(lo), abs(hi))
    t_lo, t_hi = lo + margin, hi - margin
    rows, cols = idx.T[:, None, :], idx.T[None, :, :]
    x = np.stack([t_hi * g - k, k - t_lo * g], axis=-1)[rows, cols]
    scale = np.abs([t_hi, t_lo]) * np.abs(g).max() + np.abs(k).max()
    return _definite(x, scale).all(axis=-1)


@dataclass(frozen=True)
class SpectrumExtremes:
    """The global extremes of the per-support spectra over a stream of
    supports.  Each `*_at` is (position in the stream, support) of the first
    support reaching that extreme; `method` says whether the stream was every
    support (METHOD_EXACT) or a random sample (METHOD_LOWER).
    """

    lo: float
    lo_at: Tuple[int, Tuple[int, ...]]
    hi: float
    hi_at: Tuple[int, Tuple[int, ...]]
    supports_examined: int
    method: str

    def report(self, s: int, scale2: float = 1.0) -> RipReport:
        """The constant of A scaled by sqrt(scale2):
        max(scale2 hi - 1, 1 - scale2 lo), the earliest extreme winning ties."""
        candidates = ((scale2 * self.hi - 1.0, self.hi_at),
                      (1.0 - scale2 * self.lo, self.lo_at))
        delta, (_, witness) = max(candidates, key=lambda c: (c[0], -c[1][0]))
        return RipReport(s=int(s), delta=float(delta), method=self.method,
                         witness_support=witness, supports_examined=self.supports_examined)


def _scan(a: np.ndarray, frame: TightFrame, chunks: Iterable[np.ndarray],
          method: str) -> SpectrumExtremes:
    mat = frame.matrix
    ad = a @ mat
    phi = mat.T @ mat
    r = 1.0 / np.sqrt(np.diagonal(phi))
    unit = (r[:, None] * (ad.T @ ad) * r, r[:, None] * phi * r)
    gram = a.T @ a
    lo, lo_at = np.inf, (0, ())
    hi, hi_at = -np.inf, (0, ())
    start = 0
    for idx in chunks:
        # solve first the supports whose diagonal quotients K_tt = H_tt / Phi_tt
        # (each a Rayleigh quotient of the pencil) reach furthest out, then
        # the rest, skipping those proved inside the extremes so far (after
        # the first chunk, seeds too); a skipped support comes back as
        # (inf, -inf) and wins no reduction
        q = np.diagonal(unit[0])[idx]
        first = np.zeros(len(idx), dtype=bool)
        first[np.argsort(-q.max(axis=1), kind="stable")[:SEEDS]] = True
        first[np.argsort(q.min(axis=1), kind="stable")[:SEEDS]] = True
        c_lo = np.full(len(idx), np.inf)
        c_hi = np.full(len(idx), -np.inf)
        seeds = np.flatnonzero(first)
        if start:
            seeds = seeds[~_pencil_inside(idx[seeds], unit, lo, hi)]
        c_lo[seeds], c_hi[seeds] = _spectra(mat, gram, idx[seeds])
        rest = np.flatnonzero(~first)
        rest = rest[~_pencil_inside(idx[rest], unit, min(lo, c_lo.min()),
                                    max(hi, c_hi.max()))]
        c_lo[rest], c_hi[rest] = _spectra(mat, gram, idx[rest])
        i = int(np.argmin(c_lo))
        if c_lo[i] < lo:
            lo, lo_at = float(c_lo[i]), (start + i, tuple(idx[i].tolist()))
        i = int(np.argmax(c_hi))
        if c_hi[i] > hi:
            hi, hi_at = float(c_hi[i]), (start + i, tuple(idx[i].tolist()))
        start += len(idx)
    return SpectrumExtremes(lo=lo, lo_at=lo_at, hi=hi, hi_at=hi_at,
                            supports_examined=start, method=method)


def spectrum_extremes(a, frame: TightFrame, s: int) -> SpectrumExtremes:
    """One exact pass over all C(d, s) supports, in lexicographic order."""
    a = _checked(a, frame, s)
    d = frame.d
    check_budget(math.comb(d, s), "C(%d, %d)" % (d, s),
                 "; shrink (d, s), or take a randomized lower bound: `framecs drip lower`, "
                 "or \"drip_mode\": \"lower\" in a config (its records assert no bound)")
    return _scan(a, frame, support_chunks(d, s, _chunk_rows(frame, s)), METHOD_EXACT)


def exact_drip(a, frame: TightFrame, s: int) -> RipReport:
    """Exact frame-adapted restricted isometry constant by enumeration."""
    return spectrum_extremes(a, frame, s).report(s)


def support_spectrum_range(a, frame: TightFrame, s: int) -> Tuple[float, float]:
    """Global (lambda_min, lambda_max) of the per-support quadratic forms at
    order s.  Useful for rescaling a measurement matrix to a target constant:
    scaling A by c maps the range to (c^2 lambda_min, c^2 lambda_max)."""
    ext = spectrum_extremes(a, frame, s)
    return ext.lo, ext.hi


def random_spectrum_extremes(a, frame: TightFrame, s: int, trials: int,
                             seed: int) -> SpectrumExtremes:
    """One pass over `trials` seeded random supports, each sorted, in draw
    order; its extremes lie inside those of the exact pass."""
    a = _checked(a, frame, s)
    if trials < 1:
        raise ContractViolation("trials must be >= 1")
    rng, rows = rng_from_seed(seed), _chunk_rows(frame, s)
    chunks = (np.sort([rng.choice(frame.d, size=s, replace=False) for _ in range(
        min(rows, trials - start))], axis=1) for start in range(0, trials, rows))
    return _scan(a, frame, chunks, METHOD_LOWER)
