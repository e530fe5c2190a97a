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
array from `support_chunks` (the one enumerator, also read by the solvers'
`_cosupport_chunks`), is one batched SVD and one batched eigvalsh (one per
rank where some D_T is rank-deficient).  A pass keeps only the global
extremes of the per-support spectra (`SpectrumExtremes`); since scaling A
by c maps every spectrum by c^2, one pass gives the constant at any scale.

A pass solves only the supports that could move those extremes.  Where D_T
has full column rank, the spectrum is that of the pencil (H_T, Phi_T) of the
|T| x |T| blocks of Phi = D^T D and H = (A D)^T (A D).  A pass forms once
the unit-diagonal pencil (K, G) = (R H R, R Phi R), R = diag(Phi)^-1/2,
whose blocks K_T - t G_T are congruent to H_T - t Phi_T.  A chunk goes in
rounds.  Each skips every open support T once K_T - t G_T is proved
negative definite at t just below the highest eigenvalue so far and
positive definite at t just above the lowest: a Cholesky without pivoting,
in numpy arithmetic, of each block shifted by a multiple of the unit
roundoff that covers forming and eliminating it (Rump 2006) ends with every
pivot positive.  It then solves the next few open supports, twice as many
each round, from both ends of the order of pair keys (those reaching
furthest out first), until none is open.  The pass forms, in closed form,
the two roots of each pair's 2 x 2 pencil (K_P, G_P), P = {i, j}: the Ritz
values of A^T A on span(d_i, d_j), a 2-dimensional subspace of range(D_T)
for every support T holding i and j.  A support's top key, the largest top
root over its pairs i < j, is thus at most its highest eigenvalue, and its
bottom key, the smallest bottom root, at least its lowest: inner bounds
tighter than the diagonal quotients K_tt (Ritz values on span(d_t)), which
stand in where a pair is degenerate and at s = 1.  A skipped support lies
inside the extremes by the relative margin INSIDE_RTOL, far above
round-off, so it could neither move nor tie one: the pass returns, to the
bit, the `SpectrumExtremes` of solving every support.
"""

import math
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Iterator, NamedTuple, Tuple

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
# s x s blocks per support.  The solvers' `_cosupport_chunks` caps its
# chunks of stacked [D*; A] at this many floats (its batched SVD and
# pseudo-inverse are a few times that).  Chunks amortize the per-call
# overhead while peak memory stays flat in C(d, s) and in m.
CHUNK_FLOATS = 2**15

# How far inside the extremes so far (relative to the larger) a skipped
# support is proved to lie: far above the kernel's round-off (~1e-14).
INSIDE_RTOL = 1e-9

# Pairs with 1 - G_ij^2 at or below this are keyed by their diagonal
# quotients: the closed-form roots carry a relative error of about
# u / (1 - G_ij^2), u = 2^-53 (chosen on held-out instances).
FLAT_PAIR = 1e-6

# Supports a chunk's first round solves from each end of its order; each round
# doubles it (chosen on held-out instances).
FIRST_ROUND = 2

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
        raise ContractViolation("order %d must satisfy 1 <= order <= d = %d" % (s, frame.d))
    return a


def _spectra(mat: np.ndarray, gram: np.ndarray, idx: np.ndarray):
    """The kernel: (lo, hi) of U_T^T gram U_T per row T of the support index
    array `idx`, U_T the left singular vectors of D_T = mat[:, T] inside its
    `numeric_rank` (the package-wide rank rule)."""
    lo = np.empty(len(idx))
    hi = np.empty(len(idx))
    u, sv, _ = np.linalg.svd(mat[:, idx].transpose(1, 0, 2), full_matrices=False)
    rank = numeric_rank(sv)
    for r in np.flatnonzero(np.bincount(rank)):  # the ranks present (np.unique imports numpy.ma)
        sel = np.flatnonzero(rank == r)
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
    # a block past a failed pivot goes on eliminating with pivot 1, so its
    # entries may square up to overflow; they are never read again
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(k):
            ok &= x[j, j] > 0
            col = x[j + 1:, j] / np.sqrt(np.where(ok, x[j, j], 1.0))
            x[j + 1:, j + 1:] -= col[:, None] * col[None, :]
    return ok


class _Pencil(NamedTuple):
    """A pass's unit-diagonal pencil (K, G) = (R H R, R Phi R), R =
    diag(Phi)^-1/2, with max|K| and max|G| (the scale of its proofs), and the
    d x d tables `top` and `bottom` of the extremes of each pair's 2 x 2
    pencil (`_pair_extremes`)."""

    k: np.ndarray
    g: np.ndarray
    k_max: float
    g_max: float
    top: np.ndarray
    bottom: np.ndarray


def _unit_pencil(a: np.ndarray, mat: np.ndarray) -> _Pencil:
    """The pass's pencil, refused when K or a pair root overflows floats (A
    too large): no spectrum or proof could be read off past that."""
    with np.errstate(over="ignore", invalid="ignore"):
        ad = a @ mat
        phi = mat.T @ mat
        r = 1.0 / np.sqrt(np.diagonal(phi))
        k, g = r[:, None] * (ad.T @ ad) * r, r[:, None] * phi * r
        top, bottom = _pair_extremes(k, g)
    if not (np.isfinite(k).all() and np.isfinite(top).all() and np.isfinite(bottom).all()):
        raise ContractViolation("the pencil of A on the frame overflows: max |A| = %g"
                                % np.abs(a).max())
    return _Pencil(k, g, np.abs(k).max(), np.abs(g).max(), top, bottom)


def _pair_extremes(k: np.ndarray, g: np.ndarray):
    """Tables (top, bottom) of the larger and smaller root t of
    det(K_P - t G_P) = (1 - g^2) t^2 - (K_ii + K_jj - 2 g K_ij) t
    + K_ii K_jj - K_ij^2 = 0, g = G_ij, for each pair P = {i, j}: the Ritz
    values of A^T A on span(d_i, d_j), a subspace of range(D_T) for every
    support T holding i and j, so T's lowest eigenvalue is at most the
    smaller root and its highest at least the larger.  Where
    1 - g^2 <= FLAT_PAIR (the diagonal, and columns too close to parallel
    for the closed form) they are the diagonal quotients K_ii and K_jj, the
    Ritz values on span(d_i) and span(d_j).  The roots are formed on
    K / 2^e, 2^e > max K_ii >= max |K|, so the squares of b stay below 16;
    a power of two changes no bit of a root short of underflow."""
    pow2 = 2.0 ** np.frexp(np.diagonal(k).max())[1]
    k = k / pow2
    q = np.diagonal(k)
    det_g = 1.0 - g * g
    flat = det_g <= FLAT_PAIR
    det_g = np.where(flat, 1.0, det_g)
    b = q[:, None] + q - 2.0 * g * k
    root = np.sqrt(np.maximum(b * b - 4.0 * det_g * (q[:, None] * q - k * k), 0.0))
    return (pow2 * np.where(flat, np.maximum.outer(q, q), (b + root) / (2.0 * det_g)),
            pow2 * np.where(flat, np.minimum.outer(q, q), (b - root) / (2.0 * det_g)))


def _pair_keys(unit: _Pencil, idx: np.ndarray):
    """Per support (a row of `idx`), the largest `top` and the smallest
    `bottom` of its pairs i < j: inner bounds on its highest and lowest
    eigenvalue.  At s = 1 the one "pair" (0, 0) gives its diagonal quotient."""
    first, second = np.array(list(combinations(range(idx.shape[1]), 2)) or [(0, 0)]).T
    pairs = idx[:, first], idx[:, second]
    return unit.top[pairs].max(axis=1), unit.bottom[pairs].min(axis=1)


def _pencil_inside(idx: np.ndarray, unit: _Pencil, lo: float, hi: float) -> np.ndarray:
    """Where the pencil (H_T, Phi_T) of a support (a row of `idx`) is proved
    to have every eigenvalue in (t_lo, t_hi) = (lo + margin, hi - margin),
    margin = INSIDE_RTOL max(|lo|, |hi|): t_hi G_T - K_T > 0 and
    K_T - t_lo G_T > 0 in the unit pencil, whose blocks are congruent to
    H_T - t Phi_T.  A singular Phi_T never passes: both differences vanish
    on its null vectors."""
    k, g = unit.k, unit.g
    margin = INSIDE_RTOL * max(abs(lo), abs(hi))
    t_lo, t_hi = lo + margin, hi - margin
    rows, cols = idx.T[:, None, :], idx.T[None, :, :]
    x = np.stack([t_hi * g - k, k - t_lo * g], axis=-1)[rows, cols]
    scale = np.abs([t_hi, t_lo]) * unit.g_max + unit.k_max
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
    unit = _unit_pencil(a, mat)
    gram = a.T @ a
    lo, lo_at = np.inf, (0, ())
    hi, hi_at = -np.inf, (0, ())
    start = 0
    for idx in chunks:
        # each round proves the open supports inside the extremes so far (once
        # there are any), then solves the next k open ones from each end of the
        # order of pair keys (those reaching furthest out first); a skipped
        # support comes back as (inf, -inf) and wins no reduction
        key_hi, key_lo = _pair_keys(unit, idx)
        ends = (np.argsort(-key_hi, kind="stable"), np.argsort(key_lo, kind="stable"))
        c_lo = np.full(len(idx), np.inf)
        c_hi = np.full(len(idx), -np.inf)
        todo = np.ones(len(idx), dtype=bool)
        k = FIRST_ROUND
        while todo.any():
            t_lo, t_hi = min(lo, c_lo.min()), max(hi, c_hi.max())
            if t_lo <= t_hi:
                rest = np.flatnonzero(todo)
                todo[rest] = ~_pencil_inside(idx[rest], unit, t_lo, t_hi)
            pick = np.zeros(len(idx), dtype=bool)
            for end in ends:
                pick[end[todo[end]][:k]] = True
            if pick.any():
                c_lo[pick], c_hi[pick] = _spectra(mat, gram, idx[pick])
            todo &= ~pick
            k *= 2
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
