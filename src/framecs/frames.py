"""Tight frames: construction, validation, and best s-term approximation.

A tight frame is an n x d matrix D (columns are the frame vectors) with
D D* = I_n, so analysis followed by synthesis reconstructs exactly:
f = sum_k <f, D_k> D_k.  Everything here is real-valued and dense.
"""

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ContractViolation
from .linalg import as_matrix, as_vector
from .rng import rng_from_seed
from .serialize import format_real

# Constructions achieve ~1e-10; the looser acceptance tolerance guards
# against accumulated round-off in user-supplied frames.
TIGHT_TOL = 1e-8


@dataclass(frozen=True)
class TightFrame:
    """An n x d tight frame; immutable after construction."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.matrix)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        n, d = m.shape
        if n < 1 or d < n:
            raise ContractViolation("frame must be n x d with d >= n >= 1, got %s" % (m.shape,))
        col_norms = np.linalg.norm(m, axis=0)
        if np.any(col_norms == 0.0):
            raise ContractViolation("frame columns must be nonzero")
        defect = tightness_defect(m)
        if defect > TIGHT_TOL:
            raise ContractViolation(
                "matrix is not a tight frame: ||DD* - I|| = %g > %g" % (defect, TIGHT_TOL)
            )

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def d(self) -> int:
        return self.matrix.shape[1]

    def check_matrix(self, a) -> np.ndarray:
        """as_matrix(a) for a measurement matrix on this frame's R^n: one
        with n columns, else a ContractViolation."""
        a = as_matrix(a)
        if a.shape[1] != self.n:
            raise ContractViolation("measurement matrix has %d columns but the frame is "
                                    "%d-dimensional" % (a.shape[1], self.n))
        return a


def tightness_defect(m) -> float:
    """Spectral-norm distance ||MM* - I|| of a matrix from tightness."""
    m = as_matrix(m)
    gram = as_matrix(m @ m.T - np.eye(m.shape[0]))  # rejects an overflowed product
    w = np.linalg.eigvalsh(0.5 * (gram + gram.T))
    return max(abs(float(w[0])), abs(float(w[-1])))


def make_identity_frame(n: int) -> TightFrame:
    if n < 1:
        raise ContractViolation("n must be >= 1")
    return TightFrame(np.eye(n))


def make_dct_frame(n: int) -> TightFrame:
    """Orthonormal DCT-II basis as frame columns.

    Column k has entries a_k * cos(pi * (2j + 1) * k / (2n)) with a_0 =
    sqrt(1/n) and a_k = sqrt(2/n) otherwise.
    """
    if n < 1:
        raise ContractViolation("n must be >= 1")
    j = np.arange(n).reshape(-1, 1)
    k = np.arange(n).reshape(1, -1)
    basis = np.cos(np.pi * (2 * j + 1) * k / (2 * n))
    basis[:, 0] *= math.sqrt(1.0 / n)
    basis[:, 1:] *= math.sqrt(2.0 / n)
    return TightFrame(basis)


def make_union_frame(b1, b2) -> TightFrame:
    """Union of two orthonormal bases, rescaled by 1/sqrt(2) to stay tight."""
    b1 = as_matrix(b1)
    b2 = as_matrix(b2)
    for name, b in (("b1", b1), ("b2", b2)):
        if b.shape[0] != b.shape[1]:
            raise ContractViolation("%s must be square" % name)
        if float(np.abs(b.T @ b - np.eye(b.shape[0])).max()) > TIGHT_TOL:
            raise ContractViolation("%s is not orthonormal within %g" % (name, TIGHT_TOL))
    if b1.shape != b2.shape:
        raise ContractViolation("bases must have matching shapes")
    return TightFrame(np.hstack([b1, b2]) / math.sqrt(2.0))


def make_random_tight_frame(n: int, d: int, seed: int) -> TightFrame:
    """Generic coherent tight frame: first n rows of an orthonormalized
    seeded Gaussian d x d matrix.  Deterministic given the seed."""
    if n < 1:
        raise ContractViolation("n must be >= 1")
    if d < n:
        raise ContractViolation("need d >= n, got n=%d d=%d" % (n, d))
    rng = rng_from_seed(seed)
    g = rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    # fix the sign convention so the result does not depend on LAPACK's choice
    q = q * np.sign(np.where(np.diag(r) == 0.0, 1.0, np.diag(r)))
    return TightFrame(q[:n, :])


def column_coherence(m) -> float:
    """Largest normalized inner product between distinct columns."""
    m = as_matrix(m)
    if m.shape[1] < 2:
        raise ContractViolation("coherence needs at least two columns")
    norms = np.linalg.norm(m, axis=0)
    if np.any(norms == 0.0):
        raise ContractViolation("coherence is undefined with a zero column")
    normalized = m / norms
    gram = np.abs(normalized.T @ normalized)
    np.fill_diagonal(gram, 0.0)
    return min(1.0, float(gram.max()))


def s_term_head(x, s: int) -> np.ndarray:
    """The head T_0 of x: the indices of its s largest-magnitude entries,
    largest first, ties going to the lowest index."""
    x = as_vector(x)
    if not 0 <= s <= x.shape[0]:
        raise ContractViolation("s must be in [0, len(x)]")
    return np.argsort(-np.abs(x), kind="stable")[:s]


def lq_mass(x, q: float, axis=None):
    """sum |x_i|^q, the l1 norm at q = 1 and the lq quasi-norm to the power
    q below: a float, or with `axis` one mass per slice along it."""
    mass = np.sum(np.abs(x) ** q, axis=axis)
    return float(mass) if axis is None else mass


def best_s_term(x, s: int, q: float = 1.0) -> Tuple[np.ndarray, float]:
    """(head, tail_lq): the s-term head of x (`s_term_head`) and the lq
    quasi-norm (sum |t_i|^q)^(1/q) of the tail t it drops, x with the head
    zeroed, for q in (0, 1]; the error of the best s-term approximation."""
    if not 0.0 < q <= 1.0:
        raise ContractViolation("q must be in (0, 1]")
    tail = as_vector(x).copy()
    head = s_term_head(tail, s)
    tail[head] = 0.0
    return head, lq_mass(tail, q) ** (1.0 / q)


def save_matrix(path, m) -> None:
    """Write a matrix as text: "rows cols" header then one row per line,
    17 significant digits (round-trips bit-exactly)."""
    m = as_matrix(m)
    lines = ["%d %d" % m.shape]
    for row in m:
        lines.append(" ".join(format_real(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_matrix(path) -> np.ndarray:
    """Read the text format of `save_matrix`.

    Raises ContractViolation naming the file and line on bytes that are not
    UTF-8, a header that is not two positive integers, a row with the wrong
    number of entries or a non-numeric one, and rows missing or past the
    declared count.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        lines = data.decode("utf-8").rstrip().splitlines()
    except UnicodeDecodeError as err:
        raise ContractViolation("%s line %d: not UTF-8 text"
                                % (path, data.count(b"\n", 0, err.start) + 1)) from None
    try:
        rows, cols = (int(v) for v in lines[0].split())
    except (IndexError, ValueError):
        rows = cols = 0
    if rows < 1 or cols < 1:
        raise ContractViolation("%s line 1: the header must be two positive "
                                "integers, rows and columns" % path)
    if len(lines) != rows + 1:
        raise ContractViolation("%s line %d: %d rows declared, %d found"
                                % (path, min(len(lines), rows + 1) + 1, rows,
                                   len(lines) - 1))
    out = np.empty((rows, cols))
    for i, line in enumerate(lines[1:]):
        parts = line.split()
        if len(parts) != cols:
            raise ContractViolation("%s line %d: %d entries, expected %d"
                                    % (path, i + 2, len(parts), cols))
        try:
            out[i] = [float(p) for p in parts]
        except ValueError:
            raise ContractViolation("%s line %d: an entry is not a number"
                                    % (path, i + 2)) from None
    return out
