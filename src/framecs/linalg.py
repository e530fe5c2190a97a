"""Dense linear-algebra kernels used by every other module.

Thin, contract-checked wrappers around LAPACK (via numpy.linalg).  All
functions are pure.  Matrices are plain float64 ndarrays with finite entries.
"""

import numpy as np

from .errors import ContractViolation

# Single rank-decision tolerance for the whole package, so subspace
# computations are reproducible bit-for-bit across runs.
DEFAULT_TOL = 1e-10


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ContractViolation("expected a 2-d matrix, got ndim=%d" % m.ndim)
    if m.size and not np.all(np.isfinite(m)):
        raise ContractViolation("matrix entries must be finite")
    return m


def as_vector(a) -> np.ndarray:
    v = np.asarray(a, dtype=float)
    if v.ndim != 1:
        v = v.reshape(-1)
    if v.size and not np.all(np.isfinite(v)):
        raise ContractViolation("vector entries must be finite")
    return v


def least_squares_min_norm(m, b, tol: float = DEFAULT_TOL):
    """Minimum-norm least-squares solution of m @ x = b.

    Returns (x, residual_norm) where x has minimal Euclidean norm among all
    minimizers of ||m @ x - b||_2.
    """
    m = as_matrix(m)
    b = as_vector(b)
    if b.shape[0] != m.shape[0]:
        raise ContractViolation(
            "rhs length %d does not match %d rows" % (b.shape[0], m.shape[0])
        )
    x, _, _, _ = np.linalg.lstsq(m, b, rcond=tol)
    residual = float(np.linalg.norm(m @ x - b))
    return x, residual
