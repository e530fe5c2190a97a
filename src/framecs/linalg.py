"""Input checks and the package-wide rank rule.

Matrices are plain float64 ndarrays with finite entries.
"""

import numpy as np

from .errors import ContractViolation

# Single rank-decision tolerance for the whole package, so subspace
# computations are reproducible bit-for-bit across runs.
DEFAULT_TOL = 1e-10


def numeric_rank(svals: np.ndarray):
    """The package's rank rule: the count of singular values above
    DEFAULT_TOL times the largest, along the last axis of `svals` (each row
    sorted descending, as an SVD returns it)."""
    return np.count_nonzero(svals > DEFAULT_TOL * svals[..., :1], axis=-1)


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

