"""Measurement models y = A f + z and an empirical concentration probe.

Generators are normalized so that E||A v||^2 = ||v||^2 (entry variance 1/m),
which makes the concentration deviation delta directly interpretable.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractViolation
from .linalg import as_matrix, as_vector
from .rng import rng_from_seed, rng_substream

NOISE_MODES = ("none", "gaussian", "bounded")


@dataclass(frozen=True)
class SensingModel:
    """Measurement matrix, observation, and an honest noise budget.

    When the ground truth is carried along, y is exactly the stored
    A @ f_true + z and ||z||_2 <= epsilon.
    """

    A: np.ndarray
    y: np.ndarray
    epsilon: float
    f_true: Optional[np.ndarray] = None
    z: Optional[np.ndarray] = None

    def __post_init__(self):
        a = as_matrix(self.A)
        y = as_vector(self.y)
        if y.shape[0] != a.shape[0]:
            raise ContractViolation("y length %d != m=%d" % (y.shape[0], a.shape[0]))
        if not 0 <= self.epsilon < np.inf:
            raise ContractViolation("epsilon must be finite and >= 0")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "y", y)
        if self.f_true is not None and self.z is not None:
            f = as_vector(self.f_true)
            z = as_vector(self.z)
            if not np.array_equal(a @ f + z, y):
                raise ContractViolation("stored y does not equal A @ f_true + z")
            if np.linalg.norm(z) > self.epsilon * (1 + 1e-12) + 1e-300:
                raise ContractViolation("||z|| exceeds the declared noise budget")
            object.__setattr__(self, "f_true", f)
            object.__setattr__(self, "z", z)


# measurement-matrix kind -> its m x n draw from a generator: i.i.d.
# N(0, 1/m) or +-1/sqrt(m) entries
MATRIX_KINDS = {
    "gaussian": lambda rng, m, n: rng.standard_normal((m, n)) / np.sqrt(m),
    "bernoulli": lambda rng, m, n: (rng.integers(0, 2, size=(m, n)) * 2 - 1) / np.sqrt(m),
}


def gen_matrix(kind: str, m: int, n: int, seed: int) -> np.ndarray:
    """An m x n matrix of one of MATRIX_KINDS; deterministic given the seed."""
    if kind not in MATRIX_KINDS:
        raise ContractViolation("unknown matrix kind %r" % kind)
    if m < 1 or n < 1:
        raise ContractViolation("m, n must be >= 1")
    return MATRIX_KINDS[kind](rng_from_seed(seed), m, n)


def gen_gaussian(m: int, n: int, seed: int) -> np.ndarray:
    """i.i.d. N(0, 1/m) entries; deterministic given the seed."""
    return gen_matrix("gaussian", m, n, seed)


def measure(a, f, mode: str = "none", level: float = 0.0, seed: int = 0) -> SensingModel:
    """Observe y = A f + z under one of three noise modes.

    mode="none":      z = 0, epsilon = 0.
    mode="gaussian":  z has i.i.d. N(0, level^2) entries; epsilon is set to
                      the realized ||z||_2 so the budget is honest.
    mode="bounded":   z is a seeded Gaussian direction rescaled so that
                      ||z||_2 equals `level` exactly; epsilon = level.
    """
    a = as_matrix(a)
    f = as_vector(f)
    if f.shape[0] != a.shape[1]:
        raise ContractViolation("signal length %d != n=%d" % (f.shape[0], a.shape[1]))
    if mode not in NOISE_MODES:
        raise ContractViolation("unknown noise mode %r" % mode)
    if level < 0:
        raise ContractViolation("noise level must be >= 0")
    m = a.shape[0]
    if mode == "none" or level == 0.0:
        z = np.zeros(m)
        epsilon = 0.0
    elif mode == "gaussian":
        z = rng_from_seed(seed).standard_normal(m) * level
        epsilon = float(np.linalg.norm(z))
    else:
        direction = rng_from_seed(seed).standard_normal(m)
        norm = np.linalg.norm(direction)
        if norm == 0.0:
            direction = np.ones(m)
            norm = np.linalg.norm(direction)
        z = direction * (level / norm)
        epsilon = float(level)
    y = a @ f + z
    return SensingModel(A=a, y=y, epsilon=epsilon, f_true=f, z=z)


def concentration_probe(generator: str, m: int, n: int, nu, delta: float,
                        trials: int, seed: int) -> float:
    """Fraction of seeded trials with | ||A nu||^2 - ||nu||^2 | >= delta ||nu||^2.

    Per-trial matrices come from substreams keyed by (seed, trial), so the
    result is independent of evaluation order.  Only raw frequencies are
    reported; no tail constants are estimated.
    """
    if generator not in MATRIX_KINDS:
        raise ContractViolation("unknown generator %r" % generator)
    if m < 1 or n < 1:
        raise ContractViolation("m, n must be >= 1")
    if trials < 1:
        raise ContractViolation("trials must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ContractViolation("delta must be in (0, 1)")
    nu = as_vector(nu)
    if nu.shape[0] != n:
        raise ContractViolation("nu length %d != n=%d" % (nu.shape[0], n))
    norm_sq = float(nu @ nu)
    if norm_sq == 0.0:
        raise ContractViolation("nu must be nonzero")
    violations = 0
    for t in range(trials):
        image = MATRIX_KINDS[generator](rng_substream(seed, t), m, n) @ nu
        if abs(float(image @ image) - norm_sq) >= delta * norm_sq:
            violations += 1
    return violations / trials
