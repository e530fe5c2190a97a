"""The classical restricted isometry constant (identity dictionary), by a
plain loop over supports: one eigvalsh of the Gram block per support.

It shares no code with `framecs.drip`'s batched kernel, so it is the
independent reference for the identity-frame constant (criterion 3).
"""

import math
from itertools import combinations
from typing import Tuple

import numpy as np

from framecs.drip import METHOD_EXACT, RipReport, check_budget
from framecs.errors import ContractViolation
from framecs.linalg import as_matrix


def _extreme(lo: float, hi: float) -> float:
    return max(hi - 1.0, 1.0 - lo)


def exact_rip(a, s: int) -> RipReport:
    """Classical restricted isometry constant (identity dictionary)."""
    a = as_matrix(a)
    n = a.shape[1]
    if not 1 <= s <= n:
        raise ContractViolation("s must satisfy 1 <= s <= n")
    count = math.comb(n, s)
    check_budget(count, "C(%d, %d)" % (n, s))
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
    return RipReport(s=int(s), delta=float(delta), method=METHOD_EXACT,
                     witness_support=witness, supports_examined=count)
