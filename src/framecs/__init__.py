"""Compressed sensing with coherent tight frames.

Construct tight frames and measurement models, compute frame-adapted
restricted isometry constants exactly at desk scale, evaluate
recovery-guarantee constants and applicability certificates, solve the
l1/lq/l0 analysis-recovery programs, and audit the guarantee machinery on
concrete instances.
"""

from .drip import RipReport, exact_drip, exact_rip, random_lower_bound
from .errors import ContractViolation, EnumerationLimitError, NotApplicableError
from .frames import (
    SparseApprox,
    TightFrame,
    best_s_term,
    make_dct_frame,
    make_identity_frame,
    make_random_tight_frame,
    make_union_frame,
)
from .guarantees import (
    BlockPartition,
    GuaranteeCertificate,
    InequalityAuditRecord,
    audit_lemmas,
    block_partition,
    certify,
    constants_general,
    constants_q,
    constants_special,
    error_bound,
    q_zero,
    rho_general,
    rho_q,
    rho_special,
    threshold_general,
    threshold_special,
)
from .sensing import SensingModel, concentration_probe, gen_gaussian, measure
from .solvers import (
    RecoveryResult,
    SolverOptions,
    solve_p0_oracle,
    solve_p1,
    solve_pq,
)

__version__ = "0.1.0"
