"""Experiment orchestration: frames -> sensing -> isometry constants ->
certificates -> solvers -> audits, with CSV/JSON reporting.

Runs are reproducible byte-for-byte: every random draw comes from a
substream keyed by (config seed, trial index).  A record only asserts its
error bound when the isometry constant was computed exactly and the
certificate was applicable -- there is no silent downgrade.
"""

import dataclasses
import json
import math
import types
import typing
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import drip, frames, guarantees, sensing, solvers
from .errors import ContractViolation
from .rng import derive_seed, rng_from_seed
from .serialize import json_dumps

# the ExperimentRecord fields that form the CSV, in column order: a fixed
# contract from which the header and both CSV directions derive
CSV_COLUMNS = ("trial", "n", "d", "m", "s", "q", "eps", "delta_2s", "regime",
               "rho", "C0", "C1", "q0", "tail", "err_l2", "bound",
               "within_bound", "iters", "status", "audit_pass", "audit_total")
CSV_HEADER = ",".join(CSV_COLUMNS)

SIGNAL_MODES = ("synthesis", "analysis")
PROGRAMS = ("p1", "pq")

STATUS_OK = "ok"
STATUS_NOT_CONVERGED = "not_converged"
STATUS_SURROGATE_GAP = "surrogate_gap"
STATUS_NOT_APPLICABLE = "not_applicable"
STATUS_LOWER_BOUND = "lower_bound_only"


@dataclass(frozen=True)
class FrameSpec:
    kind: str = "random"
    seed: int = 0


@dataclass(frozen=True)
class MatrixSpec:
    kind: str = "gaussian"
    seed: int = 0
    # a positive number rescales A by that factor; "auto_min" picks the scale
    # that minimizes the order-2s constant; {"target_delta": t}, 0 < t < 1,
    # lands it at t exactly when reachable (the constant is recomputed either
    # way).  ExperimentConfig rejects any other value when it is built.
    scale: object = 1.0


@dataclass(frozen=True)
class SignalSpec:
    mode: str = "synthesis"
    seed: int = 0


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    d: int
    m: int
    s: int
    trials: int = 1
    q: Optional[float] = None
    eps: float = 0.0
    noise_mode: str = "none"
    program: str = "p1"
    frame: FrameSpec = field(default_factory=FrameSpec)
    matrix: MatrixSpec = field(default_factory=MatrixSpec)
    signal: SignalSpec = field(default_factory=SignalSpec)
    noise_seed: int = 0
    drip_mode: str = "exact"
    drip_trials: int = 2000
    drip_seed: int = 0

    def __post_init__(self):
        if min(self.n, self.d, self.m, self.s) < 1:
            raise ContractViolation("dimensions must be positive")
        if self.trials < 1:
            raise ContractViolation("trials must be >= 1")
        if self.eps < 0:
            raise ContractViolation("eps must be >= 0")
        if self.matrix.kind not in sensing.MATRIX_KINDS:
            raise ContractViolation("unknown matrix kind %r" % self.matrix.kind)
        if self.signal.mode not in SIGNAL_MODES:
            raise ContractViolation("unknown signal mode %r" % self.signal.mode)
        if self.noise_mode not in sensing.NOISE_MODES:
            raise ContractViolation("unknown noise mode %r" % self.noise_mode)
        if self.program not in PROGRAMS:
            raise ContractViolation("program must be one of %s" % (PROGRAMS,))
        if self.program == "pq" and (self.q is None or not 0.0 < self.q < 1.0):
            raise ContractViolation("program 'pq' needs q in (0, 1)")
        if self.program == "p1" and self.q is not None:
            raise ContractViolation("program 'p1' needs q null or absent, got %r" % (self.q,))
        if self.noise_mode == "none" and self.eps > 0:
            raise ContractViolation("noise_mode 'none' needs eps 0, got eps %r" % (self.eps,))
        if self.drip_mode not in ("exact", "lower"):
            raise ContractViolation("drip_mode must be 'exact' or 'lower'")
        if self.drip_trials < 1:
            raise ContractViolation("drip_trials must be >= 1, got %r" % (self.drip_trials,))
        if not _valid_scale(self.matrix.scale):
            raise ContractViolation(
                "matrix.scale must be a positive number, \"auto_min\" or "
                "{\"target_delta\": t} with 0 < t < 1, got %r" % (self.matrix.scale,))
        frames.frame_size(self.frame.kind, self.n, self.d)
        if 2 * self.s > self.d:
            raise ContractViolation("s = %d needs 2s <= d, got d = %d" % (self.s, self.d))
        if self.signal.mode == "analysis" and self.frame.kind not in ("identity", "dct"):
            raise ContractViolation(
                "exact-analysis-sparse signals are only offered for orthobasis frames"
            )

    @classmethod
    def from_dict(cls, raw: Dict) -> "ExperimentConfig":
        return _from_raw(cls, raw, "config")

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except ValueError as err:
                raise ContractViolation("config %s is not valid JSON: %s" % (path, err)) from err
        return cls.from_dict(raw)


def _type_name(hint) -> str:
    if typing.get_origin(hint) is typing.Union:
        return " or ".join(_type_name(h) for h in typing.get_args(hint))
    return "null" if hint is type(None) else hint.__name__


def _matches(value, hint) -> bool:
    if hint is object:
        return True
    if typing.get_origin(hint) is typing.Union:
        return any(_matches(value, h) for h in typing.get_args(hint))
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float)) and math.isfinite(value)
    return isinstance(value, hint)


def _valid_scale(scale) -> bool:
    if isinstance(scale, dict):
        t = scale.get("target_delta")
        return list(scale) == ["target_delta"] and _matches(t, float) and 0.0 < t < 1.0
    if isinstance(scale, str):
        return scale == "auto_min"
    return _matches(scale, float) and scale > 0.0


def _from_raw(cls, raw, where: str):
    """Build a config dataclass from parsed JSON, naming the first unknown
    key, missing key or mistyped value instead of failing inside it."""
    if not isinstance(raw, dict):
        raise ContractViolation("%s must be a JSON object, got %s"
                                % (where, type(raw).__name__))
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if (f.name not in raw and f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING):
            raise ContractViolation("missing key %r in %s" % (f.name, where))
    kwargs = {}
    for key, value in raw.items():
        if key not in hints:
            raise ContractViolation("unknown key %r in %s" % (key, where))
        hint = hints[key]
        name = key if where == "config" else "%s.%s" % (where, key)
        if dataclasses.is_dataclass(hint):
            value = _from_raw(hint, value, name)
        elif not _matches(value, hint):
            raise ContractViolation("%s must be %s, got %s %r"
                                    % (name, _type_name(hint), type(value).__name__, value))
        kwargs[key] = value
    return cls(**kwargs)


@dataclass(frozen=True)
class ExperimentRecord:
    trial: int
    seeds: Dict[str, int]
    n: int
    d: int
    m: int
    s: int
    q: Optional[float]
    eps: float
    delta_2s: float
    drip_method: str
    regime: str
    applicable: bool
    rho: Optional[float]
    C0: Optional[float]
    C1: Optional[float]
    q0: Optional[float]
    tail: float
    err_l2: float
    bound: Optional[float]
    within_bound: Optional[bool]
    iters: int
    status: str
    audit_pass: int
    audit_total: int
    # why the record departs from what the config asked for (JSON only; the
    # CSV columns are a fixed contract)
    reason: Optional[str] = None


def _resolve_scale(spec, lo, hi) -> Tuple[float, Optional[str]]:
    """Scale for A under the (validated) `matrix.scale` spec, given the
    global spectrum range (lo, hi) of the order-2s forms, and the reason when
    it is not the scale asked for."""
    if not isinstance(spec, (str, dict)):
        return float(spec), None
    auto = math.sqrt(2.0 / (hi + lo))
    if spec == "auto_min":
        return auto, None
    t = spec["target_delta"]
    d_min = (hi - lo) / (hi + lo)
    if t < d_min:
        return auto, ("target_delta %.6g is below the reachable minimum "
                      "%.6g; the auto_min scale was used instead" % (t, d_min))
    return math.sqrt((1.0 + t) / hi), None


def _draw_signal(frame, s, seed) -> np.ndarray:
    # synthesis-sparse draw f = D x with x s-sparse; on an orthobasis frame
    # this is also exactly analysis-sparse, which is all the "analysis"
    # signal mode (restricted to orthobasis frames at validation) needs
    rng = rng_from_seed(seed)
    support = rng.choice(frame.d, size=s, replace=False)
    values = rng.standard_normal(s)
    x = np.zeros(frame.d)
    x[support] = values
    return frame.matrix @ x


def run_trial(config: ExperimentConfig, trial: int) -> ExperimentRecord:
    """Draw trial `trial`'s frame, unscaled A and signal from the config's
    seeds, and `evaluate` that instance."""
    seeds = {
        "frame": derive_seed(config.frame.seed, trial),
        "matrix": derive_seed(config.matrix.seed, trial),
        "signal": derive_seed(config.signal.seed, trial),
        "noise": derive_seed(config.noise_seed, trial),
    }
    frame = frames.make_frame(config.frame.kind, config.n, config.d, seeds["frame"])
    a = sensing.gen_matrix(config.matrix.kind, config.m, config.n, seeds["matrix"])
    f = _draw_signal(frame, config.s, seeds["signal"])
    return evaluate(config, trial, seeds, frame, a, f)


def evaluate(config: ExperimentConfig, trial: int, seeds: Dict[str, int],
             frame: frames.TightFrame, a, f) -> ExperimentRecord:
    """The record of one instance (frame, unscaled A, signal f) under the
    config's s, q, eps, noise, scale and drip settings; its n, d and m are
    the instance's, and the noise is drawn from seeds["noise"].  One pass
    over the order-2s supports (all, or the seeded random ones of
    "drip_mode": "lower") picks the scale and, rescaled by scale^2, gives
    the constant of the scaled A."""
    order = 2 * config.s
    reasons = []
    if config.drip_mode == "lower":
        spectrum = drip.random_spectrum_extremes(a, frame, order, config.drip_trials,
                                                 derive_seed(config.drip_seed, trial))
    else:
        spectrum = drip.spectrum_extremes(a, frame, order)
    scale, why = _resolve_scale(config.matrix.scale, spectrum.lo, spectrum.hi)
    if why:
        reasons.append(why)
    a = a * scale
    model = sensing.measure(a, f, mode=config.noise_mode, level=config.eps,
                            seed=seeds["noise"])

    rip = spectrum.report(order, scale * scale)
    exact = rip.method == drip.METHOD_EXACT

    # pq reads the lq certificate; p1 the first applicable l1 one, else general
    q = config.q
    certs = guarantees.certify(rip.delta, frame.n, config.s, q_opt=q)
    cert = certs[-1] if q is not None else next((c for c in certs if c.applicable), certs[0])

    res = (solvers.solve_p1(frame, model) if q is None
           else solvers.solve_pq(frame, model, q))

    coeffs_true = frame.matrix.T @ f
    qq = q if q is not None else 1.0
    tail = frames.best_s_term(coeffs_true, config.s, qq)[1]
    err = float(np.linalg.norm(res.f_hat - f))

    gate = guarantees.surrogate_gate(frame.matrix.T @ res.f_hat, coeffs_true, qq)[0]

    bound = None
    within = None
    if not exact:
        status = STATUS_LOWER_BOUND
    elif not res.converged:
        status = STATUS_NOT_CONVERGED
    elif not gate:
        status = STATUS_SURROGATE_GAP
    elif not cert.applicable:
        status = STATUS_NOT_APPLICABLE
    else:
        status = STATUS_OK
        bound = guarantees.error_bound(cert.C0, cert.C1, tail, config.s,
                                       model.epsilon, qq)
        within = err <= bound * (1.0 + 1e-6)

    audit_pass = audit_total = 0
    if exact and res.converged and gate:
        try:
            records = guarantees.audit_lemmas(frame, a, f, res.f_hat, config.s,
                                              qq, model.epsilon, rip.delta,
                                              y=model.y)
            audit_total = len(records)
            audit_pass = sum(1 for r in records if r.holds)
        except ContractViolation as exc:
            reasons.append("audit_lemmas rejected the instance: %s" % exc)

    return ExperimentRecord(
        trial=trial, seeds=seeds, n=frame.n, d=frame.d, m=model.A.shape[0],
        s=config.s, q=q, eps=model.epsilon, delta_2s=rip.delta,
        drip_method=rip.method, regime=cert.regime, applicable=cert.applicable,
        rho=cert.rho, C0=cert.C0, C1=cert.C1, q0=cert.q0, tail=tail,
        err_l2=err, bound=bound, within_bound=within, iters=res.iterations,
        status=status, audit_pass=audit_pass, audit_total=audit_total,
        reason="; ".join(reasons) or None,
    )


def run_experiment(config: ExperimentConfig) -> List[ExperimentRecord]:
    """Run the trials in order."""
    return [run_trial(config, t) for t in range(config.trials)]


# ---------------------------------------------------------------------------
# CSV


def _cell(value) -> str:
    """The value's JSON scalar, except that None is empty and text unquoted."""
    if value is None:
        return ""
    return value if isinstance(value, str) else json_dumps(value)


def write_csv(records, path) -> None:
    """CSV with the fixed header, UTF-8, LF endings, 17-digit reals; takes
    ExperimentRecords or the rows of `read_csv`."""
    lines = [CSV_HEADER]
    for rec in records:
        lines.append(",".join(_cell(getattr(rec, name)) for name in CSV_COLUMNS))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_cell(cell: str, hint, where: str):
    """Inverse of _cell for a column of type hint; "" is None when the
    hint is Optional.  A cell that _cell never writes is refused, naming
    `where`: an empty one in a column that cannot be null, a bool other
    than true or false, a number that does not parse or a non-finite real."""
    if typing.get_origin(hint) is typing.Union:
        if cell == "":
            return None
        hint = typing.get_args(hint)[0]
    try:
        value = {"true": True, "false": False}[cell] if hint is bool else hint(cell)
    except (KeyError, ValueError):
        value = None
    if value in (None, "") or hint is float and not math.isfinite(value):
        raise ContractViolation("%s: %r is not %s" % (where, cell, {
            bool: "true or false", str: "text", int: "an integer", float: "a finite real"}[hint]))
    return value


def read_csv(path) -> List[types.SimpleNamespace]:
    """Rows of `write_csv`: the CSV columns, typed as ExperimentRecord's."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if not lines or lines[0] != CSV_HEADER:
        raise ContractViolation("unexpected CSV header in %s" % path)
    hints = typing.get_type_hints(ExperimentRecord)
    rows = []
    for lineno, line in enumerate(lines[1:], 2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != len(CSV_COLUMNS):
            raise ContractViolation("bad CSV row: %r" % line)
        rows.append(types.SimpleNamespace(**{
            name: _parse_cell(c, hints[name], "%s line %d, column %s" % (path, lineno, name))
            for name, c in zip(CSV_COLUMNS, cells)}))
    return rows


# ---------------------------------------------------------------------------
# the delta = 1/14 comparison

# constants others have reported for an order-2s constant of 1/14, kept for
# comparison in reports; evaluating the closed forms here gives a different
# pair, so runs emit a discrepancy note instead of asserting either value
REPORTED_PAIR_AT_ONE_FOURTEENTH = (5.06, 10.57)


def compare_reported_constants() -> Dict:
    """Evaluate the general-regime constants at delta = 1/14 and compare with
    the previously reported pair, flagging any >5% discrepancy."""
    delta = 1.0 / 14.0
    c0, c1 = guarantees.constants_general(delta)
    ref_c0, ref_c1 = REPORTED_PAIR_AT_ONE_FOURTEENTH
    rel_c0 = abs(c0 - ref_c0) / ref_c0
    rel_c1 = abs(c1 - ref_c1) / ref_c1
    note = None
    if max(rel_c0, rel_c1) > 0.05:
        note = ("computed constants (%.6g, %.6g) differ from the reported pair "
                "(%.6g, %.6g) by more than 5%%; the reported pair matches an "
                "evaluation near delta ~ 0.2625, not delta = 1/14"
                % (c0, c1, ref_c0, ref_c1))
    return {
        "delta": delta,
        "computed_C0": c0,
        "computed_C1": c1,
        "reported_C0": ref_c0,
        "reported_C1": ref_c1,
        "relative_difference_C0": rel_c0,
        "relative_difference_C1": rel_c1,
        "discrepancy_note": note,
    }
