"""The benchmark's workloads: seeded inputs, grouped into identical rounds.

Every workload is a list of rounds; round r holds the same kinds of trial in
the same order as every other round, on fresh inputs.  A run always times
whole rounds, so the mix of trial sizes, and with it the median trial time,
does not depend on how far a run gets.

``--seed`` offsets every seed the trials use, except in the first
``reference_rounds`` rounds: those are the reference rounds, the same inputs
on every run.  The traced pass replays them, so its work counts (LAPACK
matrices, solver iterations) repeat exactly from run to run and seed to
seed; solver work depends on the data, and a seeded traced pass would make
the counts wander by about 12 % between seeds on pq_noisy.  Seed 0
reproduces the seeds of the acceptance criteria the workloads are cut from.

A trial returns the object whose correctness the checks examine: an
``ExperimentRecord`` for trials run through ``experiment.run_trial``, an
``AuditOutcome`` for the audit loop.
"""

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from framecs import drip, experiment, frames, guarantees, sensing, solvers
from framecs.experiment import ExperimentConfig, FrameSpec, MatrixSpec, SignalSpec

# Seeds of different --seed values never meet: every seed a workload derives
# stays below this stride.
SEED_STRIDE = 1_000_000


@dataclass(frozen=True)
class Trial:
    label: str
    run: Callable[[], object]


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    make_round: Callable[[int, int], List[Trial]]  # (seed, round) -> trials
    reference_rounds: int
    # trials the checks run once, outside both passes: () -> [(label, result)]
    extra_trials: Optional[Callable[[], List[Tuple[str, object]]]] = None

    def round(self, r):
        """Round r of this run; reference rounds ignore the seed."""
        return self.make_round(0 if r < self.reference_rounds else self.seed, r)


# -- p1_auto: the criterion-5 grid ------------------------------------------

# (n, d, m, trials per round).  The weights keep the median trial inside the
# (10, 14) group, away from the jump to the next size, so it does not flip
# between groups from run to run; the (16, 24) trial enumerates C(24, 4) =
# 10 626 supports twice and is about half of each round's time.
P1_SIZES = ((8, 12, 128, 4), (10, 14, 160, 3), (12, 16, 192, 2), (16, 24, 320, 1))
NOISE = ((0.0, "none"), (0.05, "bounded"), (0.1, "bounded"))


def _p1_configs(seed):
    off = seed * SEED_STRIDE
    grid = {}
    base = 0
    for n, d, m, _ in P1_SIZES:
        for k, (eps, mode) in enumerate(NOISE):
            grid[(n, k)] = ExperimentConfig(
                n=n, d=d, m=m, s=2, trials=1, eps=eps, noise_mode=mode,
                program="p1",
                frame=FrameSpec(kind="random", seed=off + 100 + base),
                matrix=MatrixSpec(kind="gaussian", seed=off + 200 + base,
                                  scale="auto_min"),
                signal=SignalSpec(seed=off + 300 + base),
                noise_seed=off + 400 + base)
            base += 1
    return grid


def p1_auto(seed):
    slots = [(n, w) for n, _, _, weight in P1_SIZES for w in range(weight)]

    def make_round(seed, r):
        grid = _p1_configs(seed)
        trials = []
        for pos, (n, _) in enumerate(slots):
            config = grid[(n, (pos + r) % len(NOISE))]
            index = r * len(slots) + pos
            trials.append(Trial(
                "n%d-eps%g-t%d" % (n, config.eps, index),
                lambda c=config, t=index: experiment.run_trial(c, t)))
        return trials

    return Workload("p1_auto", seed, make_round, reference_rounds=1)


# -- pq_noisy: the eps > 0 half of the criterion-7 grid ----------------------

# pq_noisy is not in BENCHMARK.json: its trials take 0.5-3.5 s each, with
# the work set by the data, so a run of tens of seconds holds too few of them
# for its times to stay within the bounds from seed to seed (README).  Its
# traced pass, on the reference round, still gives exact lq work counts.
PQ_SIZES = ((8, 12, 128), (10, 14, 192))
PQ_QS = (0.5, 0.7)


def _pq_configs(seed):
    off = seed * SEED_STRIDE
    configs = []
    base = 0
    for n, d, m in PQ_SIZES:
        for q in PQ_QS:
            for eps, mode in NOISE:
                if eps > 0.0:
                    configs.append(ExperimentConfig(
                        n=n, d=d, m=m, s=2, trials=1, q=q, eps=eps,
                        noise_mode=mode, program="pq",
                        frame=FrameSpec(kind="random", seed=off + 900 + base),
                        matrix=MatrixSpec(kind="gaussian", seed=off + 1000 + base,
                                          scale="auto_min"),
                        signal=SignalSpec(seed=off + 1100 + base),
                        noise_seed=off + 1200 + base))
                base += 1
    return configs


def _dct_instances(seed):
    # the criterion-7 noiseless orthobasis instances: exact recovery expected
    off = seed * SEED_STRIDE
    config = ExperimentConfig(
        n=10, d=10, m=48, s=2, trials=10, q=0.5, eps=0.0, noise_mode="none",
        program="pq", frame=FrameSpec(kind="dct", seed=0),
        matrix=MatrixSpec(kind="gaussian", seed=off + 77, scale="auto_min"),
        signal=SignalSpec(mode="analysis", seed=off + 88), noise_seed=0)
    return [("dct-t%d" % t, experiment.run_trial(config, t))
            for t in range(config.trials)]


def pq_noisy(seed):
    def make_round(seed, r):
        return [Trial("n%d-q%g-eps%g-t%d" % (c.n, c.q, c.eps, r),
                      lambda c=c, t=r: experiment.run_trial(c, t))
                for c in _pq_configs(seed)]

    return Workload("pq_noisy", seed, make_round, reference_rounds=1,
                    extra_trials=lambda: _dct_instances(seed))


# -- audit_small: the criterion-8 loop ---------------------------------------

AUDIT_N, AUDIT_D, AUDIT_M, AUDIT_S = 6, 9, 48, 2
AUDIT_ROUND = 6


@dataclass(frozen=True)
class AuditOutcome:
    """What one audit instance produced; the size and seed fields mirror
    ExperimentRecord's, so the same independent delta check applies."""
    n: int
    d: int
    m: int
    s: int
    seeds: Dict[str, int]
    q: float
    eps: float
    delta_2s: float
    audited: bool
    records: Tuple[Tuple[str, float, float, bool], ...]


def audit_instance(seed):
    """One criterion-8 instance: P1 (or noiseless lq), then audit_lemmas.

    Instances whose solver does not converge, or whose result beats the true
    signal's objective, are not audited, exactly as in the criterion."""
    q = 1.0 if seed % 3 else 0.5
    eps = (0.0, 0.05, 0.1)[seed % 3]
    seeds = {"frame": seed, "matrix": seed + 5000}
    frame = frames.make_random_tight_frame(AUDIT_N, AUDIT_D, seed=seeds["frame"])
    a = sensing.gen_gaussian(AUDIT_M, AUDIT_N, seed=seeds["matrix"])
    lo, hi = drip.support_spectrum_range(a, frame, 2 * AUDIT_S)
    a = a * math.sqrt(2.0 / (hi + lo))
    rng = np.random.default_rng(seed + 6000)
    x = np.zeros(AUDIT_D)
    x[rng.choice(AUDIT_D, AUDIT_S, replace=False)] = rng.standard_normal(AUDIT_S)
    f = frame.matrix @ x
    model = sensing.measure(a, f, "bounded" if eps else "none", eps,
                            seed=seed + 7000)
    delta = drip.exact_drip(a, frame, 2 * AUDIT_S).delta
    if q == 1.0:
        res = solvers.solve_p1(frame, model)
    else:
        res = solvers.solve_pq(frame, model, q)
    outcome = dict(n=AUDIT_N, d=AUDIT_D, m=AUDIT_M, s=AUDIT_S, seeds=seeds, q=q,
                   eps=model.epsilon, delta_2s=delta)
    if not res.converged:
        return AuditOutcome(audited=False, records=(), **outcome)
    coeffs_hat = frame.matrix.T @ res.f_hat
    coeffs_true = frame.matrix.T @ f
    if np.sum(np.abs(coeffs_hat) ** q) > np.sum(np.abs(coeffs_true) ** q):
        return AuditOutcome(audited=False, records=(), **outcome)
    records = guarantees.audit_lemmas(frame, a, f, res.f_hat, AUDIT_S, q,
                                      model.epsilon, delta, y=model.y)
    return AuditOutcome(
        audited=True,
        records=tuple((r.lemma_id, r.lhs, r.rhs, r.holds) for r in records),
        **outcome)


def audit_small(seed):
    def make_round(seed, r):
        # instance numbers start at 1 as in the criterion; the stride is a
        # multiple of 3, so each position in a round keeps its (q, eps)
        first = 1 + seed * SEED_STRIDE * 3 + r * AUDIT_ROUND
        return [Trial("audit-%d" % i, lambda i=i: audit_instance(i))
                for i in range(first, first + AUDIT_ROUND)]

    return Workload("audit_small", seed, make_round, reference_rounds=8)


WORKLOADS = {"p1_auto": p1_auto, "pq_noisy": pq_noisy, "audit_small": audit_small}
