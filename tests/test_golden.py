"""Pinned golden baseline for end-to-end experiment records.

``tests/data/golden.csv`` holds the CSV rows of the configs below, written
by the per-support reference implementation of the isometry constants
(three rows whose status or audit counts later moved on purpose were
rewritten by the batched kernel, the two ``drip_mode: "lower"`` rows when
their scale came to be picked from the random pass, and ``err_l2`` and
``iters`` of the eight noiseless P1 rows when ``solve_p1`` began to return
the unique feasible point of an injective A at once; see CHANGES.md).  A change that only
re-associates floating-point work (batched SVDs and eigensolvers, a Gram
matrix in place of A @ U) must reproduce it: ints and strings exactly, reals
to |delta| <= 1e-9 * max(1, |x|).  The absolute floor matters: noiseless
recovery errors sit at 1e-15, where round-off alone moves them by over 10 %
relative.

Regenerate (only on purpose, and record why in CHANGES.md) with

    PYTHONPATH=src python tests/test_golden.py

which rewrites every row; keep the old text of rows whose ints and strings
did not move, so the reference reals stay.
"""

import math
from pathlib import Path

from framecs.experiment import (
    ExperimentConfig,
    FrameSpec,
    MatrixSpec,
    SignalSpec,
    read_csv,
    run_experiment,
    write_csv,
)

GOLDEN = Path(__file__).parent / "data" / "golden.csv"
REAL_TOL = 1e-9


def _config(**overrides):
    base = dict(
        n=6, d=9, m=48, s=2, trials=2, eps=0.0, noise_mode="none",
        program="p1",
        frame=FrameSpec(kind="random", seed=21),
        matrix=MatrixSpec(kind="gaussian", seed=22, scale="auto_min"),
        signal=SignalSpec(seed=23), noise_seed=24,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


GOLDEN_CONFIGS = (
    # general l1 regime at the auto_min scale, noiseless and noisy
    _config(),
    _config(eps=0.05, noise_mode="bounded", m=64),
    # a plain numeric scale
    _config(eps=0.1, noise_mode="bounded", m=64,
            matrix=MatrixSpec(kind="gaussian", seed=31, scale=1.0)),
    # the n <= 4s regime, landed by target_delta
    _config(d=8, m=96, eps=0.05, noise_mode="bounded",
            matrix=MatrixSpec(kind="gaussian", seed=11,
                              scale={"target_delta": 0.55})),
    # an unreachable target_delta (falls back to the auto_min scale)
    _config(matrix=MatrixSpec(kind="gaussian", seed=41,
                              scale={"target_delta": 0.01})),
    # the lq regime, noiseless and noisy
    _config(program="pq", q=0.5, m=64),
    _config(program="pq", q=0.7, m=64, eps=0.05, noise_mode="bounded", trials=1),
    # a union of two orthobases, and an order 2s above n
    _config(n=4, d=8, m=40, frame=FrameSpec(kind="union_dct", seed=0)),
    _config(n=4, d=6, m=48, s=3, eps=0.05, noise_mode="bounded"),
    # Bernoulli rows and the randomized lower bound
    _config(eps=0.05, noise_mode="bounded",
            matrix=MatrixSpec(kind="bernoulli", seed=51, scale="auto_min")),
    _config(drip_mode="lower", drip_trials=40, drip_seed=3),
)


def golden_records():
    return [rec for cfg in GOLDEN_CONFIGS for rec in run_experiment(cfg)]


def _close(a, b):
    if a is None or b is None:
        return a is b
    return abs(a - b) <= REAL_TOL * max(1.0, abs(b))


def test_golden_baseline(tmp_path):
    out = tmp_path / "now.csv"
    write_csv(golden_records(), out)
    expected = read_csv(GOLDEN)
    got = read_csv(out)
    assert len(got) == len(expected)
    for i, (row, ref) in enumerate(zip(got, expected)):
        for name, value in vars(ref).items():
            now = getattr(row, name)
            if isinstance(value, float) or (value is None and isinstance(now, float)):
                assert _close(now, value), (i, name, now, value)
            else:
                assert now == value, (i, name, now, value)


def test_golden_covers_the_regimes():
    rows = read_csv(GOLDEN)
    assert {r.regime for r in rows} >= {"general_l1", "special_n_le_4s", "lq"}
    assert {r.status for r in rows} >= {"ok", "lower_bound_only"}
    assert any(r.eps == 0.0 for r in rows) and any(r.eps > 0.0 for r in rows)
    assert all(math.isfinite(r.delta_2s) for r in rows)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    write_csv(golden_records(), GOLDEN)
    print("wrote %s" % GOLDEN)
