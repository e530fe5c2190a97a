"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured runtime (run with -s to see them).  Tolerances are fixed here,
not tuned at runtime."""

import contextlib
import math
import time
from unittest import mock

import mpmath as mp
import numpy as np

from framecs import drip, frames, guarantees, sensing, solvers
from framecs.experiment import (
    ExperimentConfig,
    FrameSpec,
    MatrixSpec,
    SignalSpec,
    compare_reported_constants,
    evaluate,
    run_experiment,
    write_csv,
)
from rip_reference import exact_rip

mp.mp.dps = 40


def report(num, detail, t0):
    print("CRITERION %d: PASS - %s (%.3fs)" % (num, detail, time.perf_counter() - t0))


# ---------------------------------------------------------------------------
# independent high-precision oracle (separate code path, extended precision)


def mp_rho_general(d):
    return mp.sqrt(4 * (1 + 5 * d - 4 * d ** 2) / ((1 - d) * (32 - 25 * d)))


def mp_constants_general(d):
    r = mp_rho_general(d)
    c0 = 4 / (1 - r) * mp.sqrt(2 * (2 - d) / ((1 - d) * (32 - 25 * d)))
    return c0, 2 / mp.sqrt(1 - d) * (1 + c0 / mp.sqrt(2))


def mp_rho_special(d):
    return mp.sqrt((1 + d) ** 2 / (8 * (1 - d)))


def mp_constants_special(d):
    r = mp_rho_special(d)
    c0 = mp.sqrt(2) / ((1 - r) * mp.sqrt(1 - d))
    return c0, 2 / mp.sqrt(1 - d) * (1 + c0 / mp.sqrt(2))


def mp_rho_q(d, q):
    d, q = mp.mpf(d), mp.mpf(q)
    return mp.sqrt(d / (1 - d)
                   + q / (2 ** (2 / q) * (1 - d)) * ((2 - q) / (2 - d)) ** (2 / q - 1))


def mp_constants_q(d, q):
    d, q = mp.mpf(d), mp.mpf(q)
    rq = mp_rho_q(d, q) ** q
    c0 = (2 ** (1 / q - 1) / (1 - rq) ** (1 / q)
          * mp.sqrt(((2 - d) * (2 - q) ** ((2 - q) / q) * q + 2 ** (2 / q) * d)
                    / (1 - d)))
    return c0, 2 / mp.sqrt(1 - d) * (1 + c0 / mp.sqrt(2))


def assert_feasible(model, res):
    """The solver invariant ||A f_hat - y|| <= eps + feasibility_slack(eps)."""
    residual = np.linalg.norm(model.A @ res.f_hat - model.y)
    assert residual <= model.epsilon + solvers.feasibility_slack(model.epsilon)


@contextlib.contextmanager
def feasible_results():
    """Checks every solve_p1 / solve_pq result inside the block with
    assert_feasible; yields the list of the results checked."""
    checked = []

    def checking(solve):
        def run(frame, model, *args):
            res = solve(frame, model, *args)
            assert_feasible(model, res)
            checked.append(res)
            return res
        return run

    with mock.patch.object(solvers, "solve_p1", checking(solvers.solve_p1)), \
            mock.patch.object(solvers, "solve_pq", checking(solvers.solve_pq)):
        yield checked


def rel_err(x, ref):
    ref = float(ref)
    return abs(x - ref) / max(abs(ref), 1e-300)


# ---------------------------------------------------------------------------


def test_criterion_1_threshold_root_identities():
    t0 = time.perf_counter()
    thr_g = (77.0 - math.sqrt(1337.0)) / 82.0
    thr_s = 4.0 * math.sqrt(2.0) - 5.0
    err_g = abs(guarantees.rho_general(thr_g) - 1.0)
    err_s = abs(guarantees.rho_special(thr_s) - 1.0)
    elapsed = time.perf_counter() - t0
    assert err_g <= 1e-12 and err_s <= 1e-12
    assert elapsed < 1e-3
    report(1, "root identities |rho(thr)-1| = %.2e / %.2e" % (err_g, err_s), t0)


def test_criterion_2_constant_formula_oracle_agreement():
    t0 = time.perf_counter()
    checked = 0
    worst = 0.0
    for d in np.linspace(0.0, guarantees.threshold_general() - 1e-5, 15):
        c0, c1 = guarantees.constants_general(float(d))
        r0, r1 = mp_constants_general(mp.mpf(float(d)))
        worst = max(worst, rel_err(c0, r0), rel_err(c1, r1))
        checked += 1
    for d in np.linspace(0.0, guarantees.threshold_special() - 1e-5, 15):
        c0, c1 = guarantees.constants_special(float(d))
        r0, r1 = mp_constants_special(mp.mpf(float(d)))
        worst = max(worst, rel_err(c0, r0), rel_err(c1, r1))
        checked += 1
    for d in np.linspace(0.0, 0.45, 5):
        d = float(d)
        q0 = guarantees.q_zero(d)
        for q in np.linspace(0.15, min(0.95, q0 * 0.98), 4):
            q = float(q)
            worst = max(worst, rel_err(guarantees.rho_q(d, q), mp_rho_q(d, q)))
            c0, c1 = guarantees.constants_q(d, q)
            r0, r1 = mp_constants_q(d, q)
            worst = max(worst, rel_err(c0, r0), rel_err(c1, r1))
            checked += 1
    elapsed = time.perf_counter() - t0
    assert checked >= 50
    assert worst <= 1e-10
    assert elapsed < 1.0
    report(2, "%d grid points, worst relative error %.2e" % (checked, worst), t0)


def test_criterion_3_drip_correctness():
    t0 = time.perf_counter()
    rng_master = np.random.default_rng(2024)
    instances = 0
    for seed in range(50):
        n = int(rng_master.integers(6, 13))
        s = int(rng_master.integers(1, 4))
        m = int(rng_master.integers(n, 3 * n))
        a = sensing.gen_gaussian(m, n, seed=seed)
        frame = frames.make_identity_frame(n)
        rep_d = drip.exact_drip(a, frame, s)
        rep_r = exact_rip(a, s)
        assert abs(rep_d.delta - rep_r.delta) <= 1e-10
        lower = drip.random_spectrum_extremes(a, frame, s, 30, seed).report(s)
        assert lower.delta <= rep_d.delta + 1e-10
        # definition check on 1000 seeded sparse vectors
        rng = np.random.default_rng(seed + 9000)
        v = np.zeros((n, 1000))
        for col in range(1000):
            sup = rng.choice(n, s, replace=False)
            v[sup, col] = rng.standard_normal(s)
        norms = np.sum(v * v, axis=0)
        image = a @ v
        inorms = np.sum(image * image, axis=0)
        assert np.all(inorms >= (1 - rep_d.delta - 1e-8) * norms)
        assert np.all(inorms <= (1 + rep_d.delta + 1e-8) * norms)
        instances += 1
    elapsed = time.perf_counter() - t0
    assert instances == 50
    assert elapsed < 60.0
    report(3, "50 instances: exact drip == rip, lower bounds below, "
              "definition sampling clean", t0)


def test_criterion_4_l0_oracle_exact_recovery():
    t0 = time.perf_counter()
    recovered = 0
    seed = 0
    while recovered < 30:
        seed += 1
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 13))
        s = int(rng.integers(1, 3))
        m = max(2 * s + 2, int(rng.integers(n, 2 * n)))
        frame = frames.make_dct_frame(n) if seed % 2 else frames.make_identity_frame(n)
        a = sensing.gen_gaussian(m, n, seed=seed + 4000)
        lo, hi = drip.support_spectrum_range(a, frame, 2 * s)
        a = a * math.sqrt(2.0 / (hi + lo))
        if drip.exact_drip(a, frame, 2 * s).delta >= 1.0:
            continue
        x = np.zeros(n)
        x[rng.choice(n, s, replace=False)] = \
            rng.standard_normal(s) + np.sign(rng.standard_normal(s))
        f = frame.matrix @ x
        model = sensing.measure(a, f, "none")
        res = solvers.solve_p0_oracle(frame, model, s_max=s)
        assert res.converged
        assert np.linalg.norm(res.f_hat - f) <= 1e-9 * (1 + np.linalg.norm(f))
        recovered += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(4, "30/30 planted signals recovered exactly by the l0 oracle", t0)


def _bound_protocol(configs, expect_regime=None):
    checked = violations = gate_skipped = not_conv = 0
    with feasible_results() as results:
        records = [rec for cfg in configs for rec in run_experiment(cfg)]
    assert len(results) == len(records)
    for rec in records:
        if rec.status == "not_converged":
            not_conv += 1
        elif rec.status == "surrogate_gap":
            gate_skipped += 1
        elif rec.status == "ok":
            checked += 1
            if expect_regime is not None:
                assert rec.regime == expect_regime
            if not rec.within_bound:
                violations += 1
    return len(records), checked, violations, gate_skipped, not_conv, records


def test_criterion_5_general_l1_bound_end_to_end():
    t0 = time.perf_counter()
    configs = []
    sizes = [(8, 12, 128, 14), (10, 14, 160, 10), (12, 16, 192, 7),
             (16, 24, 320, 3)]
    base = 0
    for n, d, m, trials in sizes:
        for eps, mode in ((0.0, "none"), (0.05, "bounded"), (0.1, "bounded")):
            configs.append(ExperimentConfig(
                n=n, d=d, m=m, s=2, trials=trials, eps=eps, noise_mode=mode,
                program="p1",
                frame=FrameSpec(kind="random", seed=100 + base),
                matrix=MatrixSpec(kind="gaussian", seed=200 + base,
                                  scale="auto_min"),
                signal=SignalSpec(seed=300 + base), noise_seed=400 + base,
            ))
            base += 1
    trials, checked, violations, gate_skipped, not_conv, recs = \
        _bound_protocol(configs)
    elapsed = time.perf_counter() - t0
    assert trials >= 100
    assert violations == 0
    assert checked >= 70  # the protocol must genuinely exercise the bound
    assert all(r.delta_2s < guarantees.threshold_general()
               for r in recs if r.status == "ok")
    assert elapsed < 600.0
    report(5, "%d trials, %d bound checks, 0 violations (%d gate-skipped, "
              "%d unconverged)" % (trials, checked, gate_skipped, not_conv), t0)


def test_criterion_6_short_partition_bound():
    t0 = time.perf_counter()
    configs = []
    base = 0
    # redundant frames with n < d <= 4s keep the off-support tail genuinely
    # positive (an orthobasis with a noiseless draw would put the bound at
    # round-off scale) and keep the partition short
    for n, d, m in ((6, 8, 96), (7, 8, 112)):
        for target in (0.52, 0.58, 0.63):
            for eps, mode in ((0.0, "none"), (0.05, "bounded"), (0.1, "bounded")):
                configs.append(ExperimentConfig(
                    n=n, d=d, m=m, s=2, trials=2, eps=eps, noise_mode=mode,
                    program="p1",
                    frame=FrameSpec(kind="random", seed=500 + base),
                    matrix=MatrixSpec(kind="gaussian", seed=600 + base,
                                      scale={"target_delta": target}),
                    signal=SignalSpec(seed=700 + base), noise_seed=800 + base,
                ))
                base += 1
    trials, checked, violations, gate_skipped, not_conv, recs = \
        _bound_protocol(configs, expect_regime="special_n_le_4s")
    thr_g, thr_s = guarantees.threshold_general(), guarantees.threshold_special()
    for rec in recs:
        if rec.status == "ok":
            assert rec.n <= 4 * rec.s
            assert thr_g <= rec.delta_2s < thr_s
    elapsed = time.perf_counter() - t0
    assert violations == 0
    assert checked >= 20
    assert elapsed < 300.0
    report(6, "%d trials in the 0.4931 <= delta < 0.656 window, %d checks, "
              "0 violations" % (trials, checked), t0)


def test_criterion_7_lq_bound():
    t0 = time.perf_counter()
    configs = []
    base = 0
    for n, d, m in ((8, 12, 128), (10, 14, 192)):
        for q in (0.5, 0.7):
            for eps, mode in ((0.0, "none"), (0.05, "bounded"), (0.1, "bounded")):
                configs.append(ExperimentConfig(
                    n=n, d=d, m=m, s=2, trials=5, q=q, eps=eps, noise_mode=mode,
                    program="pq",
                    frame=FrameSpec(kind="random", seed=900 + base),
                    matrix=MatrixSpec(kind="gaussian", seed=1000 + base,
                                      scale="auto_min"),
                    signal=SignalSpec(seed=1100 + base), noise_seed=1200 + base,
                ))
                base += 1
    trials, checked, violations, gate_skipped, not_conv, recs = \
        _bound_protocol(configs, expect_regime="lq")
    for rec in recs:
        if rec.status == "ok":
            assert rec.delta_2s < 0.5
            assert rec.q < rec.q0 or rec.q0 == 1.0
    assert trials >= 50
    assert violations == 0
    assert checked >= 30

    # exact-sparse noiseless orthobasis instances recover to 1e-4
    exact_cfg = ExperimentConfig(
        n=10, d=10, m=48, s=2, trials=10, q=0.5, eps=0.0, noise_mode="none",
        program="pq", frame=FrameSpec(kind="dct", seed=0),
        matrix=MatrixSpec(kind="gaussian", seed=77, scale="auto_min"),
        signal=SignalSpec(mode="analysis", seed=88), noise_seed=0,
    )
    with feasible_results() as results:
        exact_records = run_experiment(exact_cfg)
    assert len(results) == len(exact_records)
    assert all(r.err_l2 <= 1e-4 for r in exact_records)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(7, "%d lq trials, %d checks, 0 violations (%d gate-skipped); "
              "10/10 exact noiseless recoveries" % (trials, checked, gate_skipped), t0)


def test_criterion_8_lemma_audit_suite():
    t0 = time.perf_counter()
    # (q, eps) cycles with seed % 3 over (0.5, 0), (1, 0.05), (1, 0.1); q = 1 is P1
    configs = [ExperimentConfig(
        n=6, d=9, m=48, s=2, q=q, eps=eps, noise_mode="bounded" if eps else "none",
        program="pq" if q else "p1", matrix=MatrixSpec(scale="auto_min"),
    ) for q, eps in ((0.5, 0.0), (None, 0.05), (None, 0.1))]
    audited = holds = total = bounded = 0
    seed = 0
    with feasible_results():
        while audited < 200 and seed < 600:
            seed += 1
            frame = frames.make_random_tight_frame(6, 9, seed=seed)
            a = sensing.gen_gaussian(48, 6, seed=seed + 5000)
            rng = np.random.default_rng(seed + 6000)
            x = np.zeros(9)
            x[rng.choice(9, 2, replace=False)] = rng.standard_normal(2)
            seeds = {"frame": seed, "matrix": seed + 5000, "signal": seed + 6000,
                     "noise": seed + 7000}
            rec = evaluate(configs[seed % 3], seed, seeds, frame, a, frame.matrix @ x)
            assert rec.reason is None, "instance seed=%d: %s" % (seed, rec.reason)
            if rec.status == "ok":
                assert rec.within_bound, "instance seed=%d exceeds its bound" % seed
                bounded += 1
            if rec.status not in ("ok", "not_applicable"):
                continue  # unconverged, or the surrogate gate failed: no audit
            audited += 1
            total += rec.audit_total
            holds += rec.audit_pass
            assert rec.audit_pass == rec.audit_total, \
                "instance seed=%d violated %d inequalities" % (
                    seed, rec.audit_total - rec.audit_pass)
    elapsed = time.perf_counter() - t0
    assert audited >= 200
    assert holds == total
    assert elapsed < 300.0
    assert bounded >= 150  # the audit suite also exercises the bound
    report(8, "%d instances, %d/%d inequality records hold" % (audited, holds, total), t0)


def test_criterion_9_compare_reported_constants():
    t0 = time.perf_counter()
    out = compare_reported_constants()
    elapsed = time.perf_counter() - t0
    assert out["reported_C0"] == 5.06 and out["reported_C1"] == 10.57
    assert rel_err(out["computed_C0"], mp_constants_general(mp.mpf(1) / 14)[0]) <= 1e-12
    assert out["discrepancy_note"] is not None  # expected >5% gap
    assert elapsed < 1e-3
    report(9, "computed (%.4f, %.4f) vs reported (5.06, 10.57); note emitted"
           % (out["computed_C0"], out["computed_C1"]), t0)


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        n=8, d=12, m=128, s=2, trials=6, eps=0.05, noise_mode="bounded",
        program="p1", frame=FrameSpec(kind="random", seed=42),
        matrix=MatrixSpec(kind="gaussian", seed=43, scale="auto_min"),
        signal=SignalSpec(seed=44), noise_seed=45,
    )
    paths = []
    for i in range(3):
        path = tmp_path / ("run%d.csv" % i)
        write_csv(run_experiment(cfg), path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1] == paths[2]
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(10, "byte-identical CSV across three repeat runs", t0)
