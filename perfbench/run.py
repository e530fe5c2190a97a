#!/usr/bin/env python3
"""framecs benchmark: one workload per process, timed pass then traced pass.

    python3 perfbench/run.py --workload p1_auto --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The timed pass repeats whole rounds of the workload, uninstrumented, until
``--seconds`` have passed and gives the wall-clock metrics.  The traced pass
then replays the reference rounds (the first rounds, whose inputs do not
depend on the seed; see workloads.py) with module spans and LAPACK counters
installed from outside the program (see tracer.py) and gives the per-layer
metrics and the exact work counts.  Both passes always run; ``--trace``
picks which metrics the last line reports: 0 the end-to-end ones, 1 the
per-layer ones.  Everything else a run measures goes to
``.perfbench/<workload>-seed<seed>-trace<trace>.json``.
"""

import os

# one BLAS thread, fixed before numpy is first imported; child processes
# inherit it
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_SAMPLES = 3      # fresh processes timed from start to first trial,
                       # before the timed pass and again after the checks
DELTA_SAMPLE = 2       # timed trials whose delta is recomputed independently
READY = "ready"


def import_program():
    """Import framecs from this checkout's src/ and nowhere else."""
    if not (SRC / "framecs" / "__init__.py").is_file():
        sys.exit("error: no framecs sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import framecs
    if Path(framecs.__file__).resolve().parent != SRC / "framecs":
        sys.exit("error: framecs imported from %s, not %s" % (framecs.__file__, SRC))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def host_info():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def time_setup(args):
    """Wall times of fresh processes from their start to the point where
    the first timed trial would begin.  The host's speed drifts over
    seconds, so main() takes half of the samples before the passes and half
    after them."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            code = child.wait()
        if line != READY or code != 0:
            sys.exit("error: set-up process failed (exit %d)" % code)
        samples.append(elapsed)
    return samples


def run_round(trials, failures, tracer=None):
    """Run one round; returns [(label, seconds, result or None)].  Traced
    trials get their own labels, so a trial failing in both passes counts
    as two failed operations, as it counts as two attempted ones."""
    out = []
    for trial in trials:
        label = trial.label if tracer is None else "traced-" + trial.label
        result = None
        start = time.perf_counter()
        try:
            if tracer is None:
                result = trial.run()
            else:
                with tracer.trial(trial.label):
                    result = trial.run()
        except Exception:  # a failed trial is counted, not fatal
            failures.append("%s: %s" % (label, traceback.format_exc()))
        out.append((label, time.perf_counter() - start, result))
    return out


def replay_bytes(results, csv_path):
    """Bytes the timed and traced passes must agree on: the CSV of
    run_trial records, or the repr of audit outcomes."""
    from framecs import experiment
    records = [r for _, _, r in results if r is not None]
    if any(hasattr(r, "records") for r in records):
        return repr(records).encode()
    experiment.write_csv(records, csv_path)
    return csv_path.read_bytes()


def timed_pass(workload, seconds, failures):
    """Whole rounds, uninstrumented, until `seconds` have passed (and at
    least the reference rounds have run)."""
    timed, round_s = [], []
    start = time.perf_counter()
    r = 0
    while r < workload.reference_rounds or time.perf_counter() - start < seconds:
        ran = run_round(workload.round(r), failures)
        timed.extend(ran)
        round_s.append(sum(t for _, t, _ in ran))
        r += 1
    return timed, round_s, time.perf_counter() - start


def traced_pass(workload, failures):
    from tracer import Tracer
    tracer = Tracer()
    traced = []
    with tracer:
        for r in range(workload.reference_rounds):
            traced.extend(run_round(workload.round(r), failures, tracer))
    return traced, tracer


def check_run(workload, timed, traced, tracer, failures):
    """Every correctness check; returns (labels of failed operations,
    failure messages, operations the checks ran themselves)."""
    import checks
    failed = {f.split(":", 1)[0] for f in failures}
    problems = []

    def note(messages):
        problems.extend(messages)
        failed.update(msg.split(":", 1)[0] for msg in messages)

    for label, _, rec in timed + traced:
        if rec is not None:
            note(checks.check_result(label, rec))
    done = [(label, rec) for label, _, rec in timed if rec is not None]
    for label, rec in random.Random(workload.seed).sample(done, min(DELTA_SAMPLE, len(done))):
        note(checks.check_delta(label, rec))
    for k, (a, y, eps, f_hat) in enumerate(tracer.solver_results):
        note(checks.check_feasible("solver-result-%d" % k, a, y, eps, f_hat))
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        note(checks.check_same_bytes(
            "replay", replay_bytes(timed[:len(traced)], Path(tmp) / "timed.csv"),
            replay_bytes(traced, Path(tmp) / "traced.csv")))
    extra = workload.extra_trials() if workload.extra_trials else []
    for label, rec in extra:
        note(checks.check_exact_recovery(label, rec))

    # layer self times plus the harness's own time must add up to the traced
    # trial time: a span left open or charged twice breaks this
    traced_s = sum(t for _, t, _ in traced)
    covered_s = sum(tracer.self_s.values())
    if not abs(covered_s - traced_s) <= 0.01 * traced_s:
        note(["accounting: layer times sum to %.4f s, traced trials took %.4f s"
              % (covered_s, traced_s)])
    return failed, problems, len(extra)


def per_layer_metrics(tracer, traced, untraced):
    from tracer import LAYERS
    n = len(traced)

    def lapack_in(layer, kind=None):
        return sum(v for (lay, k), v in tracer.lapack_by_layer.items()
                   if lay == layer and (kind is None or k == kind))

    solver_lstsq = lapack_in("solvers", "lstsq")
    out = {"%s.ms" % layer: (1e3 * tracer.self_s[layer] / n, "ms")
           for layer in LAYERS if layer != "experiment"}
    out.update({
        "experiment.self_ms": (1e3 * tracer.self_s["experiment"] / n, "ms"),
        "drip.calls": (tracer.entries["drip"] / n, "count"),
        "drip.factorizations": (lapack_in("drip") / n, "count"),
        "guarantees.audit_records": (tracer.audit_records / n, "count"),
        "solvers.iters": (tracer.solver_iters / n, "count"),
        "solvers.lstsq": (solver_lstsq / n, "count"),
        "solvers.lstsq_per_iter": (solver_lstsq / max(tracer.solver_iters, 1), "count"),
        "linalg.svd": (tracer.lapack["svd"] / n, "count"),
        "linalg.eigh": (tracer.lapack["eigh"] / n, "count"),
        "linalg.lstsq": (tracer.lapack["lstsq"] / n, "count"),
        "linalg.other": (tracer.lapack["other"] / n, "count"),
        "trace.overhead_ms": (1e3 * sum(t for _, t, _ in traced) / n
                              - 1e3 * sum(t for _, t, _ in untraced) / n, "ms"),
    })
    return out


def main(argv=None):
    args = parse_args(argv)
    import_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit("error: unknown workload %r (have %s)"
                 % (args.workload, ", ".join(WORKLOADS)))
    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        workload.round(0)  # the first round's inputs are part of set-up
        print(READY, flush=True)
        return 0
    if args.seconds <= 0:
        sys.exit("error: --seconds must be positive")

    host = host_info()
    setup = time_setup(args)
    failures = []
    timed, round_s, timed_s = timed_pass(workload, args.seconds, failures)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced, tracer = traced_pass(workload, failures)
    failed, problems, n_extra = check_run(workload, timed, traced, tracer, failures)
    setup += time_setup(args)

    end_to_end = {
        "setup_s": (statistics.median(setup), "s"),
        "trials_per_s": (len(timed) / len(round_s) / statistics.median(round_s), "1/s"),
        "trial_p50_ms": (1e3 * statistics.median(t for _, t, _ in timed), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "factorizations_per_trial": (sum(tracer.lapack.values()) / len(traced), "count"),
    }
    per_layer = per_layer_metrics(tracer, traced, timed[:len(traced)])
    chosen = per_layer if args.trace else end_to_end

    OUT.mkdir(exist_ok=True)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "host": host, "setup_s": setup, "timed_s": timed_s, "round_s": round_s,
        "trials": [(label, t) for label, t, _ in timed],
        "traced_trials": [(label, t) for label, t, _ in traced],
        "end_to_end": {k: v[0] for k, v in end_to_end.items()},
        "per_layer": {k: v[0] for k, v in per_layer.items()},
        "spans": tracer.spans, "failures": failures + problems,
    }
    (OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
     ).write_text(json.dumps(detail, indent=1))

    for msg in failures + problems:
        print("FAIL %s" % msg, file=sys.stderr)
    print("# host " + " ".join("%s=%s" % kv for kv in host.items()))
    print("# %s seed=%d rounds=%d trials=%d traced=%d timed_s=%.2f"
          % (args.workload, args.seed, len(round_s), len(timed), len(traced), timed_s))
    print(json.dumps({
        "correct": not failed, "attempted": len(timed) + len(traced) + n_extra,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
