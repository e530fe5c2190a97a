#!/usr/bin/env python3
"""Self-test of the benchmark's own instruments and checks.

    python3 perfbench/selftest.py

Shows that the LAPACK counter counts every matrix of a batched call and the
SVD behind ``np.linalg.norm(x, 2)``, that spans are charged to the right
layer and add up to the trial, and that every correctness check passes on a
real result and fails once a wrong value is planted in it.  Exits 0 when
every case behaves, 1 otherwise.
"""

import sys
import time
from dataclasses import replace

import run  # sets the BLAS thread count before numpy is imported

run.import_program()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from framecs import drip, frames, sensing  # noqa: E402
from tracer import Tracer  # noqa: E402

FAILED = []


def expect(name, ok):
    print("%s %s" % ("ok  " if ok else "FAIL", name))
    if not ok:
        FAILED.append(name)


def counters():
    rng = np.random.default_rng(0)
    batch = rng.standard_normal((7, 4, 4))
    batch = batch @ np.swapaxes(batch, 1, 2)
    with Tracer() as first:
        np.linalg.eigvalsh(batch)
    expect("batched eigvalsh of 7 matrices counts 7 eigh", first.lapack["eigh"] == 7)
    with Tracer() as t:
        np.linalg.norm(rng.standard_normal((5, 3)), 2)
        np.linalg.norm(rng.standard_normal(5))
    expect("norm(x, 2) of a matrix counts one SVD, a vector norm none",
           t.lapack["svd"] == 1 and sum(t.lapack.values()) == 1)
    with Tracer() as t:
        np.linalg.lstsq(rng.standard_normal((6, 3)), rng.standard_normal(6), rcond=None)
        np.linalg.qr(rng.standard_normal((4, 4)))
    # numpy's reduced QR hands the matrix to LAPACK twice: factor, then form Q
    expect("lstsq counts one lstsq, reduced qr two other",
           t.lapack["lstsq"] == 1 and t.lapack["other"] == 2)
    np.linalg.eigvalsh(batch)
    expect("uninstall stops counting", first.lapack["eigh"] == 7)


def spans():
    frame = frames.make_random_tight_frame(6, 9, seed=1)
    a = sensing.gen_gaussian(48, 6, seed=2)
    with Tracer() as t:
        start = time.perf_counter()
        with t.trial("one"):
            drip.exact_drip(a, frame, 4)
        elapsed = time.perf_counter() - start
    expect("one exact_drip call enters drip once", t.entries["drip"] == 1)
    expect("its 126 supports give 126 SVDs and 126 eigh, all in drip",
           t.lapack_by_layer[("drip", "svd")] == 126
           and t.lapack_by_layer[("drip", "eigh")] == 126)
    covered = sum(t.self_s.values())
    expect("self times add up to the trial",
           abs(covered - elapsed) <= 0.01 * elapsed)
    expect("tracer removed: drip.exact_drip is the original again",
           not hasattr(drip.exact_drip, "__wrapped__"))


def planted():
    rec = workloads.p1_auto(0).round(0)[1].run()  # (8, 12, 128), eps 0.05
    outcome = workloads.audit_instance(1)
    cases = [
        ("delta", lambda r: checks.check_delta("t", r),
         rec, replace(rec, delta_2s=rec.delta_2s + 1e-6)),
        ("audit-instance delta", lambda o: checks.check_delta("t", o),
         outcome, replace(outcome, delta_2s=outcome.delta_2s * (1 + 1e-7))),
        ("bound", lambda r: checks.check_bound("t", r),
         rec, replace(rec, err_l2=2.0 * rec.bound)),
        ("within_bound flag", lambda r: checks.check_bound("t", r),
         rec, replace(rec, within_bound=False)),
        ("audit counts", lambda r: checks.check_audit("t", r),
         rec, replace(rec, audit_pass=rec.audit_total - 1)),
        ("audited records hold", lambda o: checks.check_audit_outcome("t", o),
         outcome, replace(outcome, records=outcome.records[:-1]
                          + (outcome.records[-1][:3] + (False,),))),
        ("exact recovery", lambda r: checks.check_exact_recovery("t", r),
         replace(rec, err_l2=1e-9), replace(rec, err_l2=1e-3)),
        ("same bytes", lambda b: checks.check_same_bytes("t", b"x", b),
         b"x", b"y"),
    ]
    expect("real p1 record is ok and audited",
           rec.status == "ok" and rec.audit_total > 0)
    expect("real audit instance was audited", outcome.audited)
    for name, check, good, bad in cases:
        expect("%s check passes on the real value" % name, check(good) == [])
        expect("%s check fails on a planted wrong value" % name, check(bad) != [])
    a = np.eye(3)
    y = np.ones(3)
    expect("feasibility check passes inside the ball",
           checks.check_feasible("t", a, y, 0.1, y + 0.05) == [])
    expect("feasibility check fails just outside it",
           checks.check_feasible("t", a, y, 0.1, y + 0.1) != [])


def main():
    counters()
    spans()
    planted()
    print("%d failed" % len(FAILED))
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
