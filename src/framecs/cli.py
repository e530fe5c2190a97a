"""Command-line front end.

Subcommands: frame gen|verify, sense gen|probe, drip exact|lower, certify,
solve l1|lq|l0, lemmas audit, experiment run.  Exit codes: 0 success,
1 contract violation, usage error or numerical failure (an overflow or a
LAPACK routine that does not converge on extreme input), 2 I/O error.
"""

import argparse
import sys

import numpy as np

from . import drip, experiment, frames, guarantees, sensing, solvers
from .errors import ContractViolation
from .serialize import json_dumps


class _UsageError(Exception):
    def __init__(self, message, parser):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message, self)


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_vector(path):
    m = frames.load_matrix(path)
    if 1 not in m.shape:
        raise ContractViolation("%s does not hold a vector" % path)
    return m.reshape(-1)


def build_parser() -> _Parser:
    parser = _Parser(prog="framecs",
                     description="Compressed sensing with coherent tight frames: "
                                 "build frames and measurements, certify isometry "
                                 "constants and recovery guarantees, solve the "
                                 "l1/lq/l0 analysis programs, audit the bound "
                                 "machinery.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("frame", help="construct or validate tight frames")
    fsub = p.add_subparsers(dest="action", required=True)
    g = fsub.add_parser("gen", help="generate a frame and write it as text")
    g.add_argument("--kind", choices=frames.FRAME_KINDS, default="random")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--d", type=int, help="frame size (defaults per kind)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="output path")
    v = fsub.add_parser("verify", help="report tightness defect and coherence")
    v.add_argument("--frame", required=True, help="frame file")
    v.add_argument("--out")

    p = sub.add_parser("sense", help="measurement matrices and probes")
    ssub = p.add_subparsers(dest="action", required=True)
    g = ssub.add_parser("gen", help="generate a measurement matrix")
    g.add_argument("--kind", choices=sensing.MATRIX_KINDS, default="gaussian")
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    pr = ssub.add_parser("probe", help="empirical norm-concentration frequency")
    pr.add_argument("--kind", choices=sensing.MATRIX_KINDS, default="gaussian")
    pr.add_argument("--m", type=int, required=True)
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--delta", type=float, required=True)
    pr.add_argument("--trials", type=int, default=200)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--nu", help="vector file; defaults to all ones")
    pr.add_argument("--out")

    p = sub.add_parser("drip", help="restricted isometry constants")
    dsub = p.add_subparsers(dest="action", required=True)
    for name in ("exact", "lower"):
        e = dsub.add_parser(name)
        e.add_argument("--matrix", required=True)
        e.add_argument("--frame", help="frame file; defaults to the identity")
        e.add_argument("--s", type=int, required=True)
        e.add_argument("--out")
        if name == "lower":
            e.add_argument("--trials", type=int, default=2000)
            e.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("certify", help="guarantee certificates for a constant")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--q", type=float)
    p.add_argument("--out")

    p = sub.add_parser("solve", help="run a recovery program")
    solsub = p.add_subparsers(dest="action", required=True)
    for name in ("l1", "lq", "l0"):
        e = solsub.add_parser(name)
        e.add_argument("--matrix", required=True)
        e.add_argument("--frame", help="frame file; defaults to the identity")
        e.add_argument("--y", required=True, help="observation vector file")
        e.add_argument("--eps", type=float, default=0.0)
        e.add_argument("--out")
        if name == "lq":
            e.add_argument("--q", type=float, required=True)
        if name == "l0":
            e.add_argument("--s-max", type=int, required=True)

    p = sub.add_parser("lemmas", help="audit the guarantee inequality chain")
    lsub = p.add_subparsers(dest="action", required=True)
    au = lsub.add_parser("audit")
    au.add_argument("--matrix", required=True)
    au.add_argument("--frame", help="frame file; defaults to the identity")
    au.add_argument("--f", required=True, help="true signal file")
    au.add_argument("--fhat", required=True, help="candidate file")
    au.add_argument("--y", help="observation file (enables feasibility checks)")
    au.add_argument("--s", type=int, required=True)
    au.add_argument("--q", type=float, default=1.0)
    au.add_argument("--eps", type=float, default=0.0)
    au.add_argument("--out")

    p = sub.add_parser("experiment", help="end-to-end bound verification runs")
    esub = p.add_subparsers(dest="action", required=True)
    r = esub.add_parser("run")
    r.add_argument("--config", required=True, help="JSON config file")
    r.add_argument("--out", help="output path (CSV needs one)")
    r.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("compare", help="constants at delta = 1/14 vs the reported pair")
    p.add_argument("--out")

    return parser


def _frame_for(args, n):
    if args.frame:
        return frames.TightFrame(frames.load_matrix(args.frame))
    return frames.make_identity_frame(n)


def _run(args) -> int:
    if args.command == "frame":
        if args.action == "gen":
            fr = frames.make_frame(args.kind, args.n, args.d, args.seed)
            frames.save_matrix(args.out, fr.matrix)
            print("wrote %d x %d frame to %s" % (fr.n, fr.d, args.out))
        else:
            m = frames.load_matrix(args.frame)
            defect = frames.tightness_defect(m)
            nonzero_columns = bool(np.all(np.linalg.norm(m, axis=0) > 0.0))
            coherence = None
            if m.shape[1] >= 2 and nonzero_columns:
                coherence = frames.column_coherence(m)
            report = {
                "n": m.shape[0], "d": m.shape[1],
                "defect": defect,
                "nonzero_columns": nonzero_columns,
                "tight": bool(defect <= frames.TIGHT_TOL and nonzero_columns),
                "coherence": coherence,
            }
            _emit(json_dumps(report), args.out)
        return 0

    if args.command == "sense":
        if args.action == "gen":
            a = sensing.gen_matrix(args.kind, args.m, args.n, args.seed)
            frames.save_matrix(args.out, a)
            print("wrote %d x %d matrix to %s" % (args.m, args.n, args.out))
        else:
            nu = _load_vector(args.nu) if args.nu else np.ones(args.n)
            freq = sensing.concentration_probe(args.kind, args.m, args.n, nu,
                                               args.delta, args.trials, args.seed)
            _emit(json_dumps({"empirical_prob": freq, "trials": args.trials,
                              "m": args.m, "n": args.n, "delta": args.delta}),
                  args.out)
        return 0

    if args.command == "drip":
        a = frames.load_matrix(args.matrix)
        fr = _frame_for(args, a.shape[1])
        if args.action == "exact":
            report = drip.exact_drip(a, fr, args.s)
        else:
            report = drip.random_spectrum_extremes(a, fr, args.s, args.trials,
                                                   args.seed).report(args.s)
        _emit(json_dumps(report), args.out)
        return 0

    if args.command == "certify":
        certs = guarantees.certify(args.delta, args.n, args.s, q_opt=args.q)
        _emit(json_dumps(certs), args.out)
        return 0

    if args.command == "solve":
        a = frames.load_matrix(args.matrix)
        fr = _frame_for(args, a.shape[1])
        y = _load_vector(args.y)
        model = sensing.SensingModel(A=a, y=y, epsilon=args.eps)
        if args.action == "l1":
            res = solvers.solve_p1(fr, model)
        elif args.action == "lq":
            res = solvers.solve_pq(fr, model, args.q)
        else:
            res = solvers.solve_p0_oracle(fr, model, args.s_max)
        _emit(json_dumps(res), args.out)
        return 0

    if args.command == "lemmas":
        a = frames.load_matrix(args.matrix)
        fr = _frame_for(args, a.shape[1])
        f = _load_vector(args.f)
        f_hat = _load_vector(args.fhat)
        y = _load_vector(args.y) if args.y else None
        rip = drip.exact_drip(a, fr, 2 * args.s)
        records = guarantees.audit_lemmas(fr, a, f, f_hat, args.s, args.q,
                                          args.eps, rip.delta, y=y)
        payload = {
            "delta_2s": rip.delta,
            "records": records,
            "holds": sum(1 for r in records if r.holds),
            "total": len(records),
        }
        _emit(json_dumps(payload), args.out)
        return 0

    if args.command == "experiment":
        if args.format == "csv" and not args.out:
            raise ContractViolation("CSV output needs --out")
        config = experiment.ExperimentConfig.from_json_file(args.config)
        records = experiment.run_experiment(config)
        if args.format == "json":
            _emit(json_dumps(records), args.out)
        else:
            experiment.write_csv(records, args.out)
            print("wrote %d records to %s" % (len(records), args.out))
        return 0

    if args.command == "compare":
        _emit(json_dumps(experiment.compare_reported_constants()), args.out)
        return 0

    raise ContractViolation("unknown command %r" % args.command)


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(err.parser.format_usage(), file=sys.stderr, end="")
        print("error: %s" % err, file=sys.stderr)
        return 1
    except SystemExit as err:  # --help
        return int(err.code or 0)
    try:
        return _run(args)
    except ContractViolation as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    except (ArithmeticError, np.linalg.LinAlgError) as err:
        print("error: numerical failure (%s: %s)" % (type(err).__name__, err), file=sys.stderr)
        return 1
    except OSError as err:
        print("i/o error: %s" % err, file=sys.stderr)
        return 2


def console_main():
    sys.exit(cli_main())


if __name__ == "__main__":
    console_main()
