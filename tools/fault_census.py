"""Planted-fault census: which one-line faults the tier-1 suite notices.

    python3 tools/fault_census.py [NAME_SUBSTRING ...]

For each fault in FAULTS (or those whose name contains any NAME_SUBSTRING),
copy src/, tests/ and pyproject.toml to a temporary directory, replace the
fault's text there, and run the suite with -x and a fixed hypothesis seed,
so that verdicts repeat from run to run.  A fault is killed when the suite
fails (the first failing test is printed) and survived when it passes.  No
file of the checkout is edited.  A fault whose text does not occur exactly
once in its file is stale (an edit disarmed it): every run checks every
entry of FAULTS and NON_FAULTS, chosen or not, prints their counts, names
every stale entry and every NAME_SUBSTRING that names no fault, and exits 1
before running any suite.  After the runs it exits 1 if any chosen fault
survived, so a full run exits 0 only when every fault is killed.  Edits
that change no result, and so survive by design, are kept with the reason
in NON_FAULTS, which is checked for staleness but never run.
"""

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DRIP, GUAR, SOLV = "src/framecs/drip.py", "src/framecs/guarantees.py", "src/framecs/solvers.py"
EXPT, SER, SENS = "src/framecs/experiment.py", "src/framecs/serialize.py", "src/framecs/sensing.py"
LINALG, FRAMES, CLI = "src/framecs/linalg.py", "src/framecs/frames.py", "src/framecs/cli.py"
RNG = "src/framecs/rng.py"
P0_SCALED_TOL = ("exp = int(np.frexp(np.abs(y).max(initial=0.0))[1])\n"
                 "    y = np.ldexp(y, -exp)\n    tol = TOL * float(np.linalg.norm(y))")

# (name, file, text, replacement); text occurs exactly once in the file
FAULTS = [
    ("G left unscaled (= Phi)", DRIP, "r[:, None] * phi * r", "phi"),
    ("margin sign flipped", DRIP,
     "t_lo, t_hi = lo + margin, hi - margin", "t_lo, t_hi = lo - margin, hi + margin"),
    ("margin zero", DRIP, "INSIDE_RTOL = 1e-9", "INSIDE_RTOL = 0.0"),
    ("Cholesky shift c = 0", DRIP,
     "-= 2 * (k + 2) * k * 2.0**-53 * scale", "-= 0.0 * scale"),
    ("last pivot unchecked", DRIP, "ok &= x[j, j] > 0", "ok &= (x[j, j] > 0) | (j == k - 1)"),
    ("pivot test loosened to >= 0", DRIP, "ok &= x[j, j] > 0", "ok &= x[j, j] >= 0"),
    ("only the t_hi side tested", DRIP,
     "_definite(x, scale).all(axis=-1)", "_definite(x, scale)[:, 0]"),
    ("rank rule counts every singular value", LINALG,
     "np.count_nonzero(svals > DEFAULT_TOL * svals[..., :1], axis=-1)",
     "np.count_nonzero(svals >= 0, axis=-1)"),
    ("form on all of U, not its rank-r part", DRIP, "basis = u[sel, :, :r]", "basis = u[sel]"),
    ("witness position not offset by the chunk start", DRIP,
     "lo_at = float(c_lo[i]), (start + i,", "lo_at = float(c_lo[i]), (i,"),
    ("picks ordered lowest key first for the top extreme", DRIP,
     "np.argsort(-key_hi", "np.argsort(key_hi"),
    ("pick keys from the diagonal quotients alone", DRIP,
     "list(combinations(range(idx.shape[1]), 2)) or [(0, 0)]",
     "[(t, t) for t in range(idx.shape[1])]"),
    ("bottom pair key taken as the largest of the pairs", DRIP,
     "unit.bottom[pairs].min(axis=1)", "unit.bottom[pairs].max(axis=1)"),
    ("flat pairs taken by the closed form", DRIP, "FLAT_PAIR = 1e-6", "FLAT_PAIR = -1.0"),
    ("rank loop visits only the largest rank", DRIP,
     "for r in np.flatnonzero(np.bincount(rank)):",
     "for r in np.flatnonzero(np.bincount(rank))[-1:]:"),
    ("a round solves every open support without re-proving", DRIP,
     "            k *= 2", "            k = len(idx)"),
    ("support_chunks drops the last short chunk", DRIP,
     "for start in range(0, total, rows):", "for start in range(0, total - rows + 1, rows):"),
    ("package rank tolerance 1e-20", LINALG, "DEFAULT_TOL = 1e-10", "DEFAULT_TOL = 1e-20"),
    ("scale resolved from (hi, lo)", EXPT,
     "spectrum.lo, spectrum.hi)", "spectrum.hi, spectrum.lo)"),
    ("target_delta scale set from the lower side", EXPT,
     "return math.sqrt((1.0 + t) / hi), None", "return math.sqrt((1.0 - t) / lo), None"),
    ("reals written at 16 significant digits", SER, 'format(x, ".17g")', 'format(x, ".16g")'),
    ("q_zero returns the bracket midpoint", GUAR, "            hi = mid\n    return lo",
     "            hi = mid\n    return 0.5 * (lo + hi)"),
    ("q_zero returns the bracket upper end", GUAR, "            hi = mid\n    return lo",
     "            hi = mid\n    return hi"),
    ("q_zero bracket width 1e-6", GUAR, "while hi - lo > 1e-9:", "while hi - lo > 1e-6:"),
    ("feasibility slack x1000", SOLV,
     "return eps * 1e-6 + 1e-9", "return 1000 * (eps * 1e-6 + 1e-9)"),
    ("TOL above the feasibility slack", SOLV, "TOL = 1e-9", "TOL = 2e-9"),
    ("no-feasible-point exit at any residual past eps", SOLV,
     "residual - eps > TOL", "residual - eps > 0.0"),
    ("oracle takes the last hit in a chunk", SOLV, "np.argmax(residual <= tol)",
     "len(residual) - 1 - np.argmax(residual[::-1] <= tol)"),
    ("oracle iterations omit earlier chunks of the size", SOLV,
     "tested + i + 1", "sum(math.comb(d, k) for k in range(size)) + i + 1"),
    ("oracle returns zero when no support solves", SOLV,
     "return result(f0, tested, False,", "return result(np.zeros(frame.n), tested, False,"),
    ("P0 searches past a refused start", SOLV,
     "    f0 = _span_coordinates(SensingModel(a, y, 0.0))[2]\n    unscaled(f0)",
     "    try:\n        f0 = _span_coordinates(SensingModel(a, y, 0.0))[2]\n"
     "    except ContractViolation:\n        f0 = np.full(frame.n, np.nan)\n    pass"),
    ("P0 hit rule on unscaled y", SOLV,
     "exp = int(np.frexp(np.abs(y).max(initial=0.0))[1])", "exp = 0"),
    ("audit skips the surrogate gate", GUAR, "    if not lq_gate:", "    if False:"),
    ("audit feasibility slack x1000", GUAR, "feas_slack = feasibility_slack(eps)",
     "feas_slack = 1000 * feasibility_slack(eps)"),
    ("audit omega_q taken from the l1 masses", GUAR,
     "omega_q = _first_share(lqq)", "omega_q = _first_share(l1)"),
    ("audit spread pads full blocks too", GUAR,
     "block_mags.max() - (block_mags.min() if len(idx) == s else 0.0)", "block_mags.max()"),
    ("audit z23 images take rows 2:5", GUAR,
     "dz[2:4].sum(axis=0), adz[2:4].sum(axis=0)", "dz[2:5].sum(axis=0), adz[2:5].sum(axis=0)"),
    ("special regime ignores n <= 4 s", GUAR, "other_holds=n <= 4 * s", "other_holds=True"),
    # the two absolute hit rules read the unscaled y, as an absolute rule would
    ("oracle hit rule absolute in y", SOLV, P0_SCALED_TOL, "exp = 0\n    tol = TOL"),
    ("oracle hit rule absolute below ||y|| = 1", SOLV, P0_SCALED_TOL,
     "exp = 0\n    tol = TOL * max(1.0, float(np.linalg.norm(y)))"),
    ("cosupport kernel reports every system as full rank", SOLV,
     "yield idx, f, residual, rank", "yield idx, f, residual, np.full_like(rank, frame.n)"),
    ("cosupport chunks exceed CHUNK_FLOATS", SOLV,
     "max(1, CHUNK_FLOATS // stacked.size)", "max(1, 2 * CHUNK_FLOATS // stacked.size)"),
    ("unconverged solve reported as converged", EXPT,
     "elif not res.converged:", "elif False:"),
    ("shape check refuses only extra columns", FRAMES,
     "if a.shape[1] != self.n:", "if a.shape[1] > self.n:"),
    ("result residual taken at zero, not at f_hat", SOLV,
     "residual=_residual(model.A, f, model.y)", "residual=_residual(model.A, 0 * f, model.y)"),
    ("weighted-solve floor counts zero singular values twice", SOLV,
     "res = math.sqrt(float(r @ r) + perp2)",
     "res = math.sqrt(float(r @ r) + perp2 + float(np.sum(beta[sig == 0.0] ** 2)))"),
    ("config drip_mode unchecked", EXPT,
     'if self.drip_mode not in ("exact", "lower"):', "if False:"),
    ("a matrix file read as a vector", CLI, "if 1 not in m.shape:", "if False:"),
    ("CSV output without --out runs the trials", CLI,
     'if args.format == "csv" and not args.out:', "if False:"),
    ("s-term head breaks ties toward the highest index", FRAMES,
     'return np.argsort(-np.abs(x), kind="stable")[:s]',
     'return (x.shape[0] - 1 - np.argsort(-np.abs(x[::-1]), kind="stable"))[:s]'),
    ("audit tail keeps the head", GUAR, "tail[list(blocks[0])] = 0.0", "pass"),
    ("P1 certificate always the first", EXPT,
     "next((c for c in certs if c.applicable), certs[0])", "certs[0]"),
    ("error bound drops the eps term", GUAR,
     "s ** (1.0 / q - 0.5) + c1 * eps", "s ** (1.0 / q - 0.5)"),
    ("best s-term tail returned as the lq mass", FRAMES,
     "lq_mass(tail, q) ** (1.0 / q)", "lq_mass(tail, q)"),
    ("zero-feasible exit never taken", SOLV,
     "if float(np.linalg.norm(y)) <= eps:", "if False:"),
    ("unreachable target_delta reason never set", EXPT,
     "    if why:\n        reasons.append(why)", "    if False:\n        reasons.append(why)"),
    ("bounded noise not rescaled to its level", SENS,
     "z = direction * (level / np.linalg.norm(direction))", "z = direction"),
    ("CSV None cell written as None", EXPT,
     'if value is None:\n        return ""', 'if value is None:\n        return "None"'),
    ("CSV text cells quoted", EXPT,
     "return value if isinstance(value, str) else json_dumps(value)",
     "return json_dumps(value)"),
    ("unique-point exit at rank n - 1", SOLV,
     "rank == a.shape[1]:", "rank >= a.shape[1] - 1:"),
    ("JSON and CSV booleans written as True/False", SER,
     '    elif obj is True:\n        out.append("true")\n    elif obj is False:\n'
     '        out.append("false")',
     "    elif isinstance(obj, bool):\n        out.append(str(obj))"),
    ("rng substreams ignore their index", RNG,
     "spawn_key=(int(index),))\n    )", "spawn_key=())\n    )"),
    ("P1 dual clip widened to +-2", SOLV,
     "np.minimum(np.maximum(p_new, -1.0, out=p_new), 1.0, out=p_new)",
     "np.minimum(np.maximum(p_new, -2.0, out=p_new), 2.0, out=p_new)"),
    ("P1 eps-ball shrink dropped", SOLV,
     "r_new *= max(0.0, 1.0 - sigma * eps / norm_w)", "pass"),
    ("P1 rebalance shrinks tau on both sides", SOLV,
     "tau *= 1.0 + balance", "tau /= 1.0 + balance"),
    ("Pq smoothing level never shrinks", SOLV,
     "mu = max(CONTINUATION_FACTOR * mu, SMOOTHING_FLOOR)", "mu = max(mu, SMOOTHING_FLOOR)"),
    ("random frame admits n < 1", FRAMES,
     '    if n < 1:\n        raise ContractViolation("n must be >= 1")\n    if kind == "random":',
     '    if n < 1 and kind != "random":\n        raise ContractViolation("n must be >= 1")\n'
     '    if kind == "random":'),
    ("frame size admits n < 1 (union_dct)", FRAMES,
     '    if n < 1:\n        raise ContractViolation("n must be >= 1")\n    if kind == "random":',
     '    if n < 1 and kind != "union_dct":\n        raise ContractViolation("n must be >= 1")\n'
     '    if kind == "random":'),
    ("random frame admits d < n", FRAMES, "if d is not None and d < n:", "if False:"),
    ("CLI lets numerical failures escape", CLI,
     "except (ArithmeticError, np.linalg.LinAlgError) as err:", "except () as err:"),
    ("P1 rhs without y'", SOLV,
     "rhs = np.concatenate([np.zeros(d), y_red])",
     "rhs = np.concatenate([np.zeros(d), 0.0 * y_red])"),
    ("P1 balance test reads dual_new twice", SOLV,
     "dual_diff = dual - dual_new", "dual_diff = dual_new - dual_new"),
    ("P1 takes no extrapolation step", SOLV, "f_bar = f_new * 2.0 - f", "f_bar = f_new"),
    ("P1 dual step drops the previous dual", SOLV, "* sigma + dual", "* sigma"),
    ("Pq level test reads the level's end twice", SOLV,
     "np.linalg.norm(f - f_start)", "np.linalg.norm(f - f)"),
    ("unrepresentable start accepted", SOLV, "if not np.isfinite(f0).all():", "if False:"),
    ("pencil overflow accepted", DRIP,
     "if not (np.isfinite(k).all() and np.isfinite(top).all() and np.isfinite(bottom).all()):",
     "if False:"),
    ("pair roots formed on unscaled K", DRIP, "    k = k / pow2\n", "    pow2 = 1.0\n"),
    ("proof elimination warns past a failed pivot", DRIP,
     'with np.errstate(over="ignore", invalid="ignore"):\n        for j in range(k):',
     "with np.errstate():\n        for j in range(k):"),
    ("audit accepts y of the wrong length", GUAR,
     "if y.shape[0] != a.shape[0]:", "if False:"),
    ("identity frame sized by the matrix's rows", CLI,
     "make_identity_frame(a.shape[1])", "make_identity_frame(a.shape[0])"),
    ("config admits 2s > d", EXPT, "if 2 * self.s > self.d:", "if False:"),
    ("P1 stop test without the residual term", SOLV,
     "\n                     and _residual(a, f_new, y) - eps <= TOL)", ")"),
    ("audit feasibility loop without the true signal", GUAR,
     '(("candidate", "f_hat", f_hat), ("true signal", "f", f))',
     '(("candidate", "f_hat", f_hat),)'),
    ("feasibility_gap reads ||A f_hat||", GUAR,
     '_record("feasibility_gap", ah_norm,',
     '_record("feasibility_gap", float(np.linalg.norm(a @ f_hat)),'),
]

# (name, file, text, replacement, why it is no fault); never run
NON_FAULTS = [
    ("lq admits q = q0", GUAR, "0.0 < q < q0 or", "0.0 < q <= q0 or",
     "q0 is certified, rho_q(delta, q0) < 1, and constants_q still requires rho < 1"),
    ("Newton bracket falls back to its lower end", SOLV,
     "lam = 0.5 * (lo + hi)", "lam = lo",
     "each Newton step stays inside (lo, hi) in exact arithmetic (_weighted_solve), so "
     "the fallback only guards round-off: in tier-1 it runs only in "
     "test_numerical_failure_is_one[lq huge] (A = diag(1e300, 1e300)), whose solve ends "
     "in a numerical failure with either fallback, and never in the 2394 weighted solves "
     "of perfbench's pq_noisy round 0"),
]


def stale(path, text):
    return (ROOT / path).read_text().count(text) != 1


def run(path, text, replacement):
    with tempfile.TemporaryDirectory() as tmp:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp) / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        source = (Path(tmp) / path).read_text()
        (Path(tmp) / path).write_text(source.replace(text, replacement))
        suite = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--hypothesis-seed=0"],
            cwd=tmp, capture_output=True, text=True)
        if suite.returncode == 0:
            return "survived"
        failed = [line for line in suite.stdout.splitlines()
                  if line.startswith(("FAILED", "ERROR"))]
        return "killed  " + (failed[0] if failed else suite.stdout.strip()[-200:])


if __name__ == "__main__":
    names = sys.argv[1:]
    chosen = [f for f in FAULTS if not names or any(n in f[0] for n in names)]
    gone = [f for f in FAULTS + NON_FAULTS if stale(f[1], f[2])]
    print("%d faults, %d non-faults, %d stale" % (len(FAULTS), len(NON_FAULTS), len(gone)))
    for fault in gone:
        print("%-50s stale: its text does not occur exactly once in %s" % (fault[0], fault[1]))
    unknown = [n for n in names if not any(n in f[0] for f in FAULTS)]
    for name in unknown:
        print("%-50s names no fault" % name)
    if gone or unknown:
        sys.exit(1)
    killed = 0
    for fault in chosen:
        verdict = run(*fault[1:])
        killed += verdict.startswith("killed")
        print("%-50s %s" % (fault[0], verdict), flush=True)
    print("killed %d of %d" % (killed, len(chosen)))
    sys.exit(killed < len(chosen))
