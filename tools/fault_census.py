"""Planted-fault census: which one-line faults the tier-1 suite notices.

    python3 tools/fault_census.py [NAME_SUBSTRING ...]

For each fault in FAULTS (or those whose name contains any NAME_SUBSTRING),
copy src/, tests/ and pyproject.toml to a temporary directory, replace the
fault's text there, and run the suite with -x and a fixed hypothesis seed,
so that verdicts repeat from run to run.  A fault is killed when the suite
fails (the first failing test is printed) and survived when it passes.  No
file of the checkout is edited.  A fault whose text does not occur exactly
once in its file is stale (an edit disarmed it): the census names every
stale fault, and every NAME_SUBSTRING that names no fault, and exits 1
before running any suite.  After the runs it exits 1 if any chosen fault
survived.  A full run therefore exits 1 on the two survivors argued to be
no faults ("lq admits q = q0" and "Newton bracket falls back to its lower
end"); name the faults to gate on.
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
    ("lq admits q = q0", GUAR, "0.0 < q < q0 or", "0.0 < q <= q0 or"),
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
     "_span_coordinates(model)[2]", "np.zeros(frame.n)"),
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
    ("oracle hit rule absolute in y", SOLV, "tol = TOL * float(np.linalg.norm(y))", "tol = TOL"),
    ("oracle hit rule absolute below ||y|| = 1", SOLV, "tol = TOL * float(np.linalg.norm(y))",
     "tol = TOL * max(1.0, float(np.linalg.norm(y)))"),
    ("cosupport kernel reports every system as full rank", SOLV,
     "    return f, residual, rank", "    return f, residual, np.full_like(rank, frame.n)"),
    ("unconverged solve reported as converged", EXPT,
     "elif not res.converged:", "elif False:"),
    ("shape check refuses only extra columns", FRAMES,
     "if a.shape[1] != self.n:", "if a.shape[1] > self.n:"),
    ("result residual taken at zero, not at f_hat", SOLV,
     "residual=_residual(model.A, f, model.y)", "residual=_residual(model.A, 0 * f, model.y)"),
    ("weighted-solve floor counts zero singular values twice", SOLV,
     "res = math.sqrt(float(r @ r) + perp2)",
     "res = math.sqrt(float(r @ r) + perp2 + float(np.sum(beta[sig == 0.0] ** 2)))"),
    ("Newton bracket falls back to its lower end", SOLV,
     "lam = 0.5 * (lo + hi)", "lam = lo"),
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
    ("unique-point exit at rank n - 1", SOLV,
     "rank == a.shape[1]:", "rank >= a.shape[1] - 1:"),
    ("CSV booleans written as True/False", EXPT,
     'return "true" if value else "false"', "return str(value)"),
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
    gone = [f for f in chosen if stale(f[1], f[2])]
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
