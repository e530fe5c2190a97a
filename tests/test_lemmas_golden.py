"""Pinned `lemmas audit` output, byte for byte.

``tests/data/lemmas_golden.json`` holds three audited instances, each with
its inputs (frame, matrix, f, f_hat, y, s, q, eps) and the exact text that
`framecs lemmas audit` printed for them:

  * ``short``: d = 6, s = 3, so one tail block (l = 1) and vacuous
    interpolation records; the n <= 4s contraction applies;
  * ``long``: d = 9, s = 2, four tail blocks and bounded noise; the
    general l1 contraction applies;
  * ``lq``: noiseless, q = 0.5, f_hat from the lq solver.

The inputs are stored rather than rebuilt, so a solver change cannot move
them.  Regenerate (only on purpose, and record why in CHANGES.md) with

    PYTHONPATH=src python tests/test_lemmas_golden.py

which re-audits the stored inputs and builds (solves) only the cases
missing from the file.
"""

import json
import math
from pathlib import Path

import pytest

from framecs.cli import cli_main
from framecs.frames import save_matrix

GOLDEN = Path(__file__).parent / "data" / "lemmas_golden.json"


def _cases():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["cases"]


def _audit(case, tmp_path) -> bytes:
    """Write a case's inputs as matrix files and run `lemmas audit` on them."""
    paths = {}
    for key in ("frame", "matrix", "f", "f_hat", "y"):
        value = case[key]
        paths[key] = tmp_path / ("%s.txt" % key)
        save_matrix(paths[key], value if isinstance(value[0], list) else [value])
    out = tmp_path / "audit.json"
    code = cli_main([
        "lemmas", "audit", "--matrix", str(paths["matrix"]),
        "--frame", str(paths["frame"]), "--f", str(paths["f"]),
        "--fhat", str(paths["f_hat"]), "--y", str(paths["y"]),
        "--s", str(case["s"]), "--q", repr(case["q"]), "--eps", repr(case["eps"]),
        "--out", str(out),
    ])
    assert code == 0
    return out.read_bytes()


@pytest.mark.parametrize("index", range(3))
def test_lemmas_audit_bytes(index, tmp_path):
    case = _cases()[index]
    assert _audit(case, tmp_path) == case["output"].encode("utf-8"), case["name"]


def test_golden_covers_the_chain():
    by_name = {}
    for case in _cases():
        by_name[case["name"]] = {r["lemma_id"]: r for r in json.loads(case["output"])["records"]}
    assert by_name["short"]["block_l2_l1_interpolation"]["intermediates"] == {"vacuous": 1.0}
    assert "block_mass_contraction_short" in by_name["short"]
    assert "block_i" in by_name["long"]["sparse_image_correlation"]["intermediates"]
    assert "block_mass_contraction_l1" in by_name["long"]
    assert "block_mass_contraction_lq" in by_name["lq"]


# name, n, d, m, s, q, eps, seed
SPECS = (("short", 4, 6, 48, 3, 1.0, 0.05, 3),
         ("long", 6, 9, 64, 2, 1.0, 0.05, 4),
         ("lq", 6, 9, 64, 2, 0.5, 0.0, 5))


def _build(name, n, d, m, s, q, eps, seed):
    """One instance at the auto_min scale, solved (not yet audited)."""
    import numpy as np

    from framecs.drip import support_spectrum_range
    from framecs.frames import make_random_tight_frame
    from framecs.sensing import gen_gaussian, measure
    from framecs.solvers import solve_p1, solve_pq

    frame = make_random_tight_frame(n, d, seed=seed)
    a = gen_gaussian(m, n, seed=seed + 100)
    lo, hi = support_spectrum_range(a, frame, 2 * s)
    a = a * math.sqrt(2.0 / (hi + lo))
    rng = np.random.default_rng(seed + 200)
    x = np.zeros(d)
    x[rng.choice(d, s, replace=False)] = rng.standard_normal(s)
    f = frame.matrix @ x
    model = measure(a, f, "bounded" if eps else "none", eps, seed=seed + 300)
    res = solve_p1(frame, model) if q == 1.0 else solve_pq(frame, model, q)
    return {"name": name, "s": s, "q": q, "eps": eps,
            "frame": frame.matrix.tolist(), "matrix": a.tolist(),
            "f": f.tolist(), "f_hat": res.f_hat.tolist(), "y": model.y.tolist()}


if __name__ == "__main__":
    # re-audit the stored inputs; solve only the cases missing from the file
    import tempfile

    stored = {c["name"]: c for c in _cases()} if GOLDEN.exists() else {}
    cases = [stored.get(spec[0]) or _build(*spec) for spec in SPECS]
    for case in cases:
        with tempfile.TemporaryDirectory() as tmp:
            case["output"] = _audit(case, Path(tmp)).decode("utf-8")
    GOLDEN.write_text(json.dumps({"cases": cases}, indent=1) + "\n", encoding="utf-8")
    print("wrote %s" % GOLDEN)
