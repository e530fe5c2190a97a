"""Pinned `certify` output, byte for byte.

``tests/data/certify_golden.json`` holds the exact text that
`framecs certify` printed on a small grid:

  * delta on both sides of each threshold (general, 1/2, special), at 2/3,
    where the general factor stops being defined, and at and past 1;
  * (n, s) = (8, 2), inside the n <= 4s window, and (9, 2), outside it;
  * --q absent, 0.5, 0.9 and 1.

Regenerate (only on purpose, and record why in CHANGES.md) with

    PYTHONPATH=src python tests/test_certify_golden.py
"""

import json
from pathlib import Path

from framecs.cli import cli_main

GOLDEN = Path(__file__).parent / "data" / "certify_golden.json"


def _cases():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["cases"]


def _certify(case, tmp_path) -> bytes:
    out = tmp_path / "certify.json"
    argv = ["certify", "--delta", repr(case["delta"]), "--n", str(case["n"]),
            "--s", str(case["s"]), "--out", str(out)]
    if case["q"] is not None:
        argv += ["--q", repr(case["q"])]
    assert cli_main(argv) == 0
    return out.read_bytes()


def test_certify_bytes(tmp_path):
    mismatches = [(c["delta"], c["n"], c["s"], c["q"]) for c in _cases()
                  if _certify(c, tmp_path) != c["output"].encode("utf-8")]
    assert not mismatches


def test_golden_covers_the_regimes():
    seen = set()
    for case in _cases():
        for cert in json.loads(case["output"]):
            seen.add((cert["regime"], cert["applicable"]))
    assert seen == {(regime, ok) for regime in ("general_l1", "special_n_le_4s", "lq")
                    for ok in (True, False)}


def _grid():
    from framecs.guarantees import threshold_general, threshold_special

    thr_g, thr_s = threshold_general(), threshold_special()
    deltas = (0.0, 0.3, thr_g - 1e-12, thr_g, 0.5 - 1e-12, 0.5, 0.55,
              thr_s - 1e-12, thr_s, 2.0 / 3.0, 0.9, 1.0, 1.5)
    return [{"delta": delta, "n": n, "s": s, "q": q}
            for delta in deltas for n, s in ((8, 2), (9, 2))
            for q in (None, 0.5, 0.9, 1.0)]


if __name__ == "__main__":
    import tempfile

    cases = _grid()
    for case in cases:
        with tempfile.TemporaryDirectory() as tmp:
            case["output"] = _certify(case, Path(tmp)).decode("utf-8")
    GOLDEN.write_text(json.dumps({"cases": cases}, indent=1) + "\n", encoding="utf-8")
    print("wrote %s" % GOLDEN)
