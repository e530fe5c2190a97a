"""Pinned CLI behaviour, byte for byte.

``tests/data/cli_golden.json`` holds a run of `framecs` commands: each
command's argv, exit code, stdout, stderr and the bytes of every file it
wrote.  The commands run in one directory with relative paths, so no
message names a temporary directory, and a command may read what an
earlier one wrote.  They cover

  * ``frame gen`` (all four kinds) and ``frame verify``;
  * ``sense gen`` (both kinds) and ``sense probe`` (with and without --nu);
  * ``drip exact|lower``, with a --frame file and with the identity default;
  * ``compare``;
  * error exits: a non-tight --frame file, ``solve l1`` with a --y of the
    wrong length, and ``frame gen --kind identity`` with a --d it cannot have.

``solve`` and ``experiment`` outputs are left to ``golden.csv``, which pins
them at 1e-9 rather than by the byte.  Regenerate (only on purpose, and
record why in CHANGES.md) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from framecs.cli import cli_main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

# files that no command writes: a 2I "frame", a 4-vector and a 3-vector
INPUTS = {
    "not_tight.txt": "4 4\n2 0 0 0\n0 2 0 0\n0 0 2 0\n0 0 0 2\n",
    "nu.txt": "1 4\n1 -2 0.5 3\n",
    "y_short.txt": "3 1\n1\n2\n3\n",
}

COMMANDS = (
    ("frame", "gen", "--kind", "random", "--n", "4", "--d", "6", "--seed", "1",
     "--out", "D_random.txt"),
    ("frame", "gen", "--kind", "identity", "--n", "4", "--out", "D_identity.txt"),
    ("frame", "gen", "--kind", "dct", "--n", "4", "--out", "D_dct.txt"),
    ("frame", "gen", "--kind", "union_dct", "--n", "4", "--out", "D_union.txt"),
    ("frame", "verify", "--frame", "D_random.txt"),
    ("frame", "verify", "--frame", "D_union.txt", "--out", "verify_union.json"),
    ("frame", "verify", "--frame", "not_tight.txt"),
    ("sense", "gen", "--kind", "gaussian", "--m", "8", "--n", "4", "--seed", "2",
     "--out", "A_gaussian.txt"),
    ("sense", "gen", "--kind", "bernoulli", "--m", "8", "--n", "4", "--seed", "3",
     "--out", "A_bernoulli.txt"),
    ("sense", "probe", "--kind", "gaussian", "--m", "16", "--n", "4",
     "--delta", "0.5", "--trials", "50", "--seed", "3"),
    ("sense", "probe", "--kind", "bernoulli", "--m", "16", "--n", "4",
     "--delta", "0.3", "--trials", "40", "--seed", "5", "--nu", "nu.txt",
     "--out", "probe.json"),
    ("drip", "exact", "--matrix", "A_gaussian.txt", "--frame", "D_random.txt",
     "--s", "2"),
    ("drip", "exact", "--matrix", "A_bernoulli.txt", "--s", "2",
     "--out", "exact_identity.json"),
    ("drip", "lower", "--matrix", "A_gaussian.txt", "--frame", "D_union.txt",
     "--s", "2", "--trials", "50", "--seed", "1"),
    ("drip", "lower", "--matrix", "A_bernoulli.txt", "--s", "1", "--trials", "30",
     "--out", "lower_identity.json"),
    ("compare",),
    ("compare", "--out", "compare.json"),
    ("drip", "exact", "--matrix", "A_gaussian.txt", "--frame", "not_tight.txt",
     "--s", "1"),
    ("solve", "l1", "--matrix", "A_gaussian.txt", "--y", "y_short.txt"),
    ("frame", "gen", "--kind", "identity", "--n", "3", "--d", "5",
     "--out", "D_bad.txt"),
)


def _snapshot(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _run(argv, directory):
    """Run one command in `directory`; its exit code, stdout, stderr and the
    files it wrote or changed."""
    before = _snapshot(directory)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(list(argv))
    finally:
        os.chdir(cwd)
    written = {name: data.decode("utf-8") for name, data in _snapshot(directory).items()
               if before.get(name) != data}
    return {"argv": list(argv), "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "files": written}


def _cases():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["cases"]


def _prepare(directory, cases, index):
    """Lay out the inputs and what the commands before `index` wrote."""
    files = dict(INPUTS)
    for case in cases[:index]:
        files.update(case["files"])
    for name, text in files.items():
        (directory / name).write_bytes(text.encode("utf-8"))


def test_golden_matches_the_command_list():
    assert [tuple(c["argv"]) for c in _cases()] == list(COMMANDS)


@pytest.mark.parametrize("index", range(len(COMMANDS)),
                         ids=[" ".join(argv[:2]) + " %d" % i for i, argv in enumerate(COMMANDS)])
def test_cli_bytes(index, tmp_path):
    cases = _cases()
    _prepare(tmp_path, cases, index)
    assert _run(COMMANDS[index], tmp_path) == cases[index]


def test_golden_covers_the_exits():
    cases = _cases()
    assert [c["code"] for c in cases].count(1) == 3
    assert all(c["stderr"].startswith("error: ") for c in cases if c["code"])
    assert all(c["stderr"] == "" for c in cases if c["code"] == 0)
    assert sum(len(c["files"]) for c in cases) == 11


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        _prepare(directory, [], 0)
        cases = [_run(argv, directory) for argv in COMMANDS]
    GOLDEN.write_text(json.dumps({"cases": cases}, indent=1) + "\n", encoding="utf-8")
    print("wrote %s" % GOLDEN)
