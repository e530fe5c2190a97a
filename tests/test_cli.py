import json

import numpy as np
import pytest

from framecs.cli import cli_main
from framecs.frames import TightFrame, load_matrix, make_random_tight_frame, save_matrix
from framecs.experiment import read_csv


# every malformed matrix.scale, as JSON; each fails when the config loads
MALFORMED_SCALES = ('"bogus"', "-1", "0", "true", "NaN", '{"target_delta": 2}',
                    '{"targt_delta": 0.5}', '{"target_delta": 0.5, "typo": 1}')

# malformed matrix files, each with the line its error names
MALFORMED_MATRICES = ((b"x y\n1 2\n", 1), (b"-1 2\n", 1), (b"0 2\n", 1), (b"", 1),
                      (b"1 2\n1 abc\n", 2), (b"1 2\n1 2 3\n", 2),
                      (b"1 2\n1 2\n3 4\n", 3), (b"2 2\n1 2\n", 3),
                      (b"1 2\n1 \xff\n", 2))

# solve commands with a noise budget that is not a finite number
NON_FINITE_SOLVES = [(program, "--eps", value)
                     for program in ("l1", "lq", "l0") for value in ("nan", "inf")]
SOLVE_FLAGS = {"l1": (), "lq": ("--q", "0.5"), "l0": ("--s-max", "1")}

# the errors of a solver start and a drip pencil that overflow floats
START_OVERFLOW = "the minimum-norm start overflows: A's singular values reach down to 1e-310"
PENCIL_OVERFLOW = "the pencil of A on the frame overflows: max |A| = 1e+200"

# commands with a count, level or vector length out of range, with {A} and
# {nu} for a 2 x 2 matrix and a length-2 vector, and the error each prints
OUT_OF_RANGE = (
    (("drip", "lower", "--matrix", "{A}", "--s", "1", "--trials", "0"),
     "trials must be >= 1"),
    (("sense", "probe", "--m", "4", "--n", "3", "--delta", "0.5", "--trials", "0"),
     "trials must be >= 1"),
    (("sense", "probe", "--m", "4", "--n", "3", "--delta", "1"), "delta must be in (0, 1)"),
    (("sense", "probe", "--m", "4", "--n", "3", "--delta", "0.5", "--nu", "{nu}"),
     "nu length 2 != n=3"),
    (("drip", "exact", "--matrix", "{A}", "--s", "3"),
     "order 3 must satisfy 1 <= order <= d = 2"),
    (("lemmas", "audit", "--matrix", "{A}", "--f", "{nu}", "--fhat", "{nu}", "--s", "2"),
     "order 4 must satisfy 1 <= order <= d = 2"),
)

# every command that reads a matrix file, with {} for the file
MATRIX_COMMANDS = (
    ("frame", "verify", "--frame", "{}"),
    ("drip", "exact", "--matrix", "{}", "--s", "1"),
    ("solve", "l1", "--matrix", "{}", "--y", "{}"),
    ("lemmas", "audit", "--matrix", "{}", "--f", "{}", "--fhat", "{}", "--s", "1"),
)

# every command that reads a measurement matrix with a frame, after
# --matrix A --frame D, with {y} and {f} for vector files
MISMATCH_COMMANDS = (
    ("drip", "exact", "--s", "1"),
    ("drip", "lower", "--s", "1"),
    ("solve", "l1", "--y", "{y}"),
    ("solve", "lq", "--y", "{y}", "--q", "0.5"),
    ("solve", "l0", "--y", "{y}", "--s-max", "1"),
    ("lemmas", "audit", "--f", "{f}", "--fhat", "{f}", "--s", "1"),
)


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFrameCommands:
    def test_gen_and_verify(self, tmp_path, capsys):
        path = tmp_path / "D.txt"
        code, out, _ = run(capsys, "frame", "gen", "--kind", "random",
                           "--n", "4", "--d", "6", "--seed", "1",
                           "--out", str(path))
        assert code == 0 and path.exists()
        code, out, _ = run(capsys, "frame", "verify", "--frame", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["n"] == 4 and report["d"] == 6
        assert report["defect"] <= 1e-10

    def test_gen_dct_defaults_d(self, tmp_path, capsys):
        path = tmp_path / "D.txt"
        code, _, _ = run(capsys, "frame", "gen", "--kind", "dct", "--n", "5",
                         "--out", str(path))
        assert code == 0
        assert TightFrame(load_matrix(path)).d == 5

    @pytest.mark.parametrize("kind, n, d, fits", [
        ("identity", "3", "3", True), ("union_dct", "3", "6", True),
        ("identity", "3", "5", False), ("dct", "4", "8", False),
        ("union_dct", "3", "4", False), ("union_dct", "3", "3", False),
    ])
    def test_gen_checks_d_against_the_kind(self, tmp_path, capsys, kind, n, d, fits):
        path = tmp_path / "D.txt"
        code, _, err = run(capsys, "frame", "gen", "--kind", kind, "--n", n,
                           "--d", d, "--out", str(path))
        if fits:
            assert code == 0 and TightFrame(load_matrix(path)).d == int(d)
        else:
            assert code == 1 and err.startswith("error: ") and "got d = %s" % d in err
            assert not path.exists()

    @pytest.mark.parametrize("size", [("--n", "-1", "--d", "5"), ("--n", "-1")],
                             ids=["with --d", "without --d"])
    def test_gen_random_rejects_n_below_one(self, tmp_path, capsys, size):
        path = tmp_path / "D.txt"
        code, _, err = run(capsys, "frame", "gen", "--kind", "random", *size,
                           "--out", str(path))
        assert code == 1 and err.startswith("error: ") and "n must be >= 1" in err
        assert not path.exists()

    @pytest.mark.parametrize("kind", ["identity", "dct", "union_dct"])
    @pytest.mark.parametrize("n", ["-1", "0"])
    def test_gen_fixed_kinds_reject_n_below_one(self, tmp_path, capsys, kind, n):
        path = tmp_path / "D.txt"
        code, out, err = run(capsys, "frame", "gen", "--kind", kind, "--n", n,
                             "--out", str(path))
        assert (code, out, err) == (1, "", "error: n must be >= 1\n")
        assert not path.exists()

    def test_verify_reports_non_tight(self, tmp_path, capsys):
        save_matrix(tmp_path / "bad.txt", 2.0 * np.eye(3))
        code, out, _ = run(capsys, "frame", "verify", "--frame",
                           str(tmp_path / "bad.txt"))
        assert code == 0
        report = json.loads(out)
        assert not report["tight"]
        assert report["defect"] == pytest.approx(3.0, abs=1e-12)

    def test_verify_flags_zero_column(self, tmp_path, capsys):
        m = np.hstack([np.eye(3), np.zeros((3, 1))])
        save_matrix(tmp_path / "zc.txt", m)
        code, out, _ = run(capsys, "frame", "verify", "--frame",
                           str(tmp_path / "zc.txt"))
        assert code == 0
        report = json.loads(out)
        assert report["defect"] <= 1e-12
        assert not report["nonzero_columns"]
        assert not report["tight"]


class TestSenseCommands:
    def test_gen(self, tmp_path, capsys):
        path = tmp_path / "A.txt"
        code, _, _ = run(capsys, "sense", "gen", "--kind", "gaussian",
                         "--m", "6", "--n", "4", "--seed", "2",
                         "--out", str(path))
        assert code == 0
        assert load_matrix(path).shape == (6, 4)

    def test_probe(self, capsys):
        code, out, _ = run(capsys, "sense", "probe", "--kind", "gaussian",
                           "--m", "512", "--n", "4", "--delta", "0.5",
                           "--trials", "50", "--seed", "3")
        assert code == 0
        assert json.loads(out)["empirical_prob"] <= 0.05


class TestDripCommand:
    def test_exact_json(self, tmp_path, capsys):
        save_matrix(tmp_path / "A.txt", np.diag([1.0, 0.5]))
        code, out, _ = run(capsys, "drip", "exact", "--matrix",
                           str(tmp_path / "A.txt"), "--s", "1")
        assert code == 0
        report = json.loads(out)
        assert report["delta"] == 0.75
        assert report["method"] == "exact"

    def test_lower(self, tmp_path, capsys):
        save_matrix(tmp_path / "A.txt", np.diag([1.0, 0.5]))
        code, out, _ = run(capsys, "drip", "lower", "--matrix",
                           str(tmp_path / "A.txt"), "--s", "1",
                           "--trials", "20", "--seed", "4")
        assert code == 0
        assert json.loads(out)["delta"] <= 0.75


class TestCertifyCommand:
    def test_special_window(self, capsys):
        code, out, _ = run(capsys, "certify", "--delta", "0.55", "--n", "8",
                           "--s", "2")
        assert code == 0
        certs = {c["regime"]: c for c in json.loads(out)}
        assert not certs["general_l1"]["applicable"]
        assert certs["special_n_le_4s"]["applicable"]


class TestSolveCommands:
    def _instance(self, tmp_path):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 4)) / np.sqrt(8)
        f = np.array([0.0, 2.0, 0.0, -1.0])
        save_matrix(tmp_path / "A.txt", a)
        save_matrix(tmp_path / "y.txt", (a @ f).reshape(-1, 1))
        return f

    def test_l1(self, tmp_path, capsys):
        f = self._instance(tmp_path)
        code, out, _ = run(capsys, "solve", "l1", "--matrix",
                           str(tmp_path / "A.txt"), "--y", str(tmp_path / "y.txt"),
                           "--eps", "0")
        assert code == 0
        res = json.loads(out)
        assert res["converged"]
        assert np.linalg.norm(np.array(res["f_hat"]) - f) <= 1e-4

    def test_l0(self, tmp_path, capsys):
        f = self._instance(tmp_path)
        code, out, _ = run(capsys, "solve", "l0", "--matrix",
                           str(tmp_path / "A.txt"), "--y", str(tmp_path / "y.txt"),
                           "--s-max", "2")
        assert code == 0
        res = json.loads(out)
        assert res["converged"] and res["objective"] == 2.0
        assert res["diagnostics"]["support"] == [1, 3]

    def test_lq(self, tmp_path, capsys):
        f = self._instance(tmp_path)
        code, out, _ = run(capsys, "solve", "lq", "--matrix",
                           str(tmp_path / "A.txt"), "--y", str(tmp_path / "y.txt"),
                           "--q", "0.5")
        assert code == 0
        res = json.loads(out)
        assert np.linalg.norm(np.array(res["f_hat"]) - f) <= 1e-4

    def test_l1_with_frame_file(self, tmp_path, capsys):
        code, _, _ = run(capsys, "frame", "gen", "--kind", "dct", "--n", "6",
                         "--out", str(tmp_path / "D.txt"))
        assert code == 0
        frame = TightFrame(load_matrix(tmp_path / "D.txt"))
        rng = np.random.default_rng(5)
        a = rng.standard_normal((18, 6)) / np.sqrt(18)
        x = np.zeros(6)
        x[[1, 4]] = [2.0, -1.5]
        f = frame.matrix @ x
        save_matrix(tmp_path / "A.txt", a)
        save_matrix(tmp_path / "y.txt", (a @ f).reshape(-1, 1))
        code, out, _ = run(capsys, "solve", "l1",
                           "--matrix", str(tmp_path / "A.txt"),
                           "--frame", str(tmp_path / "D.txt"),
                           "--y", str(tmp_path / "y.txt"), "--eps", "0")
        assert code == 0
        res = json.loads(out)
        assert res["converged"]
        assert np.linalg.norm(np.array(res["f_hat"]) - f) <= 1e-4


class TestLemmasCommand:
    def test_audit_self(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((12, 4)) / np.sqrt(12)
        f = np.array([1.0, 0.0, 0.0, -2.0])
        save_matrix(tmp_path / "A.txt", a)
        save_matrix(tmp_path / "f.txt", f.reshape(-1, 1))
        save_matrix(tmp_path / "y.txt", (a @ f).reshape(-1, 1))
        code, out, _ = run(capsys, "lemmas", "audit",
                           "--matrix", str(tmp_path / "A.txt"),
                           "--f", str(tmp_path / "f.txt"),
                           "--fhat", str(tmp_path / "f.txt"),
                           "--y", str(tmp_path / "y.txt"),
                           "--s", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["holds"] == payload["total"] > 0


class TestExperimentCommand:
    def test_run_csv(self, tmp_path, capsys):
        config = {
            "n": 6, "d": 9, "m": 48, "s": 2, "trials": 2, "eps": 0.05,
            "noise_mode": "bounded", "program": "p1",
            "frame": {"kind": "random", "seed": 1},
            "matrix": {"kind": "gaussian", "seed": 2, "scale": "auto_min"},
            "signal": {"seed": 3}, "noise_seed": 4,
        }
        (tmp_path / "exp.json").write_text(json.dumps(config), encoding="utf-8")
        out_path = tmp_path / "run.csv"
        code, _, _ = run(capsys, "experiment", "run", "--config",
                         str(tmp_path / "exp.json"), "--out", str(out_path))
        assert code == 0
        assert len(read_csv(out_path)) == 2


class TestCompareCommand:
    def test_reports_discrepancy(self, capsys):
        code, out, _ = run(capsys, "compare")
        assert code == 0
        payload = json.loads(out)
        assert payload["reported_C0"] == 5.06
        assert payload["discrepancy_note"]


class TestJsonFormat:
    def test_experiment_json_output(self, tmp_path, capsys):
        config = {
            "n": 6, "d": 9, "m": 48, "s": 2, "trials": 1, "eps": 0.0,
            "noise_mode": "none", "program": "p1",
            "frame": {"kind": "random", "seed": 1},
            "matrix": {"kind": "gaussian", "seed": 2, "scale": "auto_min"},
            "signal": {"seed": 3}, "noise_seed": 4,
        }
        (tmp_path / "exp.json").write_text(json.dumps(config), encoding="utf-8")
        code, out, _ = run(capsys, "experiment", "run", "--config",
                           str(tmp_path / "exp.json"), "--format", "json")
        assert code == 0
        records = json.loads(out)
        assert len(records) == 1
        assert "seeds" in records[0] and "delta_2s" in records[0]


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "bogus")
        assert code == 1
        assert "usage" in err.lower()

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "certify", "--delta", "0.1", "--n", "4",
                           "--s", "1", "--bogus")
        assert code == 1

    def test_contract_violation_is_one(self, capsys):
        code, _, err = run(capsys, "certify", "--delta", "-1", "--n", "4",
                           "--s", "1")
        assert code == 1
        assert "error" in err.lower()

    def test_io_error_is_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "drip", "exact", "--matrix",
                           str(tmp_path / "missing.txt"), "--s", "1")
        assert code == 2

    @pytest.mark.parametrize("text", [
        '{"n": 8, "d": 12, "m": 64, "s": 2, "bogus": 1}',
        '{"n": 8, "d": 12, "m": 64, "s": 2',
        '{"n": 8, "d": 12, "m": 64, "s": "2"}',
        '{"n": 8, "d": 12, "m": 64, "s": 2, "solver": {"continuation_factor": 0.5}}',
        '{"n": 8, "d": 12, "m": 64, "s": 2, "drip_trials": -3}',
        '{"n": 8, "d": 12, "m": 64, "s": 2, "drip_mode": "lower", "drip_trials": 0}',
    ] + ['{"n": 8, "d": 12, "m": 64, "s": 2, "matrix": {"scale": %s}}' % scale
         for scale in MALFORMED_SCALES])
    def test_malformed_config_is_one(self, capsys, tmp_path, text):
        path = tmp_path / "exp.json"
        path.write_text(text, encoding="utf-8")
        code, _, err = run(capsys, "experiment", "run", "--config", str(path),
                           "--out", str(tmp_path / "run.csv"))
        assert code == 1
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", MATRIX_COMMANDS, ids=lambda a: " ".join(a[:2]))
    @pytest.mark.parametrize("data, line", MALFORMED_MATRICES)
    def test_malformed_matrix_file_is_one(self, capsys, tmp_path, argv, data, line):
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        code, _, err = run(capsys, *(arg.format(path) for arg in argv))
        assert code == 1
        assert err.startswith("error: %s line %d: " % (path, line))
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", MISMATCH_COMMANDS, ids=lambda a: " ".join(a[:2]))
    def test_matrix_frame_mismatch_is_one(self, capsys, tmp_path, argv):
        # a 20 x 6 matrix with an 8 x 12 frame: one message from every command
        files = {name: str(tmp_path / ("%s.txt" % name)) for name in ("A", "D", "y", "f")}
        save_matrix(files["A"], np.ones((20, 6)))
        save_matrix(files["D"], make_random_tight_frame(8, 12, seed=0).matrix)
        save_matrix(files["y"], np.ones((20, 1)))
        save_matrix(files["f"], np.ones((8, 1)))
        code, out, err = run(capsys, *argv[:2], "--matrix", files["A"], "--frame", files["D"],
                             *(arg.format(**files) for arg in argv[2:]))
        assert (code, out) == (1, "")
        assert err == "error: measurement matrix has 6 columns but the frame is 8-dimensional\n"

    def test_matrix_as_vector_is_one(self, capsys, tmp_path):
        path = tmp_path / "A.txt"
        save_matrix(path, np.eye(2))
        code, out, err = run(capsys, "solve", "l1", "--matrix", str(path), "--y", str(path))
        assert (code, out) == (1, "")
        assert err == "error: %s does not hold a vector\n" % path

    def test_csv_without_out_is_one(self, capsys, tmp_path):
        # refused before any trial runs
        path = tmp_path / "exp.json"
        path.write_text('{"n": 4, "d": 4, "m": 8, "s": 1}', encoding="utf-8")
        code, out, err = run(capsys, "experiment", "run", "--config", str(path))
        assert (code, out, err) == (1, "", "error: CSV output needs --out\n")

    @pytest.mark.parametrize("program, flag, value", NON_FINITE_SOLVES)
    def test_non_finite_budget_is_one(self, capsys, tmp_path, program, flag, value):
        a = np.random.default_rng(0).standard_normal((8, 6))
        save_matrix(tmp_path / "A.txt", a)
        save_matrix(tmp_path / "y.txt", (a @ np.ones(6)).reshape(-1, 1))
        code, out, err = run(capsys, "solve", program, "--matrix", str(tmp_path / "A.txt"),
                             "--y", str(tmp_path / "y.txt"), *SOLVE_FLAGS[program],
                             flag, value)
        assert code == 1 and out == ""
        assert "\nerror: " in "\n" + err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ("nan", "inf"))
    def test_non_finite_delta_is_one(self, capsys, value):
        code, out, err = run(capsys, "certify", "--delta", value, "--n", "4", "--s", "1")
        assert code == 1 and out == ""
        assert err.startswith("error: delta_2s must be a finite number >= 0")
        assert "Traceback" not in err

    @pytest.mark.parametrize("q", ("0.005", "0.0005", "0.0084"))
    def test_lq_constant_overflow_is_one(self, capsys, q):
        code, out, err = run(capsys, "certify", "--delta", "0.1", "--n", "8",
                             "--s", "2", "--q", q)
        assert code == 1 and out == ""
        assert err == "error: lq constants overflow at q = %s, delta = 0.1\n" % q

    # just below the float special threshold (rho = 1 + 2e-16, rho = 1) and
    # where rho_q = 1 + 1.3e-10, 4.5e-10 above q0: the regime does not apply
    @pytest.mark.parametrize("delta, q", [("0.6568542494923804", None),
                                          ("0.6568542494923802", None),
                                          ("0.4236683417085427", "0.9835536248401773")])
    def test_rho_at_least_one_is_not_applicable(self, capsys, delta, q):
        code, out, err = run(capsys, "certify", "--delta", delta, "--n", "8", "--s", "2",
                             *(("--q", q) if q else ()))
        assert code == 0 and err == ""
        last = json.loads(out)[-1]
        assert last["regime"] == ("lq" if q else "special_n_le_4s")
        assert (last["applicable"], last["C0"], last["C1"]) == (False, None, None)

    @pytest.mark.parametrize("with_y", (False, True))
    @pytest.mark.parametrize("value", ("nan", "inf"))
    def test_non_finite_eps_is_one(self, capsys, tmp_path, value, with_y):
        a = np.random.default_rng(1).standard_normal((12, 4)) / np.sqrt(12)
        f = np.array([1.0, 0.0, 0.0, -2.0])
        save_matrix(tmp_path / "A.txt", a)
        save_matrix(tmp_path / "f.txt", f.reshape(-1, 1))
        save_matrix(tmp_path / "y.txt", (a @ f).reshape(-1, 1))
        y = ("--y", str(tmp_path / "y.txt")) if with_y else ()
        code, out, err = run(capsys, "lemmas", "audit", "--matrix", str(tmp_path / "A.txt"),
                             "--f", str(tmp_path / "f.txt"), "--fhat", str(tmp_path / "f.txt"),
                             "--s", "1", "--eps", value, *y)
        assert code == 1 and out == ""
        assert err.startswith("error: eps must be a finite number >= 0")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, message", OUT_OF_RANGE,
                             ids=("drip lower", "probe trials", "probe delta", "probe nu",
                                  "drip order", "audit order"))
    def test_out_of_range_is_one(self, capsys, tmp_path, argv, message):
        files = {"A": str(tmp_path / "A.txt"), "nu": str(tmp_path / "nu.txt")}
        save_matrix(files["A"], np.diag([1.0, 0.5]))
        save_matrix(files["nu"], np.ones((2, 1)))
        code, out, err = run(capsys, *(arg.format(**files) for arg in argv))
        assert (code, out, err) == (1, "", "error: %s\n" % message)

    # an operator norm whose square overflows the step-size bound, and an
    # SVD that LAPACK cannot finish at the top of the float range; numpy's
    # overflow warnings on the way there are expected, so they do not fail it
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("program, diagonal", [
        ("l1", (1e160,)), ("lq", (1e300, 1e300))], ids=["l1 overflow", "lq huge"])
    def test_numerical_failure_is_one(self, capsys, tmp_path, program, diagonal):
        save_matrix(tmp_path / "A.txt", np.diag(diagonal))
        save_matrix(tmp_path / "y.txt", np.ones((len(diagonal), 1)))
        out_path = tmp_path / "out.json"
        flags = ("--q", "0.5", "--eps", "0.1") if program == "lq" else ()
        code, out, err = run(capsys, "solve", program, "--matrix", str(tmp_path / "A.txt"),
                             "--y", str(tmp_path / "y.txt"), *flags, "--out", str(out_path))
        assert (code, out) == (1, "")
        assert err.startswith("error: numerical failure (") and err.count("\n") == 1
        assert not out_path.exists()

    # inputs past the float range, each refused by name with no warning: a
    # least-squares start of 1e310 (A = diag(1e-310, 1e-310), y = (1, 1)) and
    # a pencil of 1e400 (A = [[1e200]])
    @pytest.mark.parametrize("argv, diagonal, message", [
        (("solve", "l1"), (1e-310, 1e-310), START_OVERFLOW),
        (("solve", "lq", "--q", "0.5"), (1e-310, 1e-310), START_OVERFLOW),
        (("solve", "lq", "--q", "0.5", "--eps", "0.1"), (1e-310, 1e-310), START_OVERFLOW),
        (("solve", "l0", "--s-max", "1"), (1e-310, 1e-310), START_OVERFLOW),
        (("drip", "exact", "--s", "1"), (1e200,), PENCIL_OVERFLOW),
        (("drip", "lower", "--s", "1", "--trials", "3"), (1e200,), PENCIL_OVERFLOW)],
        ids=["l1 start", "lq start", "lq subnormal", "l0 start", "exact pencil",
             "lower pencil"])
    def test_unrepresentable_input_is_one(self, capsys, tmp_path, argv, diagonal, message):
        save_matrix(tmp_path / "A.txt", np.diag(diagonal))
        save_matrix(tmp_path / "y.txt", np.ones((len(diagonal), 1)))
        out_path = tmp_path / "out.json"
        y = ("--y", str(tmp_path / "y.txt")) if argv[0] == "solve" else ()
        code, out, err = run(capsys, *argv, "--matrix", str(tmp_path / "A.txt"), *y,
                             "--out", str(out_path))
        assert (code, out, err) == (1, "", "error: %s\n" % message)
        assert not out_path.exists()

    # a config whose order 2s exceeds d is refused when it loads, before a
    # trial could reach drip (s = 4) or draw an s-sparse signal (s = 7)
    @pytest.mark.parametrize("s", [4, 7])
    def test_order_past_d_is_one(self, capsys, tmp_path, s):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({"n": 4, "d": 6, "m": 20, "s": s, "trials": 1}),
                          encoding="utf-8")
        out_path = tmp_path / "out.json"
        code, out, err = run(capsys, "experiment", "run", "--config", str(config),
                             "--format", "json", "--out", str(out_path))
        assert (code, out, err) == (1, "", "error: s = %d needs 2s <= d, got d = 6\n" % s)
        assert not out_path.exists()

    def test_audit_y_of_the_wrong_length_is_one(self, capsys, tmp_path):
        save_matrix(tmp_path / "A.txt", np.random.default_rng(1).standard_normal((8, 4)))
        save_matrix(tmp_path / "f.txt", np.ones((4, 1)))
        code, out, err = run(capsys, "lemmas", "audit", "--matrix", str(tmp_path / "A.txt"),
                             "--f", str(tmp_path / "f.txt"), "--fhat", str(tmp_path / "f.txt"),
                             "--s", "1", "--y", str(tmp_path / "f.txt"))
        assert (code, out, err) == (1, "", "error: y length 4 != m=8\n")

    # the solvers' stop rule is a pair of constants, not flags
    @pytest.mark.parametrize("program, flag, value", [
        ("l1", "--tol", "1e-6"), ("lq", "--max-iters", "5"), ("l0", "--feas-tol", "1e-9")])
    def test_stop_flags_are_unknown(self, capsys, tmp_path, program, flag, value):
        a = np.random.default_rng(0).standard_normal((8, 6))
        save_matrix(tmp_path / "A.txt", a)
        save_matrix(tmp_path / "y.txt", (a @ np.ones(6)).reshape(-1, 1))
        code, out, err = run(capsys, "solve", program, "--matrix", str(tmp_path / "A.txt"),
                             "--y", str(tmp_path / "y.txt"), *SOLVE_FLAGS[program],
                             flag, value)
        assert (code, out) == (1, "")
        assert err.endswith("\nerror: unrecognized arguments: %s %s\n" % (flag, value))

    def test_workers_is_unknown(self, capsys, tmp_path):
        code, _, err = run(capsys, "experiment", "run", "--config",
                           str(tmp_path / "exp.json"), "--workers", "1")
        assert code == 1
        assert "unrecognized arguments: --workers 1" in err

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_subcommand_help_exits_zero(self, capsys):
        assert run(capsys, "drip", "--help")[0] == 0
