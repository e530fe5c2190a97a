import json
import struct
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framecs.errors import ContractViolation
from framecs.experiment import (
    CSV_COLUMNS,
    CSV_HEADER,
    ExperimentConfig,
    ExperimentRecord,
    FrameSpec,
    MatrixSpec,
    SignalSpec,
    compare_reported_constants,
    read_csv,
    run_experiment,
    write_csv,
)
from framecs import solvers
from framecs.serialize import format_real, json_dumps


def small_config(**overrides):
    base = dict(
        n=6, d=9, m=48, s=2, trials=3, eps=0.05, noise_mode="bounded",
        program="p1",
        frame=FrameSpec(kind="random", seed=5),
        matrix=MatrixSpec(kind="gaussian", seed=6, scale="auto_min"),
        signal=SignalSpec(seed=7), noise_seed=8,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_from_dict_round(self):
        raw = {
            "n": 6, "d": 9, "m": 24, "s": 2, "trials": 2, "eps": 0.1,
            "noise_mode": "bounded", "program": "p1",
            "frame": {"kind": "random", "seed": 1},
            "matrix": {"kind": "gaussian", "seed": 2},
            "signal": {"mode": "synthesis", "seed": 3},
            "noise_seed": 4,
        }
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.frame.kind == "random"

    def test_rejects_bad_dims(self):
        with pytest.raises(ContractViolation):
            small_config(n=0)

    def test_rejects_pq_without_q(self):
        with pytest.raises(ContractViolation):
            small_config(program="pq")

    def test_rejects_analysis_mode_on_redundant_frame(self):
        with pytest.raises(ContractViolation):
            small_config(signal=SignalSpec(mode="analysis", seed=1))

    # every trial computes the order-2s constant, so 2s must fit in the frame:
    # s = 4 (2s = 8) and s = 7 (past d itself) are refused at d = 6
    @pytest.mark.parametrize("s", [4, 7])
    def test_rejects_order_past_d(self, s):
        with pytest.raises(ContractViolation, match="^s = %d needs 2s <= d, got d = 6$" % s):
            ExperimentConfig.from_dict({"n": 4, "d": 6, "m": 20, "s": s, "trials": 1})

    def test_identity_frame_needs_square(self):
        with pytest.raises(ContractViolation):
            small_config(frame=FrameSpec(kind="identity", seed=0))

    @pytest.mark.parametrize("raw, named", [
        ({"n": 8, "d": 12, "m": 64, "s": 2, "bogus": 1}, "'bogus'"),
        ({"n": 8, "d": 12, "m": 64, "s": "2"}, "s must be int"),
        ({"n": 8, "d": 12, "m": 64}, "missing key 's'"),
        ({"n": 8, "d": 12, "m": 64, "s": 2, "frame": {"knd": "dct"}}, "'knd' in frame"),
        ({"n": 8, "d": 12, "m": 64, "s": 2, "matrix": []}, "matrix must be a JSON object"),
        ({"n": 8, "d": 12, "m": 64, "s": 2, "eps": True}, "eps must be float"),
        ({"n": 8, "d": 12, "m": 64, "s": 2, "q": "0.5"}, "q must be float or null"),
        # the solvers take no options: any "solver" entry is an unknown key
        ({"n": 8, "d": 12, "m": 64, "s": 2, "solver": {"tol": 1e-6}},
         "unknown key 'solver' in config"),
        ([8, 12], "config must be a JSON object"),
        ({"n": 8, "d": 12, "m": 64, "s": 2, "solver": {"max_iters": 500}},
         "unknown key 'solver' in config"),
        ({"n": 8, "d": 12, "m": 64, "s": 2, "solver": {"continuation_factor": 0.5}},
         "unknown key 'solver' in config"),
        ({"n": 8, "d": 12, "m": 64, "s": 2, "solver": {}}, "unknown key 'solver' in config"),
    ] + [({"n": 8, "d": 12, "m": 64, "s": 2, "matrix": {"scale": scale}}, "matrix.scale")
         for scale in ("bogus", -1, 0, True, float("nan"), {"target_delta": 2},
                       {"targt_delta": 0.5}, {"target_delta": 0.5, "typo": 1})] + [
        ({"n": 8, "d": 12, "m": 64, "s": 2, "drip_trials": -3},
         "drip_trials must be >= 1, got -3"),
        ({"n": 8, "d": 12, "m": 64, "s": 2, "drip_mode": "lower", "drip_trials": 0},
         "drip_trials must be >= 1, got 0"),
    ] + [({"n": 8, "d": 12, "m": 64, "s": 2, **bad}, named) for bad, named in (
        ({"trials": 0}, "^trials must be >= 1$"),
        ({"eps": -0.1}, "^eps must be >= 0$"),
        ({"frame": {"kind": "bogus"}}, "unknown frame kind 'bogus'"),
        ({"matrix": {"kind": "bogus"}}, "unknown matrix kind 'bogus'"),
        ({"signal": {"mode": "bogus"}}, "unknown signal mode 'bogus'"),
        ({"noise_mode": "bogus"}, "unknown noise mode 'bogus'"),
        ({"program": "p0"}, "program must be one of"),
        ({"drip_mode": "bogus"}, "drip_mode must be 'exact' or 'lower'"),
        # CSV output goes where `experiment run --out` says
        ({"out": "run.csv"}, "unknown key 'out' in config"),
        # refused when the config loads, by the frame_size rule that
        # make_random_tight_frame reads inside every trial
        ({"d": 6}, "random frame .* needs d >= 8, got d = 6"))])
    def test_from_dict_names_the_bad_entry(self, raw, named):
        with pytest.raises(ContractViolation, match=named):
            ExperimentConfig.from_dict(raw)

    def test_from_dict_refuses_q_for_p1(self):
        # p1 never reads q, so a q there is refused rather than dropped
        with pytest.raises(ContractViolation, match="program 'p1' needs q null"):
            ExperimentConfig.from_dict({"n": 8, "d": 12, "m": 64, "s": 2, "q": 0.5})

    def test_from_dict_refuses_eps_without_noise(self):
        # noise_mode "none" never reads eps, so a budget there is refused
        # rather than dropped
        raw = {"n": 8, "d": 12, "m": 64, "s": 2, "eps": 0.05, "noise_mode": "none"}
        with pytest.raises(ContractViolation, match="noise_mode 'none' needs eps 0, got eps 0.05"):
            ExperimentConfig.from_dict(raw)
        assert ExperimentConfig.from_dict(dict(raw, eps=0.0)).eps == 0.0

    def test_from_json_file_reports_parse_errors(self, tmp_path):
        path = tmp_path / "cut.json"
        path.write_text('{"n": 8, "d": 12', encoding="utf-8")
        with pytest.raises(ContractViolation, match="not valid JSON"):
            ExperimentConfig.from_json_file(path)


class TestRunExperiment:
    def test_records_have_exact_delta_and_hold_bounds(self):
        records = run_experiment(small_config())
        assert len(records) == 3
        for rec in records:
            assert rec.drip_method == "exact"
            assert rec.eps == pytest.approx(0.05)
            if rec.within_bound is not None:
                assert rec.within_bound
            if rec.status == "ok":
                assert rec.bound is not None
                assert rec.err_l2 <= rec.bound * (1 + 1e-6)

    def test_bound_reevaluates_from_columns(self):
        from framecs.guarantees import error_bound
        for rec in run_experiment(small_config()):
            if rec.bound is not None:
                again = error_bound(rec.C0, rec.C1, rec.tail, rec.s, rec.eps,
                                    rec.q if rec.q is not None else 1.0)
                assert again == rec.bound

    def test_deterministic_across_runs(self, tmp_path):
        cfg = small_config()
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        write_csv(a, tmp_path / "a.csv")
        write_csv(b, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_exact_analysis_sparse_noiseless_recovery(self):
        cfg = small_config(
            n=8, d=8, m=40, s=2, trials=3, eps=0.0, noise_mode="none",
            frame=FrameSpec(kind="dct", seed=0),
            signal=SignalSpec(mode="analysis", seed=9),
        )
        for rec in run_experiment(cfg):
            assert rec.status in ("ok", "not_applicable", "surrogate_gap")
            assert rec.err_l2 <= 1e-4

    def test_target_delta_scaling(self):
        cfg = small_config(
            n=6, d=8, m=96, s=2, trials=2,
            matrix=MatrixSpec(kind="gaussian", seed=11,
                              scale={"target_delta": 0.55}),
        )
        for rec in run_experiment(cfg):
            assert rec.delta_2s == pytest.approx(0.55, abs=1e-8)
            assert rec.regime == "special_n_le_4s"

    def test_unreachable_target_delta_says_so(self):
        cfg = small_config(n=8, d=12, m=128, trials=1,
                           matrix=MatrixSpec(kind="gaussian", seed=6,
                                             scale={"target_delta": 0.01}))
        rec = run_experiment(cfg)[0]
        auto = run_experiment(small_config(
            n=8, d=12, m=128, trials=1,
            matrix=MatrixSpec(kind="gaussian", seed=6, scale="auto_min")))[0]
        assert rec.delta_2s == auto.delta_2s > 0.01
        assert "target_delta 0.01 is below the reachable minimum" in rec.reason
        assert json.loads(json_dumps(rec))["reason"] == rec.reason
        assert auto.reason is None and json.loads(json_dumps(auto))["reason"] is None

    def test_reachable_target_delta_has_no_reason(self):
        cfg = small_config(trials=1, matrix=MatrixSpec(
            kind="gaussian", seed=6, scale={"target_delta": 0.6}))
        rec = run_experiment(cfg)[0]
        assert rec.delta_2s == pytest.approx(0.6, abs=1e-12)
        assert rec.reason is None

    def test_rejected_audit_gives_a_reason(self, monkeypatch):
        from framecs import guarantees

        def reject(*args, **kwargs):
            raise ContractViolation("candidate is infeasible")

        monkeypatch.setattr(guarantees, "audit_lemmas", reject)
        records = run_experiment(small_config(trials=2))
        assert records and all(r.audit_total == 0 for r in records)
        for rec in records:
            if rec.status == "ok":
                assert rec.reason == ("audit_lemmas rejected the instance: "
                                      "candidate is infeasible")
        assert any(r.status == "ok" for r in records)

    def test_enumeration_guard_names_the_way_out(self):
        cfg = small_config(n=10, d=80, m=20, s=6,
                           matrix=MatrixSpec(kind="gaussian", seed=6, scale=1.0))
        with pytest.raises(ContractViolation, match="drip_mode"):
            run_experiment(cfg)

    def test_lower_bound_mode_never_enumerates(self, monkeypatch):
        # the random pass alone picks the auto_min scale, so a (d, 2s) past
        # the exact budget still runs
        monkeypatch.setattr(solvers, "MAX_ITERS", 20)
        cfg = small_config(n=10, d=80, m=20, s=6, trials=1, drip_mode="lower",
                           drip_trials=50)
        rec, = run_experiment(cfg)
        assert rec.drip_method == "random_lower_bound"
        assert rec.status == "lower_bound_only" and rec.reason is None

    def test_lower_bound_mode_never_asserts(self):
        cfg = small_config(drip_mode="lower", drip_trials=50)
        for rec in run_experiment(cfg):
            assert rec.drip_method == "random_lower_bound"
            assert rec.within_bound is None
            assert rec.status == "lower_bound_only"

    def test_unconverged_solve_makes_no_claim(self, monkeypatch):
        monkeypatch.setattr(solvers, "MAX_ITERS", 5)
        records = run_experiment(ExperimentConfig.from_dict({
            "n": 6, "d": 9, "m": 48, "s": 2, "trials": 2, "eps": 0.05,
            "noise_mode": "bounded", "program": "p1",
            "frame": {"kind": "random", "seed": 5},
            "matrix": {"kind": "gaussian", "seed": 6, "scale": "auto_min"},
            "signal": {"seed": 7}, "noise_seed": 8,
        }))
        for rec in records:
            assert rec.status == "not_converged" and rec.iters == 5
            assert rec.bound is None and rec.within_bound is None
            assert rec.audit_pass == rec.audit_total == 0

    def test_noisy_batch_all_within_bound(self):
        cfg = small_config(
            n=8, d=12, m=128, s=2, trials=25, eps=0.1,
            frame=FrameSpec(kind="random", seed=1001),
            matrix=MatrixSpec(kind="gaussian", seed=1002, scale="auto_min"),
            signal=SignalSpec(seed=1003), noise_seed=1004,
        )
        records = run_experiment(cfg)
        assert all(r.status == "ok" for r in records)
        assert all(r.within_bound for r in records)

    def test_pq_program(self):
        cfg = small_config(program="pq", q=0.5, trials=2)
        for rec in run_experiment(cfg):
            assert rec.q == 0.5
            assert rec.regime == "lq"
            if rec.within_bound is not None:
                assert rec.within_bound


finite_reals = st.floats(allow_nan=False, allow_infinity=False)
optional_reals = st.none() | finite_reals
any_ints = st.integers(-2**70, 2**70)

records = st.builds(
    ExperimentRecord,
    trial=any_ints, seeds=st.dictionaries(st.sampled_from(("frame", "matrix")), any_ints),
    n=any_ints, d=any_ints, m=any_ints, s=any_ints, q=optional_reals,
    eps=finite_reals, delta_2s=finite_reals, drip_method=st.just("exact"),
    regime=st.sampled_from(("general_l1", "special_n_le_4s", "lq")),
    applicable=st.booleans(), rho=optional_reals, C0=optional_reals,
    C1=optional_reals, q0=optional_reals, tail=finite_reals, err_l2=finite_reals,
    bound=optional_reals, within_bound=st.none() | st.booleans(), iters=any_ints,
    status=st.sampled_from(("ok", "not_converged", "surrogate_gap",
                            "not_applicable", "lower_bound_only")),
    audit_pass=any_ints, audit_total=any_ints, reason=st.none() | st.text(),
)


def csv_row(rec):
    """The CSV columns of a record, as `read_csv` returns them."""
    return SimpleNamespace(**{c: getattr(rec, c) for c in CSV_COLUMNS})


class TestCsv:
    def test_header(self, tmp_path):
        write_csv([], tmp_path / "empty.csv")
        text = (tmp_path / "empty.csv").read_text(encoding="utf-8")
        assert text == CSV_HEADER + "\n"

    def test_header_is_the_documented_contract(self):
        # the header printed in the README; reordering CSV_COLUMNS breaks it
        assert CSV_HEADER == ("trial,n,d,m,s,q,eps,delta_2s,regime,rho,C0,C1,q0,"
                              "tail,err_l2,bound,within_bound,iters,status,"
                              "audit_pass,audit_total")

    @settings(max_examples=200, deadline=None)
    @given(st.lists(records, max_size=4))
    def test_round_trip_any_records(self, recs):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
            write_csv(recs, first)
            rows = read_csv(first)
            assert rows == [csv_row(r) for r in recs]
            # == does not tell -0.0 from 0.0; the bytes do
            write_csv(rows, second)
            assert first.read_bytes() == second.read_bytes()

    @settings(max_examples=500, deadline=None)
    @given(finite_reals)
    def test_format_real_round_trips_bit_exactly(self, x):
        assert struct.pack("<d", float(format_real(x))) == struct.pack("<d", x)

    def test_round_trip_bit_exact(self, tmp_path):
        records = run_experiment(small_config())
        path = tmp_path / "run.csv"
        write_csv(records, path)
        rows = read_csv(path)
        assert rows == [csv_row(r) for r in records]
        write_csv(rows, tmp_path / "run2.csv")
        assert path.read_bytes() == (tmp_path / "run2.csv").read_bytes()

    def test_round_trip_with_q_column(self, tmp_path):
        records = run_experiment(small_config(program="pq", q=0.5, trials=2))
        path = tmp_path / "runq.csv"
        write_csv(records, path)
        rows = read_csv(path)
        assert rows == [csv_row(r) for r in records]
        assert all(r.q == 0.5 for r in rows)

    def test_missing_q_is_empty_not_nan(self, tmp_path):
        records = run_experiment(small_config(trials=1))
        path = tmp_path / "one.csv"
        write_csv(records, path)
        line = path.read_text(encoding="utf-8").splitlines()[1]
        assert line.split(",")[5] == ""
        assert "nan" not in line.lower()

    def test_lf_endings(self, tmp_path):
        write_csv(run_experiment(small_config(trials=1)), tmp_path / "r.csv")
        raw = (tmp_path / "r.csv").read_bytes()
        assert b"\r" not in raw

    def test_parse_rejects_bad_header(self, tmp_path):
        (tmp_path / "bad.csv").write_text("nope\n", encoding="utf-8")
        with pytest.raises(ContractViolation):
            read_csv(tmp_path / "bad.csv")

    def test_parse_rejects_a_short_row(self, tmp_path):
        (tmp_path / "bad.csv").write_text(CSV_HEADER + "\n0,8,12\n", encoding="utf-8")
        with pytest.raises(ContractViolation, match="bad CSV row: '0,8,12'"):
            read_csv(tmp_path / "bad.csv")


class TestIntroComparison:
    def test_emits_discrepancy_note(self):
        report = compare_reported_constants()
        assert report["reported_C0"] == 5.06
        assert report["reported_C1"] == 10.57
        assert report["computed_C0"] == pytest.approx(2.6322513458784395, rel=1e-12)
        assert report["relative_difference_C0"] > 0.05
        assert report["discrepancy_note"] is not None
