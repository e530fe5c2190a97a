import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framecs.drip import exact_drip
from framecs.errors import ContractViolation, NotApplicableError
from framecs.frames import make_random_tight_frame
from framecs.guarantees import (
    audit_lemmas,
    block_partition,
    certify,
    constants_general,
    constants_q,
    constants_special,
    error_bound,
    q_zero,
    rho_general,
    rho_q,
    rho_special,
    surrogate_gate,
    threshold_general,
    threshold_special,
)
from framecs.sensing import gen_gaussian, measure
from framecs.serialize import json_dumps
from framecs.solvers import solve_p1


# Frozen from a 40-digit mpmath evaluation of the closed forms.
RHO_GENERAL_02 = 0.58373002384727542875
C_GENERAL_02 = (3.9229184313219025674, 8.4387466365158072676)
C_GENERAL_1_14 = (2.6322513458784395272, 5.9385869279064048283)
RHO_SPECIAL_02 = 0.4743416490252568998
C_SPECIAL_02 = (3.0079210710763737626, 6.9920087808070700183)
C_SPECIAL_0 = (2.1876726427121086272, 5.0938363213560543136)
RHO_Q_025_05 = 0.59964356111670783064
RHO_Q_04_1 = 0.96285166735761190836
C_Q_025_05 = (119.61411541844550703, 197.63843361646881138)
Q0_045 = 0.81271447882043221863
Q0_CROSSOVER = 0.42084380241115003772  # root of 8 d^2 - 20 d + 7


class TestRhoGeneral:
    def test_at_zero(self):
        assert rho_general(0.0) == pytest.approx(math.sqrt(4 / 32), abs=1e-15)

    def test_at_02(self):
        assert rho_general(0.2) == pytest.approx(RHO_GENERAL_02, rel=1e-14)

    def test_threshold_is_root(self):
        # (77 - sqrt(1337)) / 82 solves 41 d^2 - 77 d + 28 = 0
        thr = threshold_general()
        assert abs(41 * thr ** 2 - 77 * thr + 28) < 1e-12
        assert abs(rho_general(thr) - 1.0) <= 1e-12

    def test_threshold_value(self):
        assert threshold_general() == pytest.approx(0.4931, abs=5e-5)

    def test_monotone_around_root(self):
        thr = threshold_general()
        assert rho_general(thr - 1e-6) < 1.0
        assert rho_general(thr + 1e-6) > 1.0

    def test_strictly_increasing(self):
        grid = np.linspace(0.0, 2 / 3 - 1e-9, 1000)
        vals = [rho_general(g) for g in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ContractViolation):
            rho_general(2 / 3)
        with pytest.raises(ContractViolation):
            rho_general(-0.1)


class TestRhoSpecial:
    def test_at_zero(self):
        assert rho_special(0.0) == pytest.approx(math.sqrt(1 / 8), abs=1e-15)

    def test_at_02(self):
        assert rho_special(0.2) == pytest.approx(RHO_SPECIAL_02, rel=1e-14)

    def test_threshold_is_root(self):
        # 4 sqrt(2) - 5 solves d^2 + 10 d - 7 = 0
        thr = threshold_special()
        assert abs(thr ** 2 + 10 * thr - 7) < 1e-12
        assert abs(rho_special(thr) - 1.0) <= 1e-12

    def test_threshold_value(self):
        assert threshold_special() == pytest.approx(0.656, abs=1e-3)

    def test_strictly_increasing(self):
        grid = np.linspace(0.0, 1 - 1e-9, 1000)
        vals = [rho_special(g) for g in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestConstantsL1:
    def test_general_at_02(self):
        c0, c1 = constants_general(0.2)
        assert c0 == pytest.approx(C_GENERAL_02[0], rel=1e-12)
        assert c1 == pytest.approx(C_GENERAL_02[1], rel=1e-12)

    def test_general_at_1_14(self):
        c0, c1 = constants_general(1 / 14)
        assert c0 == pytest.approx(C_GENERAL_1_14[0], rel=1e-12)
        assert c1 == pytest.approx(C_GENERAL_1_14[1], rel=1e-12)

    def test_general_blows_up_at_threshold(self):
        c0, _ = constants_general(threshold_general() - 1e-7)
        assert c0 > 1e3

    def test_general_inapplicable(self):
        with pytest.raises(NotApplicableError):
            constants_general(0.494)

    def test_special_at_02(self):
        c0, c1 = constants_special(0.2)
        assert c0 == pytest.approx(C_SPECIAL_02[0], rel=1e-12)
        assert c1 == pytest.approx(C_SPECIAL_02[1], rel=1e-12)

    def test_special_at_zero(self):
        c0, c1 = constants_special(0.0)
        assert c0 == pytest.approx(C_SPECIAL_0[0], rel=1e-12)
        assert c1 == pytest.approx(C_SPECIAL_0[1], rel=1e-12)

    def test_special_covers_past_general_threshold(self):
        c0, c1 = constants_special(0.5)
        assert math.isfinite(c0) and math.isfinite(c1) and c0 > 0

    def test_special_inapplicable(self):
        with pytest.raises(NotApplicableError):
            constants_special(0.66)


class TestRhoQ:
    def test_hand_value(self):
        # sqrt(1/3 + (0.5/12) (6/7)^3) computed with exact fractions
        assert rho_q(0.25, 0.5) == pytest.approx(RHO_Q_025_05, rel=1e-14)

    def test_q1_value(self):
        assert rho_q(0.4, 1.0) == pytest.approx(RHO_Q_04_1, rel=1e-14)

    def test_small_q_limit(self):
        # the q-dependent term vanishes as q -> 0
        assert rho_q(0.0, 0.05) < 0.02
        assert rho_q(0.0, 1e-8) == 0.0

    def test_no_overflow_at_tiny_q(self):
        assert math.isfinite(rho_q(0.3, 1e-9))


class TestQZero:
    def test_clamped_at_04(self):
        assert q_zero(0.4) == 1.0

    def test_value_at_045(self):
        assert q_zero(0.45) == pytest.approx(Q0_045, abs=1e-8)

    def test_root_identity(self):
        for delta in (0.43, 0.45, 0.48):
            q0 = q_zero(delta)
            assert q0 < 1.0
            assert abs(rho_q(delta, q0) - 1.0) <= 1e-6

    def test_below_root_is_contractive(self):
        for delta in (0.43, 0.47):
            q0 = q_zero(delta)
            for q in np.linspace(1e-4, q0 - 1e-6, 50):
                assert rho_q(delta, float(q)) < 1.0

    def test_clamp_crossover(self):
        assert q_zero(Q0_CROSSOVER - 1e-4) == 1.0
        assert q_zero(Q0_CROSSOVER + 1e-4) < 1.0

    def test_non_increasing_in_delta(self):
        grid = np.linspace(0.0, 0.5 - 1e-9, 200)
        vals = [q_zero(float(g)) for g in grid]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ContractViolation):
            q_zero(0.5)

    def test_rho_q_nondecreasing_on_the_grid(self):
        # the premise of q_zero's binary search for its bracket
        grid = np.linspace(1e-6, 1.0, 2049)
        deltas = list(np.linspace(0.0, 0.45, 5)) + [0.5 - 10.0 ** -k for k in range(1, 17)]
        for delta in deltas:
            vals = [rho_q(float(delta), float(q)) for q in grid]
            assert all(a <= b for a, b in zip(vals, vals[1:])), delta


class TestConstantsQ:
    def test_hand_value(self):
        c0, c1 = constants_q(0.25, 0.5)
        assert c0 == pytest.approx(C_Q_025_05[0], rel=1e-12)
        assert c1 == pytest.approx(C_Q_025_05[1], rel=1e-12)

    def test_degenerate_matches_special(self):
        c0q, c1q = constants_q(0.0, 1.0)
        c0s, c1s = constants_special(0.0)
        assert c0q == pytest.approx(c0s, rel=1e-12)
        assert c1q == pytest.approx(c1s, rel=1e-12)

    def test_blow_up_near_q0(self):
        delta = 0.45
        q0 = q_zero(delta)
        c_near, _ = constants_q(delta, q0 - 1e-4)
        c_far, _ = constants_q(delta, q0 - 1e-1)
        assert c_near > 10 * c_far

    def test_inapplicable_above_q0(self):
        with pytest.raises(NotApplicableError):
            constants_q(0.45, 0.9)
        with pytest.raises(NotApplicableError):
            constants_q(0.5, 0.5)

    # inside the regime, but C0 leaves the floats: at 0.005 (1 - rho^q)^(1/q)
    # underflows, at 0.0005 2^(1/q) overflows, at 0.0084 C0 rounds to inf
    @pytest.mark.parametrize("delta, q", [(0.1, 0.005), (0.1, 0.0005), (0.1, 0.0084),
                                          (0.0, 1e-10), (0.45, 0.002)])
    def test_overflow_names_q_and_delta(self, delta, q):
        assert q < q_zero(delta)
        with pytest.raises(ContractViolation, match="q = %.10g, delta = %.10g"
                           % (q, delta)) as info:
            constants_q(delta, q)
        assert not isinstance(info.value, NotApplicableError)

    def test_small_q_still_finite(self):
        c0, c1 = constants_q(0.1, 0.01)
        assert math.isfinite(c0) and math.isfinite(c1) and c1 > c0 > 0


class TestErrorBound:
    def test_exact_recovery_regime(self):
        assert error_bound(3.0, 7.0, 0.0, 2, 0.0) == 0.0

    def test_noise_only(self):
        b = error_bound(3.9229184313219025674, 8.4387466365158072676, 0.0, 2, 0.1)
        assert b == pytest.approx(0.84387466365158072676, rel=1e-12)

    def test_q_exponent(self):
        # s^(1/q - 1/2) = 8 at q = 0.5, s = 4
        assert error_bound(1.0, 0.0, 8.0, 4, 0.0, q=0.5) == pytest.approx(1.0, rel=1e-12)


class TestCertify:
    def test_special_only_window(self):
        certs = {c.regime: c for c in certify(0.55, n=8, s=2)}
        assert not certs["general_l1"].applicable
        assert certs["special_n_le_4s"].applicable
        assert certs["special_n_le_4s"].rho < 1.0

    def test_general_only(self):
        certs = {c.regime: c for c in certify(0.3, n=32, s=2)}
        assert certs["general_l1"].applicable
        assert not certs["special_n_le_4s"].applicable  # n > 4s

    def test_lq_window(self):
        certs = {c.regime: c for c in certify(0.45, n=8, s=2, q_opt=0.9)}
        assert not certs["lq"].applicable
        certs = {c.regime: c for c in certify(0.45, n=8, s=2, q_opt=0.5)}
        assert certs["lq"].applicable
        assert certs["lq"].q0 == pytest.approx(Q0_045, abs=1e-8)

    def test_applicable_implies_rho_below_one(self):
        for delta in np.linspace(0.0, 0.9, 40):
            for cert in certify(float(delta), n=8, s=2, q_opt=0.5):
                if cert.applicable:
                    assert cert.rho is not None and cert.rho < 1.0
                    assert cert.C0 > 0 and cert.C1 > 0

    def test_no_q_certificate_without_q(self):
        regimes = [c.regime for c in certify(0.3, n=8, s=2)]
        assert regimes == ["general_l1", "special_n_le_4s"]

    def test_serialization_fields(self):
        cert = certify(0.2, n=8, s=2)[0]
        payload = json.loads(json_dumps(cert))
        assert list(payload) == ["regime", "delta_2s", "s", "q", "rho", "C0",
                                 "C1", "q0", "applicable", "precondition_text"]


class TestBlockPartition:
    def test_hand_example(self):
        x_f = np.array([5.0, 4.0, 1.0, 0.0, 2.0, 0.0, 3.0])
        x_h = np.array([0.1, -0.2, 3.0, -1.0, 2.0, 0.5, 0.1])
        part = block_partition(x_f, x_h, s=2)
        assert part.blocks[0] == (0, 1)
        assert part.blocks[1] == (2, 4)
        assert part.blocks[2] == (3, 5)
        assert part.blocks[3] == (6,)
        assert part.l == 3
        assert part.omega == pytest.approx(5.0 / 6.6, rel=1e-12)

    def test_zero_denominator_convention(self):
        x_f = np.array([3.0, 2.0, 0.0, 0.0])
        x_h = np.array([1.0, -1.0, 0.0, 0.0])
        part = block_partition(x_f, x_h, s=2)
        assert part.omega == 0.0

    def test_symmetric_shares(self):
        # equal off-support magnitudes, one full block: omega = 1/3
        x_f = np.array([9.0, 0.0, 0.0, 0.0])
        x_h = np.array([0.0, 1.0, -1.0, 1.0])
        part = block_partition(x_f, x_h, s=1)
        assert part.omega == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_lq_omega(self):
        x_f = np.array([9.0, 0.0, 0.0])
        x_h = np.array([0.0, 2.0, 1.0])
        part = block_partition(x_f, x_h, s=1, q=0.5)
        expected = 2.0 ** 0.5 / (2.0 ** 0.5 + 1.0)
        assert part.omega == pytest.approx(expected, rel=1e-12)

    def test_well_formed(self):
        rng = np.random.default_rng(15)
        for _ in range(10000):
            d = int(rng.integers(1, 12))
            s = int(rng.integers(1, d + 1))
            x_f = rng.standard_normal(d)
            x_h = rng.standard_normal(d)
            part = block_partition(x_f, x_h, s)
            flat = [i for blk in part.blocks for i in blk]
            assert sorted(flat) == list(range(d))
            assert len(part.blocks[0]) == s
            for blk in part.blocks[1:-1]:
                assert len(blk) == s
            assert 0.0 <= part.omega <= 1.0

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.sampled_from((1.0, 0.3)))
    def test_invariants_with_ties_and_zeros(self, data, q):
        d = data.draw(st.integers(1, 12))
        s = data.draw(st.integers(1, d))
        entries = st.integers(-2, 2).map(float) | st.floats(-1e3, 1e3)  # ties, zeros
        vectors = st.lists(entries, min_size=d, max_size=d).map(np.array)
        x_f, x_h = data.draw(vectors), data.draw(vectors)
        part = block_partition(x_f, x_h, s, q)
        assert sorted(i for blk in part.blocks for i in blk) == list(range(d))
        assert len(part.blocks[0]) == s
        assert all(len(blk) == s for blk in part.blocks[1:-1])
        assert all(list(blk) == sorted(blk) for blk in part.blocks)
        assert 0.0 <= part.omega <= 1.0
        head = list(part.blocks[0])
        if d > s:
            assert np.abs(x_f[head]).min() >= np.abs(np.delete(x_f, head)).max()
        for earlier, later in zip(part.blocks[1:], part.blocks[2:]):
            assert np.abs(x_h[list(earlier)]).min() >= np.abs(x_h[list(later)]).max()


def _audited_instance(seed, eps=0.05, n=6, d=9, m=40, s=2):
    frame = make_random_tight_frame(n, d, seed=seed)
    a_raw = gen_gaussian(m, n, seed=seed + 1000)
    from framecs.drip import support_spectrum_range
    lo, hi = support_spectrum_range(a_raw, frame, 2 * s)
    a = a_raw * math.sqrt(2.0 / (hi + lo))
    rng = np.random.default_rng(seed + 2000)
    x = np.zeros(d)
    x[rng.choice(d, s, replace=False)] = rng.standard_normal(s)
    f = frame.matrix @ x
    mode = "bounded" if eps > 0 else "none"
    model = measure(a, f, mode, eps, seed=seed + 3000)
    return frame, a, f, model


class TestAuditLemmas:
    def test_zero_difference(self):
        frame, a, f, model = _audited_instance(1, eps=0.0)
        delta = exact_drip(a, frame, 4).delta
        records = audit_lemmas(frame, a, f, f, 2, 1.0, 0.0, delta, y=model.y)
        assert records and all(r.holds for r in records)
        by_id = {r.lemma_id: r for r in records}
        assert by_id["cone_l1"].lhs == 0.0
        assert by_id["feasibility_gap"].lhs == pytest.approx(0.0, abs=1e-12)

    def test_end_to_end_instance(self):
        frame, a, f, model = _audited_instance(2)
        delta = exact_drip(a, frame, 4).delta
        res = solve_p1(frame, model)
        assert res.converged
        records = audit_lemmas(frame, a, f, res.f_hat, 2, 1.0, model.epsilon,
                               delta, y=model.y)
        assert all(r.holds for r in records), \
            [(r.lemma_id, r.slack) for r in records if not r.holds]
        ids = {r.lemma_id for r in records}
        assert {"sparse_image_correlation", "far_tail_image_energy", "far_tail_vs_head_energy", "tail_l2_from_l1_mass", "weighted_tail_energy_l1",
                "cone_l1", "feasibility_gap", "tail_l2_from_lq_mass", "weighted_tail_energy_lq",
                "cone_lq"} <= ids

    def test_contraction_record_intermediates(self):
        frame, a, f, model = _audited_instance(3)
        delta = exact_drip(a, frame, 4).delta
        if delta >= threshold_general():
            pytest.skip("instance not in the general regime")
        res = solve_p1(frame, model)
        records = audit_lemmas(frame, a, f, res.f_hat, 2, 1.0, model.epsilon,
                               delta, y=model.y)
        rec = {r.lemma_id: r for r in records}["block_mass_contraction_l1"]
        assert rec.holds
        assert "N" in rec.intermediates and rec.intermediates["N"] >= 0.0
        assert rec.intermediates["rho"] < 1.0

    def test_infeasible_candidate_rejected(self):
        frame, a, f, model = _audited_instance(4)
        delta = exact_drip(a, frame, 4).delta
        bad = f + 10.0 * np.ones(frame.n)
        with pytest.raises(ContractViolation, match="infeasible"):
            audit_lemmas(frame, a, f, bad, 2, 1.0, model.epsilon, delta,
                         y=model.y)

    def test_surrogate_violation_rejected(self):
        frame, a, f, model = _audited_instance(5, eps=0.05)
        delta = exact_drip(a, frame, 4).delta
        # a feasible wiggle (inside the eps = 0.2 budget) that inflates the
        # objective: audited at the larger budget, rejected by the gate
        coeffs = frame.matrix.T @ f
        wiggle = frame.matrix @ np.sign(coeffs)  # ascent direction for the l1 objective
        bad = f + wiggle * (0.1 / np.linalg.norm(a @ wiggle))
        assert np.linalg.norm(a @ bad - model.y) <= 0.2
        assert np.abs(frame.matrix.T @ bad).sum() > np.abs(coeffs).sum()
        with pytest.raises(ContractViolation, match="surrogate"):
            audit_lemmas(frame, a, f, bad, 2, 1.0, 0.2, delta, y=model.y)

    @pytest.mark.parametrize("q", [1.0, 0.5])
    def test_surrogate_gate_round_off_slack(self, q):
        x = np.array([0.3, -1.2, 0.7, 0.0])
        assert surrogate_gate(x, x, q)[0]
        # an exact recovery in the golden file sat at a relative gap of 8.4e-16
        assert surrogate_gate(x * (1.0 + 8.4e-16), x, q)[0]
        assert not surrogate_gate(x * (1.0 + 1e-10), x, q)[0]
        holds, obj_hat, obj_true = surrogate_gate(2.0 * x, x, q)
        assert not holds and obj_hat == pytest.approx(2.0 ** q * obj_true)

    def test_q_audit(self):
        from framecs.solvers import solve_pq
        frame, a, f, model = _audited_instance(6)
        delta = exact_drip(a, frame, 4).delta
        if delta >= 0.5:
            pytest.skip("instance not in the lq regime")
        res = solve_pq(frame, model, 0.5)
        assert res.converged
        coeffs = frame.matrix.T
        if np.sum(np.abs(coeffs @ res.f_hat) ** 0.5) > np.sum(np.abs(coeffs @ f) ** 0.5):
            pytest.skip("stationary point missed the surrogate gate")
        records = audit_lemmas(frame, a, f, res.f_hat, 2, 0.5, model.epsilon,
                               delta, y=model.y)
        assert all(r.holds for r in records), \
            [(r.lemma_id, r.slack) for r in records if not r.holds]
        assert "block_mass_contraction_lq" in {r.lemma_id for r in records}
