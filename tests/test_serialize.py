import json
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np
import pytest

from framecs.errors import ContractViolation
from framecs.frames import make_identity_frame
from framecs.sensing import SensingModel
from framecs.serialize import format_real, json_dumps
from framecs.solvers import solve_pq


class TestStrings:
    def test_escapes(self):
        text = 'a"b\\c\nd\re\tf\bg\fh\x00i\x1fj'
        out = json_dumps(text)
        assert out == '"a\\"b\\\\c\\nd\\re\\tf\\bg\\fh\\u0000i\\u001fj"'
        assert json.loads(out) == text

    def test_non_ascii_kept(self):
        text = "δ₂ₛ < 0.4931 — ρ(q) ∈ (0, 1) \U0001f600"
        assert json_dumps(text) == '"%s"' % text

    def test_keys_escaped(self):
        assert json_dumps({'k"\n': 1}) == '{"k\\"\\n": 1}'


class TestReals:
    def test_seventeen_digits_round_trip(self):
        rng = np.random.default_rng(0)
        for x in np.concatenate([rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200),
                                 [0.1, 1.0 / 3.0, 5e-324, 1.7976931348623157e308, -0.0]]):
            text = json_dumps(float(x))
            assert text == format(float(x), ".17g")
            assert float(text) == x

    def test_numpy_scalars(self):
        assert json_dumps([np.float64(0.1), np.int64(3), True, None]) == \
            "[0.10000000000000001, 3, true, null]"

    @pytest.mark.parametrize("x", (float("nan"), float("inf"), -float("inf"), np.float64("nan")))
    def test_non_finite_rejected(self, x):
        with pytest.raises(ContractViolation, match="non-finite"):
            json_dumps({"x": [x]})
        with pytest.raises(ContractViolation, match="non-finite"):
            format_real(x)


@dataclass(frozen=True)
class _Inner:
    b: int
    a: float


@dataclass(frozen=True)
class _Record:
    zeta: str
    alpha: Tuple[int, ...]
    inner: _Inner
    table: Dict[str, float] = field(default_factory=dict)
    arr: np.ndarray = None


class TestRecords:
    def test_fields_in_declaration_order(self):
        rec = _Record(zeta="z", alpha=(3, 1), inner=_Inner(b=2, a=0.5),
                      table={"y": 1.0, "x": 2.0}, arr=np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert json_dumps(rec) == (
            '{"zeta": "z", "alpha": [3, 1], "inner": {"b": 2, "a": 0.5}, '
            '"table": {"y": 1, "x": 2}, "arr": [[1, 2], [3, 4]]}')

    def test_dataclass_type_is_not_a_record(self):
        with pytest.raises(TypeError, match="cannot serialize"):
            json_dumps(_Inner)

    def test_pq_result_keys(self):
        model = SensingModel(A=np.eye(3), y=np.array([1.0, 0.0, 2.0]), epsilon=0.1)
        res = solve_pq(make_identity_frame(3), model, 0.5)
        payload = json.loads(json_dumps(res))
        assert list(payload) == ["f_hat", "iterations", "converged", "residual",
                                 "objective", "program", "diagnostics"]
        assert list(payload["diagnostics"]) == ["mu_final", "lambda_final", "levels"]
        assert payload["diagnostics"]["levels"] == res.diagnostics["levels"] > 0
