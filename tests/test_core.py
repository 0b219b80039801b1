import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from obell.core import (
    LABELS,
    CorrelationTriple,
    DeterministicStrategy,
    HiddenVariableModel,
    MeasurementSetting,
    NoiseParameters,
    SettingTriple,
    make_setting,
    model_from_json_str,
    model_to_json_str,
    setting_triple_from_json,
    validate_model,
)
from obell.lhv import make_epsilon_model

from helpers import (
    BAD_MODEL_WIRE,
    BAD_MODEL_WIRE_IDS,
    model_wire_with,
    random_epsilon_model,
    random_perfect_model,
)


class TestMakeSetting:
    def test_normalizes(self):
        assert make_setting((2, 0, 0)).axis == (1.0, 0.0, 0.0)

    def test_planar_unit_vector_passes_through(self):
        v = (0.5, -math.sqrt(3) / 2, 0.0)
        assert make_setting(v).axis == v

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            make_setting((0, 0, 0))

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError):
            make_setting((1, 0))

    @given(st.tuples(*[st.floats(-10, 10) for _ in range(3)]))
    def test_idempotent(self, v):
        norm = math.sqrt(sum(x * x for x in v))
        if norm == 0.0:
            with pytest.raises(ValueError):
                make_setting(v)
            return
        once = make_setting(v)
        twice = make_setting(once.axis)
        assert all(abs(x - y) <= 1e-12 for x, y in zip(once.axis, twice.axis))

    def test_non_unit_direct_construction_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            MeasurementSetting((1.0, 1.0, 0.0))


class TestDomainTypes:
    def test_correlation_triple_range(self):
        CorrelationTriple(1.0, -1.0, 0.0)
        with pytest.raises(ValueError, match="p_ac"):
            CorrelationTriple(0.0, 1.5, 0.0)

    def test_noise_parameters(self):
        p = NoiseParameters(epsilon=0.25, eta=0.9)
        assert p.gamma == 0.75
        assert NoiseParameters.from_gamma(0.98, 0.9).epsilon == pytest.approx(0.02)
        with pytest.raises(ValueError):
            NoiseParameters(epsilon=-0.1, eta=1.0)
        with pytest.raises(ValueError):
            NoiseParameters(epsilon=0.0, eta=0.0)

    def test_strategy_validation(self):
        with pytest.raises(ValueError, match="not \\+-1"):
            DeterministicStrategy(a_out={"a": 1, "b": 0, "c": 1}, b_out={"a": -1, "b": -1, "c": -1})
        with pytest.raises(ValueError, match="labels"):
            DeterministicStrategy(a_out={"a": 1, "b": 1}, b_out={"a": -1, "b": -1, "c": -1})

    def test_setting_triple_coincident_legal(self):
        s = make_setting((0, 0, 1))
        t = SettingTriple(a=s, b=s, c=s)
        assert t.get("b") is s


def _strategy(bits_a, bits_b):
    return DeterministicStrategy(a_out=dict(zip(LABELS, bits_a)), b_out=dict(zip(LABELS, bits_b)))


class TestValidateModel:
    def test_broken_normalization_named(self):
        m = HiddenVariableModel.build([0.9], [_strategy((1, 1, 1), (-1, -1, -1))])
        violations = validate_model(m)
        assert len(violations) == 1
        assert "normalization" in violations[0]

    def test_constructed_models_are_valid(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            assert validate_model(random_perfect_model(rng)) == []
            assert validate_model(random_epsilon_model(rng, 0.3)) == []

    def test_negative_weight_named(self):
        m = HiddenVariableModel.build(
            [1.5, -0.5],
            [_strategy((1, 1, 1), (-1, -1, -1)), _strategy((1, 1, 1), (-1, -1, -1))],
        )
        assert any("negative weight" in v for v in validate_model(m))

    def test_negative_fraction_weight_named_as_given(self):
        m = HiddenVariableModel.build(
            [Fraction(3, 2), Fraction(-1, 2)],
            [_strategy((1, 1, 1), (-1, -1, -1)), _strategy((1, 1, 1), (-1, -1, -1))],
        )
        assert validate_model(m) == ["atom 1: negative weight Fraction(-1, 2)"]

    def test_fraction_total_at_the_tolerance(self):
        # WEIGHT_TOL is the float 1e-12, a little below 10^-12: both sides of
        # its exact value
        strategies = [_strategy((1, 1, 1), (-1, -1, -1))] * 2
        edge = [Fraction(1, 2), Fraction(1, 2) + Fraction(1e-12)]
        assert validate_model(HiddenVariableModel.build(edge, strategies)) == []
        over = HiddenVariableModel.build([edge[0], edge[1] + Fraction(1, 10**30)], strategies)
        assert validate_model(over) == ["weights: normalization broken, sum is 1.000000000001"]

    @pytest.mark.parametrize(
        "weights, needle",
        [
            ([math.nan, 1.0], "atom 0: non-finite weight"),
            ([1.0, math.inf], "atom 1: non-finite weight"),
            ([True, False], "atom 0: weight True is a bool"),
        ],
        ids=["nan", "inf", "bool"],
    )
    def test_bad_weight_named(self, weights, needle):
        m = HiddenVariableModel.build(
            weights,
            [_strategy((1, 1, 1), (-1, -1, -1)), _strategy((1, 1, 1), (-1, -1, -1))],
        )
        assert any(needle in v for v in validate_model(m))

    def test_bool_weight_survives_json(self):
        m = HiddenVariableModel.build(
            [1.0, 0.0],
            [_strategy((1, 1, 1), (-1, -1, -1)), _strategy((1, 1, 1), (-1, -1, -1))],
        )
        wire = json.loads(model_to_json_str(m))
        wire["weights"] = [True, False]
        parsed = model_from_json_str(json.dumps(wire))
        assert any("is a bool" in v for v in validate_model(parsed))


class TestJsonRoundTrip:
    def test_model_round_trip_field_for_field(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            m = random_epsilon_model(rng, 0.4)
            assert model_from_json_str(model_to_json_str(m)) == m

    def test_fraction_weights_round_trip_exact(self):
        base = [
            (Fraction(1, 3), _strategy((1, -1, 1), (-1, 1, -1))),
            (Fraction(2, 3), _strategy((-1, -1, -1), (1, 1, 1))),
        ]
        m = make_epsilon_model(base, {}, 0)
        back = model_from_json_str(model_to_json_str(m))
        assert back == m
        assert back.weights[0] == Fraction(1, 3)

    def test_setting_triple_round_trip(self):
        t = SettingTriple(
            a=make_setting((1, 0, 0)),
            b=make_setting((0.5, -math.sqrt(3) / 2, 0)),
            c=make_setting((-0.5, -math.sqrt(3) / 2, 0)),
        )
        wire = {label: list(t.get(label).axis) for label in LABELS}
        assert setting_triple_from_json(json.loads(json.dumps(wire))) == t

    @pytest.mark.parametrize(
        "change, field",
        [({"a": "100"}, "settings.a"), ({"a": [True, 0, 0]}, "settings.a"), ({"d": [1, 0, 0]}, "settings.d")],
        ids=["string-vector", "bool-component", "extra-label"],
    )
    def test_setting_triple_read_strictly(self, change, field):
        # each was once coerced to (1, 0, 0) or ignored
        obj = {"a": [1, 0, 0], "b": [0, 1, 0], "c": [0, 0, 1], **change}
        with pytest.raises(ValueError, match=re.escape(field)):
            setting_triple_from_json(obj)

    @pytest.mark.parametrize(
        "flags, needle",
        [
            ([], "atom 0: anticorr_flag has 0 entries for 1 strategies"),
            ([{"a": False, "b": True, "c": True}] * 2, "atom 1: anticorr_flag has 2 entries for 1 strategies"),
        ],
        ids=["missing", "extra"],
    )
    def test_anticorr_flag_count_must_match(self, flags, needle):
        m = HiddenVariableModel.build([1.0], [_strategy((1, 1, 1), (1, -1, -1))])
        wire = json.loads(model_to_json_str(m))
        assert wire["anticorr_flag"] == [{"a": False, "b": True, "c": True}]
        wire["anticorr_flag"] = flags
        with pytest.raises(ValueError, match=re.escape(needle)):
            model_from_json_str(json.dumps(wire))

    @pytest.mark.parametrize("where, value, message", BAD_MODEL_WIRE, ids=BAD_MODEL_WIRE_IDS)
    def test_wire_values_read_strictly(self, where, value, message):
        assert model_from_json_str(json.dumps(model_wire_with())).n_atoms == 2
        with pytest.raises(ValueError, match=re.escape(message)):
            model_from_json_str(json.dumps(model_wire_with(where, value)))

    def test_malformed_model_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            model_from_json_str('{"weights": [1.0]}')

    @pytest.mark.parametrize("field", ["detect_flag", "anticorr_flag", "a_out"])
    def test_non_object_entries_name_the_field(self, field):
        m = HiddenVariableModel.build([1.0], [_strategy((1, 1, 1), (-1, -1, -1))])
        wire = json.loads(model_to_json_str(m))
        if field == "a_out":
            wire["strategy_at"][0]["a_out"] = 5
        else:
            wire[field] = [5]
        with pytest.raises(ValueError, match=f"malformed.*{field} entries must be objects"):
            model_from_json_str(json.dumps(wire))
