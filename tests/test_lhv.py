import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from obell.core import (
    LABELS,
    PAIR_KEYS,
    DeterministicStrategy,
    HiddenVariableModel,
    validate_model,
)
from obell.lhv import (
    _detection_witness,
    _dual_violations,
    _epsilon_witness,
    classical_ob_maximum,
    detection_ob_maximum,
    enumerate_strategies,
    epsilon_ob_maximum,
    lhv_conditional_correlation,
    lhv_correlation,
    make_detection_model,
    make_epsilon_model,
    model_ob_statistic,
    strategy_ob_statistic,
)

from helpers import (
    random_combined_model,
    random_detection_model,
    random_epsilon_model,
    random_perfect_model,
    random_strategies,
    reference_conditional_correlation,
    reference_correlation,
    reference_ob_statistic,
    uniform_fraction_weights,
)


def strat(bits_a, bits_b):
    return DeterministicStrategy(a_out=dict(zip(LABELS, bits_a)), b_out=dict(zip(LABELS, bits_b)))


class TestLhvCorrelation:
    def test_single_atom(self):
        m = HiddenVariableModel.build([1.0], [strat((1, 1, 1), (-1, -1, -1))])
        assert lhv_correlation(m, "a", "b") == -1

    def test_global_sign_flip_invariance(self):
        s = strat((1, -1, 1), (-1, 1, -1))
        flipped = strat((-1, 1, -1), (1, -1, 1))
        m1 = HiddenVariableModel.build([0.5, 0.5], [s, flipped])
        m2 = HiddenVariableModel.build([1.0], [s])
        for s_label in LABELS:
            for t_label in LABELS:
                assert lhv_correlation(m1, s_label, t_label) == lhv_correlation(
                    m2, s_label, t_label
                )

    def test_two_atom_arithmetic(self):
        m = HiddenVariableModel.build(
            [0.25, 0.75],
            [strat((1, 1, 1), (1, 1, 1)), strat((1, 1, 1), (-1, -1, -1))],
        )
        assert lhv_correlation(m, "a", "b") == pytest.approx(-0.5)

    def test_invalid_model_rejected(self):
        m = HiddenVariableModel.build([0.9], [strat((1, 1, 1), (-1, -1, -1))])
        with pytest.raises(ValueError, match="invalid"):
            lhv_correlation(m, "a", "b")

    def test_int_weights_keep_their_types(self):
        m = HiddenVariableModel.build([1], [strat((1, 1, 1), (-1, -1, -1))])
        plain, conditional = lhv_correlation(m, "a", "b"), lhv_conditional_correlation(m, "a", "b")
        assert (plain, type(plain)) == (-1, int)
        assert (conditional, type(conditional)) == (-1.0, float)


@st.composite
def rational_models(draw):
    """1-8 atoms whose weights are the gaps between sorted cut points p/q,
    q <= 10^6, with random strategies and detection flags."""
    n = draw(st.integers(1, 8))
    denominators = draw(st.lists(st.integers(1, 10**6), min_size=n - 1, max_size=n - 1))
    cuts = sorted(Fraction(draw(st.integers(0, q)), q) for q in denominators)
    weights = [hi - lo for lo, hi in zip([Fraction(0), *cuts], [*cuts, Fraction(1)])]
    outcomes = st.tuples(*[st.sampled_from((1, -1))] * 3)
    strategies = [strat(draw(outcomes), draw(outcomes)) for _ in range(n)]
    detect = [{key: draw(st.booleans()) for key in PAIR_KEYS} for _ in range(n)]
    return HiddenVariableModel.build(weights, strategies, detect)


def _outcome(f, *args):
    try:
        value = f(*args)
    except ValueError as exc:
        return "raised", str(exc)
    return value, type(value)


class TestIntegerSums:
    @given(rational_models())
    def test_equal_plain_fraction_sums(self, m):
        assert validate_model(m) == []
        for s, t in itertools.product(LABELS, repeat=2):
            assert _outcome(lhv_correlation, m, s, t) == _outcome(reference_correlation, m, s, t)
            assert _outcome(lhv_conditional_correlation, m, s, t) == _outcome(
                reference_conditional_correlation, m, s, t
            )
        for pattern, conditional in itertools.product(("e7", "e10"), (False, True)):
            assert _outcome(model_ob_statistic, m, pattern, conditional) == _outcome(
                reference_ob_statistic, m, pattern, conditional
            )


class TestConditionalCorrelation:
    def test_full_detection_equals_plain(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = random_perfect_model(rng)
            for s in LABELS:
                for t in LABELS:
                    assert lhv_conditional_correlation(m, s, t) == pytest.approx(
                        float(lhv_correlation(m, s, t)), abs=1e-12
                    )

    def test_postselection_fakes_anticorrelation(self):
        # Only the anti-correlated atom is detected: the conditional
        # correlation at equal settings is -1 even though the plain one is not.
        strategies = [strat((1, 1, 1), (-1, -1, -1)), strat((1, 1, 1), (1, 1, 1))]
        detect = [{k: True for k in PAIR_KEYS}, {k: False for k in PAIR_KEYS}]
        m = HiddenVariableModel.build([0.5, 0.5], strategies, detect)
        assert lhv_correlation(m, "a", "a") == 0
        assert lhv_conditional_correlation(m, "a", "a") == -1

    def test_null_conditioning_rejected(self):
        strategies = [strat((1, 1, 1), (-1, -1, -1))]
        detect = [{k: False for k in PAIR_KEYS}]
        m = HiddenVariableModel.build([1.0], strategies, detect_flag=detect)
        with pytest.raises(ValueError, match="zero detection mass"):
            lhv_conditional_correlation(m, "a", "b")


class TestEnumeration:
    def test_constrained_count(self):
        assert len(enumerate_strategies(True)) == 8

    def test_unconstrained_count(self):
        assert len(enumerate_strategies(False)) == 64

    def test_constrained_satisfy_anticorrelation(self):
        for s in enumerate_strategies(True):
            assert all(s.b_out[label] == -s.a_out[label] for label in LABELS)

    def test_ordering_deterministic(self):
        first = enumerate_strategies(True)[0]
        assert first.a_out == {"a": 1, "b": 1, "c": 1}
        a_outs = [tuple(s.a_out[label] for label in LABELS) for s in enumerate_strategies(True)]
        assert a_outs == list(itertools.product((1, -1), repeat=3))
        bits = [tuple(s.a_out[label] for label in LABELS) + tuple(s.b_out[label] for label in LABELS)
                for s in enumerate_strategies(False)]
        assert bits == list(itertools.product((1, -1), repeat=6))


class TestClassicalMaximum:
    def test_every_constrained_strategy_gives_one(self):
        values = [strategy_ob_statistic(s) for s in enumerate_strategies(True)]
        assert values == [1] * 8

    def test_constrained_maximum(self):
        assert classical_ob_maximum(True) == 1

    def test_unconstrained_maximum_is_three(self):
        assert classical_ob_maximum(False) == 3
        witness = strat((1, 1, 1), (1, 1, -1))
        assert strategy_ob_statistic(witness) == 3

    def test_constrained_below_quantum(self):
        assert classical_ob_maximum(True) < Fraction(3, 2)


class TestEpsilonModel:
    def test_empty_flips_perfect_anticorrelation(self):
        rng = np.random.default_rng(2)
        base = list(zip([0.5, 0.5], random_strategies(rng, 2)))
        m = make_epsilon_model(base, {}, 0)
        for s in LABELS:
            assert lhv_correlation(m, s, s) == -1

    def test_flip_mass_shifts_equal_setting_correlation(self):
        rng = np.random.default_rng(3)
        base = list(zip([0.1, 0.9], random_strategies(rng, 2)))
        m = make_epsilon_model(base, {"b": {0}}, 0.1)
        assert lhv_correlation(m, "b", "b") == pytest.approx(-0.8)
        assert lhv_correlation(m, "a", "a") == -1

    def test_excess_mass_rejected(self):
        rng = np.random.default_rng(4)
        base = list(zip([0.3, 0.7], random_strategies(rng, 2)))
        with pytest.raises(ValueError, match="above declared epsilon"):
            make_epsilon_model(base, {"a": {1}}, 0.5)

    @pytest.mark.parametrize("epsilon", [0.0, 0.1, 0.25, 0.5])
    def test_randomized_instances_respect_theorem2(self, epsilon):
        rng = np.random.default_rng(int(epsilon * 100))
        for _ in range(300):
            m = random_epsilon_model(rng, epsilon)
            assert float(model_ob_statistic(m)) <= 1 + 2 * epsilon + 1e-9


class TestEpsilonOracle:
    def test_zero_defect(self):
        assert epsilon_ob_maximum(0) == 1

    def test_quarter_defect_attains_bound(self):
        # frozen achieved value from the exhaustive search
        value = epsilon_ob_maximum(Fraction(1, 4))
        assert value == Fraction(3, 2)
        assert value <= 1 + 2 * Fraction(1, 4)

    def test_half_defect(self):
        value = epsilon_ob_maximum(Fraction(1, 2))
        assert value == 2
        assert value <= Fraction(2)

    @pytest.mark.parametrize("epsilon", [-Fraction(1, 8), Fraction(9, 8)])
    def test_out_of_range_rejected(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must lie"):
            epsilon_ob_maximum(epsilon)


class TestDetectionModel:
    def test_all_detected_equals_plain(self):
        rng = np.random.default_rng(5)
        base = HiddenVariableModel.build(
            uniform_fraction_weights(4), random_strategies(rng, 4)
        )
        m = make_detection_model(base, {k: range(4) for k in PAIR_KEYS})
        for s in LABELS:
            for t in LABELS:
                assert lhv_conditional_correlation(m, s, t) == lhv_correlation(m, s, t)

    def test_nine_of_ten_detected_mass(self):
        rng = np.random.default_rng(6)
        m = random_detection_model(rng, 10, 9)
        for key in PAIR_KEYS:
            mass = sum(w for w, d in zip(m.weights, m.detect_flag) if d[key])
            assert mass == Fraction(9, 10)

    def test_one_shot_iterables_read_once(self):
        # the sets are Iterables: each was once read twice, so an iterator
        # passed the mass check and then flagged no atom detected
        base = HiddenVariableModel.build(
            uniform_fraction_weights(2), random_strategies(np.random.default_rng(4), 2)
        )
        m = make_detection_model(base, {k: iter([0]) for k in PAIR_KEYS})
        assert [d["ab"] for d in m.detect_flag] == [True, False]
        assert m.eta_hat == 0.5

    def test_unequal_masses_rejected_naming_pair(self):
        rng = np.random.default_rng(7)
        base = HiddenVariableModel.build(
            uniform_fraction_weights(4), random_strategies(rng, 4)
        )
        sets = {k: set(range(4)) for k in PAIR_KEYS}
        sets["bc"] = {0, 1}
        with pytest.raises(ValueError, match="'bc'"):
            make_detection_model(base, sets)

    def test_adversarial_placement_respects_theorem3(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, n + 1))
            m = random_detection_model(rng, n, k)
            eta = Fraction(k, n)
            bound = (4 - 3 * eta) / eta
            assert model_ob_statistic(m, pattern="e10", conditional=True) <= bound


class TestDetectionOracle:
    def test_full_efficiency(self):
        assert detection_ob_maximum(1) == 1

    def test_paper_threshold_attains_bound(self):
        value = detection_ob_maximum(Fraction(8, 9))
        assert value == Fraction(3, 2)

    def test_eighty_percent(self):
        value = detection_ob_maximum(Fraction(4, 5))
        assert value == 2
        assert value <= Fraction(4 - 3 * Fraction(4, 5), Fraction(4, 5))

    @pytest.mark.parametrize("eta", [Fraction(1, 2), Fraction(2, 3)])
    def test_witness_switches_form_at_three(self, eta):
        assert detection_ob_maximum(eta) == 3

    def test_limits(self):
        with pytest.raises(ValueError):
            detection_ob_maximum(0)


class TestDualCertificate:
    def test_one_dual_vector_satisfies_every_row(self):
        assert _dual_violations("e7") == _dual_violations("e10") == ()

    @pytest.mark.parametrize("value", [0, Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), 1])
    def test_witnesses_validate(self, value):
        assert validate_model(_epsilon_witness(Fraction(value))) == []
        if value:
            assert validate_model(_detection_witness(Fraction(value))) == []

    @pytest.mark.parametrize("eta", [Fraction(1, 10), Fraction(1, 2), Fraction(2, 3), Fraction(7, 9), 1])
    def test_detection_witness_masses_equal_eta(self, eta):
        m = _detection_witness(eta)
        for key in PAIR_KEYS:
            assert sum(w for w, d in zip(m.weights, m.detect_flag) if d[key]) == eta

    def test_oracles_equal_closed_form(self):
        # verify's old grid domain (epsilon = k/n, n <= 12; eta = k/n, n <= 10),
        # then 100 seeded random rationals with denominators up to 1000
        rng = random.Random(15)
        epsilons = [Fraction(k, n) for n in range(1, 13) for k in range(n + 1)]
        etas = [Fraction(k, n) for n in range(1, 11) for k in range(1, n + 1)]
        for _ in range(100):
            n = rng.randint(1, 1000)
            epsilons.append(Fraction(rng.randint(0, n), n))
            etas.append(Fraction(rng.randint(1, n), n))
        for epsilon in epsilons:
            assert epsilon_ob_maximum(epsilon) == min(1 + 2 * epsilon, 3), epsilon
        for eta in etas:
            assert detection_ob_maximum(eta) == min((4 - 3 * eta) / eta, 3), eta


class TestMixedModelProperties:
    def test_oracle_supremacy_perfect_models(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            m = random_perfect_model(rng)
            assert float(model_ob_statistic(m)) <= 1 + 1e-9

    def test_combined_defects_respect_theorem4(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            flips = int(rng.integers(0, n + 1))
            k = int(rng.integers(1, n + 1))
            m = random_combined_model(rng, n, flips, k)
            eps = Fraction(flips, n)
            eta = Fraction(k, n)
            bound = (4 + 2 * eps - 3 * eta) / eta
            assert model_ob_statistic(m, pattern="e10", conditional=True) <= bound
