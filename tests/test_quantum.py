import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obell.core import CorrelationTriple, SettingTriple, make_setting
from obell.quantum import (
    OB_SETTINGS,
    QUANTUM_CHSH_MAX,
    QUANTUM_OB_MAX,
    chsh_chain_bound,
    chsh_statistic,
    delta_q,
    maximize_chsh,
    maximize_delta_q,
    ob_chain_bound,
    ob_statistic,
    sample_correlated_outcomes,
    singlet_correlation,
    singlet_correlations,
)

X = make_setting((1, 0, 0))
Y = make_setting((0, 1, 0))
Z = make_setting((0, 0, 1))

unit_vectors = st.tuples(*[st.floats(-1, 1) for _ in range(3)]).filter(
    lambda v: sum(x * x for x in v) > 1e-6
).map(make_setting)
#: Unit vectors normalized in float: norms are 1 to a few ulps, where
#: ``unit_vectors`` passes norms up to 1e-12 off through unchanged.
exact_unit_vectors = unit_vectors.map(lambda s: make_setting([v / math.hypot(*s.axis) for v in s.axis]))


class TestSingletCorrelation:
    def test_equal_settings_anticorrelated(self):
        assert singlet_correlation(X, X) == -1.0

    def test_worked_example_half(self):
        assert singlet_correlation(OB_SETTINGS.a, OB_SETTINGS.b) == -0.5

    def test_orthogonal_uncorrelated(self):
        assert singlet_correlation(X, Y) == 0.0

    @given(unit_vectors, unit_vectors)
    def test_symmetric(self, a, b):
        assert singlet_correlation(a, b) == singlet_correlation(b, a)

    @given(unit_vectors)
    def test_self_correlation(self, a):
        assert singlet_correlation(a, a) == pytest.approx(-1.0, abs=1e-12)

    def test_clamped_at_unit_tolerance(self):
        # norm within UNIT_TOL of 1, so make_setting keeps it: a.a = 1 + 2e-12
        a = make_setting((0.9999999999999999, 1e-6, 1e-6))
        assert a.dot(a) > 1 + 1e-12
        assert singlet_correlation(a, a) == -1.0
        assert singlet_correlations(SettingTriple(a, a, a)) == CorrelationTriple(-1.0, -1.0, -1.0)


class TestObStatistic:
    def test_worked_example(self):
        assert ob_statistic(CorrelationTriple(-0.5, 0.5, -0.5)) == 1.5

    def test_zero(self):
        assert ob_statistic(CorrelationTriple(0, 0, 0)) == 0

    def test_algebraic_maximum(self):
        assert ob_statistic(CorrelationTriple(1, -1, -1)) == 3


class TestDeltaQ:
    def test_worked_example_exact(self):
        assert delta_q(OB_SETTINGS) == 1.5

    def test_coincident_settings(self):
        assert delta_q(SettingTriple(a=X, b=X, c=X)) == 1.0

    def test_orthogonal_settings(self):
        assert delta_q(SettingTriple(a=X, b=Y, c=Z)) == 0.0

    @given(unit_vectors, unit_vectors, unit_vectors)
    def test_matches_correlation_route(self, a, b, c):
        t = SettingTriple(a=a, b=b, c=c)
        assert delta_q(t) == pytest.approx(ob_statistic(singlet_correlations(t)), abs=1e-12)

    def test_bounded_by_quantum_maximum_bulk(self):
        # Tsirelson-style bound for the three-correlation statistic,
        # checked over 1e5 random setting triples.
        rng = np.random.default_rng(2024)
        v = rng.normal(size=(100_000, 3, 3))
        v /= np.linalg.norm(v, axis=2, keepdims=True)
        ab = np.einsum("ij,ij->i", v[:, 0], v[:, 1])
        ac = np.einsum("ij,ij->i", v[:, 0], v[:, 2])
        bc = np.einsum("ij,ij->i", v[:, 1], v[:, 2])
        values = np.abs(ab - ac) + bc
        # both steps of the certificate chain, with x = <b|c>
        middle = np.sqrt(np.maximum(2 - 2 * bc, 0)) + bc
        assert np.all(values <= middle + 1e-12)
        assert float(middle.max()) <= QUANTUM_OB_MAX + 1e-12


class TestMaximizeDeltaQ:
    def test_reaches_analytic_maximum(self):
        settings, value = maximize_delta_q()
        assert settings == OB_SETTINGS
        assert value == QUANTUM_OB_MAX
        # both steps of the chain are equalities
        assert ob_chain_bound(settings.b.dot(settings.c)) == QUANTUM_OB_MAX

    def test_returned_settings_consistent(self):
        settings, value = maximize_delta_q()
        assert delta_q(settings) == pytest.approx(value, abs=1e-12)


class TestChsh:
    def test_tsirelson_settings_value(self):
        s = chsh_statistic(math.sqrt(2) / 2, -math.sqrt(2) / 2, -math.sqrt(2) / 2, -math.sqrt(2) / 2)
        assert s == pytest.approx(2 * math.sqrt(2), abs=1e-15)

    def test_all_ones(self):
        assert chsh_statistic(1, 1, 1, 1) == 2

    def test_all_zero(self):
        assert chsh_statistic(0, 0, 0, 0) == 0

    def test_standard_angles_exact(self):
        a, a2, b, b2 = (
            make_setting((math.cos(math.radians(d)), math.sin(math.radians(d)), 0))
            for d in (0, 90, 135, 45)
        )
        e = singlet_correlation
        # one ulp of trig noise at 135 degrees
        assert chsh_statistic(e(a, b), e(a, b2), e(a2, b), e(a2, b2)) == pytest.approx(
            2 * math.sqrt(2), abs=1e-15
        )

    def test_maximize_reaches_tsirelson(self):
        settings, value = maximize_chsh()
        assert abs(value - QUANTUM_CHSH_MAX) <= 1e-15
        assert len(settings) == 4
        b, b2 = settings[2], settings[3]
        assert chsh_chain_bound(b.dot(b2)) == QUANTUM_CHSH_MAX

    def test_singlet_chsh_never_exceeds_tsirelson(self):
        rng = np.random.default_rng(99)
        v = rng.normal(size=(10_000, 4, 3))
        v /= np.linalg.norm(v, axis=2, keepdims=True)
        e = lambda i, j: -np.einsum("ij,ij->i", v[:, i], v[:, j])
        s = np.abs(e(0, 2) - e(0, 3)) + np.abs(e(1, 2) + e(1, 3))
        # both steps of the certificate chain, with x = <b|b'>
        x = -e(2, 3)
        middle = np.sqrt(np.maximum(2 - 2 * x, 0)) + np.sqrt(np.maximum(2 + 2 * x, 0))
        assert np.all(s <= middle + 1e-12)
        assert float(middle.max()) <= QUANTUM_CHSH_MAX + 1e-12


class TestCertificates:
    @given(exact_unit_vectors, exact_unit_vectors, exact_unit_vectors, exact_unit_vectors)
    def test_chains_hold(self, a, a2, b, c):
        # Step one compares squares, (<a|b> - <a|c>)^2 <= 2 - 2x: sqrt(2 - 2x)
        # cancels catastrophically where b and c nearly coincide (x -> 1).
        x = b.dot(c)
        assert (a.dot(b) - a.dot(c)) ** 2 <= 2 - 2 * x + 1e-12
        assert ob_chain_bound(x) <= QUANTUM_OB_MAX + 1e-12
        # CHSH with b' = c adds |<a2|b> + <a2|b'>| <= sqrt(2 + 2x)
        assert (a2.dot(b) + a2.dot(c)) ** 2 <= 2 + 2 * x + 1e-12
        assert chsh_chain_bound(x) <= QUANTUM_CHSH_MAX + 1e-12


class TestSampler:
    def test_equal_settings_always_opposite(self):
        rng = np.random.default_rng(5)
        alpha, beta = sample_correlated_outcomes(singlet_correlation(X, X), rng, size=2000)
        assert np.all(alpha == -beta)

    def test_coincident_settings_at_unit_tolerance(self):
        # make_setting passes norms within 1e-12 through, so a.a can exceed 1;
        # singlet_correlation clamps, so the sampler gets -a.a itself
        a = make_setting((1.0000000000009, 0, 0))
        assert a.dot(a) > 1 + 1e-12
        rng = np.random.default_rng(5)
        alpha, beta = sample_correlated_outcomes(-a.dot(a), rng, size=2000)
        assert np.all(alpha == -beta)

    def test_orthogonal_settings_equiprobable(self):
        rng = np.random.default_rng(6)
        alpha, beta = sample_correlated_outcomes(singlet_correlation(X, Y), rng, size=100_000)
        for a_val in (1, -1):
            for b_val in (1, -1):
                frac = np.mean((alpha == a_val) & (beta == b_val))
                # 5 sigma around 1/4, sigma = sqrt(3/16 / N)
                assert abs(frac - 0.25) < 5 * math.sqrt(3 / 16 / 100_000)

    def test_half_overlap_monte_carlo(self):
        rng = np.random.default_rng(7)
        b = make_setting((0.5, math.sqrt(3) / 2, 0))  # a.b = 1/2
        alpha, beta = sample_correlated_outcomes(singlet_correlation(X, b), rng, size=1_000_000)
        corr = float(np.mean(alpha * beta))
        sigma = math.sqrt((1 - 0.25) / 1_000_000)
        assert abs(corr - (-0.5)) < 3 * sigma

    def test_marginals_unbiased(self):
        rng = np.random.default_rng(8)
        n = 200_000
        alpha, beta = sample_correlated_outcomes(0.3, rng, size=n)
        assert abs(float(np.mean(alpha))) < 4 / math.sqrt(n)
        assert abs(float(np.mean(beta))) < 4 / math.sqrt(n)

    def test_scalar_mode(self):
        rng = np.random.default_rng(9)
        a, b = sample_correlated_outcomes(singlet_correlation(X, X), rng)
        assert a in (1, -1) and b == -a

    def test_bad_rho_rejected(self):
        with pytest.raises(ValueError):
            sample_correlated_outcomes(1.5, np.random.default_rng(0))
