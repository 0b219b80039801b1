import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obell.core import CorrelationTriple, SettingTriple, make_setting
from obell.quantum import (
    QUANTUM_CHSH_MAX,
    QUANTUM_OB_MAX,
    ObAngles,
    _delta_param_array,
    _nelder_mead,
    angles_to_settings,
    chsh_from_planar_angles,
    chsh_statistic,
    delta_q,
    delta_q_parametrized,
    maximize_chsh,
    maximize_delta_q,
    ob_statistic,
    sample_correlated_outcomes,
    singlet_correlation,
    singlet_correlations,
)

X = make_setting((1, 0, 0))
Y = make_setting((0, 1, 0))
Z = make_setting((0, 0, 1))

#: Planar triple attaining the quantum maximum 3/2.
WORKED_TRIPLE = SettingTriple(
    a=make_setting((1, 0, 0)),
    b=make_setting((0.5, -math.sqrt(3) / 2, 0)),
    c=make_setting((-0.5, -math.sqrt(3) / 2, 0)),
)

unit_vectors = st.tuples(*[st.floats(-1, 1) for _ in range(3)]).filter(
    lambda v: sum(x * x for x in v) > 1e-6
).map(make_setting)


class TestSingletCorrelation:
    def test_equal_settings_anticorrelated(self):
        assert singlet_correlation(X, X) == -1.0

    def test_worked_example_half(self):
        assert singlet_correlation(WORKED_TRIPLE.a, WORKED_TRIPLE.b) == -0.5

    def test_orthogonal_uncorrelated(self):
        assert singlet_correlation(X, Y) == 0.0

    @given(unit_vectors, unit_vectors)
    def test_symmetric(self, a, b):
        assert singlet_correlation(a, b) == singlet_correlation(b, a)

    @given(unit_vectors)
    def test_self_correlation(self, a):
        assert singlet_correlation(a, a) == pytest.approx(-1.0, abs=1e-12)


class TestObStatistic:
    def test_worked_example(self):
        assert ob_statistic(CorrelationTriple(-0.5, 0.5, -0.5)) == 1.5

    def test_zero(self):
        assert ob_statistic(CorrelationTriple(0, 0, 0)) == 0

    def test_algebraic_maximum(self):
        assert ob_statistic(CorrelationTriple(1, -1, -1)) == 3


class TestDeltaQ:
    def test_worked_example_exact(self):
        assert delta_q(WORKED_TRIPLE) == 1.5

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
        assert float(values.max()) <= QUANTUM_OB_MAX + 1e-12


class TestParametrized:
    def test_maximum_substitution(self):
        assert delta_q_parametrized(ObAngles(math.pi / 6, math.pi / 2, math.pi / 2)) == pytest.approx(
            1.5, abs=1e-15
        )

    def test_phi1_zero_gives_one(self):
        for phi2, theta in [(0.3, 1.1), (2.0, -0.4)]:
            assert delta_q_parametrized(ObAngles(0.0, phi2, theta)) == 1.0

    def test_right_angles_give_one(self):
        assert delta_q_parametrized(ObAngles(math.pi / 2, math.pi / 2, math.pi / 2)) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            ObAngles(math.nan, 0.0, 0.0)

    @given(
        st.floats(-math.pi, math.pi),
        st.floats(-math.pi, math.pi),
        st.floats(-math.pi, math.pi),
    )
    def test_agrees_with_vector_route(self, p1, p2, th):
        angles = ObAngles(p1, p2, th)
        assert delta_q(angles_to_settings(angles)) == pytest.approx(
            delta_q_parametrized(angles), abs=1e-12
        )

    @given(
        st.floats(-10, 10, allow_nan=False),
        st.floats(-10, 10, allow_nan=False),
        st.floats(-10, 10, allow_nan=False),
    )
    def test_range(self, p1, p2, th):
        v = delta_q_parametrized(ObAngles(p1, p2, th))
        assert -1 - 1e-12 <= v <= QUANTUM_OB_MAX + 1e-12


class TestMaximizeDeltaQ:
    def test_reaches_analytic_maximum(self):
        _, value = maximize_delta_q(1e-6)
        assert 1.5 - 1e-6 <= value <= 1.5 + 1e-9

    def test_restricted_grid_still_close(self):
        _, value = maximize_delta_q(1e-3, grid_points=10)
        assert value >= 1.49

    def test_returned_settings_consistent(self):
        settings, value = maximize_delta_q(1e-6)
        assert delta_q(settings) == pytest.approx(value, abs=1e-12)

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            maximize_delta_q(0.0)

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf])
    def test_non_finite_tolerance(self, tolerance):
        for maximize in (maximize_delta_q, maximize_chsh):
            with pytest.raises(ValueError, match="tolerance must be finite"):
                maximize(tolerance)


class TestNelderMead:
    """The built-in simplex search returns scipy's Nelder-Mead point bit for
    bit, so the maximizers print what they printed when they called scipy."""

    #: (maxiter, maxfev): the maximizers' own limits, then limits that stop
    #: after 3 iterations, inside the initial simplex, and mid-search.
    LIMITS = [(4000, 8000), (3, 8000), (4000, 5), (25, 40)]

    @pytest.mark.parametrize(
        "objective, dim, span",
        [
            (lambda x: -_delta_param_array(*x), 3, math.pi),
            (lambda x: -chsh_from_planar_angles(*x), 4, 2 * math.pi),
        ],
        ids=["ob", "chsh"],
    )
    def test_matches_scipy(self, objective, dim, span):
        from scipy.optimize import minimize

        rng = np.random.default_rng(2018)
        for start in range(60):
            x0 = rng.uniform(0, span, dim)
            if start % 3 == 0:  # zero coordinates take the other initial step
                x0[rng.integers(dim)] = 0.0
            if start == 0:
                x0[:] = 0.0
            for maxiter, maxfev in self.LIMITS:
                options = {"xatol": 1e-10, "fatol": 1e-13, "maxiter": maxiter, "maxfev": maxfev}
                expected = minimize(objective, x0, method="Nelder-Mead", options=options).x
                assert np.array_equal(_nelder_mead(objective, x0, **options), expected), (
                    start, maxiter, maxfev,
                )


class TestChsh:
    def test_tsirelson_settings_value(self):
        s = chsh_statistic(math.sqrt(2) / 2, -math.sqrt(2) / 2, -math.sqrt(2) / 2, -math.sqrt(2) / 2)
        assert s == pytest.approx(2 * math.sqrt(2), abs=1e-15)

    def test_all_ones(self):
        assert chsh_statistic(1, 1, 1, 1) == 2

    def test_all_zero(self):
        assert chsh_statistic(0, 0, 0, 0) == 0

    def test_standard_angles_exact(self):
        angles = [math.radians(d) for d in (0, 90, 135, 45)]
        # one ulp of trig noise at 135 degrees
        assert chsh_from_planar_angles(*angles) == pytest.approx(2 * math.sqrt(2), abs=1e-15)

    def test_maximize_reaches_tsirelson(self):
        settings, value = maximize_chsh(1e-6)
        assert abs(value - QUANTUM_CHSH_MAX) <= 1e-6
        assert value >= 2  # exceeds the classical bound
        assert len(settings) == 4

    def test_singlet_chsh_never_exceeds_tsirelson(self):
        rng = np.random.default_rng(99)
        v = rng.normal(size=(10_000, 4, 3))
        v /= np.linalg.norm(v, axis=2, keepdims=True)
        e = lambda i, j: -np.einsum("ij,ij->i", v[:, i], v[:, j])
        s = np.abs(e(0, 2) - e(0, 3)) + np.abs(e(1, 2) + e(1, 3))
        assert float(s.max()) <= QUANTUM_CHSH_MAX + 1e-9


class TestSampler:
    def test_equal_settings_always_opposite(self):
        rng = np.random.default_rng(5)
        alpha, beta = sample_correlated_outcomes(singlet_correlation(X, X), rng, size=2000)
        assert np.all(alpha == -beta)

    def test_coincident_settings_at_unit_tolerance(self):
        # make_setting passes norms within 1e-12 through, so a.a can exceed 1
        a = make_setting((1.0000000000009, 0, 0))
        assert a.dot(a) > 1 + 1e-12
        rng = np.random.default_rng(5)
        alpha, beta = sample_correlated_outcomes(singlet_correlation(a, a), rng, size=2000)
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
