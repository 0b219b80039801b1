"""Singlet-state predictions: pairwise correlations, the three-correlation
Bell statistic and its angle parametrization, the CHSH statistic, numerical
maximizers, and an exact outcome sampler.

Spin convention throughout: for the singlet state the correlation of the two
spin projections along axes a and b is -<a|b> (the Euclidean inner product).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import UNIT_TOL, CorrelationTriple, MeasurementSetting, SettingTriple, make_setting

#: Maximum of the three-correlation statistic over quantum settings.
QUANTUM_OB_MAX = 1.5
#: Tsirelson bound for the CHSH statistic.
QUANTUM_CHSH_MAX = 2 * math.sqrt(2)


def singlet_correlation(a: MeasurementSetting, b: MeasurementSetting) -> float:
    """Correlation of spin projections along a and b for the singlet state."""
    return -a.dot(b)


def ob_statistic(t: CorrelationTriple) -> float:
    """|P(a,b) - P(a,c)| - P(b,c); always in [-1, 3]."""
    return abs(t.p_ab - t.p_ac) - t.p_bc


def singlet_correlations(settings: SettingTriple) -> CorrelationTriple:
    return CorrelationTriple(
        p_ab=singlet_correlation(settings.a, settings.b),
        p_ac=singlet_correlation(settings.a, settings.c),
        p_bc=singlet_correlation(settings.b, settings.c),
    )


def delta_q(settings: SettingTriple) -> float:
    """The quantum value |<a|b> - <a|c>| + <b|c> of the Bell statistic."""
    return ob_statistic(singlet_correlations(settings))


@dataclass(frozen=True)
class ObAngles:
    """Angle parametrization of a setting triple (see angles_to_settings)."""

    phi1: float
    phi2: float
    theta: float

    def __post_init__(self) -> None:
        for name in ("phi1", "phi2", "theta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


def angles_to_settings(angles: ObAngles) -> SettingTriple:
    """Vector triple realizing the angle parametrization of delta_q.

    The map (all vectors unit length by construction):

        a = (sin phi2 sin theta, sin phi2 cos theta, cos phi2)
        b = ( sin phi1, 0, cos phi1)
        c = (-sin phi1, 0, cos phi1)

    b and c straddle the z axis at half-angle phi1, so <b|c> = 1 - 2 sin^2 phi1,
    and <a|b> - <a|c> = 2 sin phi1 sin phi2 sin theta. Hence delta_q on this
    triple equals delta_q_parametrized(angles).
    """
    p1, p2, th = angles.phi1, angles.phi2, angles.theta
    a = make_setting((math.sin(p2) * math.sin(th), math.sin(p2) * math.cos(th), math.cos(p2)))
    b = make_setting((math.sin(p1), 0.0, math.cos(p1)))
    c = make_setting((-math.sin(p1), 0.0, math.cos(p1)))
    return SettingTriple(a=a, b=b, c=c)


def delta_q_parametrized(angles: ObAngles) -> float:
    """2 |sin phi1 sin phi2 sin theta| + 1 - 2 sin^2 phi1."""
    s1 = math.sin(angles.phi1)
    return 2 * abs(s1 * math.sin(angles.phi2) * math.sin(angles.theta)) + 1 - 2 * s1 * s1


def _delta_param_array(p1, p2, th):
    s1 = np.sin(p1)
    return 2 * np.abs(s1 * np.sin(p2) * np.sin(th)) + 1 - 2 * s1 * s1


class _OutOfEvaluations(Exception):
    pass


def _nelder_mead(fun, x0, xatol, fatol, maxiter, maxfev) -> np.ndarray:
    """Minimize ``fun`` by the Nelder-Mead simplex method; returns the best
    vertex.

    A port of scipy 1.17's ``minimize(method="Nelder-Mead")`` without bounds
    or adaptive coefficients. It performs the same numpy operations in the
    same order, so it returns the same point bit for bit; keep it that way.
    It stops when the simplex spans at most ``xatol`` in every coordinate and
    ``fatol`` in value, after ``maxiter`` iterations, or once ``maxfev``
    evaluations are spent (an evaluation past the limit abandons the step).
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    nonzdelt, zdelt = 0.05, 0.00025
    x0 = np.asarray(x0, dtype=np.float64).flatten()
    n = len(x0)
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, copy=True)
        y[k] = (1 + nonzdelt) * y[k] if y[k] != 0 else zdelt
        sim[k + 1] = y

    fcalls = 0

    def f(x):
        nonlocal fcalls
        if fcalls >= maxfev:
            raise _OutOfEvaluations
        fcalls += 1
        return fun(x)

    def sort(sim, fsim):
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _OutOfEvaluations:
        pass
    sim, fsim = sort(*sort(sim, fsim))  # scipy sorts twice here

    iterations = 1
    while fcalls < maxfev and iterations < maxiter:
        try:
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = (1 + rho) * xbar - rho * sim[-1]
            fxr = f(xr)
            doshrink = False
            if fxr < fsim[0]:
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                fxe = f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-1]:  # outside contraction
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = f(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    doshrink = True
            else:  # inside contraction
                xcc = (1 - psi) * xbar + psi * sim[-1]
                fxcc = f(xcc)
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    doshrink = True
            if doshrink:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
            iterations += 1
        except _OutOfEvaluations:
            pass
        sim, fsim = sort(sim, fsim)
    return sim[0]


def _check_tolerance(tolerance: float) -> None:
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    if not math.isfinite(tolerance):
        raise ValueError(f"tolerance must be finite, got {tolerance!r}")


def _refine(objective, grid, values) -> np.ndarray:
    """Maximize ``objective(*x)`` from the best point of a coarse search:
    ``values`` holds the objective on the product grid ``grid`` x ... x
    ``grid``, and Nelder-Mead refines its argmax."""
    idx = np.unravel_index(np.argmax(values), values.shape)
    x0 = np.array([grid[i] for i in idx])
    return _nelder_mead(
        lambda x: -objective(*x), x0, xatol=1e-10, fatol=1e-13, maxiter=4000, maxfev=8000
    )


def _check_reached(value: float, target: float, tolerance: float) -> None:
    """Raise if an optimum falls short of the known maximum by more than
    ``tolerance``: that signals a bug, not a property of the problem."""
    if value < target - tolerance:
        raise RuntimeError(f"optimizer reached {value!r}, short of {target} - {tolerance}")


def maximize_delta_q(
    tolerance: float, grid_points: int = 64
) -> tuple[SettingTriple, float]:
    """Maximize delta_q numerically: coarse angle grid, then Nelder-Mead.

    The objective is non-smooth (absolute value), so refinement is
    derivative-free. Raises if the refined optimum falls short of the known
    analytic maximum 3/2 by more than ``tolerance``.
    """
    _check_tolerance(tolerance)
    grid = np.linspace(0.0, math.pi, grid_points)
    p1, p2, th = np.meshgrid(grid, grid, grid, indexing="ij")
    best = ObAngles(*_refine(_delta_param_array, grid, _delta_param_array(p1, p2, th)))
    settings = angles_to_settings(best)
    value = delta_q(settings)
    _check_reached(value, QUANTUM_OB_MAX, tolerance)
    return settings, value


def chsh_statistic(e_ab: float, e_ab2: float, e_a2b: float, e_a2b2: float) -> float:
    """|E(a,b) - E(a,b')| + |E(a',b) + E(a',b')|; in [0, 4] for correlations."""
    return abs(e_ab - e_ab2) + abs(e_a2b + e_a2b2)


def _planar(angle: float) -> MeasurementSetting:
    return make_setting((math.cos(angle), math.sin(angle), 0.0))


def chsh_from_planar_angles(t_a, t_a2, t_b, t_b2) -> float:
    # E(x, y) = -cos(x - y) for planar settings on the singlet
    return chsh_statistic(
        -math.cos(t_a - t_b),
        -math.cos(t_a - t_b2),
        -math.cos(t_a2 - t_b),
        -math.cos(t_a2 - t_b2),
    )


def maximize_chsh(
    tolerance: float, grid_points: int = 24
) -> tuple[tuple[MeasurementSetting, ...], float]:
    """Maximize the CHSH statistic over planar settings (grid + Nelder-Mead).

    Planar settings suffice: the singlet correlation depends only on relative
    angles. Raises if the optimum falls short of 2*sqrt(2) by more than
    ``tolerance``.
    """
    _check_tolerance(tolerance)
    grid = np.linspace(0.0, 2 * math.pi, grid_points, endpoint=False)
    ta, ta2, tb, tb2 = np.meshgrid(grid, grid, grid, grid, indexing="ij")
    values = np.abs(-np.cos(ta - tb) + np.cos(ta - tb2)) + np.abs(
        -np.cos(ta2 - tb) - np.cos(ta2 - tb2)
    )
    settings = tuple(_planar(t) for t in _refine(chsh_from_planar_angles, grid, values))
    value = chsh_statistic(
        singlet_correlation(settings[0], settings[2]),
        singlet_correlation(settings[0], settings[3]),
        singlet_correlation(settings[1], settings[2]),
        singlet_correlation(settings[1], settings[3]),
    )
    _check_reached(value, QUANTUM_CHSH_MAX, tolerance)
    return settings, value


def sample_correlated_outcomes(rho: float, rng: np.random.Generator, size: int | None = None):
    """Draw (+-1, +-1) pairs with uniform marginals and product mean ``rho``.

    The joint law P(alpha, beta) = (1 + alpha*beta*rho) / 4 is the unique
    two-outcome distribution with those moments. Sampling is inverse-CDF over
    the four atoms ordered (+1,+1), (+1,-1), (-1,+1), (-1,-1): exact,
    branch-free, reproducible. With ``size=None`` returns a scalar pair,
    otherwise two int arrays.

    This per-trial sampler is the reference for the count sampler that
    ``run_experiment`` uses. ``rho`` may exceed [-1, 1] by the rounding that
    settings within ``UNIT_TOL`` of unit norm allow; it is clamped after the
    range check.
    """
    # two settings of norm up to 1 + UNIT_TOL give |a.b| up to (1 + UNIT_TOL)^2
    if not abs(rho) <= 1 + 3 * UNIT_TOL:
        raise ValueError(f"product mean {rho!r} outside [-1, 1]")
    rho = min(max(rho, -1.0), 1.0)
    p_same = (1 + rho) / 4  # P(+1,+1) = P(-1,-1)
    p_diff = (1 - rho) / 4
    cum = np.array([p_same, p_same + p_diff, p_same + 2 * p_diff])
    u = rng.random(size)
    idx = np.searchsorted(cum, u, side="right")
    alpha = np.where(idx < 2, 1, -1)
    beta = np.where(idx % 2 == 0, 1, -1)
    if size is None:
        return int(alpha), int(beta)
    return alpha.astype(np.int8), beta.astype(np.int8)
