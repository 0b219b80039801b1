"""Singlet-state predictions: pairwise correlations, the three-correlation
Bell statistic, the CHSH statistic, the settings that attain their quantum
maxima with the Cauchy-Schwarz chains that certify them, and an exact
outcome sampler.

Spin convention throughout: for the singlet state the correlation of the two
spin projections along axes a and b is -<a|b> (the Euclidean inner product).
"""
from __future__ import annotations

import math

from .core import UNIT_TOL, CorrelationTriple, MeasurementSetting, SettingTriple, make_setting

#: Maximum of the three-correlation statistic over quantum settings.
QUANTUM_OB_MAX = 1.5
#: Tsirelson bound for the CHSH statistic.
QUANTUM_CHSH_MAX = 2 * math.sqrt(2)


def singlet_correlation(a: MeasurementSetting, b: MeasurementSetting) -> float:
    """Correlation of spin projections along a and b for the singlet state:
    -a.b, clamped into [-1, 1], since settings are unit length only within
    ``UNIT_TOL`` and a.b may leave [-1, 1] by about 2e-12."""
    return min(max(-a.dot(b), -1.0), 1.0)


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


def ob_chain_bound(x: float) -> float:
    """sqrt(2 - 2x) + x, the middle term of the bound on delta_q.

    With x = <b|c>, Cauchy-Schwarz gives |<a|b> - <a|c>| <= |b - c| =
    sqrt(2 - 2x), so delta_q <= ob_chain_bound(x); and 3/2 - ob_chain_bound(x)
    = (sqrt(2 - 2x) - 1)^2 / 2 >= 0. Rounding that puts x just above 1 is
    clamped.
    """
    return math.sqrt(max(2 - 2 * x, 0.0)) + x


#: Settings attaining QUANTUM_OB_MAX: <b|c> = 1/2 and a is parallel to b - c,
#: so both steps of ob_chain_bound's chain hold with equality.
OB_SETTINGS = SettingTriple(
    a=make_setting((1.0, 0.0, 0.0)),
    b=make_setting((0.5, -math.sqrt(3) / 2, 0.0)),
    c=make_setting((-0.5, -math.sqrt(3) / 2, 0.0)),
)


def maximize_delta_q() -> tuple[SettingTriple, float]:
    """The settings OB_SETTINGS that attain the maximum 3/2 of delta_q, and
    delta_q there."""
    return OB_SETTINGS, delta_q(OB_SETTINGS)


def chsh_statistic(e_ab: float, e_ab2: float, e_a2b: float, e_a2b2: float) -> float:
    """|E(a,b) - E(a,b')| + |E(a',b) + E(a',b')|; in [0, 4] for correlations."""
    return abs(e_ab - e_ab2) + abs(e_a2b + e_a2b2)


def chsh_chain_bound(x: float) -> float:
    """sqrt(2 - 2x) + sqrt(2 + 2x), the middle term of the Tsirelson bound.

    With x = <b|b'>, Cauchy-Schwarz gives |<a|b> - <a|b'>| <= |b - b'| =
    sqrt(2 - 2x) and |<a'|b> + <a'|b'>| <= |b + b'| = sqrt(2 + 2x), so the
    singlet CHSH statistic is at most chsh_chain_bound(x); and
    8 - chsh_chain_bound(x)^2 = (sqrt(2 - 2x) - sqrt(2 + 2x))^2 >= 0.
    Rounding that puts |x| just above 1 is clamped.
    """
    return math.sqrt(max(2 - 2 * x, 0.0)) + math.sqrt(max(2 + 2 * x, 0.0))


def maximize_chsh() -> tuple[tuple[MeasurementSetting, ...], float]:
    """The settings (a, a', b, b') that attain the Tsirelson bound 2*sqrt(2),
    and the singlet CHSH statistic there.

    b and b' are orthogonal, a is parallel to b - b' and a' to b + b', so both
    steps of chsh_chain_bound's chain hold with equality.
    """
    settings = tuple(make_setting(v) for v in ((1, -1, 0), (1, 1, 0), (1, 0, 0), (0, 1, 0)))
    a, a2, b, b2 = settings
    value = chsh_statistic(
        singlet_correlation(a, b),
        singlet_correlation(a, b2),
        singlet_correlation(a2, b),
        singlet_correlation(a2, b2),
    )
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
    import numpy as np

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
