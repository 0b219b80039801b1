"""Closed-form bounds and thresholds: classical and quantum bounds with their
violation fractions, the noisy-model classical bounds, and the (gamma, eta)
feasibility region for a violation experiment.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .core import NoiseParameters


@dataclass(frozen=True)
class BoundReport:
    """Classical bound, quantum bound, and their ratio for one inequality."""

    classical_bound: float
    quantum_bound: float
    fraction: float

    def __post_init__(self) -> None:
        if self.classical_bound <= 0:
            raise ValueError("classical bound must be positive")
        if abs(self.fraction - self.quantum_bound / self.classical_bound) > 1e-12:
            raise ValueError("fraction must equal quantum_bound / classical_bound")


def ob_bounds() -> BoundReport:
    """Three-correlation inequality: classical 1, quantum 3/2, fraction 3/2."""
    return BoundReport(classical_bound=1.0, quantum_bound=1.5, fraction=1.5)


def chsh_bounds() -> BoundReport:
    """CHSH: classical 2, quantum (Tsirelson) 2*sqrt(2), fraction sqrt(2)."""
    return BoundReport(
        classical_bound=2.0, quantum_bound=2 * math.sqrt(2), fraction=math.sqrt(2)
    )


def theorem2_bound(epsilon: float) -> float:
    """Classical bound under anti-correlation defect epsilon: 1 + 2*epsilon
    (equivalently 3 - 2*gamma)."""
    if not 0 <= epsilon <= 1:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon!r}")
    return 1 + 2 * epsilon


def theorem3_bound(eta: float) -> float:
    """Classical bound on detection-conditioned correlations at joint
    efficiency eta: (4 - 3*eta) / eta."""
    if not 0 < eta <= 1:
        raise ValueError(f"eta must lie in (0, 1], got {eta!r}")
    return (4 - 3 * eta) / eta


def theorem4_bound(params: NoiseParameters) -> float:
    """Combined classical bound: (4 + 2*epsilon - 3*eta) / eta, which is
    (6 - 2*gamma - 3*eta) / eta in terms of gamma = 1 - epsilon."""
    return (4 + 2 * params.epsilon - 3 * params.eta) / params.eta


def violation_feasible(params: NoiseParameters) -> bool:
    """True iff 4*gamma + 9*eta > 12 (strict): only then can the quantum
    maximum 3/2 exceed the combined classical bound."""
    return 4 * params.gamma + 9 * params.eta > 12


def white_noise_quantum_value(gamma: float) -> float:
    """Attainable quantum value when correlations are scaled by gamma.

    Model-dependent: ties the ensemble fraction gamma to a white-noise
    visibility, under which every correlation (hence the statistic's maximum
    3/2) scales linearly.
    """
    if not 0 <= gamma <= 1:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma!r}")
    return 1.5 * gamma


@dataclass(frozen=True)
class FeasibilityCell:
    gamma: float
    eta: float
    bound: float
    feasible: bool


#: The most cells :func:`feasibility_grid` builds.
MAX_GRID_CELLS = 10**6


def _grid_size(lo: float, hi: float, step: float) -> float:
    """How many of lo, lo + step, lo + 2*step, ... lie at or below hi (within
    1e-12), counted arithmetically; ``inf`` when beyond float range."""
    if step <= 0:
        raise ValueError("step must be positive")
    if not math.isfinite(step):
        raise ValueError(f"step must be finite, got {step!r}")
    if hi < lo:
        raise ValueError(f"empty range [{lo}, {hi}]")
    return (hi - lo + 1e-12) // step + 1


def _grid_values(lo: float, hi: float, step: float) -> list[float]:
    return [min(lo + i * step, hi) for i in range(int(_grid_size(lo, hi, step)))]


def feasibility_grid(
    gamma_range: tuple[float, float], eta_range: tuple[float, float], step: float
) -> list[FeasibilityCell]:
    """Row-major (gamma outer, eta inner) grid of combined bounds and
    feasibility flags, without eta = 0. A grid of more than
    ``MAX_GRID_CELLS`` cells is refused before any is built."""
    for name, (lo, hi) in (("gamma", gamma_range), ("eta", eta_range)):
        if not (0 <= lo <= 1 and 0 <= hi <= 1):
            raise ValueError(f"{name} range must lie within [0, 1]")
    size = _grid_size(*gamma_range, step) * (_grid_size(*eta_range, step) - (eta_range[0] == 0))
    if not size:
        raise ValueError("empty grid")
    if size > MAX_GRID_CELLS:
        raise ValueError(f"--step {step!r} would build {size:.0f} cells, above the limit of {MAX_GRID_CELLS}")
    gammas = _grid_values(*gamma_range, step)
    etas = [e for e in _grid_values(*eta_range, step) if e > 0]
    cells = []
    for g in gammas:
        for e in etas:
            params = NoiseParameters.from_gamma(g, e)
            cells.append(
                FeasibilityCell(
                    gamma=g,
                    eta=e,
                    bound=theorem4_bound(params),
                    feasible=violation_feasible(params),
                )
            )
    return cells
