"""Seeded Monte Carlo simulation of finite-statistics Bell tests.

Sources: the exact singlet state, a white-noise-degraded singlet
(correlations scaled by gamma), or an explicit finite hidden-variable model.
Detection is a joint Bernoulli(eta) event per trial under fair sampling, or
the model's own detection sets otherwise.

The estimator reads two counts per setting pair, the detected trials and the
detected trials with outcome product +1, so the simulator draws those counts
directly (Binomial / Multinomial) instead of individual trials: exact in
distribution, with time and memory independent of ``trials_per_pair``.

Reproducibility contract: every random stream is derived from the spec's
master seed with a SplitMix64-style mixing function, one stream per
(pair or sweep cell), so results are independent of execution order and
identical specs give bit-identical results.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import bounds
from .core import (
    HiddenVariableModel,
    MeasurementSetting,
    NoiseParameters,
    SettingTriple,
    validate_model,
)
from .lhv import STATISTIC_PATTERNS
from .quantum import chsh_statistic

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    """SplitMix64 finalizer."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def derive_seed(master: int, *counters: int) -> int:
    """Fold counters into a master seed; the documented stream-split rule."""
    h = master & _MASK64
    for c in counters:
        h = _mix64((h + _GOLDEN + (c & _MASK64)) & _MASK64)
    return h


def _float_bits(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


SOURCES = ("quantum", "quantum_white_noise", "lhv")
#: Largest trial count numpy's binomial sampler accepts (int64).
MAX_TRIALS_PER_PAIR = 2**63 - 1


@dataclass(frozen=True)
class ExperimentSpec:
    """Full description of one simulated Bell test run."""

    source: str
    settings: SettingTriple | tuple[MeasurementSetting, ...]
    trials_per_pair: int
    seed: int
    eta: float = 1.0
    gamma: float = 1.0
    fair_sampling: bool = True
    model: HiddenVariableModel | None = None
    statistic: str = "ob"  # "ob" or "chsh"
    pattern: str = "e7"  # pair pattern for the "ob" statistic

    def __post_init__(self) -> None:
        if self.source not in SOURCES:
            raise ValueError(f"unknown source {self.source!r}")
        if not 1 <= self.trials_per_pair <= MAX_TRIALS_PER_PAIR:
            raise ValueError(
                f"trials_per_pair must lie in [1, {MAX_TRIALS_PER_PAIR}], "
                f"got {self.trials_per_pair!r}"
            )
        if not 0 < self.eta <= 1:
            raise ValueError(f"eta must lie in (0, 1], got {self.eta!r}")
        if not 0 <= self.gamma <= 1:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma!r}")
        if self.statistic not in ("ob", "chsh"):
            raise ValueError(f"unknown statistic {self.statistic!r}")
        if self.statistic == "ob":
            if self.pattern not in STATISTIC_PATTERNS:
                raise ValueError(f"unknown pattern {self.pattern!r}")
            if not isinstance(self.settings, SettingTriple):
                raise ValueError("the ob statistic needs a SettingTriple")
        else:
            if self.source == "lhv":
                raise ValueError("chsh statistic requires a quantum-family source")
            if not (isinstance(self.settings, tuple) and len(self.settings) == 4):
                raise ValueError("the chsh statistic needs 4 settings (a, a', b, b')")
        if self.source == "lhv":
            if self.model is None:
                raise ValueError("lhv source requires a model")
            violations = validate_model(self.model)
            if violations:
                raise ValueError("invalid model: " + "; ".join(violations))
        elif not self.fair_sampling:
            raise ValueError(
                "non-fair sampling requires an lhv source: a quantum source has "
                "no hidden variable for detection to condition on"
            )


@dataclass(frozen=True)
class PairEstimate:
    pair: tuple[str, str]
    correlation: float
    n_detected: int
    std_error: float


@dataclass(frozen=True)
class ExperimentResult:
    pairs: tuple[PairEstimate, ...]
    statistic: float
    statistic_se: float
    bound_used: float
    violation_sigma: float


def _experiment_pairs(spec: ExperimentSpec):
    """(label pair, Alice setting, Bob setting) per measured pair."""
    if spec.statistic == "ob":
        t = spec.settings
        return [((s, u), t.get(s), t.get(u)) for s, u in STATISTIC_PATTERNS[spec.pattern]]
    a, a2, b, b2 = spec.settings
    return [(("a", "b"), a, b), (("a", "b2"), a, b2), (("a2", "b"), a2, b), (("a2", "b2"), a2, b2)]


def _simulate_pair(spec: ExperimentSpec, pair, alice, bob, rng) -> tuple[int, int]:
    """One pair's sufficient statistics: the number of detected trials and
    the number of those whose outcome product is +1.

    Both counts are drawn exactly in distribution, in time and memory that do
    not depend on ``trials_per_pair``. RNG consumption order (part of the
    determinism contract):

    - quantum family: ``n_det ~ Binomial(n, eta)`` (no draw when eta = 1),
      then ``n_same ~ Binomial(n_det, (1 + rho) / 2)``;
    - lhv: atom counts ``~ Multinomial(n, weights)``, then, under fair
      sampling with eta < 1, the detected counts ``~ Binomial(counts, eta)``
      atom by atom. Non-fair detection keeps the counts of the atoms the
      model flags detected for the pair and draws nothing.
    """
    n = spec.trials_per_pair
    if spec.source in ("quantum", "quantum_white_noise"):
        scale = spec.gamma if spec.source == "quantum_white_noise" else 1.0
        # |a.b| of two legal settings can exceed 1 by a few 1e-12
        rho = min(max(scale * -alice.dot(bob), -1.0), 1.0)
        n_det = n if spec.eta >= 1.0 else int(rng.binomial(n, spec.eta))
        return n_det, int(rng.binomial(n_det, (1 + rho) / 2))

    m = spec.model
    s, t = pair
    weights = np.array([float(w) for w in m.weights], dtype=np.float64)
    counts = rng.multinomial(n, weights / weights.sum())
    if not spec.fair_sampling:
        detected = counts * np.array([flag[s + t] for flag in m.detect_flag], dtype=bool)
    elif spec.eta < 1.0:
        detected = rng.binomial(counts, spec.eta)
    else:
        detected = counts
    same = np.array([strat.product(s, t) == 1 for strat in m.strategy_at], dtype=bool)
    return int(detected.sum()), int(detected[same].sum())


def _model_noise(spec: ExperimentSpec) -> NoiseParameters:
    """Noise parameters that pick the applicable classical bound."""
    if spec.source == "quantum":
        eps = 0.0
    elif spec.source == "quantum_white_noise":
        eps = 1.0 - spec.gamma
    else:
        eps = spec.model.epsilon_hat
    eta = spec.model.eta_hat if spec.source == "lhv" and not spec.fair_sampling else spec.eta
    return NoiseParameters(epsilon=min(max(eps, 0.0), 1.0), eta=eta)


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Simulate all pairs, estimate conditional correlations, and compare the
    statistic against the applicable classical bound.

    Per-pair estimate: mean outcome product over detected trials; standard
    error sqrt((1 - rho^2) / n_detected), the plug-in variance of a +-1
    product. The statistic's standard error adds the per-pair errors in
    quadrature.
    """
    estimates = []
    for index, (pair, alice, bob) in enumerate(_experiment_pairs(spec)):
        rng = np.random.default_rng(derive_seed(spec.seed, index))
        n_det, n_same = _simulate_pair(spec, pair, alice, bob, rng)
        if n_det == 0:
            raise RuntimeError(f"pair {pair}: no detected trials, cannot estimate")
        rho = (2 * n_same - n_det) / n_det
        se = math.sqrt(max(1.0 - rho * rho, 0.0) / n_det)
        estimates.append(PairEstimate(pair=pair, correlation=rho, n_detected=n_det, std_error=se))

    if spec.statistic == "ob":
        p1, p2, p3 = (e.correlation for e in estimates)
        stat = abs(p1 - p2) - p3
        bound = bounds.theorem4_bound(_model_noise(spec))
    else:
        stat = chsh_statistic(*(e.correlation for e in estimates))
        bound = bounds.chsh_bounds().classical_bound
    se = math.sqrt(sum(e.std_error**2 for e in estimates))
    if se > 0:
        sigma = (stat - bound) / se
    else:
        sigma = 0.0 if stat == bound else math.copysign(math.inf, stat - bound)
    return ExperimentResult(
        pairs=tuple(estimates),
        statistic=stat,
        statistic_se=se,
        bound_used=bound,
        violation_sigma=sigma,
    )


@dataclass(frozen=True)
class SweepCell:
    gamma: float
    eta: float
    result: ExperimentResult | None
    error: str | None


def cell_seed(master: int, gamma: float, eta: float) -> int:
    """Per-cell seed from the master seed and the cell's (gamma, eta) values
    (their IEEE-754 bit patterns), so cell order never matters."""
    return derive_seed(master, _float_bits(gamma), _float_bits(eta))


def sweep(
    template: ExperimentSpec,
    gamma_values: Sequence[float],
    eta_values: Sequence[float],
) -> list[SweepCell]:
    """Run one experiment per (gamma, eta) cell of a white-noise sweep.

    A failing cell is recorded with its error message, not fatal. Cells are
    independent (per-cell derived seeds), so their order never matters. They
    run in one thread: a cell takes about 0.1 ms, less than handing it to a
    worker thread costs.
    """
    if not gamma_values or not eta_values:
        raise ValueError("gamma_values and eta_values must be nonempty")
    if template.source == "lhv":
        raise ValueError(
            f"source: sweeps over gamma need a quantum-family source, got {template.source!r}"
        )

    def run_cell(g, e):
        try:
            spec = replace(
                template,
                source="quantum_white_noise",
                gamma=g,
                eta=e,
                seed=cell_seed(template.seed, g, e),
            )
            return SweepCell(gamma=g, eta=e, result=run_experiment(spec), error=None)
        except Exception as exc:  # recorded per cell
            return SweepCell(gamma=g, eta=e, result=None, error=str(exc))

    return [run_cell(g, e) for g in gamma_values for e in eta_values]


# ---------------------------------------------------------------------------
# Serialization


def result_to_json(result: ExperimentResult) -> dict:
    return {
        "pairs": [
            {
                "pair": list(e.pair),
                "correlation": e.correlation,
                "n_detected": e.n_detected,
                "std_error": e.std_error,
            }
            for e in result.pairs
        ],
        "statistic": result.statistic,
        "statistic_se": result.statistic_se,
        "bound_used": result.bound_used,
        "violation_sigma": result.violation_sigma,
    }


SUMMARY_CSV_HEADER = "gamma,eta,statistic,se,bound,violation_sigma"


def summary_csv_row(gamma: float, eta: float, result: ExperimentResult) -> str:
    fields = (
        gamma,
        eta,
        result.statistic,
        result.statistic_se,
        result.bound_used,
        result.violation_sigma,
    )
    return ",".join(f"{x:.10g}" for x in fields)
