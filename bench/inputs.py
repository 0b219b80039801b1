"""Seeded inputs for the benchmark workloads, written in the program's wire
formats (model JSON, simulation config JSON, CLI arguments).

Everything here is plain Python: the inputs depend only on the workload seed,
never on the program under test, so two commits receive identical inputs.
"""
from __future__ import annotations

import json
import math
import random
from fractions import Fraction

from reference import PAIR_KEYS, LABELS, combined_bound, detection_bound, ob_statistic

#: The planar triple that attains the quantum maximum 3/2.
OPTIMAL_TRIPLE = {
    "a": [1.0, 0.0, 0.0],
    "b": [0.5, -math.sqrt(3) / 2, 0.0],
    "c": [-0.5, -math.sqrt(3) / 2, 0.0],
}

#: Anti-correlation defects of the float model family (criterion 6).
EPSILON_LEVELS = tuple(k / 20 for k in range(11))


def model_wire(weights, a_outs, flip_sets, detect_sets=None) -> dict:
    """Model JSON for atoms with Alice outputs ``a_outs``.

    ``flip_sets[s]`` holds the atoms where the anti-correlation at setting s
    is broken (B_s = A_s); ``detect_sets[key]`` the atoms jointly detected
    for pair ``key`` (all atoms when omitted).
    """
    n = len(weights)
    strategy_at, anticorr = [], []
    for i, a_out in enumerate(a_outs):
        flag = {s: i not in flip_sets.get(s, ()) for s in LABELS}
        b_out = {s: -a_out[s] if flag[s] else a_out[s] for s in LABELS}
        strategy_at.append({"a_out": dict(a_out), "b_out": b_out})
        anticorr.append(flag)
    if detect_sets is None:
        detect_sets = {key: range(n) for key in PAIR_KEYS}
    detect = [{key: i in detect_sets[key] for key in PAIR_KEYS} for i in range(n)]
    return {
        "weights": list(weights),
        "strategy_at": strategy_at,
        "anticorr_flag": anticorr,
        "detect_flag": detect,
    }


def _a_outs(rng: random.Random, n: int) -> list[dict]:
    return [{s: rng.choice((1, -1)) for s in LABELS} for _ in range(n)]


def _uniform(n: int) -> list[str]:
    return [f"1/{n}"] * n


def _sized_sets(rng: random.Random, n: int, size: int, keys) -> dict:
    return {key: set(rng.sample(range(n), size)) for key in keys}


def epsilon_model(rng: random.Random, epsilon: float) -> dict:
    """Float weights, at most 6 atoms, flip mass at most ``epsilon`` per setting."""
    n = rng.randint(1, 6)
    raw = [rng.expovariate(1.0) for _ in range(n)]
    total = sum(raw)
    weights = [x / total for x in raw]
    flip_sets = {}
    for s in LABELS:
        chosen, mass = set(), 0.0
        for i in rng.sample(range(n), n):
            if rng.random() < 0.5 and mass + weights[i] <= epsilon:
                chosen.add(i)
                mass += weights[i]
        flip_sets[s] = chosen
    return model_wire(weights, _a_outs(rng, n), flip_sets)


def combined_model(rng: random.Random, n: int, flips: int, detected: int) -> dict:
    """Uniform rational weights ``"1/n"``; ``flips`` atoms broken per setting,
    ``detected`` atoms detected per pair."""
    return model_wire(
        _uniform(n),
        _a_outs(rng, n),
        _sized_sets(rng, n, flips, LABELS),
        _sized_sets(rng, n, detected, PAIR_KEYS),
    )


class ModelCase:
    """One wire-JSON model with its exact reference statistic and bound."""

    __slots__ = ("family", "text", "pattern", "conditional", "reference", "bound", "exact")

    def __init__(self, family, model, pattern, conditional, bound, exact):
        self.family = family
        self.text = json.dumps(model)
        self.pattern = pattern
        self.conditional = conditional
        self.reference = ob_statistic(model, pattern, conditional)
        self.bound = bound
        self.exact = exact


def model_cases(seed: int, count: int) -> list[ModelCase]:
    """Criterion 6's three families, interleaved: float epsilon models (e7),
    rational detection models (e10, conditional) and rational combined
    models (e10, conditional)."""
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        family = i % 3
        if family == 0:
            eps = EPSILON_LEVELS[(i // 3) % len(EPSILON_LEVELS)]
            cases.append(
                ModelCase("epsilon", epsilon_model(rng, eps), "e7", False,
                          1 + 2 * Fraction(eps), exact=False)
            )
        elif family == 1:
            n = rng.randint(2, 7)
            k = rng.randint(1, n)
            cases.append(
                ModelCase("detection", combined_model(rng, n, 0, k), "e10", True,
                          detection_bound(Fraction(k, n)), exact=True)
            )
        else:
            n = rng.randint(2, 7)
            flips = rng.randint(0, n)
            k = rng.randint(1, n)
            cases.append(
                ModelCase("combined", combined_model(rng, n, flips, k), "e10", True,
                          combined_bound(Fraction(flips, n), Fraction(k, n)), exact=True)
            )
    return cases


def monte_carlo_model(seed: int) -> dict:
    """Six equal atoms, one broken anti-correlation per setting and five atoms
    detected per pair: epsilon = 1/6, eta = 5/6."""
    return combined_model(random.Random(seed), 6, 1, 5)


def op_seeds(seed: int):
    """Endless stream of 63-bit per-op seeds derived from the workload seed."""
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(63)


def oracle_points() -> list[tuple[list[str], Fraction]]:
    """The 145 exact grid points of ``verify`` with the expected maximum,
    min(closed form, 3): epsilon = k/n for n <= 12, eta = k/n for n <= 10."""
    points = []
    for n in range(1, 13):
        for k in range(n + 1):
            eps = Fraction(k, n)
            args = ["verify", "--json", "--epsilon", repr(k / n), "--atoms", str(n)]
            points.append((args, min(1 + 2 * eps, Fraction(3))))
    for n in range(1, 11):
        for k in range(1, n + 1):
            args = ["verify", "--json", "--eta", repr(k / n), "--atoms", str(n)]
            points.append((args, min(detection_bound(Fraction(k, n)), Fraction(3))))
    return points


def simulation_config(seed: int) -> dict:
    """The README's default quantum simulation: 10^5 trials per pair."""
    return {
        "source": "quantum",
        "trials_per_pair": 100_000,
        "seed": seed,
        "settings": OPTIMAL_TRIPLE,
    }
