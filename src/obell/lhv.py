"""Local hidden-variable machinery: exact model correlations, exhaustive
deterministic-strategy enumeration, constructors for imperfect-anti-correlation
and detection-censored models, and the certified oracles behind the noisy
classical bounds.

Each noisy oracle pairs one dual vector, checked against every row of the
bound's linear program in integer arithmetic, with an explicit witness model
that attains the bound; so its maximum is exact over all models, at any
rational point. Everything here uses exact rational arithmetic, so bound
checks at the boundary (e.g. a maximum of exactly 1) never suffer float noise.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .core import (
    LABELS,
    PAIR_KEYS,
    DeterministicStrategy,
    HiddenVariableModel,
    Number,
    beyond_weight_tol,
    validate_model,
    weight_sum,
)

#: Setting-pair patterns for the three-correlation statistic
#: |P(p1) - P(p2)| - P(p3). "e7" is the pattern of the perfect-correlation
#: inequality; "e10" the pattern used by the detection-efficiency bounds.
STATISTIC_PATTERNS: dict[str, tuple[tuple[str, str], ...]] = {
    "e7": (("a", "b"), ("a", "c"), ("b", "c")),
    "e10": (("a", "b"), ("b", "c"), ("a", "c")),
}


def _require_valid(m: HiddenVariableModel) -> None:
    violations = validate_model(m)
    if violations:
        raise ValueError("invalid hidden-variable model: " + "; ".join(violations))


def lhv_correlation(m: HiddenVariableModel, s: str, t: str) -> Number:
    """P(s, t) = sum_lambda w(lambda) A_s(lambda) B_t(lambda), exactly."""
    _require_valid(m)
    denominator, units = m.weight_units
    return weight_sum(sum(w * strat.product(s, t) for w, strat in zip(units, m.strategy_at)), denominator)


def lhv_conditional_correlation(m: HiddenVariableModel, s: str, t: str) -> Number:
    """Correlation conditioned on joint detection of the pair (s, t).

    Averages the outcome product over the atoms flagged detected for (s, t)
    and renormalizes by their total mass. Conditioning on a null detection
    event is an error.
    """
    _require_valid(m)
    key = s + t
    denominator, units = m.weight_units
    mass = sum(w for w, d in zip(units, m.detect_flag) if d[key])
    if mass <= 0:
        raise ValueError(f"pair ({s}, {t}): zero detection mass, cannot condition")
    num = sum(
        w * strat.product(s, t)
        for w, strat, d in zip(units, m.strategy_at, m.detect_flag)
        if d[key]
    )
    return num / mass if denominator is None else Fraction(num, mass)


def model_ob_statistic(
    m: HiddenVariableModel, pattern: str = "e7", conditional: bool = False
) -> Number:
    """|P(p1) - P(p2)| - P(p3) for the given pair pattern, optionally using
    detection-conditioned correlations."""
    pairs = STATISTIC_PATTERNS[pattern]
    corr = lhv_conditional_correlation if conditional else lhv_correlation
    p1, p2, p3 = (corr(m, s, t) for s, t in pairs)
    return abs(p1 - p2) - p3


def enumerate_strategies(perfect_anticorrelation: bool) -> list[DeterministicStrategy]:
    """All deterministic strategies over (A_a, A_b, A_c, B_a, B_b, B_c), in
    lexicographic order with +1 before -1: 64 strategies, or the 8 with
    B = -A under perfect anti-correlation.
    """
    return [
        DeterministicStrategy(a_out=dict(zip(LABELS, bits[:3])), b_out=dict(zip(LABELS, bits[3:])))
        for bits in itertools.product((1, -1), repeat=6)
        if not perfect_anticorrelation or all(b == -a for a, b in zip(bits[:3], bits[3:]))
    ]


def strategy_ob_statistic(strat: DeterministicStrategy, pattern: str = "e7") -> int:
    pairs = STATISTIC_PATTERNS[pattern]
    p1, p2, p3 = (strat.product(s, t) for s, t in pairs)
    return abs(p1 - p2) - p3


def classical_ob_maximum(perfect_anticorrelation: bool, pattern: str = "e7") -> Fraction:
    """Exact maximum of the Bell statistic over all LHV models.

    It suffices to maximize over deterministic strategies: the statistic is
    convex in the model's atom weights (|.| of an affine map minus an affine
    map), so the maximum over the mixture polytope is attained at a vertex,
    i.e. at a single deterministic strategy.
    """
    return Fraction(
        max(
            strategy_ob_statistic(s, pattern)
            for s in enumerate_strategies(perfect_anticorrelation)
        )
    )


def make_epsilon_model(
    base: Sequence[tuple[Number, DeterministicStrategy]],
    flip_sets: Mapping[str, Iterable[int]],
    epsilon: Number,
) -> HiddenVariableModel:
    """Build a model with imperfect anti-correlations.

    ``flip_sets[s]`` lists the atoms on which the anti-correlation at setting
    s is broken (there the dichotomous outcomes are forced equal, B_s = A_s;
    everywhere else B_s = -A_s). Bob's outputs are rewritten accordingly, so
    only the Alice side of each base strategy matters. The declared defect
    ``epsilon`` caps the mass of every flip set.
    """
    n = len(base)
    flips = {s: frozenset(flip_sets.get(s, ())) for s in LABELS}
    strategies = [
        DeterministicStrategy(
            a_out=dict(strat.a_out),
            b_out={s: strat.a_out[s] if i in flips[s] else -strat.a_out[s] for s in LABELS},
        )
        for i, (_, strat) in enumerate(base)
    ]
    model = HiddenVariableModel.build([w for w, _ in base], strategies)
    denominator, units = model.weight_units
    total = sum(units)
    if beyond_weight_tol(total - (denominator or 1), denominator):
        raise ValueError(f"base weights must sum to 1, got {float(weight_sum(total, denominator))!r}")
    for s, atoms in flips.items():
        if any(not 0 <= i < n for i in atoms):
            raise ValueError(f"flip_sets[{s!r}] references atoms outside 0..{n - 1}")
        mass = weight_sum(sum(units[i] for i in atoms), denominator)
        if mass > epsilon + 1e-12:
            raise ValueError(
                f"flip_sets[{s!r}] has mass {float(mass)!r}, above declared epsilon {float(epsilon)!r}"
            )
    return model


def make_detection_model(
    base: HiddenVariableModel, detect_sets: Mapping[str, Iterable[int]]
) -> HiddenVariableModel:
    """Attach detection sets to a model; all nine pair masses must be equal.

    ``detect_sets`` maps each pair key ("ab", "ac", ..., "cc") to the atoms
    detected for that pair. The setting-independence assumption requires the
    detected mass to agree across pairs within 1e-12.
    """
    _require_valid(base)
    missing = [k for k in PAIR_KEYS if k not in detect_sets]
    if missing:
        raise ValueError(f"detect_sets missing pairs {missing}")
    n = base.n_atoms
    denominator, units = base.weight_units
    sets = {key: frozenset(detect_sets[key]) for key in PAIR_KEYS}
    masses = {}
    for key, atoms in sets.items():
        if any(not 0 <= i < n for i in atoms):
            raise ValueError(f"detect_sets[{key!r}] references atoms outside 0..{n - 1}")
        masses[key] = sum(units[i] for i in atoms)
    reference = masses["ab"]
    for key, mass in masses.items():
        if beyond_weight_tol(mass - reference, denominator):
            raise ValueError(
                f"detection mass for pair {key!r} is {float(weight_sum(mass, denominator))!r}, "
                f"differs from pair 'ab' mass {float(weight_sum(reference, denominator))!r}"
            )
    detect = tuple({key: i in sets[key] for key in PAIR_KEYS} for i in range(n))
    return dataclasses.replace(base, detect_flag=detect)


# ---------------------------------------------------------------------------
# Certified oracles for the noisy bounds


@functools.cache
def _dual_violations(pattern: str) -> tuple:
    """The rows of the noisy-bound LP for ``pattern`` that the dual vector
    y = (4; -1, -1, -1; 0, 2, 0) violates. y weights the normalization row
    by 4, the detection rows of the statistic's three pairs (mass eta) by -1
    and the flip rows (mass with B_s = A_s at most epsilon_s) by 0, 2, 0. A
    row is a strategy, its detection pattern (m1, m2, m3) and a sign branch
    of |.|; y satisfies it when

        branch*(m1*p1 - m2*p2) - m3*p3 <= 4 - (m1 + m2 + m3) + 2*[B_b = A_b].

    No violation proves eta*Delta <= 4 + 2*epsilon_b - 3*eta for every model
    by weak duality: Theorem 4, hence Theorems 2 (eta = 1) and 3 (epsilon = 0).
    """
    pairs = STATISTIC_PATTERNS[pattern]
    rows = []
    for strat in enumerate_strategies(False):
        p1, p2, p3 = (strat.product(s, t) for s, t in pairs)
        flip_b = strat.b_out["b"] == strat.a_out["b"]
        for m1, m2, m3 in itertools.product((0, 1), repeat=3):
            for branch in (1, -1):
                if branch * (m1 * p1 - m2 * p2) - m3 * p3 > 4 - (m1 + m2 + m3) + 2 * flip_b:
                    rows.append((strat, (m1, m2, m3), branch))
    return tuple(rows)


def _certified(value: Fraction, pattern: str, epsilon: Fraction, eta: Fraction) -> Fraction:
    """``value``, once the dual certificate for ``pattern`` holds and ``value``
    attains the certified bound min((4 + 2*epsilon - 3*eta)/eta, 3)."""
    bound = min((4 + 2 * epsilon - 3 * eta) / eta, Fraction(3))
    if _dual_violations(pattern) or value != bound:
        raise RuntimeError(f"epsilon={epsilon}, eta={eta}: witness {value} misses bound {bound}")
    return value


def _perfect(b: int, c: int) -> DeterministicStrategy:
    a_out = {"a": 1, "b": b, "c": c}
    return DeterministicStrategy(a_out=a_out, b_out={s: -v for s, v in a_out.items()})


def _epsilon_witness(epsilon: Fraction) -> HiddenVariableModel:
    """Two atoms with A = (1, 1, 1), weighted epsilon and 1 - epsilon, the
    first with the anti-correlation at b broken: their statistics are 3 and 1."""
    up = _perfect(1, 1)
    return make_epsilon_model([(epsilon, up), (1 - epsilon, up)], {"b": {0}}, epsilon)


def _detection_witness(eta: Fraction) -> HiddenVariableModel:
    """Five perfectly anti-correlated atoms whose ab, bc and ac detection sets
    each hold mass eta (the other six pairs reuse the ab set); their
    conditional statistic is min((4 - 3*eta)/eta, 3)."""
    third = min(1 - eta, eta / 2)
    atoms = (  # (A_b, A_c) with A_a = 1, weight, detected for (ab, bc, ac)
        ((-1, 1), max(3 * eta - 2, 0), (1, 1, 1)),
        ((-1, -1), third, (1, 1, 0)),
        ((-1, 1), third, (1, 0, 1)),
        ((1, 1), third, (0, 1, 1)),
        ((1, 1), max(1 - 3 * eta / 2, 0), (0, 0, 0)),
    )
    base = HiddenVariableModel.build([w for _, w, _ in atoms], [_perfect(*bc) for bc, _, _ in atoms])
    sets = {key: {i for i, (_, _, d) in enumerate(atoms) if d[j]} for j, key in enumerate(("ab", "bc", "ac"))}
    return make_detection_model(base, {key: sets.get(key, sets["ab"]) for key in PAIR_KEYS})


def epsilon_ob_maximum(epsilon: Number) -> Fraction:
    """Exact maximum of the statistic (pattern "e7") over all models whose
    anti-correlation defect at every setting is at most ``epsilon``:
    1 + 2*epsilon (Theorem 2), certified by ``_dual_violations`` and attained
    by ``_epsilon_witness``, at any rational point."""
    epsilon = Fraction(epsilon)
    if not 0 <= epsilon <= 1:
        raise ValueError("epsilon must lie in [0, 1]")
    return _certified(model_ob_statistic(_epsilon_witness(epsilon)), "e7", epsilon, 1)


def detection_ob_maximum(eta: Number) -> Fraction:
    """Exact maximum of the detection-conditioned statistic (pattern "e10")
    over all perfect-anti-correlation models with joint detection mass
    ``eta`` for every pair: min((4 - 3*eta)/eta, 3) (Theorem 3), certified by
    ``_dual_violations`` and attained by ``_detection_witness``, at any
    rational point."""
    eta = Fraction(eta)
    if not 0 < eta <= 1:
        raise ValueError("eta must lie in (0, 1]")
    value = model_ob_statistic(_detection_witness(eta), pattern="e10", conditional=True)
    return _certified(value, "e10", Fraction(0), eta)
