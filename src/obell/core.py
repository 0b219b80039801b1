"""Shared domain types: measurement settings, correlations, noise parameters,
deterministic strategies and finite hidden-variable models.

All types here are immutable after construction and safe to share across
threads. Hidden-variable spaces are finite lists of weighted atoms; weights
may be exact ``Fraction``s (enumeration results) or floats (everything else).
A model whose weights are all ``Fraction``s is summed in integers, over one
common denominator computed once per model, and each sum becomes one
``Fraction`` at the end: the same exact values as ``Fraction`` sums, for less.
A model stores only what it cannot derive: whether an atom is perfectly
anti-correlated at a setting is read off its strategy. Each model rule has
one home: outcomes in ``_strategy_index``, weights in the diagnostics a
model computes once for :func:`validate_model`, and setting-independent
detection in ``HiddenVariableModel.eta_hat``. The strict model JSON reader
checks only what the wire alone can get wrong, and gives every atom one of
the 64 shared, read-only strategies of :func:`strategy_table`.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Sequence, Union

LABELS = ("a", "b", "c")
#: Ordered setting pairs, keyed as two-character strings "ab", "ac", ...
PAIR_KEYS = tuple(s + t for s in LABELS for t in LABELS)

UNIT_TOL = 1e-12
WEIGHT_TOL = 1e-12
_LABEL_SET = frozenset(LABELS)
_PAIR_KEY_SET = frozenset(PAIR_KEYS)

Number = Union[int, float, Fraction]


@dataclass(frozen=True)
class MeasurementSetting:
    """A unit vector in R^3 labelling a spin-projection axis."""

    axis: tuple[float, float, float]

    def __post_init__(self) -> None:
        if len(self.axis) != 3:
            raise ValueError("setting axis must have 3 components")
        norm = math.sqrt(sum(x * x for x in self.axis))
        if abs(norm - 1.0) > UNIT_TOL:
            raise ValueError(f"setting axis must be unit length, got norm {norm!r}")

    def dot(self, other: "MeasurementSetting") -> float:
        return sum(x * y for x, y in zip(self.axis, other.axis))


def make_setting(v: Sequence[float]) -> MeasurementSetting:
    """Normalize a 3-vector into a :class:`MeasurementSetting`.

    Vectors already unit-length (within 1e-12) are passed through unchanged,
    so the operation is idempotent. Zero or non-finite input is rejected.
    """
    vec = tuple(float(x) for x in v)
    if len(vec) != 3:
        raise ValueError("setting vector must have 3 components")
    norm = math.sqrt(sum(x * x for x in vec))
    if norm == 0.0 or not math.isfinite(norm):
        raise ValueError("cannot normalize a zero or non-finite vector")
    if abs(norm - 1.0) <= UNIT_TOL:
        return MeasurementSetting(vec)
    # hypot stays exact where the sum of squares is subnormal
    norm = math.hypot(*vec)
    return MeasurementSetting(tuple(x / norm for x in vec))


@dataclass(frozen=True)
class SettingTriple:
    """The three settings entering the three-correlation Bell statistic.

    Coincident settings are legal (equal settings probe anti-correlation).
    """

    a: MeasurementSetting
    b: MeasurementSetting
    c: MeasurementSetting

    def get(self, label: str) -> MeasurementSetting:
        if label not in LABELS:
            raise KeyError(f"unknown setting label {label!r}")
        return getattr(self, label)


@dataclass(frozen=True)
class CorrelationTriple:
    """Pairwise correlations (each the expectation of a product of +-1 outcomes)."""

    p_ab: Number
    p_ac: Number
    p_bc: Number

    def __post_init__(self) -> None:
        for name in ("p_ab", "p_ac", "p_bc"):
            value = getattr(self, name)
            if not (-1 - 1e-9 <= value <= 1 + 1e-9):
                raise ValueError(f"{name}={value!r} outside [-1, 1]")


@dataclass(frozen=True)
class NoiseParameters:
    """Anti-correlation defect epsilon and joint detection probability eta.

    gamma = 1 - epsilon is the fraction of hidden-variable mass on which
    outcomes are perfectly anti-correlated at each setting.
    """

    epsilon: float
    eta: float

    def __post_init__(self) -> None:
        if not 0 <= self.epsilon <= 1:
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon!r}")
        if not 0 < self.eta <= 1:
            raise ValueError(f"eta must lie in (0, 1], got {self.eta!r}")

    @property
    def gamma(self) -> float:
        return 1 - self.epsilon

    @classmethod
    def from_gamma(cls, gamma: float, eta: float) -> "NoiseParameters":
        return cls(epsilon=1 - gamma, eta=eta)


@dataclass(frozen=True)
class DeterministicStrategy:
    """A +-1 assignment to all six outcome variables A_s, B_s for s in {a,b,c}.

    These are the extreme points of the set of local hidden-variable models.
    """

    a_out: Mapping[str, int]
    b_out: Mapping[str, int]

    def __post_init__(self) -> None:
        _strategy_index(self.a_out, self.b_out)

    def product(self, s: str, t: str) -> int:
        """The outcome product A_s * B_t."""
        return self.a_out[s] * self.b_out[t]


def _strategy_index(a_out: Mapping[str, int], b_out: Mapping[str, int]) -> int:
    """The outcome rule: each side assigns exactly the labels a, b and c, each
    the ``int`` 1 or -1 (not ``True`` or ``1.0``). Returns the strategy's entry
    in :func:`strategy_table`: its six outcomes as bits, A_a first, 1 for -1."""
    index = 0
    for side, out in (("a_out", a_out), ("b_out", b_out)):
        if out.keys() != _LABEL_SET:
            raise ValueError(f"{side} must assign exactly the labels {LABELS}")
        for label, value in out.items():
            if type(value) is not int or value not in (1, -1):
                raise ValueError(f"{side}[{label!r}] must be 1 or -1, got {value!r}")
        index = 8 * index + 4 * (out["a"] < 0) + 2 * (out["b"] < 0) + (out["c"] < 0)
    return index


@functools.cache
def strategy_table() -> tuple[tuple[DeterministicStrategy, Mapping[str, bool]], ...]:
    """The 64 deterministic strategies, entry i with index i (lexicographic
    order, +1 before -1), each with its ``anticorr_flag``. Built on first use
    and shared by every caller, so every map in it is read-only."""
    halves = [MappingProxyType(dict(zip(LABELS, bits))) for bits in itertools.product((1, -1), repeat=3)]
    strategies = [DeterministicStrategy(a, b) for a in halves for b in halves]
    return tuple(zip(strategies, map(MappingProxyType, _anticorr_flags(strategies))))


@dataclass(frozen=True)
class HiddenVariableModel:
    """A finite mixture of deterministic strategies over atoms lambda.

    Per atom, ``detect_flag["st"]`` records whether the atom is jointly
    detected when the pair (s, t) is measured. An atom lies in the perfectly
    anti-correlated set for setting s exactly when its strategy has
    B_s = -A_s; with +-1 outcomes, off that set B_s = A_s.
    """

    weights: tuple[Number, ...]
    strategy_at: tuple[DeterministicStrategy, ...]
    detect_flag: tuple[Mapping[str, bool], ...]

    @property
    def n_atoms(self) -> int:
        return len(self.weights)

    @functools.cached_property
    def weight_units(self) -> tuple[int | None, tuple[Number, ...]]:
        """(D, units): the weights' common denominator and integer numerators,
        ``weights[i] == units[i] / D``, when all are ``Fraction``s; else
        (None, weights). :func:`weight_sum` reads a sum of units back."""
        if not all(isinstance(w, Fraction) for w in self.weights):
            return None, self.weights
        d = math.lcm(*(w.denominator for w in self.weights))
        return d, tuple(w.numerator * (d // w.denominator) for w in self.weights)

    @functools.cached_property
    def _diagnostics(self) -> tuple[str, ...]:
        """:func:`validate_model`'s diagnostics, computed once per model."""
        violations: list[str] = []
        n = len(self.weights)
        if not (len(self.strategy_at) == len(self.detect_flag) == n):
            lengths = (n, len(self.strategy_at), len(self.detect_flag))
            return ("field lengths disagree: weights=%d strategy_at=%d detect_flag=%d" % lengths,)

        denominator, units = self.weight_units
        total = 0
        for i, (w, unit) in enumerate(zip(self.weights, units)):
            if isinstance(w, bool):
                violations.append(f"atom {i}: weight {w!r} is a bool, not a number")
            elif isinstance(w, float) and not math.isfinite(w):
                violations.append(f"atom {i}: non-finite weight {w!r}")
            elif unit < 0:
                violations.append(f"atom {i}: negative weight {w!r}")
            total += unit
        if beyond_weight_tol(total - (denominator or 1), denominator):
            violations.append(f"weights: normalization broken, sum is {float(weight_sum(total, denominator))!r}")

        for i, dflag in enumerate(self.detect_flag):
            if dflag.keys() != _PAIR_KEY_SET:
                violations.append(f"atom {i}: detect_flag keys must cover all 9 pairs")
        return tuple(violations)

    @property
    def epsilon_hat(self) -> float:
        """The anti-correlation defect: the largest mass, over the settings,
        off that setting's anti-correlated set, where B_s = A_s (a float sum,
        atom by atom)."""
        return max(
            sum(float(w) for w, st in zip(self.weights, self.strategy_at) if st.b_out[s] == st.a_out[s])
            for s in LABELS
        )

    @functools.cached_property
    def eta_hat(self) -> float:
        """The joint detection efficiency: the mass detected for the pair
        (a, b) (a float sum, atom by atom), computed once per model. The noisy
        bounds assume setting-independent detection, so a ``ValueError`` names
        any pair whose mass differs, exactly over ``weight_units``, by more
        than ``WEIGHT_TOL``, or says that no atom is ever detected."""
        denominator, units = self.weight_units
        masses = {key: sum(u for u, d in zip(units, self.detect_flag) if d[key]) for key in PAIR_KEYS}
        for key, mass in masses.items():
            if beyond_weight_tol(mass - masses["ab"], denominator):
                raise ValueError(
                    f"detection mass for pair {key!r} is {float(weight_sum(mass, denominator))!r}, "
                    f"differs from pair 'ab' mass {float(weight_sum(masses['ab'], denominator))!r}; "
                    "the noisy bounds assume detection that does not depend on the settings"
                )
        if masses["ab"] <= 0:
            raise ValueError("detection mass is 0 for every pair: no atom is ever detected")
        return sum(float(w) for w, d in zip(self.weights, self.detect_flag) if d["ab"])

    @classmethod
    def build(
        cls,
        weights: Sequence[Number],
        strategies: Sequence[DeterministicStrategy],
        detect_flag: Sequence[Mapping[str, bool]] | None = None,
    ) -> "HiddenVariableModel":
        """Assemble a model; without ``detect_flag`` every atom is detected
        for every pair."""
        if detect_flag is None:
            detect_flag = [{key: True for key in PAIR_KEYS} for _ in strategies]
        return cls(
            weights=tuple(weights),
            strategy_at=tuple(strategies),
            detect_flag=tuple(dict(f) for f in detect_flag),
        )


def weight_sum(total: Number, denominator: int | None) -> Number:
    """A sum of weight units (see ``HiddenVariableModel.weight_units``) as the
    weight sum it stands for."""
    return total if denominator is None else Fraction(total, denominator)


def beyond_weight_tol(difference: Number, denominator: int | None) -> bool:
    """Whether a difference of two sums of weight units exceeds ``WEIGHT_TOL``;
    over a common denominator, exactly in integers."""
    if denominator is None:
        return abs(difference) > WEIGHT_TOL
    tol_num, tol_den = WEIGHT_TOL.as_integer_ratio()
    return abs(difference) * tol_den > tol_num * denominator


def validate_model(m: HiddenVariableModel) -> list[str]:
    """Check every model invariant; returns diagnostics instead of raising.

    An empty list means the model is valid. Each violation names the atom
    and the offending field. The model computes them once; each call
    returns a new list.
    """
    return list(m._diagnostics)


# ---------------------------------------------------------------------------
# JSON wire formats (consumed by the CLI `verify` and `simulate` commands)


def _number_to_json(x: Number):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return float(x)


def _weight_from_json(x, i: int) -> Number:
    """Wire weight ``i``: a number, or a string read as ``Fraction(x)`` reads
    it, by a shortcut when it is two runs of ASCII digits around a "/"."""
    if isinstance(x, bool):
        return x  # kept as is, so validate_model can name the atom
    try:
        if type(x) is str:
            p, slash, q = x.partition("/")
            if slash and p.isdigit() and q.isdigit() and x.isascii():
                return Fraction(int(p), int(q))
        return float(x) if isinstance(x, (int, float)) else Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):  # "1/0", 10**400
        raise ValueError(f'weights[{i}] must be a number or a "p/q" string, got {x!r}') from None


def setting_from_json(value, field: str) -> MeasurementSetting:
    """A settings vector: a list of 3 JSON numbers (a bool is not a number),
    normalized to unit length. Errors name ``field``."""
    numbers = isinstance(value, list) and len(value) == 3 and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in value
    )
    if not numbers:
        raise ValueError(f"{field} must be a list of 3 numbers, got {value!r}")
    try:
        return make_setting(value)
    except (ValueError, OverflowError) as exc:  # zero, non-finite, or an integer beyond float range
        raise ValueError(f"{field}: {exc}") from exc


def setting_triple_from_json(obj) -> SettingTriple:
    """The ``settings`` object: exactly the labels a, b, c, each a vector
    read by :func:`setting_from_json`."""
    if not isinstance(obj, dict):
        raise ValueError(f"settings must be an object with keys a, b, c, got {obj!r}")
    unknown = sorted(set(obj) - set(LABELS))
    if unknown:
        raise ValueError(f"unknown settings labels: {', '.join('settings.' + k for k in unknown)}")
    return SettingTriple(**{lab: setting_from_json(obj.get(lab), f"settings.{lab}") for lab in LABELS})


def _anticorr_flags(strategies: Sequence[DeterministicStrategy]) -> list[dict]:
    """The wire's ``anticorr_flag``: true exactly where B_s = -A_s."""
    return [{s: st.b_out[s] == -st.a_out[s] for s in LABELS} for st in strategies]


def model_to_json(m: HiddenVariableModel) -> dict:
    return {
        "weights": [_number_to_json(w) for w in m.weights],
        "strategy_at": [{"a_out": dict(s.a_out), "b_out": dict(s.b_out)} for s in m.strategy_at],
        "anticorr_flag": _anticorr_flags(m.strategy_at),
        "detect_flag": [dict(f) for f in m.detect_flag],
    }


def _flags_from_json(entries, field: str) -> tuple[dict, ...]:
    """A flag field's entries: JSON objects whose values are JSON booleans."""
    entries = tuple(entries)
    for i, value in enumerate(entries):
        if not isinstance(value, dict):
            raise TypeError(f"atom {i}: {field} entries must be objects, got {value!r}")
        for k, v in value.items():
            if type(v) is not bool:
                raise ValueError(f"atom {i}: {field}[{k!r}] must be true or false, got {v!r}")
    return entries


def _index_from_json(entry, i: int) -> int:
    """One ``strategy_at`` entry's index: two JSON objects, whose outcomes
    ``_strategy_index`` checks; its errors gain the atom."""
    try:
        a_out, b_out = entry["a_out"], entry["b_out"]
    except KeyError as exc:
        raise ValueError(f"atom {i}: strategy_at entry has no {exc}") from None
    for side, out in (("a_out", a_out), ("b_out", b_out)):
        if not isinstance(out, dict):
            raise TypeError(f"atom {i}: {side} entries must be objects, got {out!r}")
    try:
        return _strategy_index(a_out, b_out)
    except ValueError as exc:
        raise ValueError(f"atom {i}: {exc}") from None


def model_from_json_str(text: str) -> HiddenVariableModel:
    """Read a model from its wire form, coercing nothing: an outcome is the
    integer 1 or -1 and a flag a JSON boolean. Each atom gets its shared
    :func:`strategy_table` entry, whose flags the wire's ``anticorr_flag``
    must equal, and keeps its ``detect_flag`` object uncopied. Every error
    is a ``ValueError`` that names the field."""
    obj = json.loads(text)
    table = strategy_table()
    try:
        weights = tuple(_weight_from_json(w, i) for i, w in enumerate(obj["weights"]))
        entries = [table[_index_from_json(entry, i)] for i, entry in enumerate(obj["strategy_at"])]
        anticorr, detect = (_flags_from_json(obj[field], field) for field in ("anticorr_flag", "detect_flag"))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed hidden-variable model JSON: {exc}") from exc
    if len(anticorr) != len(entries):
        first, n = min(len(anticorr), len(entries)), len(entries)
        raise ValueError(f"atom {first}: anticorr_flag has {len(anticorr)} entries for {n} strategies")
    for i, (flag, (_, want)) in enumerate(zip(anticorr, entries)):
        if flag != want:
            raise ValueError(
                f"atom {i}: anticorr_flag must be true exactly where b_out = -a_out: "
                f"expected {want}, got {flag}"
            )
    return HiddenVariableModel(weights=weights, strategy_at=tuple(st for st, _ in entries), detect_flag=detect)
