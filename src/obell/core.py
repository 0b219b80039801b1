"""Shared domain types: measurement settings, correlations, noise parameters,
deterministic strategies and finite hidden-variable models.

All types here are immutable after construction and safe to share across
threads. Hidden-variable spaces are finite lists of weighted atoms; weights
may be exact ``Fraction``s (enumeration results) or floats (everything else).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

LABELS = ("a", "b", "c")
#: Ordered setting pairs, keyed as two-character strings "ab", "ac", ...
PAIR_KEYS = tuple(s + t for s in LABELS for t in LABELS)

UNIT_TOL = 1e-12
WEIGHT_TOL = 1e-12

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
        for side, out in (("a_out", self.a_out), ("b_out", self.b_out)):
            if set(out) != set(LABELS):
                raise ValueError(f"{side} must assign exactly the labels {LABELS}")
            for label, value in out.items():
                if value not in (1, -1):
                    raise ValueError(f"{side}[{label!r}]={value!r} is not +-1")

    def product(self, s: str, t: str) -> int:
        """The outcome product A_s * B_t."""
        return self.a_out[s] * self.b_out[t]


@dataclass(frozen=True)
class HiddenVariableModel:
    """A finite mixture of deterministic strategies over atoms lambda.

    Per atom, ``anticorr_flag[s]`` records whether the atom lies in the
    perfectly anti-correlated set for setting s (off that set the dichotomous
    outcomes are forced equal), and ``detect_flag["st"]`` whether the atom is
    jointly detected when the pair (s, t) is measured.
    """

    weights: tuple[Number, ...]
    strategy_at: tuple[DeterministicStrategy, ...]
    anticorr_flag: tuple[Mapping[str, bool], ...]
    detect_flag: tuple[Mapping[str, bool], ...]

    @property
    def n_atoms(self) -> int:
        return len(self.weights)

    @property
    def epsilon_hat(self) -> float:
        """The anti-correlation defect: the largest mass, over the settings,
        off that setting's anti-correlated set (a float sum, atom by atom)."""
        return max(
            sum(float(w) for w, flag in zip(self.weights, self.anticorr_flag) if not flag[s])
            for s in LABELS
        )

    @property
    def eta_hat(self) -> float:
        """The joint detection efficiency: the mass detected for the pair
        (a, b) (a float sum, atom by atom)."""
        return sum(float(w) for w, d in zip(self.weights, self.detect_flag) if d["ab"])

    @classmethod
    def build(
        cls,
        weights: Sequence[Number],
        strategies: Sequence[DeterministicStrategy],
        anticorr_flag: Sequence[Mapping[str, bool]] | None = None,
        detect_flag: Sequence[Mapping[str, bool]] | None = None,
    ) -> "HiddenVariableModel":
        """Assemble a model, deriving flags where omitted.

        Without ``anticorr_flag`` the flag is read off each strategy
        (True iff B_s = -A_s); without ``detect_flag`` every atom is
        detected for every pair.
        """
        if anticorr_flag is None:
            anticorr_flag = [
                {s: strat.b_out[s] == -strat.a_out[s] for s in LABELS}
                for strat in strategies
            ]
        if detect_flag is None:
            detect_flag = [{key: True for key in PAIR_KEYS} for _ in strategies]
        return cls(
            weights=tuple(weights),
            strategy_at=tuple(strategies),
            anticorr_flag=tuple(dict(f) for f in anticorr_flag),
            detect_flag=tuple(dict(f) for f in detect_flag),
        )


def validate_model(m: HiddenVariableModel) -> list[str]:
    """Check every model invariant; returns diagnostics instead of raising.

    An empty list means the model is valid. Each violation names the atom
    and the offending field.
    """
    violations: list[str] = []
    n = len(m.weights)
    if not (len(m.strategy_at) == len(m.anticorr_flag) == len(m.detect_flag) == n):
        violations.append(
            "field lengths disagree: weights=%d strategy_at=%d anticorr_flag=%d detect_flag=%d"
            % (n, len(m.strategy_at), len(m.anticorr_flag), len(m.detect_flag))
        )
        return violations

    total = 0
    for i, w in enumerate(m.weights):
        if isinstance(w, bool):
            violations.append(f"atom {i}: weight {w!r} is a bool, not a number")
        elif isinstance(w, float) and not math.isfinite(w):
            violations.append(f"atom {i}: non-finite weight {w!r}")
        elif w < 0:
            violations.append(f"atom {i}: negative weight {w!r}")
        total += w
    if abs(total - 1) > WEIGHT_TOL:
        violations.append(f"weights: normalization broken, sum is {float(total)!r}")

    for i, (strat, aflag, dflag) in enumerate(
        zip(m.strategy_at, m.anticorr_flag, m.detect_flag)
    ):
        if set(aflag) != set(LABELS):
            violations.append(f"atom {i}: anticorr_flag labels must be {LABELS}")
            continue
        if set(dflag) != set(PAIR_KEYS):
            violations.append(f"atom {i}: detect_flag keys must cover all 9 pairs")
        for s in LABELS:
            if aflag[s] and strat.b_out[s] != -strat.a_out[s]:
                violations.append(
                    f"atom {i}: anticorr_flag[{s!r}] set but b_out[{s!r}] != -a_out[{s!r}]"
                )
            if not aflag[s] and strat.b_out[s] != strat.a_out[s]:
                violations.append(
                    f"atom {i}: anticorr_flag[{s!r}] clear but b_out[{s!r}] != a_out[{s!r}]"
                )
    return violations


# ---------------------------------------------------------------------------
# JSON wire formats (consumed by the CLI `verify` and `simulate` commands)


def _number_to_json(x: Number):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return float(x)


def _number_from_json(x) -> Number:
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, bool):
        return x  # kept as is, so validate_model can name the atom
    return float(x)


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
    except ValueError as exc:  # zero or non-finite
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


def model_to_json(m: HiddenVariableModel) -> dict:
    return {
        "weights": [_number_to_json(w) for w in m.weights],
        "strategy_at": [
            {"a_out": dict(s.a_out), "b_out": dict(s.b_out)} for s in m.strategy_at
        ],
        "anticorr_flag": [dict(f) for f in m.anticorr_flag],
        "detect_flag": [dict(f) for f in m.detect_flag],
    }


def _json_object(value, field: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise TypeError(f"{field} entries must be objects, got {value!r}")
    return value


def model_from_json(obj: Mapping) -> HiddenVariableModel:
    try:
        weights = tuple(_number_from_json(w) for w in obj["weights"])
        strategies = tuple(
            DeterministicStrategy(
                a_out={k: int(v) for k, v in _json_object(s["a_out"], "a_out").items()},
                b_out={k: int(v) for k, v in _json_object(s["b_out"], "b_out").items()},
            )
            for s in obj["strategy_at"]
        )
        anticorr = tuple(
            {k: bool(v) for k, v in _json_object(f, "anticorr_flag").items()}
            for f in obj["anticorr_flag"]
        )
        detect = tuple(
            {k: bool(v) for k, v in _json_object(f, "detect_flag").items()}
            for f in obj["detect_flag"]
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed hidden-variable model JSON: {exc}") from exc
    return HiddenVariableModel(
        weights=weights,
        strategy_at=strategies,
        anticorr_flag=anticorr,
        detect_flag=detect,
    )


def model_to_json_str(m: HiddenVariableModel) -> str:
    return json.dumps(model_to_json(m), indent=2, sort_keys=True)


def model_from_json_str(text: str) -> HiddenVariableModel:
    return model_from_json(json.loads(text))
