"""Reference values and output checks owned by the benchmark.

The references use exact ``Fraction`` arithmetic on the wire-format inputs
and never call the program under test. Every check returns ``None`` when the
output is correct and a one-line reason otherwise; the measurement loop
counts a reason as a failed operation.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction

LABELS = ("a", "b", "c")
PAIR_KEYS = tuple(s + t for s in LABELS for t in LABELS)
PATTERNS = {
    "e7": (("a", "b"), ("a", "c"), ("b", "c")),
    "e10": (("a", "b"), ("b", "c"), ("a", "c")),
}

QUANTUM_OB = Fraction(3, 2)
SIGMAS = 5


def detection_bound(eta: Fraction) -> Fraction:
    """Theorem 3: (4 - 3 eta) / eta."""
    return (4 - 3 * eta) / eta


def combined_bound(epsilon: Fraction, eta: Fraction) -> Fraction:
    """Theorem 4: (4 + 2 epsilon - 3 eta) / eta."""
    return (4 + 2 * epsilon - 3 * eta) / eta


def ob_statistic(model: dict, pattern: str, conditional: bool) -> Fraction:
    """|P(p1) - P(p2)| - P(p3) of a wire-format model, exactly.

    Float weights are converted exactly, so the reference is the real-number
    value of the statistic of the model as written.
    """
    weights = [Fraction(w) for w in model["weights"]]

    def correlation(s: str, t: str) -> Fraction:
        num = mass = Fraction(0)
        for w, strat, detect in zip(weights, model["strategy_at"], model["detect_flag"]):
            if conditional and not detect[s + t]:
                continue
            num += w * strat["a_out"][s] * strat["b_out"][t]
            mass += w
        return num / mass if conditional else num

    p1, p2, p3 = (correlation(s, t) for s, t in PATTERNS[pattern])
    return abs(p1 - p2) - p3


# ---------------------------------------------------------------------------
# Checks


def check_model_statistic(case, statistic) -> str | None:
    """lhv_exact models: equal to the reference (exactly for rational models,
    within 1e-9 for float ones) and not above the theorem bound."""
    if case.exact:
        if statistic != case.reference:
            return f"{case.family}: statistic {statistic!r} != reference {case.reference}"
        if statistic > case.bound:
            return f"{case.family}: statistic {statistic} above bound {case.bound}"
        return None
    value = float(statistic)
    if not abs(value - float(case.reference)) <= 1e-9:
        return f"{case.family}: statistic {value!r} != reference {float(case.reference)!r}"
    if not value <= float(case.bound) + 1e-9:
        return f"{case.family}: statistic {value!r} above bound {float(case.bound)!r}"
    return None


def check_estimate(statistic: float, se: float, expected) -> str | None:
    """A Monte Carlo statistic within SIGMAS standard errors of ``expected``."""
    if not abs(statistic - float(expected)) <= SIGMAS * se + 1e-12:
        return f"statistic {statistic!r} not within {SIGMAS} se ({se!r}) of {float(expected)!r}"
    return None


def check_experiment(result, expected, bound=None) -> str | None:
    """monte_carlo: the estimate agrees with ``expected`` and, when given,
    ``bound_used`` is within 1e-12 of ``bound``."""
    if bound is not None and not abs(result.bound_used - float(bound)) <= 1e-12:
        return f"bound_used {result.bound_used!r} != {float(bound)!r}"
    return check_estimate(result.statistic, result.statistic_se, expected)


def check_oracle(exit_code: int, output: str, expected: Fraction) -> str | None:
    """lhv_exact oracle points: exit 0 and the single check's ``achieved`` equals
    ``expected`` exactly."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        checks = json.loads(output)["checks"]
        achieved = Fraction(checks[0]["achieved"])
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable verify output: {exc!r}"
    if len(checks) != 1 or achieved != expected:
        return f"achieved {achieved} != expected {expected}"
    return None


SWEEP_ROWS = 66


def _check_cli_payload(name: str, stdout: str) -> str | None:
    if name == "sweep":
        rows = stdout.strip().splitlines()[1:]
        if len(rows) != SWEEP_ROWS:
            return f"sweep: {len(rows)} rows, expected {SWEEP_ROWS}"
        if any("nan" in row for row in rows):
            return "sweep: nan in CSV"
        return None
    payload = json.loads(stdout)
    if name == "bounds":
        point = payload["point"]
        expected = float(combined_bound(1 - Fraction("0.98"), Fraction("0.9")))
        if not (abs(point["bound"] - expected) <= 1e-9 and point["feasible"] is True):
            return f"bounds: point {point!r}, expected bound {expected!r} and feasible"
    elif name == "optimize_ob":
        if not abs(payload["value"] - 1.5) <= 1e-6:
            return f"optimize ob: value {payload['value']!r}"
    elif name == "optimize_chsh":
        if not abs(payload["value"] - 2 * math.sqrt(2)) <= 1e-6:
            return f"optimize chsh: value {payload['value']!r}"
    elif name == "verify":
        if payload["pass"] is not True:
            return "verify: battery did not pass"
    elif name == "simulate":
        return check_estimate(payload["statistic"], payload["statistic_se"], QUANTUM_OB)
    return None


def check_cli(name: str, exit_code: int, stdout: str) -> str | None:
    """cli_session: exit code 0, parseable output, and values that match the
    known optima, the quantum value and the sweep's shape."""
    if exit_code != 0:
        return f"{name}: exit code {exit_code}"
    try:
        return _check_cli_payload(name, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return f"{name}: unreadable output: {exc!r}"
