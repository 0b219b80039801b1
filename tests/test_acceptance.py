"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`.
"""
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from obell.bounds import theorem2_bound, theorem3_bound, theorem4_bound
from obell.cli import main as cli_main
from obell.core import NoiseParameters
from obell.experiment import ExperimentSpec, run_experiment
from obell.lhv import (
    classical_ob_maximum,
    enumerate_strategies,
    model_ob_statistic,
    strategy_ob_statistic,
)
from obell.quantum import OB_SETTINGS, delta_q, singlet_correlations
from obell.bounds import chsh_bounds, ob_bounds, violation_feasible

from helpers import random_combined_model, random_detection_model, random_epsilon_model

def report(criterion: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}")
    assert ok


def test_criterion_1_quantum_ob_maximum_via_cli():
    start = time.perf_counter()
    result = CliRunner().invoke(cli_main, ["optimize", "ob", "--json"])
    elapsed = time.perf_counter() - start
    value = json.loads(result.output)["value"]
    ok = result.exit_code == 0 and abs(value - 1.5) <= 1e-6 and elapsed < 5.0
    report(f"criterion 1: optimize ob -> {value:.9f} in {elapsed:.2f}s", ok)


def test_criterion_2_worked_example():
    corr = singlet_correlations(OB_SETTINGS)
    delta = delta_q(OB_SETTINGS)
    # p_bc carries one ulp of noise from sqrt(3)/2; the statistic itself
    # rounds back to exactly 3/2 in double precision
    ok = (
        corr.p_ab == -0.5
        and corr.p_ac == 0.5
        and abs(corr.p_bc - (-0.5)) <= 2e-16
        and delta == 1.5
    )
    report(f"criterion 2: worked example correlations {corr} delta={delta}", ok)


def test_criterion_3_tsirelson_and_fractions():
    start = time.perf_counter()
    result = CliRunner().invoke(cli_main, ["optimize", "chsh", "--json"])
    elapsed = time.perf_counter() - start
    value = json.loads(result.output)["value"]
    ok = (
        result.exit_code == 0
        and abs(value - 2 * math.sqrt(2)) <= 1e-6
        and ob_bounds().fraction == 1.5
        and chsh_bounds().fraction == math.sqrt(2)
        and ob_bounds().fraction > chsh_bounds().fraction
    )
    report(f"criterion 3: optimize chsh -> {value:.9f} in {elapsed:.2f}s; F_OB > F_CHSH", ok)


def test_criterion_4_classical_oracle():
    start = time.perf_counter()
    constrained = enumerate_strategies(True)
    values = [strategy_ob_statistic(s) for s in constrained]
    unconstrained_max = classical_ob_maximum(False)
    elapsed = time.perf_counter() - start
    ok = (
        len(constrained) == 8
        and values == [1] * 8
        and classical_ob_maximum(True) == 1
        and unconstrained_max == 3
        and elapsed < 1.0
    )
    report(
        f"criterion 4: 8 constrained strategies all give 1; unconstrained max "
        f"{unconstrained_max}; {elapsed:.3f}s",
        ok,
    )


def test_criterion_5_thresholds():
    ok = (
        theorem2_bound(0.25) == 1.5
        and theorem2_bound(Fraction(1, 4)) == Fraction(3, 2)
        and theorem3_bound(Fraction(8, 9)) == Fraction(3, 2)
        and abs(theorem3_bound(8 / 9) - 1.5) < 1e-12
        and violation_feasible(NoiseParameters.from_gamma(0.98, 0.9))
        and not violation_feasible(NoiseParameters.from_gamma(0.75, 1.0))
    )
    report("criterion 5: gamma=0.75 and eta=8/9 thresholds; feasibility examples", ok)


def test_criterion_6_property_suite_10k_models_per_config():
    start = time.perf_counter()
    failures = []

    rng = np.random.default_rng(20240817)
    eps_levels = [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5]
    for i in range(10_000):  # theorem 2, float models, 1e-9 tolerance
        eps = eps_levels[i % len(eps_levels)]
        m = random_epsilon_model(rng, eps, max_atoms=6)
        if float(model_ob_statistic(m)) > 1 + 2 * eps + 1e-9:
            failures.append(("theorem2", eps, m))

    for _ in range(10_000):  # theorem 3, exact rational models
        n = int(rng.integers(2, 8))
        k = int(rng.integers(1, n + 1))
        m = random_detection_model(rng, n, k)
        eta = Fraction(k, n)
        if model_ob_statistic(m, pattern="e10", conditional=True) > (4 - 3 * eta) / eta:
            failures.append(("theorem3", eta, m))

    for _ in range(10_000):  # theorem 4, exact rational models
        n = int(rng.integers(2, 8))
        flips = int(rng.integers(0, n + 1))
        k = int(rng.integers(1, n + 1))
        m = random_combined_model(rng, n, flips, k)
        eps, eta = Fraction(flips, n), Fraction(k, n)
        if model_ob_statistic(m, pattern="e10", conditional=True) > (4 + 2 * eps - 3 * eta) / eta:
            failures.append(("theorem4", (eps, eta), m))

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    report(
        f"criterion 6: 3x10^4 random models, {len(failures)} bound violations, {elapsed:.1f}s",
        ok,
    )


def test_criterion_7_monte_carlo_calibration(tmp_path):
    inside = 0
    for rep in range(100):
        spec = ExperimentSpec(
            source="quantum",
            settings=OB_SETTINGS,
            trials_per_pair=1_000_000,
            seed=1_000 + rep,
        )
        result = run_experiment(spec)
        if abs(result.statistic - 1.5) <= 3 * result.statistic_se:
            inside += 1

    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "source": "quantum",
                "trials_per_pair": 1_000_000,
                "seed": 424242,
                "settings": {
                    "a": [1, 0, 0],
                    "b": [0.5, -math.sqrt(3) / 2, 0],
                    "c": [-0.5, -math.sqrt(3) / 2, 0],
                },
            }
        )
    )
    runner = CliRunner()
    outputs = []
    for name in ("rerun1", "rerun2"):
        out = tmp_path / name
        res = runner.invoke(cli_main, ["simulate", str(config), "--out", str(out)])
        assert res.exit_code == 0
        outputs.append(
            ((out / "result.json").read_bytes(), (out / "result.csv").read_bytes())
        )
    identical = outputs[0] == outputs[1]

    ok = inside >= 95 and identical
    report(
        f"criterion 7: {inside}/100 repetitions inside 3 sigma; byte-identical rerun: {identical}",
        ok,
    )


def test_criterion_8_reduction_identities():
    worst = 0.0
    for eps in np.linspace(0.0, 1.0, 100):
        for eta in np.linspace(0.01, 1.0, 100):
            worst = max(
                worst,
                abs(theorem4_bound(NoiseParameters(0.0, eta)) - theorem3_bound(eta)),
                abs(theorem4_bound(NoiseParameters(eps, 1.0)) - theorem2_bound(eps)),
            )
    ok = worst <= 1e-12
    report(f"criterion 8: reduction identities on 100x100 grid, worst gap {worst:.2e}", ok)
