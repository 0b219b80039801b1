import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from obell.bounds import theorem3_bound
from obell.cli import main
from obell.core import PAIR_KEYS, HiddenVariableModel, SettingTriple, make_setting
from obell.experiment import (
    ExperimentSpec,
    cell_seed,
    derive_seed,
    result_to_json,
    run_experiment,
    summary_csv_row,
    sweep,
)
from obell.lhv import make_detection_model
from obell.quantum import OB_SETTINGS, QUANTUM_CHSH_MAX, sample_correlated_outcomes

from helpers import (
    random_detection_model,
    random_perfect_model,
    random_strategies,
    setting_dependent_detection_model,
)

def quantum_spec(**kwargs):
    defaults = dict(
        source="quantum", settings=OB_SETTINGS, trials_per_pair=100_000, seed=123
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


class TestSpecValidation:
    def test_nonfair_quantum_rejected(self):
        with pytest.raises(ValueError, match="fair"):
            quantum_spec(fair_sampling=False)

    def test_lhv_requires_model(self):
        with pytest.raises(ValueError, match="model"):
            quantum_spec(source="lhv")

    def test_bad_eta(self):
        with pytest.raises(ValueError):
            quantum_spec(eta=0.0)

    def test_chsh_needs_four_settings(self):
        with pytest.raises(ValueError, match="4 settings"):
            quantum_spec(statistic="chsh")


class TestSeeding:
    def test_derive_seed_deterministic(self):
        assert derive_seed(42, 1) == derive_seed(42, 1)
        assert derive_seed(42, 1) != derive_seed(42, 2)
        assert derive_seed(42, 1) != derive_seed(43, 1)

    def test_cell_seed_depends_on_values_not_order(self):
        assert cell_seed(7, 0.9, 0.8) == cell_seed(7, 0.9, 0.8)
        assert cell_seed(7, 0.9, 0.8) != cell_seed(7, 0.8, 0.9)


class TestRunExperiment:
    def test_reproducible(self):
        spec = quantum_spec()
        assert run_experiment(spec) == run_experiment(spec)

    def test_quantum_optimal_settings_recover_three_halves(self):
        result = run_experiment(quantum_spec(trials_per_pair=1_000_000))
        assert abs(result.statistic - 1.5) <= 3 * result.statistic_se
        assert result.bound_used == 1.0
        assert result.violation_sigma > 5

    def test_lhv_source_stays_below_classical_bound(self):
        rng = np.random.default_rng(0)
        model = random_perfect_model(rng)
        spec = quantum_spec(source="lhv", model=model, trials_per_pair=1_000_000)
        result = run_experiment(spec)
        assert result.statistic <= 1 + 3 * result.statistic_se

    def test_lhv_nonfair_detection_respects_theorem3(self):
        rng = np.random.default_rng(1)
        model = random_detection_model(rng, 10, 9)
        spec = quantum_spec(
            source="lhv",
            model=model,
            fair_sampling=False,
            trials_per_pair=200_000,
            pattern="e10",
        )
        result = run_experiment(spec)
        assert result.statistic <= theorem3_bound(0.9) + 3 * result.statistic_se
        # non-fair path: detected fraction tracks the model's eta = 0.9
        for est in result.pairs:
            assert est.n_detected / spec.trials_per_pair == pytest.approx(0.9, abs=0.01)

    def test_detected_fraction_matches_eta(self):
        result = run_experiment(quantum_spec(eta=0.9, trials_per_pair=1_000_000))
        for est in result.pairs:
            assert est.n_detected / 1_000_000 == pytest.approx(0.9, abs=0.001)

    def test_fair_sampling_unbiased_with_shrinking_error(self):
        ses = {}
        for trials in (10_000, 100_000, 1_000_000):
            result = run_experiment(quantum_spec(eta=0.8, trials_per_pair=trials, seed=5))
            ses[trials] = result.statistic_se
            assert abs(result.statistic - 1.5) <= 4 * result.statistic_se
        # 100x the trials: the error bar shrinks 10x ...
        assert 0.09 <= ses[1_000_000] / ses[10_000] <= 0.11
        # ... and so does the error itself, measured over seeds, not one draw
        def rms_error(trials):
            errors = [
                run_experiment(quantum_spec(eta=0.8, trials_per_pair=trials, seed=seed)).statistic
                - 1.5
                for seed in range(20)
            ]
            return math.sqrt(np.mean(np.square(errors)))

        assert rms_error(1_000_000) < rms_error(10_000)

    def test_zero_detection_error_names_pair(self):
        # equal pair masses of 1/1000 and one trial per pair: pair (a, b)
        # draws no detected trial at this seed
        base = HiddenVariableModel.build(
            [Fraction(1, 1000), Fraction(999, 1000)], random_strategies(np.random.default_rng(2), 2)
        )
        model = make_detection_model(base, {key: {0} for key in PAIR_KEYS})
        spec = quantum_spec(
            source="lhv", model=model, fair_sampling=False, trials_per_pair=1, pattern="e10"
        )
        with pytest.raises(RuntimeError, match="'a', 'b'"):
            run_experiment(spec)

    def test_setting_dependent_detection_refused_unless_fair(self):
        model = setting_dependent_detection_model()
        with pytest.raises(ValueError, match="pair 'ac'"):
            quantum_spec(source="lhv", model=model, fair_sampling=False, pattern="e10")
        # fair sampling never reads the detection flags
        result = run_experiment(quantum_spec(source="lhv", model=model, pattern="e10", trials_per_pair=1000))
        assert result.bound_used == 1.0

    def test_white_noise_scales_statistic(self):
        result = run_experiment(
            quantum_spec(source="quantum_white_noise", gamma=0.9, trials_per_pair=1_000_000)
        )
        assert abs(result.statistic - 1.35) <= 3 * result.statistic_se

    def test_white_noise_bound_uses_gamma(self):
        result = run_experiment(
            quantum_spec(source="quantum_white_noise", gamma=0.98, eta=0.9, trials_per_pair=10_000)
        )
        assert result.bound_used == pytest.approx((6 - 1.96 - 2.7) / 0.9)

    def test_chsh_run_reaches_tsirelson(self):
        angles = [math.radians(d) for d in (0, 90, 135, 45)]
        settings = tuple(make_setting((math.cos(t), math.sin(t), 0)) for t in angles)
        spec = ExperimentSpec(
            source="quantum",
            settings=settings,
            trials_per_pair=500_000,
            seed=9,
            statistic="chsh",
        )
        result = run_experiment(spec)
        assert abs(result.statistic - QUANTUM_CHSH_MAX) <= 3 * result.statistic_se
        assert result.bound_used == 2.0
        assert result.violation_sigma > 5


def assert_same_law(x, y):
    """Mean and variance of two equal-size samples agree within 4 standard errors."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    k = len(x)
    assert abs(x.mean() - y.mean()) <= 4 * math.sqrt((x.var() + y.var()) / k)
    dx, dy = (x - x.mean()) ** 2, (y - y.mean()) ** 2
    assert abs(dx.mean() - dy.mean()) <= 4 * math.sqrt((dx.var() + dy.var()) / k)


class TestSamplerAgreement:
    """run_experiment draws each pair's counts; the detected count and the
    fraction of +1 products among detected trials must follow the law of
    per-trial sampling."""

    SEEDS = 1000
    TRIALS = 400

    def first_pair_counts(self, **kwargs):
        """(n_detected, fraction of +1 products) of the first pair, per seed."""
        counts = []
        for seed in range(self.SEEDS):
            result = run_experiment(quantum_spec(trials_per_pair=self.TRIALS, seed=seed, **kwargs))
            est = result.pairs[0]
            counts.append((est.n_detected, (1 + est.correlation) / 2))
        return counts

    def assert_agrees(self, simulated, reference):
        for column in range(2):
            assert_same_law([c[column] for c in simulated], [c[column] for c in reference])

    @pytest.mark.parametrize("eta", [1.0, 0.8])
    @pytest.mark.parametrize("rho", [-1.0, -0.5, 0.0, 0.7])
    def test_quantum_counts_match_per_trial_sampler(self, rho, eta):
        # -a.b = rho on the first pair (a, b)
        settings = SettingTriple(
            a=make_setting((1, 0, 0)),
            b=make_setting((-rho, math.sqrt(1 - rho * rho), 0)),
            c=make_setting((0, 0, 1)),
        )
        rng = np.random.default_rng(12345)
        reference = []
        for _ in range(self.SEEDS):
            alpha, beta = sample_correlated_outcomes(rho, rng, self.TRIALS)
            detected = rng.random(self.TRIALS) < eta
            reference.append((detected.sum(), np.mean(alpha[detected] == beta[detected])))
        self.assert_agrees(self.first_pair_counts(settings=settings, eta=eta), reference)

    @pytest.mark.parametrize("fair", [True, False])
    def test_lhv_counts_match_per_atom_draws(self, fair):
        if fair:  # 6 atoms, P(A_a B_b = +1) ~ 0.71
            model, eta, pattern = random_perfect_model(np.random.default_rng(2), 6), 0.8, "e7"
        else:  # 4 of 6 atoms detected on every pair, conditional P(+1) = 1/2
            model, eta, pattern = random_detection_model(np.random.default_rng(3), 6, 4), 1.0, "e10"
        weights = np.array([float(w) for w in model.weights])
        same = np.array([strat.product("a", "b") == 1 for strat in model.strategy_at])
        flags = np.array([flag["ab"] for flag in model.detect_flag])
        rng = np.random.default_rng(54321)
        reference = []
        for _ in range(self.SEEDS):
            atoms = rng.choice(model.n_atoms, size=self.TRIALS, p=weights / weights.sum())
            detected = rng.random(self.TRIALS) < eta if fair else flags[atoms]
            reference.append((detected.sum(), np.mean(same[atoms][detected])))
        simulated = self.first_pair_counts(
            source="lhv", model=model, eta=eta, fair_sampling=fair, pattern=pattern
        )
        self.assert_agrees(simulated, reference)


class TestSweep:
    def test_single_cell_matches_run_experiment(self):
        template = quantum_spec(trials_per_pair=10_000)
        cells = sweep(template, [0.95], [0.9])
        direct = run_experiment(
            replace(
                template,
                source="quantum_white_noise",
                gamma=0.95,
                eta=0.9,
                seed=cell_seed(template.seed, 0.95, 0.9),
            )
        )
        assert cells[0].result == direct

    def test_thread_count_does_not_change_results(self):
        # sweep runs in one thread; the CLI still accepts --threads
        args = ["sweep", "--simulate", "--gamma-range", "0.9:1", "--eta-range", "0.9:1"]
        one, four = (CliRunner().invoke(main, [*args, "--threads", n]) for n in ("1", "4"))
        assert one.exit_code == four.exit_code == 0
        assert one.output == four.output

    def test_gamma_row_crosses_violation_boundary_near_six_sevenths(self):
        # white-noise quantum value 1.5*g crosses the classical bound 3 - 2*g
        # at g = 6/7; well on either side the verdict is unambiguous.
        template = quantum_spec(trials_per_pair=400_000)
        cells = sweep(template, [0.80, 0.93], [1.0])
        below, above = cells
        assert below.result.violation_sigma < -3
        assert above.result.violation_sigma > 3

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            sweep(quantum_spec(), [], [1.0])

    def test_csv_and_json_shapes(self):
        template = quantum_spec(trials_per_pair=2_000)
        cells = sweep(template, [1.0], [1.0])
        payload = result_to_json(cells[0].result)
        assert set(payload) == {
            "pairs",
            "statistic",
            "statistic_se",
            "bound_used",
            "violation_sigma",
        }
        row = summary_csv_row(1.0, 1.0, cells[0].result)
        assert row.startswith("1,1,")
