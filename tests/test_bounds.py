import math
import re

import numpy as np
import pytest
from click.testing import CliRunner

from obell.bounds import (
    MAX_GRID_CELLS,
    BoundReport,
    chsh_bounds,
    feasibility_grid,
    ob_bounds,
    theorem2_bound,
    theorem3_bound,
    theorem4_bound,
    violation_feasible,
    white_noise_quantum_value,
)
from obell.cli import main
from obell.core import NoiseParameters

from helpers import run_child


class TestBoundReports:
    def test_ob(self):
        r = ob_bounds()
        assert (r.classical_bound, r.quantum_bound, r.fraction) == (1.0, 1.5, 1.5)

    def test_chsh(self):
        r = chsh_bounds()
        assert r.classical_bound == 2.0
        assert r.quantum_bound == 2 * math.sqrt(2)
        assert r.fraction == math.sqrt(2)

    def test_ob_fraction_beats_chsh_fraction(self):
        assert ob_bounds().fraction > chsh_bounds().fraction

    def test_inconsistent_report_rejected(self):
        with pytest.raises(ValueError):
            BoundReport(classical_bound=2.0, quantum_bound=2.0, fraction=1.5)


class TestNoisyBounds:
    def test_theorem2_values(self):
        assert theorem2_bound(0.0) == 1.0
        assert theorem2_bound(0.25) == 1.5  # gamma = 0.75 violation threshold
        assert theorem2_bound(1 - 0.98) == pytest.approx(1.04)
        with pytest.raises(ValueError):
            theorem2_bound(1.5)

    def test_theorem3_values(self):
        assert theorem3_bound(1.0) == 1.0
        assert theorem3_bound(8 / 9) == pytest.approx(1.5, abs=1e-12)
        assert theorem3_bound(0.9) == pytest.approx(13 / 9, abs=1e-12)
        with pytest.raises(ValueError):
            theorem3_bound(0.0)

    def test_theorem4_values(self):
        assert theorem4_bound(NoiseParameters(0.0, 1.0)) == 1.0
        assert theorem4_bound(NoiseParameters.from_gamma(0.98, 0.9)) == pytest.approx(
            (6 - 1.96 - 2.7) / 0.9
        )

    def test_theorem4_identity_line(self):
        # (6 - 2g - 3e)/e == 3/2 exactly on 4g + 9e = 12
        for gamma in (0.75, 0.8, 0.9, 0.99):
            eta = (12 - 4 * gamma) / 9
            assert theorem4_bound(NoiseParameters.from_gamma(gamma, eta)) == pytest.approx(
                1.5, abs=1e-12
            )

    def test_reduction_identities_grid(self):
        for eps in np.linspace(0, 1, 100):
            assert theorem4_bound(NoiseParameters(eps, 1.0)) == pytest.approx(
                theorem2_bound(eps), abs=1e-12
            )
        for eta in np.linspace(0.01, 1, 100):
            assert theorem4_bound(NoiseParameters(0.0, eta)) == pytest.approx(
                theorem3_bound(eta), abs=1e-12
            )

    def test_monotonicity(self):
        eps = np.linspace(0, 1, 50)
        assert all(np.diff([theorem2_bound(e) for e in eps]) > 0)
        etas = np.linspace(0.05, 1, 50)
        assert all(np.diff([theorem3_bound(e) for e in etas]) < 0)
        assert all(
            np.diff([theorem4_bound(NoiseParameters(0.3, e)) for e in etas]) < 0
        )
        assert all(
            np.diff([theorem4_bound(NoiseParameters(e, 0.9)) for e in eps]) > 0
        )


class TestFeasibility:
    def test_examples(self):
        assert violation_feasible(NoiseParameters.from_gamma(1.0, 1.0))
        assert violation_feasible(NoiseParameters.from_gamma(0.98, 0.9))
        assert not violation_feasible(NoiseParameters.from_gamma(0.75, 1.0))  # boundary

    def test_feasible_iff_bound_below_quantum(self):
        rng = np.random.default_rng(12)
        for _ in range(10_000):
            p = NoiseParameters(epsilon=float(rng.random()), eta=float(0.01 + 0.99 * rng.random()))
            assert violation_feasible(p) == (theorem4_bound(p) < ob_bounds().quantum_bound)

    def test_white_noise_values(self):
        assert white_noise_quantum_value(1.0) == 1.5
        assert white_noise_quantum_value(0.0) == 0.0

    def test_white_noise_crossing_at_six_sevenths(self):
        # 1.5*g > 3 - 2*g iff g > 6/7
        g = 6 / 7
        assert white_noise_quantum_value(g) == pytest.approx(theorem2_bound(1 - g), abs=1e-12)
        assert white_noise_quantum_value(g + 1e-6) > theorem2_bound(1 - (g + 1e-6))
        assert white_noise_quantum_value(g - 1e-6) < theorem2_bound(1 - (g - 1e-6))


class TestFeasibilityGrid:
    def test_single_cell(self):
        cells = feasibility_grid((1.0, 1.0), (1.0, 1.0), 0.01)
        assert len(cells) == 1
        assert cells[0].bound == 1.0
        assert cells[0].feasible

    def test_eta_boundary_at_gamma_one(self):
        cells = feasibility_grid((1.0, 1.0), (0.885, 0.893), 0.001)
        flips = [(c.eta, c.feasible) for c in cells]
        infeasible = [e for e, f in flips if not f]
        feasible = [e for e, f in flips if f]
        assert max(infeasible) <= 0.888 + 1e-9
        assert min(feasible) >= 0.889 - 1e-9

    def test_gamma_boundary_at_eta_one(self):
        cells = feasibility_grid((0.7, 0.8), (1.0, 1.0), 0.01)
        for c in cells:
            assert c.feasible == (c.gamma > 0.75 + 1e-12)

    def test_rows_internally_consistent(self):
        for c in feasibility_grid((0.5, 1.0), (0.5, 1.0), 0.05):
            assert c.feasible == (c.bound < 1.5 - 1e-12) or (
                abs(c.bound - 1.5) <= 1e-12 and not c.feasible
            )

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            feasibility_grid((0.9, 0.8), (0.5, 1.0), 0.01)
        with pytest.raises(ValueError):
            feasibility_grid((0.5, 1.0), (0.5, 1.0), 0.0)

    def test_non_finite_step_rejected(self):
        with pytest.raises(ValueError, match="step must be finite"):
            feasibility_grid((1.0, 1.0), (1.0, 1.0), math.inf)
        # NaN passed the step <= 0 check and the grid grew without end, so
        # it runs in a child process with capped memory
        proc = run_child(
            "from obell.bounds import feasibility_grid\n"
            "feasibility_grid((1.0, 1.0), (1.0, 1.0), float('nan'))\n",
            cap_memory=True,
        )
        assert "ValueError: step must be finite" in proc.stderr

    def test_cell_limit_is_checked_before_building(self):
        with pytest.raises(ValueError, match=re.escape("--step 0.001 would build 1001000 cells, above the limit")):
            feasibility_grid((0.0, 1.0), (0.0, 1.0), 0.001)
        with pytest.raises(ValueError, match="--step 1e-300 would build inf cells"):
            feasibility_grid((0.0, 1.0), (0.0, 1.0), 1e-300)
        assert MAX_GRID_CELLS == 10**6

    def test_grid_counts_its_values_as_stepping_does(self):
        def stepped(lo, hi, step):  # the grid's definition: step from lo while within hi + 1e-12
            values, v = [], lo
            while v <= hi + 1e-12:
                values.append(min(v, hi))
                v = lo + len(values) * step
            return values

        for step in (0.002, 0.01, 0.03, 0.05, 0.1, 0.25, 0.3, 1 / 3, 1.0):
            for lo, hi in [(i / 20, j / 20) for i in range(21) for j in range(i, 21)]:
                cells = feasibility_grid((lo, hi), (1.0, 1.0), step)
                assert [c.gamma for c in cells] == stepped(lo, hi, step)

    def test_csv_format(self):
        # cmd_sweep is the one writer of the feasibility grid's CSV
        result = CliRunner().invoke(main, ["sweep", "--gamma-range", "1:1", "--eta-range", "1:1"])
        lines = result.output.strip().split("\n")
        assert lines[0] == "gamma,eta,bound,feasible"
        assert lines[1] == "1.000000,1.000000,1.000000,true"
