import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import obell
from obell.cli import main
from obell.core import model_to_json_str

from helpers import random_detection_model, random_perfect_model


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


class TestBoundsCommand:
    def test_table_contains_all_bounds(self, runner):
        result = invoke(runner, "bounds")
        assert result.exit_code == 0
        for needle in ("1.5", "2.828427125", "1.414213562"):
            assert needle in result.output

    def test_point_query(self, runner):
        result = invoke(runner, "bounds", "--gamma", "0.98", "--eta", "0.9")
        assert result.exit_code == 0
        assert "1.488888889" in result.output
        assert "feasible=true" in result.output

    def test_json_round_trips(self, runner):
        result = invoke(runner, "bounds", "--gamma", "0.98", "--eta", "0.9", "--json")
        payload = json.loads(result.output)
        assert payload["ob"]["quantum"] == 1.5
        assert payload["chsh"]["quantum"] == 2 * math.sqrt(2)
        assert payload["point"]["feasible"] is True

    def test_invalid_point_is_usage_error(self, runner):
        result = invoke(runner, "bounds", "--eta", "0")
        assert result.exit_code == 2


class TestOptimizeCommand:
    def test_ob(self, runner):
        result = invoke(runner, "optimize", "ob", "--json")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert abs(payload["value"] - 1.5) <= 1e-6

    def test_chsh(self, runner):
        result = invoke(runner, "optimize", "chsh", "--json")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert abs(payload["value"] - 2 * math.sqrt(2)) <= 1e-6

    def test_zero_tolerance_rejected(self, runner):
        result = invoke(runner, "optimize", "ob", "--tolerance", "0")
        assert result.exit_code == 2
        assert "tolerance must be positive" in result.output


class TestVerifyCommand:
    def test_default_battery_passes(self, runner):
        result = invoke(runner, "verify")
        assert result.exit_code == 0
        assert "FAIL" not in result.output

    def test_perfect_only(self, runner):
        result = invoke(runner, "verify", "--perfect", "--json")
        payload = json.loads(result.output)
        assert payload["pass"] is True
        assert payload["checks"][0]["achieved"] == "1"

    def test_unconstrained_control(self, runner):
        result = invoke(runner, "verify", "--unconstrained")
        assert result.exit_code == 0
        assert "achieved 3" in result.output

    def test_eta_snapped_to_grid(self, runner):
        result = invoke(runner, "verify", "--eta", "0.888888", "--atoms", "9")
        assert result.exit_code == 0
        assert "eta=8/9" in result.output
        assert "3/2" in result.output

    def test_bad_atoms_is_usage_error(self, runner):
        result = invoke(runner, "verify", "--atoms", "13")
        assert result.exit_code == 2

    def test_model_file_checks(self, runner, tmp_path):
        rng = np.random.default_rng(21)
        model = random_detection_model(rng, 10, 9)
        path = tmp_path / "model.json"
        path.write_text(model_to_json_str(model))
        result = invoke(runner, "verify", "--model", str(path), "--json")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        names = [c["name"] for c in payload["checks"]]
        assert any("conditional" in n for n in names)

    def test_invalid_model_file_is_usage_error(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"weights": [0.5]}')
        result = invoke(runner, "verify", "--model", str(path))
        assert result.exit_code == 2


QUANTUM_CONFIG = {
    "source": "quantum",
    "trials_per_pair": 20000,
    "seed": 77,
    "settings": {
        "a": [1, 0, 0],
        "b": [0.5, -math.sqrt(3) / 2, 0],
        "c": [-0.5, -math.sqrt(3) / 2, 0],
    },
}


class TestSimulateCommand:
    def test_quantum_run_and_outputs(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(QUANTUM_CONFIG))
        out = tmp_path / "out"
        result = invoke(runner, "simulate", str(config), "--out", str(out))
        assert result.exit_code == 0
        assert "violation_sigma=" in result.output
        assert (out / "result.json").exists()
        csv_lines = (out / "result.csv").read_text().strip().split("\n")
        assert csv_lines[0] == "gamma,eta,statistic,se,bound,violation_sigma"
        payload = json.loads((out / "result.json").read_text())
        assert abs(payload["statistic"] - 1.5) < 0.05

    def test_byte_identical_reruns(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(QUANTUM_CONFIG))
        outputs = []
        for name in ("one", "two"):
            out = tmp_path / name
            invoke(runner, "simulate", str(config), "--out", str(out))
            outputs.append(
                ((out / "result.json").read_bytes(), (out / "result.csv").read_bytes())
            )
        assert outputs[0] == outputs[1]

    def test_key_value_config(self, runner, tmp_path):
        config = tmp_path / "config.cfg"
        config.write_text(
            "# minimal key=value config\n"
            "source = quantum\n"
            "trials_per_pair = 5000\n"
            "seed = 3\n"
            "settings.a = [1, 0, 0]\n"
            "settings.b = [0, 1, 0]\n"
            "settings.c = [0, 0, 1]\n"
        )
        result = invoke(runner, "simulate", str(config), "--out", str(tmp_path / "o"), "--json")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert abs(payload["statistic"]) < 0.1  # orthogonal settings: delta ~ 0

    def test_lhv_model_config(self, runner, tmp_path):
        rng = np.random.default_rng(31)
        model = random_perfect_model(rng)
        (tmp_path / "model.json").write_text(model_to_json_str(model))
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {"source": "lhv", "model": "model.json", "trials_per_pair": 50000, "seed": 11}
            )
        )
        result = invoke(runner, "simulate", str(config), "--out", str(tmp_path / "o"), "--json")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["statistic"] <= 1 + 3 * payload["statistic_se"]

    def test_bad_config_key_is_usage_error(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"sourc": "quantum"}))
        result = invoke(runner, "simulate", str(config))
        assert result.exit_code == 2
        assert "sourc" in result.output

    def test_coincident_settings_at_unit_tolerance(self, runner, tmp_path):
        # a.b = 1 + 1.8e-12: the correlation is clamped into [-1, 1]
        near_unit = [1.0000000000009, 0, 0]
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({**QUANTUM_CONFIG, "settings": {"a": near_unit, "b": near_unit, "c": [0, 1, 0]}})
        )
        result = invoke(runner, "simulate", str(config), "--out", str(tmp_path / "o"), "--json")
        assert result.exit_code == 0
        assert json.loads(result.output)["pairs"][0]["correlation"] == -1.0

    def test_non_finite_model_weight_is_usage_error(self, runner, tmp_path):
        rng = np.random.default_rng(31)
        wire = json.loads(model_to_json_str(random_perfect_model(rng)))
        wire["weights"][0] = math.nan
        (tmp_path / "model.json").write_text(json.dumps(wire))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"source": "lhv", "model": "model.json"}))
        result = invoke(runner, "simulate", str(config), "--out", str(tmp_path / "o"))
        assert result.exit_code == 2
        assert "atom 0: non-finite weight" in result.output

    @pytest.mark.parametrize("trials", [True, False, 1.5, "100", 0, -3, 2**63])
    def test_bad_trials_per_pair_is_usage_error(self, runner, tmp_path, trials):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**QUANTUM_CONFIG, "trials_per_pair": trials}))
        result = invoke(runner, "simulate", str(config), "--out", str(tmp_path / "o"))
        assert result.exit_code == 2
        assert "trials_per_pair" in result.output

    def test_trillion_trials_in_bounded_memory(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**QUANTUM_CONFIG, "trials_per_pair": 1e12, "eta": 0.9}))
        # the child reports its own peak RSS on its last stderr line
        script = (
            "import resource, sys\n"
            "from obell.cli import main\n"
            "try:\n"
            "    main(sys.argv[1:])\n"
            "finally:\n"
            "    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
        )
        src = str(Path(obell.__file__).resolve().parent.parent)
        paths = [src, os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
        proc = subprocess.run(
            [sys.executable, "-c", script, "simulate", str(config), "--out", str(tmp_path / "o")],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        peak_bytes = int(proc.stderr.strip().splitlines()[-1])
        if sys.platform != "darwin":  # ru_maxrss is in KiB on Linux, bytes on macOS
            peak_bytes *= 1024
        assert peak_bytes < 200 * 2**20
        payload = json.loads((tmp_path / "o" / "result.json").read_text())
        assert all(p["n_detected"] > 8 * 10**11 for p in payload["pairs"])


class TestSweepCommand:
    def test_analytic_frontier_tracks_feasibility_law(self, runner):
        result = invoke(runner, "sweep", "--gamma-range", "0.7:1.0", "--eta-range", "0.85:1.0", "--step", "0.01")
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert lines[0] == "gamma,eta,bound,feasible"
        rows = [line.split(",") for line in lines[1:]]
        # along each gamma row, the first feasible eta must sit within
        # 4 steps of the analytic frontier 4g + 9e = 12
        by_gamma = {}
        for g, e, b, f in rows:
            by_gamma.setdefault(float(g), []).append((float(e), f == "true"))
        for g, cells in by_gamma.items():
            feas = [e for e, f in cells if f]
            if not feas:
                continue
            frontier = (12 - 4 * g) / 9
            assert abs(min(feas) - frontier) < 4 * 0.01

    def test_paper_example_flip_between_089_and_090(self, runner):
        result = invoke(
            runner, "sweep", "--gamma-range", "0.98:0.98", "--eta-range", "0.85:0.95", "--step", "0.01"
        )
        rows = [line.split(",") for line in result.output.strip().split("\n")[1:]]
        flags = {float(e): f == "true" for _, e, _, f in rows}
        assert not flags[0.89]
        assert flags[0.90]

    def test_empty_range_is_usage_error(self, runner):
        result = invoke(runner, "sweep", "--gamma-range", "0.9:0.5")
        assert result.exit_code == 2

    def test_simulate_columns(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(QUANTUM_CONFIG))
        result = invoke(
            runner,
            "sweep",
            str(config),
            "--gamma-range",
            "0.9:1.0",
            "--eta-range",
            "1.0:1.0",
            "--step",
            "0.1",
            "--simulate",
            "--out",
            str(tmp_path / "o"),
        )
        assert result.exit_code == 0
        lines = (tmp_path / "o" / "sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "gamma,eta,bound,feasible,statistic,se,violation_sigma"
        assert len(lines) == 3
