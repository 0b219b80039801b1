import gc
import hashlib
import json
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from obell.cli import main
from obell.core import model_to_json_str

from helpers import (
    BAD_MODEL_WIRE,
    BAD_MODEL_WIRE_IDS,
    model_wire_with,
    random_combined_model,
    random_detection_model,
    random_perfect_model,
    run_child,
)


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

    @pytest.mark.parametrize("grid", ["0", "-3", "5"])
    def test_grid_has_no_effect(self, runner, grid):
        # a non-positive grid used to crash the angle search with a traceback
        assert invoke(runner, "optimize", "ob", "--grid", grid).output == invoke(
            runner, "optimize", "ob"
        ).output

    def test_certificate(self, runner):
        ob = json.loads(invoke(runner, "optimize", "ob", "--json").output)["certificate"]
        assert ob["x"] == pytest.approx(0.5, abs=1e-15) and ob["middle"] == 1.5
        chsh = json.loads(invoke(runner, "optimize", "chsh", "--json").output)["certificate"]
        assert chsh["x"] == 0 and chsh["middle"] == 2 * math.sqrt(2)

    def test_value_outside_tolerance_prints_then_fails(self, runner):
        # 2.82842712474619 is one ulp below the float nearest 2*sqrt(2)
        result = invoke(runner, "optimize", "chsh", "--tolerance", "1e-17", "--json")
        assert result.exit_code == 1
        assert json.loads(result.output)["value"] == 2.82842712474619

    @pytest.mark.parametrize("target", ["ob", "chsh"])
    @pytest.mark.parametrize("tolerance", ["nan", "inf"])
    def test_non_finite_tolerance_rejected(self, runner, target, tolerance):
        # both used to exit 0 without checking the optimum at all
        result = invoke(runner, "optimize", target, "--tolerance", tolerance)
        assert result.exit_code == 2
        assert "--tolerance must be finite" in result.output


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
        for atoms in ("0", "-1"):
            result = invoke(runner, "verify", "--atoms", atoms)
            assert result.exit_code == 2
            assert "--atoms must be at least 1" in result.output

    @pytest.mark.parametrize(
        "args, achieved",
        [
            (("--eta", "0.5", "--atoms", "11"), "3"),
            (("--epsilon", "0.3", "--atoms", "20"), "8/5"),
            (("--epsilon", "0.25", "--atoms", "1" + "0" * 400), "3/2"),
        ],
        ids=["eta", "epsilon", "beyond-float"],
    )
    def test_atoms_only_snap(self, runner, args, achieved):
        # past the old caps of 10 and 12 atoms; probe * atoms is rounded exactly,
        # since a float product overflows at 10^400 atoms
        result = invoke(runner, "verify", "--json", *args)
        assert result.exit_code == 0
        assert [c["achieved"] for c in json.loads(result.output)["checks"]] == [achieved]

    def test_old_grid_domain(self, runner):
        # the 145 points the grid searches covered, each at its own --atoms
        points = [("--epsilon", k, n, min(1 + 2 * Fraction(k, n), 3))
                  for n in range(1, 13) for k in range(n + 1)]
        points += [("--eta", k, n, min((4 - 3 * Fraction(k, n)) / Fraction(k, n), 3))
                   for n in range(1, 11) for k in range(1, n + 1)]
        assert len(points) == 145
        for option, k, n, closed in points:
            result = invoke(runner, "verify", "--json", option, repr(k / n), "--atoms", str(n))
            assert result.exit_code == 0
            assert [c["achieved"] for c in json.loads(result.output)["checks"]] == [str(closed)]

    def test_in_process_calls_release_their_streams(self, runner):
        # click.echo's default stream cache kept every call's sys.stdout alive
        for _ in range(20):
            invoke(runner, "verify", "--perfect", "--json")
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(300):
                invoke(runner, "verify", "--perfect", "--json")
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained / 300 < 500

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

    def test_non_object_detect_flag_is_usage_error(self, runner, tmp_path):
        wire = json.loads(model_to_json_str(random_detection_model(np.random.default_rng(5), 4, 3)))
        wire["detect_flag"] = [5]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(wire))
        result = invoke(runner, "verify", "--model", str(path))
        assert result.exit_code == 2
        assert "detect_flag" in result.output

    @pytest.mark.parametrize("where, value, message", BAD_MODEL_WIRE, ids=BAD_MODEL_WIRE_IDS)
    def test_bad_model_wire_is_usage_error(self, runner, tmp_path, where, value, message):
        # a traceback (weight "1/0") or a silent coercion (the rest) once
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_wire_with(where, value)))
        result = invoke(runner, "verify", "--model", str(path))
        assert result.exit_code == 2
        assert message in result.output

    @pytest.mark.parametrize("option", ["--epsilon", "--eta"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_probe_is_usage_error(self, runner, option, value):
        result = invoke(runner, "verify", option, value)
        assert result.exit_code == 2
        assert f"{option} must be finite" in result.output


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

    @pytest.mark.parametrize("where, value, message", BAD_MODEL_WIRE, ids=BAD_MODEL_WIRE_IDS)
    def test_bad_model_wire_is_usage_error(self, runner, tmp_path, where, value, message):
        (tmp_path / "model.json").write_text(json.dumps(model_wire_with(where, value)))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"source": "lhv", "model": "model.json", "trials_per_pair": 100}))
        result = invoke(runner, "simulate", str(config), "--out", str(tmp_path / "o"))
        assert result.exit_code == 2
        assert message in result.output
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize(
        "config, field",
        [
            ({"settings": 5}, "settings must be"),
            ({"statistic": "chsh", "settings": [1, 2, 3, 4]}, "settings[0] must be"),
            ({"settings": {"a": [True, 0, 0], "b": [0, 1, 0], "c": [0, 0, 1]}}, "settings.a must be"),
            ({"settings": {"a": "100", "b": [0, 1, 0], "c": [0, 0, 1]}}, "settings.a must be"),
            ({"settings": {"a": [1, 0, 0], "b": [0, 1, 0], "c": [0, 0, 1], "d": [1, 0, 0]}}, "settings.d"),
            ({"settings": {"a": [10**400, 0, 0], "b": [0, 1, 0], "c": [0, 0, 1]}}, "settings.a: "),
        ],
        ids=["ob-number", "chsh-numbers", "bool-component", "string-vector", "extra-label", "huge-component"],
    )
    def test_malformed_settings_is_usage_error(self, runner, tmp_path, config, field):
        # each used to be coerced or ignored, and ran as (1, 0, 0)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        result = invoke(runner, "simulate", str(path), "--out", str(tmp_path / "o"))
        assert result.exit_code == 2
        assert field in result.output

    def test_key_value_config_value_then_table_is_usage_error(self, runner, tmp_path):
        path = tmp_path / "config.cfg"
        path.write_text("settings = 5\nsettings.a = [1, 0, 0]\n")
        result = invoke(runner, "simulate", str(path), "--out", str(tmp_path / "o"))
        assert result.exit_code == 2
        assert "line 2: settings.a: settings is already set" in result.output

    @pytest.mark.parametrize("trials", [True, False, 1.5, "100", 0, -3, 2**63])
    def test_bad_trials_per_pair_is_usage_error(self, runner, tmp_path, trials):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**QUANTUM_CONFIG, "trials_per_pair": trials}))
        result = invoke(runner, "simulate", str(config), "--out", str(tmp_path / "o"))
        assert result.exit_code == 2
        assert "trials_per_pair" in result.output

    @pytest.mark.parametrize(
        "field, text",
        [
            ("seed", "Infinity"), ("seed", "1.7"), ("eta", "[1]"), ("eta", "true"),
            ("pattern", "[1]"), ("fair_sampling", '"false"'), ("gamma", '"0.5"'),
            ("model", "5"), ("source", "null"), ("fair_sampling", "null"),
            pytest.param("eta", str(10**400), id="eta-10**400"),
            pytest.param("gamma", str(10**400), id="gamma-10**400"),
        ],
    )
    def test_mistyped_config_field_is_usage_error(self, runner, tmp_path, field, text):
        # once coerced (seed 1.7 ran as 1, "false" as True) or a traceback
        config = tmp_path / "config.json"
        config.write_text(f'{{"source": "lhv", "trials_per_pair": 100, "{field}": {text}}}')
        result = invoke(runner, "simulate", str(config), "--out", str(tmp_path / "o"))
        assert result.exit_code == 2
        assert f"{field} must be" in result.output

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
        proc = run_child(script, "simulate", str(config), "--out", str(tmp_path / "o"), timeout=120)
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

    def test_nan_step_is_usage_error(self):
        # NaN passed the step <= 0 check and the grid grew without end
        proc = run_child(
            "import sys\nfrom obell.cli import main\nmain(sys.argv[1:])",
            "sweep", "--step", "nan", "--gamma-range", "1:1", "--eta-range", "1:1",
            cap_memory=True,
        )
        assert proc.returncode == 2
        assert "--step must be finite" in proc.stderr

    def test_infinite_step_is_usage_error(self, runner):
        result = invoke(runner, "sweep", "--step", "inf", "--gamma-range", "1:1", "--eta-range", "1:1")
        assert result.exit_code == 2
        assert "--step must be finite" in result.output

    def test_lhv_config_is_usage_error(self, runner, tmp_path):
        model = random_perfect_model(np.random.default_rng(31))
        (tmp_path / "model.json").write_text(model_to_json_str(model))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"source": "lhv", "model": "model.json"}))
        result = invoke(
            runner, "sweep", str(config), "--simulate", "--gamma-range", "1:1", "--eta-range", "1:1"
        )
        assert result.exit_code == 2
        assert "source: sweeps over gamma need a quantum-family source, got 'lhv'" in result.output

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


def _sha256(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


class TestGoldenBytes:
    """The exact bytes of each subcommand's output, pinned by sha256.

    The hashes were taken from the toolkit when it still imported every
    module eagerly; start-up changes must not move a single byte. The
    ``optimize`` hashes date from when it printed closed-form settings and
    their certificates in place of a numerical search's point. Numbers come
    from numpy and libm on x86-64 Linux, so another platform may legitimately
    differ.
    """

    def _output(self, runner, *args):
        result = invoke(runner, *args)
        assert result.exit_code == 0, result.output
        return result.output

    def test_bounds_point(self, runner):
        out = self._output(runner, "bounds", "--gamma", "0.98", "--eta", "0.9", "--json")
        assert _sha256(out) == "b6e7a617f77a681765b52ecb4c2b712d5926b470eec56e233e065c4b45f5bfd2"

    def test_verify(self, runner):
        out = self._output(runner, "verify", "--json")
        assert _sha256(out) == "d4633afe469a833c16becda64eaefebd5a88fa03ef315d0b6fd71777c27fac4c"

    @pytest.mark.parametrize(
        "target, digest",
        [
            ("ob", "f27275f7fe1a1a769a9490a72d94fbf7cd0e1af2f9b87ecedadd453ea3d337c5"),
            ("chsh", "7ead1f4a7360b95dbdf9220d93d92c7359e3c7ce645c7cf2afa6871ed460424e"),
        ],
        ids=["ob", "chsh"],
    )
    def test_optimize(self, runner, target, digest):
        assert _sha256(self._output(runner, "optimize", target, "--json")) == digest

    def test_simulate(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"source": "quantum", "trials_per_pair": 100000, "seed": 7}))
        out = self._output(runner, "simulate", str(config), "--out", str(tmp_path / "o"), "--json")
        result_json = "1d6c10cf6ada4558870cc34a8efc86f2ca24456c9b2079ffd3bd907f8de6e93c"
        assert _sha256(out) == result_json
        assert _sha256((tmp_path / "o" / "result.json").read_bytes()) == result_json
        assert (
            _sha256((tmp_path / "o" / "result.csv").read_bytes())
            == "3aa52f0ab0cff0ae14a958a4f1f229c3d58854ebdf7cd554f96974860101325e"
        )

    def test_simulated_sweep(self, runner):
        out = self._output(
            runner, "sweep", "--simulate", "--gamma-range", "0.95:1.0", "--eta-range", "0.9:1.0"
        )
        assert len(out.splitlines()) == 67
        assert _sha256(out) == "264f0927c32ed4cdcfcd3920dfc91bc54d43863caa985a6ff29926b0cdbbdbab"

    def test_plain_sweep(self, runner, tmp_path):
        out = self._output(
            runner, "sweep", "--gamma-range", "0.9:1", "--eta-range", "0.85:1",
            "--out", str(tmp_path / "o"),
        )
        digest = "2c755be279413e372eadca5325d23b7621660cbe985cfb1adda85996c1ea6547"
        assert _sha256(out) == digest
        assert _sha256((tmp_path / "o" / "sweep.csv").read_bytes()) == digest

    @staticmethod
    def _combined_model_file(tmp_path):
        """A 6-atom model with both defects: epsilon = 1/6, eta = 5/6."""
        model = random_combined_model(np.random.default_rng(60), 6, 1, 5)
        path = tmp_path / "model.json"
        path.write_text(model_to_json_str(model))
        return path

    @pytest.mark.parametrize(
        "flags, digest",
        [
            ((), "b6485ec2e181661d5a379c889ba5abf370c55f4879e2b37d5cf0e6d28552754d"),
            (("--json",), "64bbd6bc130a2e6665246b4aaff359595ff17e90fd0622dbd1adb83795ab05ed"),
        ],
        ids=["text", "json"],
    )
    def test_verify_model(self, runner, tmp_path, flags, digest):
        model = str(self._combined_model_file(tmp_path))
        assert _sha256(self._output(runner, "verify", "--model", model, *flags)) == digest

    def test_simulate_lhv_non_fair(self, runner, tmp_path):
        self._combined_model_file(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "source": "lhv", "model": "model.json", "fair_sampling": False,
                    "pattern": "e10", "trials_per_pair": 30000, "seed": 5,
                }
            )
        )
        out = self._output(runner, "simulate", str(config), "--out", str(tmp_path / "o"))
        assert _sha256(out) == "648e1af23a9c50a3dbefe1551b46d819ea13c74b00f4cc01bf10d5d524319687"
        written = {name: _sha256((tmp_path / "o" / name).read_bytes()) for name in ("result.json", "result.csv")}
        assert written == {
            "result.json": "40bb014e7017bc40943674276c57e52279e8d9f738cf10c74d6f2c49572f0441",
            "result.csv": "f79a0013ac983d79686aa594e335db83eab7a9643c18a1cc3adb4c8f95954be6",
        }
