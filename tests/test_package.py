"""The package's import floor and its public API.

Which heavy modules a call loads is checked in child interpreters, so the
modules this test process has already imported do not count. Nothing here
measures time.
"""
import importlib
import json

import pytest

import obell

from helpers import run_child

#: ``obell.__all__`` as it was when the package imported every module eagerly,
#: less ``TrialRecord`` and ``sample_singlet_outcomes``, which only tests used,
#: and ``ObAngles`` and ``delta_q_parametrized``, which only the numerical
#: maximizer's angle search used.
PUBLIC_NAMES = [
    "BoundReport", "CorrelationTriple", "DeterministicStrategy", "ExperimentResult",
    "ExperimentSpec", "HiddenVariableModel", "MeasurementSetting", "NoiseParameters",
    "SettingTriple", "bounds", "chsh_bounds", "chsh_statistic",
    "classical_ob_maximum", "core", "delta_q", "detection_ob_maximum",
    "enumerate_strategies", "epsilon_ob_maximum", "experiment", "feasibility_grid", "lhv",
    "lhv_conditional_correlation", "lhv_correlation", "make_detection_model",
    "make_epsilon_model", "make_setting", "maximize_chsh", "maximize_delta_q", "ob_bounds",
    "ob_statistic", "quantum", "run_experiment", "singlet_correlation", "sweep",
    "theorem2_bound", "theorem3_bound", "theorem4_bound", "validate_model",
    "violation_feasible", "white_noise_quantum_value",
]
SUBMODULES = ("bounds", "core", "experiment", "lhv", "quantum")

#: Prints, as the child's last stderr line, which heavy modules it loaded.
_REPORT = (
    "import atexit, sys\n"
    "atexit.register(lambda: print('loaded:', *sorted(m for m in ('numpy', 'scipy')"
    " if m in sys.modules), file=sys.stderr))\n"
)


def heavy_modules_after(code: str, *args: str) -> set[str]:
    proc = run_child(_REPORT + code, *args)
    last = proc.stderr.splitlines()[-1]
    assert last.startswith("loaded:"), proc.stderr
    return set(last.split()[1:])


def heavy_modules_after_cli(*args: str) -> set[str]:
    return heavy_modules_after("import sys\nfrom obell.cli import main\nmain(sys.argv[1:])", *args)


class TestImportFloor:
    @pytest.mark.parametrize("statement", ["import obell", "import obell.cli"])
    def test_import_loads_neither_numpy_nor_scipy(self, statement):
        assert heavy_modules_after(statement) == set()

    @pytest.mark.parametrize(
        "args",
        [
            ("bounds", "--gamma", "0.98", "--eta", "0.9"), ("verify", "--perfect"), ("sweep",),
            ("optimize", "ob"), ("optimize", "chsh"),
        ],
        ids=["bounds", "verify", "sweep", "optimize-ob", "optimize-chsh"],
    )
    def test_exact_subcommands_load_neither(self, args):
        assert heavy_modules_after_cli(*args) == set()

    def test_simulate_loads_numpy_only(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"trials_per_pair": 1000}))
        out = str(tmp_path / "o")
        assert heavy_modules_after_cli("simulate", str(config), "--out", out) == {"numpy"}


class TestPublicApi:
    def test_names_unchanged(self):
        assert sorted(obell.__all__) == PUBLIC_NAMES

    def test_each_name_is_its_home_modules_object(self):
        for name in PUBLIC_NAMES:
            value = getattr(obell, name)
            if name in SUBMODULES:
                assert value is importlib.import_module(f"obell.{name}")
            else:
                assert value is getattr(importlib.import_module(value.__module__), name)
                assert value.__module__.startswith("obell.")

    def test_star_import(self):
        namespace = {}
        exec("from obell import *", namespace)
        assert set(PUBLIC_NAMES) <= set(namespace)

    def test_submodule_import(self):
        from obell import core, experiment

        assert experiment.run_experiment is obell.run_experiment
        assert core.make_setting is obell.make_setting

    def test_dir_lists_public_names(self):
        assert set(PUBLIC_NAMES) <= set(dir(obell))

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            obell.no_such_name
        assert not hasattr(obell, "__no_such_dunder__")
