"""Original Bell inequality toolkit.

Quantum and classical bounds for the three-correlation Bell statistic and
CHSH, certified local-hidden-variable oracles, noisy-model bound
calculators, and a seeded Monte Carlo Bell-test simulator.

The public names below are loaded on first use (PEP 562), so ``import
obell`` and the CLI subcommands that need no numpy never import it.
"""
import importlib

__version__ = "0.1.0"

#: Each submodule and the public names it exports through the package.
_EXPORTS = {
    "core": (
        "CorrelationTriple", "DeterministicStrategy", "HiddenVariableModel",
        "MeasurementSetting", "NoiseParameters", "SettingTriple",
        "make_setting", "validate_model",
    ),
    "bounds": (
        "BoundReport", "chsh_bounds", "feasibility_grid", "ob_bounds", "theorem2_bound",
        "theorem3_bound", "theorem4_bound", "violation_feasible", "white_noise_quantum_value",
    ),
    "quantum": (
        "chsh_statistic", "delta_q", "maximize_chsh", "maximize_delta_q", "ob_statistic",
        "singlet_correlation",
    ),
    "lhv": (
        "classical_ob_maximum", "detection_ob_maximum", "enumerate_strategies",
        "epsilon_ob_maximum", "lhv_conditional_correlation", "lhv_correlation",
        "make_detection_model", "make_epsilon_model",
    ),
    "experiment": ("ExperimentResult", "ExperimentSpec", "run_experiment", "sweep"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_HOME[name]}")
    value = module if name == _HOME[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
