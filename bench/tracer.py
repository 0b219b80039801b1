"""Span tracing around the public functions of each ``obell`` module.

The wrappers are installed from outside the package: every module namespace
that binds a traced function gets the same wrapper, so a call is recorded
once whichever module it goes through. Spans live in memory as
``[name, start, end, parent, op, count]``; a layer's self time is its span's
duration minus the part covered by its child spans.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time


def _size(args, kwargs):
    size = args[2] if len(args) > 2 else kwargs.get("size")
    return 1 if size is None else int(size)


def _trials(args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    return spec.trials_per_pair * (3 if spec.statistic == "ob" else 4)


def _cells(args, kwargs):
    gammas = args[1] if len(args) > 1 else kwargs["gamma_values"]
    etas = args[2] if len(args) > 2 else kwargs["eta_values"]
    return len(gammas) * len(etas)


#: (span name, home module, attribute, work count of one call or None).
#: A class is traced through its ``__init__``.
TARGETS = (
    ("quantum.sample_correlated_outcomes", "obell.quantum", "sample_correlated_outcomes", _size),
    ("quantum.maximize_delta_q", "obell.quantum", "maximize_delta_q", None),
    ("quantum.maximize_chsh", "obell.quantum", "maximize_chsh", None),
    ("experiment.run_experiment", "obell.experiment", "run_experiment", _trials),
    ("experiment.ExperimentSpec", "obell.experiment", "ExperimentSpec", None),
    ("experiment.sweep", "obell.experiment", "sweep", _cells),
    ("core.model_from_json_str", "obell.core", "model_from_json_str", None),
    ("core.validate_model", "obell.core", "validate_model", None),
    ("lhv.model_ob_statistic", "obell.lhv", "model_ob_statistic", None),
    ("lhv.lhv_correlation", "obell.lhv", "lhv_correlation", None),
    ("lhv.lhv_conditional_correlation", "obell.lhv", "lhv_conditional_correlation", None),
    ("lhv.epsilon_ob_maximum", "obell.lhv", "epsilon_ob_maximum", None),
    ("lhv.detection_ob_maximum", "obell.lhv", "detection_ob_maximum", None),
    ("bounds.theorem4_bound", "obell.bounds", "theorem4_bound", None),
    ("bounds.feasibility_grid", "obell.bounds", "feasibility_grid", None),
)

#: CLI subcommand callbacks; ``optimize`` is split by its target argument.
CLI_COMMANDS = ("bounds", "optimize", "verify", "simulate", "sweep")
CLI_SPANS = ("bounds", "optimize_ob", "optimize_chsh", "verify", "simulate", "sweep")


def _optimize_label(args, kwargs):
    return f"cli.optimize_{kwargs.get('target')}"


class Tracer:
    """Records spans of wrapped calls; one instance per traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, name, fn, count=None):
        """``fn`` recording a span per call. ``name`` is a string or a
        function of the call's arguments; ``count`` gives the call's work."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            work = 1 if count is None else count(args, kwargs)
            index = len(spans)
            spans.append([label, time.perf_counter(), None, stack[-1] if stack else None, self.op, work])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, targets=TARGETS) -> None:
        """Wrap every target in every loaded ``obell`` module that binds it.
        A target missing from its home module is recorded as absent."""
        self.absent = []
        replacements = {}
        for name, home, attr, count in targets:
            try:
                original = getattr(importlib.import_module(home), attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            if isinstance(original, type):
                self._set(original, "__init__", self.wrap(name, original.__init__))
            else:
                replacements[id(original)] = (original, self.wrap(name, original, count))
        modules = [m for key, m in sys.modules.items() if key == "obell" or key.startswith("obell.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])
        self._install_cli()

    def _install_cli(self) -> None:
        try:
            commands = importlib.import_module("obell.cli").main.commands
        except (ImportError, AttributeError):
            self.absent.extend("cli." + c for c in CLI_SPANS)
            return
        for command in CLI_COMMANDS:
            if command not in commands:
                self.absent.extend("cli." + c for c in CLI_SPANS if c.startswith(command))
                continue
            label = _optimize_label if command == "optimize" else f"cli.{command}"
            cmd = commands[command]
            self._set(cmd, "callback", self.wrap(label, cmd.callback))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def tracing(self):
        """The wrappers installed for the duration of a ``with`` block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its direct children's
    intervals (clipped to the span)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_, start, end, _, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


_EMPTY = {"calls": 0, "count": 0, "total": 0.0, "self": 0.0, "max": 0.0}


def aggregate(spans) -> dict:
    """Per span name: calls, summed work count, inclusive and self seconds,
    and the longest single call."""
    stats: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        name, start, end, _, _, work = span
        s = stats.setdefault(name, dict(_EMPTY))
        s["calls"] += 1
        s["count"] += work
        s["total"] += end - start
        s["self"] += own
        s["max"] = max(s["max"], end - start)
    return stats


def merge(parts) -> dict:
    """Combine aggregates of separate processes."""
    out: dict[str, dict] = {}
    for part in parts:
        for name, s in part.items():
            o = out.setdefault(name, dict(_EMPTY))
            for key in ("calls", "count", "total", "self"):
                o[key] += s[key]
            o["max"] = max(o["max"], s["max"])
    return out


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(stats: dict, passes: int) -> dict:
    """The per-layer metrics, per pass over the workload's inputs.

    Counts and self times are divided by ``passes``; the ``ns_per_*``,
    ``max_ms`` and ``calls_per_model`` figures are ratios within the run.
    Names that never ran report 0.
    """
    def get(name):
        return stats.get(name, _EMPTY)

    m: dict[str, tuple[float, str]] = {}
    for sub in CLI_SPANS:
        m[f"cli.{sub}.self_s"] = (get(f"cli.{sub}")["self"] / passes, "s")
    draws = get("quantum.sample_correlated_outcomes")
    m["quantum.sample_correlated_outcomes.calls"] = (draws["calls"] / passes, "count")
    m["quantum.sample_correlated_outcomes.draws"] = (draws["count"] / passes, "count")
    m["quantum.sample_correlated_outcomes.self_s"] = (draws["self"] / passes, "s")
    m["quantum.sample_correlated_outcomes.ns_per_draw"] = (_per(draws["total"] * 1e9, draws["count"]), "ns")
    for name in ("quantum.maximize_delta_q", "quantum.maximize_chsh"):
        m[f"{name}.self_s"] = (get(name)["self"] / passes, "s")
    run = get("experiment.run_experiment")
    for name in ("experiment.run_experiment", "experiment.ExperimentSpec"):
        m[f"{name}.calls"] = (get(name)["calls"] / passes, "count")
        m[f"{name}.self_s"] = (get(name)["self"] / passes, "s")
    m["experiment.sweep.cells"] = (get("experiment.sweep")["count"] / passes, "count")
    m["experiment.sweep.self_s"] = (get("experiment.sweep")["self"] / passes, "s")
    m["experiment.trials_simulated"] = (run["count"] / passes, "count")
    m["experiment.ns_per_trial"] = (_per(run["total"] * 1e9, run["count"]), "ns")
    for name in ("core.model_from_json_str", "core.validate_model", "lhv.model_ob_statistic",
                 "lhv.epsilon_ob_maximum", "lhv.detection_ob_maximum", "bounds.theorem4_bound"):
        m[f"{name}.calls"] = (get(name)["calls"] / passes, "count")
        m[f"{name}.self_s"] = (get(name)["self"] / passes, "s")
    m["core.validate_model.calls_per_model"] = (
        _per(get("core.validate_model")["calls"], get("core.model_from_json_str")["calls"]), "ratio")
    for name in ("lhv.lhv_correlation", "lhv.lhv_conditional_correlation"):
        m[f"{name}.calls"] = (get(name)["calls"] / passes, "count")
    m["lhv.detection_ob_maximum.max_ms"] = (get("lhv.detection_ob_maximum")["max"] * 1e3, "ms")
    m["bounds.feasibility_grid.self_s"] = (get("bounds.feasibility_grid")["self"] / passes, "s")
    return m
