"""Command-line surface: closed-form bounds, certified quantum optima,
certified LHV oracles, single simulations, and (gamma, eta) sweeps.

Exit codes: 0 success / all checks pass, 1 assertion failure (a bound was
exceeded, or an optimum differs from its known value by more than
--tolerance), 2 usage or configuration error.

numpy loads only with ``experiment``, which is imported inside the
subcommands that simulate; ``bounds``, ``optimize``, ``verify`` and a plain
``sweep`` start without it.
"""
from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import click

from . import bounds as bounds_mod
from . import lhv, quantum
from .core import (
    LABELS,
    NoiseParameters,
    model_from_json_str,
    setting_from_json,
    setting_triple_from_json,
    validate_model,
)


def _fmt(x: float) -> str:
    """Human-readable numbers: 10 significant digits."""
    return f"{x:.10g}"


def _echo(text: str = "", nl: bool = True, err: bool = False) -> None:
    # click.echo's default stream is cached per sys.stdout and keeps it alive
    click.echo(text, nl=nl, file=sys.stderr if err else sys.stdout)


def _emit_json(obj) -> None:
    _echo(json.dumps(obj, indent=2, sort_keys=True))


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


@click.group()
def main() -> None:
    """Original Bell inequality toolkit."""


# ---------------------------------------------------------------------------
# bounds


@main.command("bounds")
@click.option("--gamma", type=float, default=None, help="Anti-correlation fraction 1-epsilon.")
@click.option("--eta", type=float, default=None, help="Joint detection efficiency.")
@click.option("--json", "as_json", is_flag=True, help="Emit structured JSON.")
def cmd_bounds(gamma, eta, as_json):
    """Print classical/quantum bounds, violation fractions, and thresholds."""
    ob = bounds_mod.ob_bounds()
    chsh = bounds_mod.chsh_bounds()
    payload = {
        "ob": {"classical": ob.classical_bound, "quantum": ob.quantum_bound, "fraction": ob.fraction},
        "chsh": {
            "classical": chsh.classical_bound,
            "quantum": chsh.quantum_bound,
            "fraction": chsh.fraction,
        },
        "thresholds": {
            "gamma_min": 0.75,
            "eta_min": 8 / 9,
            "feasibility": "4*gamma + 9*eta > 12",
        },
    }
    if gamma is not None or eta is not None:
        g = 1.0 if gamma is None else gamma
        e = 1.0 if eta is None else eta
        try:
            params = NoiseParameters.from_gamma(g, e)
        except ValueError as exc:
            raise click.UsageError(str(exc))
        payload["point"] = {
            "gamma": g,
            "eta": e,
            "bound": bounds_mod.theorem4_bound(params),
            "feasible": bounds_mod.violation_feasible(params),
        }
    if as_json:
        _emit_json(payload)
        return
    _echo("inequality  classical  quantum       fraction")
    _echo(f"ob          {_fmt(ob.classical_bound):<10} {_fmt(ob.quantum_bound):<13} {_fmt(ob.fraction)}")
    _echo(
        f"chsh        {_fmt(chsh.classical_bound):<10} {_fmt(chsh.quantum_bound):<13} {_fmt(chsh.fraction)}"
    )
    _echo("violation thresholds: gamma > 0.75 (eta=1), eta > 8/9 = 0.8888888889 (gamma=1)")
    _echo("feasibility region: 4*gamma + 9*eta > 12")
    if "point" in payload:
        p = payload["point"]
        _echo(
            f"gamma={_fmt(p['gamma'])} eta={_fmt(p['eta'])}: "
            f"bound={_fmt(p['bound'])} feasible={'true' if p['feasible'] else 'false'}"
        )


# ---------------------------------------------------------------------------
# optimize


@main.command("optimize")
@click.argument("target", type=click.Choice(["ob", "chsh"]))
@click.option("--tolerance", type=float, default=1e-6, show_default=True)
@click.option("--grid", type=int, default=None,
              help="Accepted for compatibility; has no effect (the optima are in closed form).")
@click.option("--json", "as_json", is_flag=True)
def cmd_optimize(target, tolerance, grid, as_json):
    """Print the settings attaining the chosen statistic's quantum maximum,
    the value there and its Cauchy-Schwarz certificate, and check the value
    against the known maximum."""
    if tolerance <= 0:
        raise click.UsageError("tolerance must be positive")
    if not math.isfinite(tolerance):
        raise click.UsageError(f"--tolerance must be finite, got {tolerance}")
    if target == "ob":
        triple, value = quantum.maximize_delta_q()
        settings = {lab: triple.get(lab) for lab in LABELS}
        x = triple.b.dot(triple.c)
        middle, analytic = quantum.ob_chain_bound(x), quantum.QUANTUM_OB_MAX
        chain = "delta <= sqrt(2-2x) + x <= 3/2, x = <b|c>"
    else:
        four, value = quantum.maximize_chsh()
        settings = dict(zip(("a", "a2", "b", "b2"), four))
        x = settings["b"].dot(settings["b2"])
        middle, analytic = quantum.chsh_chain_bound(x), quantum.QUANTUM_CHSH_MAX
        chain = "S <= sqrt(2-2x) + sqrt(2+2x) <= 2*sqrt(2), x = <b|b2>"
    vectors = {lab: list(s.axis) for lab, s in settings.items()}
    payload = {
        "target": target,
        "value": value,
        "analytic": analytic,
        "settings": vectors,
        "certificate": {"chain": chain, "x": x, "middle": middle},
    }
    if as_json:
        _emit_json(payload)
    else:
        _echo(f"{target} maximum: {_fmt(value)} (analytic {_fmt(analytic)})")
        for lab, vec in vectors.items():
            _echo(f"  {lab} = ({', '.join(_fmt(v) for v in vec)})")
        _echo(f"  certificate: {chain}; x = {_fmt(x)}, middle term {_fmt(middle)}")
    if abs(value - analytic) > tolerance:
        sys.exit(1)


# ---------------------------------------------------------------------------
# verify


def _snap(value: float, atoms: int, option: str) -> Fraction:
    """``value`` rounded, exactly, to the nearest multiple of 1/atoms."""
    if not math.isfinite(value):
        raise click.UsageError(f"--{option} must be finite, got {value}")
    return Fraction(round(Fraction(value) * atoms), atoms)


@main.command("verify")
@click.option("--perfect", is_flag=True, help="Enumerate the 8 perfect-anticorrelation strategies.")
@click.option("--unconstrained", is_flag=True, help="Enumerate all 64 strategies (control arm).")
@click.option("--epsilon", "epsilons", type=float, multiple=True, help="Anti-correlation defects to probe.")
@click.option("--eta", "etas", type=float, multiple=True, help="Detection efficiencies to probe.")
@click.option("--atoms", type=int, default=9, show_default=True,
              help="Snap each probe to the nearest multiple of 1/atoms.")
@click.option("--model", "model_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--json", "as_json", is_flag=True)
def cmd_verify(perfect, unconstrained, epsilons, etas, atoms, model_path, as_json):
    """Run the LHV oracles and assert every classical bound.

    Each epsilon/eta probe is snapped to the nearest multiple of 1/atoms, an
    exact rational; the oracle there is exact over all models (a dual
    certificate plus a witness model attaining it). With no selection flags,
    a default battery runs everything.
    """
    if atoms < 1:
        raise click.UsageError(f"--atoms must be at least 1, got {atoms}")
    run_all = not (perfect or unconstrained or epsilons or etas or model_path)
    if run_all:
        perfect = unconstrained = True
        epsilons = (0.0, 0.25, 0.5)
        etas = (1.0, 8 / 9)

    checks = []  # (name, achieved str, bound str, ok)

    if perfect:
        strategies = lhv.enumerate_strategies(True)
        values = [lhv.strategy_ob_statistic(s) for s in strategies]
        ok = len(strategies) == 8 and all(v == 1 for v in values)
        checks.append(("perfect enumeration (8 strategies)", str(max(values)), "1", ok))
    if unconstrained:
        maximum = lhv.classical_ob_maximum(False)
        # control arm: no bound asserted, recorded for reference
        checks.append(("unconstrained enumeration (64 strategies)", str(maximum), "3 (control)", True))
    oracles = {  # option: (check name, domain, oracle, closed-form bound)
        "epsilon": ("epsilon oracle eps", "[0, 1]", lhv.epsilon_ob_maximum, bounds_mod.theorem2_bound),
        "eta": ("detection oracle eta", "(0, 1]", lhv.detection_ob_maximum, bounds_mod.theorem3_bound),
    }
    for option, value in [("epsilon", v) for v in epsilons] + [("eta", v) for v in etas]:
        name, domain, oracle, bound_at = oracles[option]
        snapped = _snap(value, atoms, option)
        try:
            bound = bound_at(snapped)
        except ValueError:  # outside the bound's domain
            raise click.UsageError(f"{option} {value} outside {domain}")
        achieved = oracle(snapped)
        checks.append((f"{name}={snapped} atoms={atoms}", str(achieved), str(bound), achieved <= bound))

    witness = None
    if model_path:
        try:
            text = Path(model_path).read_text()
            model = model_from_json_str(text)
        except (ValueError, json.JSONDecodeError) as exc:
            raise click.UsageError(f"cannot read model file: {exc}")
        violations = validate_model(model)
        if violations:
            raise click.UsageError("invalid model: " + "; ".join(violations))
        try:
            eps_hat, eta_hat = model.epsilon_hat, model.eta_hat
        except ValueError as exc:  # detection that depends on the pair, or detects nothing
            raise click.UsageError(f"invalid model: {exc}")
        delta = float(lhv.model_ob_statistic(model, pattern="e7"))
        bound2 = bounds_mod.theorem2_bound(eps_hat)
        checks.append(
            (f"model file (pattern e7, eps_hat={_fmt(eps_hat)})", _fmt(delta), _fmt(bound2), delta <= bound2 + 1e-9)
        )
        if eta_hat < 1 - 1e-12:
            delta_t = float(lhv.model_ob_statistic(model, pattern="e10", conditional=True))
            bound4 = bounds_mod.theorem4_bound(NoiseParameters(epsilon=eps_hat, eta=eta_hat))
            name = f"model file conditional (pattern e10, eta_hat={_fmt(eta_hat)})"
            checks.append((name, _fmt(delta_t), _fmt(bound4), delta_t <= bound4 + 1e-9))
        if not all(c[3] for c in checks):
            witness = json.loads(text)

    all_ok = all(ok for _, _, _, ok in checks)
    if as_json:
        _emit_json(
            {
                "checks": [
                    {"name": n, "achieved": a, "bound": b, "pass": ok} for n, a, b, ok in checks
                ],
                "pass": all_ok,
                "witness": witness,
            }
        )
    else:
        for name, achieved, bound, ok in checks:
            status = "pass" if ok else "FAIL"
            _echo(f"[{status}] {name}: achieved {achieved}, bound {bound}")
        if witness is not None:
            _echo("witnessing model:")
            _echo(json.dumps(witness, indent=2, sort_keys=True))
    if not all_ok:
        sys.exit(1)


# ---------------------------------------------------------------------------
# simulate / sweep configuration


def _parse_config_text(text: str) -> dict:
    """JSON is canonical; a minimal key=value subset (dotted keys, JSON
    scalar values) is accepted as a fallback."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return json.loads(text)
    cfg: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value.strip("\"'")
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ValueError(f"line {lineno}: {key}: {part} is already set to a value")
        node[parts[-1]] = parsed
    return cfg


#: The type of each scalar config field (int: a whole number), and its default.
_CONFIG_FIELDS = {
    "source": (str, "quantum"),
    "statistic": (str, "ob"),
    "pattern": (str, "e7"),
    "model": (str, None),
    "fair_sampling": (bool, True),
    "gamma": (float, 1.0),
    "eta": (float, 1.0),
    "trials_per_pair": (int, 100_000),
    "seed": (int, 0),
}
_TYPE_NAMES = {str: "a string", bool: "true or false", float: "a number", int: "a whole number"}


def _config_field(cfg: dict, key: str):
    """``cfg[key]``, or the field's default, checked against the field's type
    and never coerced: a bool is not a number, nor a string a bool. A whole
    number may be an integral float (``1e6``). ``ExperimentSpec`` checks ranges.
    """
    kind, default = _CONFIG_FIELDS[key]
    value = cfg.get(key, default)
    if kind in (float, int):
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        ok = ok and (kind is float or isinstance(value, int) or value.is_integer())
    else:
        ok = isinstance(value, kind) or (value is None and default is None)
    if not ok:
        raise ValueError(f"{key} must be {_TYPE_NAMES[kind]}, got {value!r}")
    try:
        return value if kind in (str, bool) else kind(value)
    except OverflowError:  # a whole number beyond float range, e.g. 10**400
        raise ValueError(f"{key} must be a number within float range, got {value!r}") from None


def _config_settings(raw, statistic: str):
    """The config's ``settings``: 4 vectors (a, a', b, b') for chsh, else an
    object with exactly the labels a, b, c; the optimal triple by default."""
    if statistic == "chsh":
        if not isinstance(raw, list) or len(raw) != 4:
            raise ValueError(f"settings: chsh needs a list of 4 vectors, got {raw!r}")
        return tuple(setting_from_json(v, f"settings[{i}]") for i, v in enumerate(raw))
    return quantum.OB_SETTINGS if raw is None else setting_triple_from_json(raw)


def _spec_from_config(cfg: dict, base_dir: Path, seed_override=None):
    """The ``ExperimentSpec`` a parsed config describes."""
    from . import experiment as exp_mod

    unknown = sorted(set(cfg) - set(_CONFIG_FIELDS) - {"settings"})
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    fields = {key: _config_field(cfg, key) for key in _CONFIG_FIELDS}

    settings = _config_settings(cfg.get("settings"), fields["statistic"])

    model, model_ref = None, fields.pop("model")
    if fields["source"] == "lhv":
        if model_ref is None:
            raise ValueError("model: required for source lhv (path to model JSON)")
        # base_dir / an absolute path is that path
        model = model_from_json_str((base_dir / model_ref).read_text())

    if seed_override is not None:
        fields["seed"] = seed_override
    return exp_mod.ExperimentSpec(settings=settings, model=model, **fields)


def _load_spec(config_path: str, seed_override=None):
    path = Path(config_path)
    try:
        cfg = _parse_config_text(path.read_text())
        return _spec_from_config(cfg, path.parent, seed_override)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"config {config_path}: {exc}")


@main.command("simulate")
@click.argument("config", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=".", show_default=True)
@click.option("--seed", type=int, default=None, help="Override the config's master seed.")
@click.option("--json", "as_json", is_flag=True)
def cmd_simulate(config, out_dir, seed, as_json):
    """Run one seeded experiment; write result.json and result.csv."""
    from . import experiment as exp_mod

    spec = _load_spec(config, seed_override=seed)
    try:
        result = exp_mod.run_experiment(spec)
    except RuntimeError as exc:
        _echo(f"simulation failed: {exc}", err=True)
        sys.exit(1)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = exp_mod.result_to_json(result)
    payload["gamma"] = spec.gamma
    payload["eta"] = spec.eta
    _atomic_write(out / "result.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
    csv_text = (
        exp_mod.SUMMARY_CSV_HEADER + "\n" + exp_mod.summary_csv_row(spec.gamma, spec.eta, result) + "\n"
    )
    _atomic_write(out / "result.csv", csv_text)

    if as_json:
        _emit_json(payload)
    else:
        _echo(
            f"statistic={_fmt(result.statistic)} se={_fmt(result.statistic_se)} "
            f"bound={_fmt(result.bound_used)} violation_sigma={_fmt(result.violation_sigma)}"
        )


def _parse_range(text: str, name: str) -> tuple[float, float]:
    try:
        lo_s, _, hi_s = text.partition(":")
        lo, hi = float(lo_s), float(hi_s if hi_s else lo_s)
    except ValueError:
        raise click.UsageError(f"--{name}-range must look like LO:HI")
    if hi < lo:
        raise click.UsageError(f"--{name}-range is empty ({text})")
    return lo, hi


@main.command("sweep")
@click.argument("config", type=click.Path(exists=True, dir_okay=False), required=False)
@click.option("--gamma-range", default="0:1", show_default=True)
@click.option("--eta-range", default="0:1", show_default=True)
@click.option("--step", type=float, default=0.01, show_default=True)
@click.option("--simulate", "do_simulate", is_flag=True, help="Add empirical columns from Monte Carlo runs.")
@click.option("--seed", type=int, default=None, help="Override the master seed.")
@click.option("--threads", type=int, default=1, show_default=True,
              help="Accepted for compatibility; has no effect (cells run in one thread).")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None)
@click.option("--json", "as_json", is_flag=True)
def cmd_sweep(config, gamma_range, eta_range, step, do_simulate, seed, threads, out_dir, as_json):
    """Tabulate the (gamma, eta) feasibility region, optionally with
    empirical sweep columns."""
    g_lo, g_hi = _parse_range(gamma_range, "gamma")
    e_lo, e_hi = _parse_range(eta_range, "eta")
    if not math.isfinite(step):
        raise click.UsageError(f"--step must be finite, got {step}")
    try:
        cells = bounds_mod.feasibility_grid((g_lo, g_hi), (e_lo, e_hi), step)
    except ValueError as exc:
        raise click.UsageError(str(exc))

    rows = [asdict(c) for c in cells]  # gamma, eta, bound, feasible
    header = "gamma,eta,bound,feasible"

    if do_simulate:
        from . import experiment as exp_mod

        if config is not None:
            template = _load_spec(config, seed_override=seed)
        else:
            template = exp_mod.ExperimentSpec(
                source="quantum",
                settings=quantum.OB_SETTINGS,
                trials_per_pair=100_000,
                seed=seed if seed is not None else 0,
            )
        gammas = sorted({c.gamma for c in cells})
        etas = sorted({c.eta for c in cells})
        try:
            sim = {(s.gamma, s.eta): s for s in exp_mod.sweep(template, gammas, etas)}
        except ValueError as exc:  # a config whose source cannot be swept
            raise click.UsageError(f"config {config}: {exc}")
        header += ",statistic,se,violation_sigma"
        for row in rows:
            cell = sim[(row["gamma"], row["eta"])]
            if cell.result is None:
                row["statistic"] = row["se"] = row["violation_sigma"] = math.nan
                row["error"] = cell.error
            else:
                row["statistic"] = cell.result.statistic
                row["se"] = cell.result.statistic_se
                row["violation_sigma"] = cell.result.violation_sigma

    lines = [header]
    for row in rows:
        fields = [f"{row['gamma']:.6f}", f"{row['eta']:.6f}", f"{row['bound']:.6f}",
                  "true" if row["feasible"] else "false"]
        if do_simulate:
            fields += [f"{row['statistic']:.10g}", f"{row['se']:.10g}", f"{row['violation_sigma']:.10g}"]
        lines.append(",".join(fields))
    csv_text = "\n".join(lines) + "\n"

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _atomic_write(out / "sweep.csv", csv_text)
    if as_json:
        _emit_json({"rows": rows})
    else:
        _echo(csv_text, nl=False)


if __name__ == "__main__":
    main()
