"""One in-process workload in a fresh interpreter: monte_carlo or lhv_exact.

    python3 bench/worker.py --workload W --seed N --mode setup|measure|trace
        --workdir DIR [--seconds S]

``setup`` imports what the workload calls and runs one warm-up op (the
parent times the whole process). ``measure`` runs the closed loop untraced;
``trace`` alternates untraced and traced passes. The result is one JSON
line on standard output.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import inputs
import measure
import reference

# The workloads call obell through module attributes, never through names
# bound here, so that the tracer's wrappers on those modules see every call.

#: Trials per pair of a monte_carlo op, criterion 7's size.
MC_TRIALS = 1_000_000
#: Distinct models in the lhv_exact pool (a third per family).
MODEL_POOL = 1500


def monte_carlo(seed: int, workdir: Path, full: bool):
    """run_experiment at 10^6 trials per pair, cycling three specs: the
    quantum optimum, white noise at the feasibility point, and a non-fair
    lhv model read from wire JSON."""
    from obell import core, experiment

    wire = inputs.monte_carlo_model(seed)
    path = workdir / "model.json"
    path.write_text(json.dumps(wire))
    model = core.model_from_json_str(path.read_text())
    settings = core.setting_triple_from_json(inputs.OPTIMAL_TRIPLE)
    seeds = inputs.op_seeds(seed)
    kinds = (
        ({"source": "quantum"}, reference.QUANTUM_OB, None),
        ({"source": "quantum_white_noise", "gamma": 0.98, "eta": 0.9},
         reference.QUANTUM_OB * Fraction("0.98"), None),
        ({"source": "lhv", "fair_sampling": False, "model": model, "pattern": "e10"},
         reference.ob_statistic(wire, "e10", True),
         reference.combined_bound(Fraction(1, 6), Fraction(5, 6))),
    )

    def op(kwargs, expected, bound):
        def call():
            spec = experiment.ExperimentSpec(
                settings=settings, trials_per_pair=MC_TRIALS, seed=next(seeds), **kwargs)
            return experiment.run_experiment(spec)
        return call, lambda result: reference.check_experiment(result, expected, bound)

    return [op(*kind) for kind in kinds]


def lhv_models(seed: int, workdir: Path, full: bool):
    """Parse a criterion-6 model from wire JSON and compute its statistic."""
    from obell import core, lhv

    def op(case):
        def call():
            model = core.model_from_json_str(case.text)
            return lhv.model_ob_statistic(model, pattern=case.pattern, conditional=case.conditional)
        return call, lambda statistic: reference.check_model_statistic(case, statistic)

    return [op(case) for case in inputs.model_cases(seed, MODEL_POOL if full else 3)]


def oracle_grid(seed: int, workdir: Path, full: bool):
    """``verify --json`` at one exact grid point, through the CLI entry point."""
    from click.testing import CliRunner
    from obell.cli import main  # the tracer wraps the subcommand callbacks

    runner = CliRunner()
    points = inputs.oracle_points()
    random.Random(seed).shuffle(points)

    def op(args, expected):
        def call():
            result = runner.invoke(main, args)
            return result.exit_code, result.stdout
        return call, lambda out: reference.check_oracle(out[0], out[1], expected)

    return [op(*point) for point in (points if full else points[:1])]


def lhv_exact(seed: int, workdir: Path, full: bool):
    """One pass is the model pool, then the 145 oracle points: the model
    representation and the exact oracles are the two exact-arithmetic
    layers, and one workload keeps the benchmark short enough to run long."""
    return lhv_models(seed, workdir, full) + oracle_grid(seed, workdir, full)


WORKLOADS = {"monte_carlo": monte_carlo, "lhv_exact": lhv_exact}


def _check_source(root: Path) -> None:
    import obell

    expected = root / "src" / "obell"
    if Path(obell.__file__).resolve().parent != expected.resolve():
        sys.exit(f"obell imported from {obell.__file__}, not from {expected}")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()

    ops = WORKLOADS[args.workload](args.seed, args.workdir, full=args.mode != "setup")
    _check_source(Path(__file__).resolve().parent.parent)
    call, check = ops[0]
    reason = check(call())
    if reason is not None:
        sys.exit(f"warm-up op failed: {reason}")
    if args.mode == "setup":
        return

    if args.mode == "measure":
        print(json.dumps(measure.closed_loop(ops, args.seconds).summary()))
        return

    import tracer

    spans = tracer.Tracer()

    def mark(i):
        spans.op += 1

    untraced, traced = measure.paired_loops(ops, ops, args.seconds, spans.tracing, mark)
    passes = traced.attempted // len(ops)
    print(json.dumps({
        "untraced": untraced.summary(),
        "traced": traced.summary(),
        "layers": tracer.layer_metrics(tracer.aggregate(spans.spans), passes),
        "absent": spans.absent,
    }))


if __name__ == "__main__":
    main()
