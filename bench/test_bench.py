"""Self-tests of the benchmark's own arithmetic and checks.

    python3 -m pytest bench -q
"""
import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import inputs
import measure
import reference
import tracer
from run import parse_importtime


# ---------------------------------------------------------------------------
# Percentile rule


def test_p90_needs_ten_samples_beyond_it():
    assert measure.tail_percentile(list(range(99)), 0.9) is None
    values = list(range(1, 101))
    p90 = measure.tail_percentile(values, 0.9)
    assert p90 == 90
    assert sum(v > p90 for v in values) == 10


def test_summary_omits_p90_below_100_ops():
    result = measure.LoopResult(99)
    result.durations = [0.001] * 99
    assert result.summary()["op_p90_ms"] is None
    result = measure.LoopResult(100)
    result.durations = [0.001] * 100
    assert result.summary()["op_p90_ms"] == 1.0


def test_summary_uses_each_ops_best_time_over_passes():
    result = measure.LoopResult(3)
    # two passes of three ops; the second pass ran in a slow phase
    result.durations = [0.001, 0.004, 0.002, 0.003, 0.008, 0.001]
    assert result.best() == [0.001, 0.004, 0.001]
    summary = result.summary()
    assert summary["passes"] == 2
    assert summary["ops_per_s"] == 3 / 0.006
    assert summary["op_p50_ms"] == 1.0


# ---------------------------------------------------------------------------
# Spans and self time


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, 1]


def test_self_time_subtracts_nested_children():
    spans = [
        _span("outer", 0.0, 10.0, None),
        _span("a", 1.0, 3.0, 0),
        _span("b", 4.0, 6.0, 0),
        _span("leaf", 4.5, 5.0, 2),
    ]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.5, 0.5]
    stats = tracer.aggregate(spans)
    assert stats["outer"]["self"] == 6.0 and stats["outer"]["total"] == 10.0
    assert stats["b"]["max"] == 2.0


def test_self_time_counts_overlapping_children_once():
    spans = [_span("p", 0.0, 4.0, None), _span("c", 1.0, 3.0, 0), _span("c", 2.0, 5.0, 0)]
    assert tracer.self_times(spans)[0] == 1.0


def test_wrapped_calls_record_parent_and_self_time():
    t = tracer.Tracer()
    inner = t.wrap("inner", lambda: sum(range(1000)))
    outer = t.wrap("outer", lambda: inner() + inner())
    outer()
    names = [s[0] for s in t.spans]
    assert names == ["outer", "inner", "inner"]
    assert [s[3] for s in t.spans] == [None, 0, 0]
    stats = tracer.aggregate(t.spans)
    assert stats["inner"]["calls"] == 2
    assert 0 <= stats["outer"]["self"] <= stats["outer"]["total"] - stats["inner"]["total"] + 1e-9


def test_install_wraps_every_binding_and_uninstalls():
    from obell import cli, core, experiment, lhv

    original = core.validate_model
    t = tracer.Tracer()
    t.install(tracer.TARGETS + (("core.gone", "obell.core", "no_such_function", None),))
    try:
        assert {core.validate_model, lhv.validate_model, experiment.validate_model,
                cli.validate_model} == {core.validate_model}
        assert core.validate_model is not original
        wire = inputs.combined_model(random.Random(1), 4, 1, 3)
        model = core.model_from_json_str(json.dumps(wire))
        lhv.model_ob_statistic(model, pattern="e10", conditional=True)
    finally:
        t.uninstall()
    assert core.validate_model is original and lhv.validate_model is original
    assert t.absent == ["core.gone"]
    stats = tracer.aggregate(t.spans)
    assert stats["lhv.model_ob_statistic"]["calls"] == 1
    assert stats["lhv.lhv_conditional_correlation"]["calls"] == 3
    metrics = tracer.layer_metrics(stats, passes=1)
    assert metrics["core.validate_model.calls_per_model"] == (3.0, "ratio")


# ---------------------------------------------------------------------------
# Reference arithmetic


def test_reference_statistic_of_a_perfect_strategy_is_one():
    model = inputs.model_wire([1.0], [{"a": 1, "b": 1, "c": 1}], {})
    assert reference.ob_statistic(model, "e7", conditional=False) == 1


def test_oracle_grid_has_145_points_at_the_closed_form_capped_at_3():
    points = inputs.oracle_points()
    assert len(points) == 145
    assert all(expected <= 3 for _, expected in points)
    assert (["verify", "--json", "--eta", repr(1 / 2), "--atoms", "2"], Fraction(3)) in points


def test_parse_importtime_counts_outermost_scipy_modules():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:       400 |        700 |     scipy.optimize",
        "import time:        50 |       1000 |   obell.quantum",
        "import time:        10 |       1010 | obell",
        "import time:        20 |       1100 | obell.cli",
    ])
    assert parse_importtime(text) == {
        "import.obell_s": 0.00101, "import.obell_cli_s": 0.0011, "import.scipy_s": 0.001}


# ---------------------------------------------------------------------------
# Every check can fail, and a failure raises failed_ratio


def test_model_checks_fail_on_wrong_statistic_or_bound():
    case = inputs.model_cases(seed=5, count=3)[2]
    assert reference.check_model_statistic(case, case.reference) is None
    assert reference.check_model_statistic(case, case.reference + Fraction(1, 10**9)) is not None
    case.bound = case.reference - 1
    assert "above bound" in reference.check_model_statistic(case, case.reference)
    floats = inputs.model_cases(seed=5, count=1)[0]
    assert reference.check_model_statistic(floats, float(floats.reference) + 1e-12) is None
    assert reference.check_model_statistic(floats, float(floats.reference) + 1e-6) is not None


def test_experiment_check_fails_outside_five_sigma_or_on_wrong_bound():
    ok = SimpleNamespace(statistic=1.501, statistic_se=0.001, bound_used=2.2)
    assert reference.check_experiment(ok, Fraction(3, 2), Fraction(11, 5)) is None
    far = SimpleNamespace(statistic=1.506, statistic_se=0.001, bound_used=2.2)
    assert reference.check_experiment(far, Fraction(3, 2)) is not None
    assert "bound_used" in reference.check_experiment(ok, Fraction(3, 2), Fraction(11, 4))


def test_oracle_check_fails_on_wrong_achieved_or_exit_code():
    out = json.dumps({"checks": [{"achieved": "3/2"}], "pass": True})
    assert reference.check_oracle(0, out, Fraction(3, 2)) is None
    assert reference.check_oracle(0, out, Fraction(5, 3)) is not None
    assert reference.check_oracle(1, out, Fraction(3, 2)) is not None
    assert reference.check_oracle(0, "not json", Fraction(3, 2)) is not None


def test_cli_checks_fail_on_exit_code_output_or_values():
    rows = "\n".join(["gamma,eta,bound,feasible,statistic,se,violation_sigma"] + ["1,1,1,true,1,1,1"] * 66)
    assert reference.check_cli("sweep", 0, rows) is None
    assert reference.check_cli("sweep", 0, rows.rsplit("\n", 1)[0]) is not None
    assert reference.check_cli("sweep", 0, rows.replace("1,1,1\n", "nan,nan,nan\n", 1)) is not None
    assert reference.check_cli("sweep", 2, rows) is not None
    assert reference.check_cli("verify", 0, "{") is not None
    assert reference.check_cli("verify", 0, json.dumps({"pass": False})) is not None
    assert reference.check_cli("optimize_ob", 0, json.dumps({"value": 1.49})) is not None
    assert reference.check_cli("optimize_chsh", 0, json.dumps({"value": 2.8284271})) is None
    bound = float(reference.combined_bound(Fraction(1, 50), Fraction(9, 10)))
    good = {"point": {"bound": bound, "feasible": True}}
    assert reference.check_cli("bounds", 0, json.dumps(good)) is None
    good["point"]["feasible"] = False
    assert reference.check_cli("bounds", 0, json.dumps(good)) is not None
    assert reference.check_cli("simulate", 0, json.dumps({"statistic": 1.4, "statistic_se": 0.001})) is not None


def test_paired_loops_alternate_whole_passes():
    order = []
    ops = [(lambda: order.append("op"), lambda out: None)] * 2

    class Tracing:
        def __enter__(self):
            order.append("on")

        def __exit__(self, *exc):
            order.append("off")

    untraced, traced = measure.paired_loops(ops, ops, seconds=0, tracing=Tracing)
    assert order == ["op", "op", "on", "op", "op", "off"]
    assert untraced.attempted == traced.attempted == 2


def test_failed_checks_and_raised_ops_count_in_failed_ratio():
    def boom():
        raise ValueError("bad input")

    ops = [(lambda: 1, lambda out: None), (lambda: 2, lambda out: "wrong"), (boom, lambda out: None)]
    summary = measure.closed_loop(ops, seconds=0).summary()
    assert summary["attempted"] == 3 and summary["failed"] == 2
    assert summary["failed_ratio"] == 2 / 3
    assert summary["errors"][1].startswith("raised ValueError")
