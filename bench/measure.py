"""The closed measurement loop and the statistics the benchmark reports."""
from __future__ import annotations

import contextlib
import math
import statistics
import time

#: A tail percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10


def tail_percentile(values, q: float):
    """Nearest-rank q-quantile of ``values``, or None when fewer than
    TAIL_SAMPLES samples lie beyond it (p90 therefore needs 100 samples)."""
    n = len(values)
    rank = math.ceil(q * n)
    if n - rank < TAIL_SAMPLES:
        return None
    return sorted(values)[rank - 1]


class LoopResult:
    """Per-op durations, in op order over whole passes, and failures of one
    closed-loop run."""

    def __init__(self, ops_per_pass: int = 1):
        self.ops_per_pass = ops_per_pass
        self.durations: list[float] = []
        self.errors: list[str] = []

    def extend(self, other: "LoopResult") -> None:
        self.durations += other.durations
        self.errors += other.errors

    @property
    def attempted(self) -> int:
        return len(self.durations)

    @property
    def failed(self) -> int:
        return len(self.errors)

    def best(self) -> list[float]:
        """Each op's shortest duration over the run's passes.

        A shared 2-CPU virtual machine was seen to change speed by up to 2x
        in phases of seconds, so a median over the run measures the mix of
        phases as much as the program. Outside interference only adds time,
        so the fastest of an op's repeats is the steadiest estimate of its
        own cost.
        """
        n = self.ops_per_pass
        return [min(self.durations[j::n]) for j in range(n)]

    def summary(self) -> dict:
        """Throughput and latency percentiles over one pass of best times."""
        best = self.best()
        p90 = tail_percentile(best, 0.9)
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_ratio": self.failed / self.attempted,
            "passes": self.attempted // self.ops_per_pass,
            "ops_per_s": self.ops_per_pass / sum(best),
            "op_p50_ms": statistics.median(best) * 1e3,
            "op_p90_ms": None if p90 is None else p90 * 1e3,
            "errors": self.errors[:5],
        }


def closed_loop(ops, seconds: float, on_op=None) -> LoopResult:
    """Run ``ops`` in order, cycling, one at a time, until ``seconds`` have
    passed and a whole number of passes over ``ops`` is done.

    Each op is a pair ``(call, check)``: ``call()`` does the work and is
    timed; ``check(output)`` returns None or a failure reason. An op that
    raises counts as failed. ``on_op(i)`` runs before op ``i`` is timed.
    """
    result = LoopResult(len(ops))
    start = time.perf_counter()
    i = 0
    while True:
        call, check = ops[i % len(ops)]
        if on_op is not None:
            on_op(i)
        t0 = time.perf_counter()
        try:
            output = call()
        except Exception as exc:  # a failed op is counted, not fatal
            result.durations.append(time.perf_counter() - t0)
            result.errors.append(f"raised {exc!r}")
        else:
            result.durations.append(time.perf_counter() - t0)
            reason = check(output)
            if reason is not None:
                result.errors.append(reason)
        i += 1
        if i % len(ops) == 0 and time.perf_counter() - start >= seconds:
            return result


def paired_loops(untraced_ops, traced_ops, seconds: float, tracing=contextlib.nullcontext, on_op=None):
    """Alternate one untraced pass and one traced pass, the latter inside
    ``tracing()``, until ``seconds`` have passed after a whole pair. Alternating lets both see
    the same machine state, so their ratio is the tracing overhead."""
    untraced, traced = LoopResult(len(untraced_ops)), LoopResult(len(traced_ops))
    start = time.perf_counter()
    while True:
        untraced.extend(closed_loop(untraced_ops, 0))
        with tracing():
            traced.extend(closed_loop(traced_ops, 0, on_op))
        if time.perf_counter() - start >= seconds:
            return untraced, traced
