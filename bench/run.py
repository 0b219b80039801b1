"""Benchmark of the obell toolkit: three seeded, closed-loop workloads.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S]

One client runs one op at a time; the load generator starts no threads.

    cli_session  CLI calls as subprocesses, in a fixed rotation of six
                 subcommands: what a user waits for, import included.
    monte_carlo  run_experiment at 10^6 trials per pair over three specs:
                 sampling and estimation do nearly all the work.
    lhv_exact    parse a criterion-6 model from wire JSON and compute its
                 statistic, or run verify --json at one of 145 exact grid
                 points through the CLI entry point in process: model
                 representation and the exact oracles, no sampling.

Every output is checked against references the benchmark computes itself;
a failed check counts as a failed op. ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run. The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``.
``--workload all`` runs every workload both ways, prints every metric and
writes them with an ``env`` block to bench/out/report.json.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import measure
import reference
import tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
PYTHON = sys.executable

#: Fresh set-ups per run; setup_s is their median.
SETUP_REPEATS = 5
#: ``-X importtime`` runs per traced run; the import metrics are medians.
IMPORT_REPEATS = 3

IN_PROCESS = ("monte_carlo", "lhv_exact")
WORKLOADS = ("cli_session",) + IN_PROCESS

#: cli_session's rotation; {config} and {out} are filled in at set-up.
CLI_ROTATION = (
    ("bounds", ("bounds", "--gamma", "0.98", "--eta", "0.9", "--json")),
    ("optimize_ob", ("optimize", "ob", "--json")),
    ("optimize_chsh", ("optimize", "chsh", "--json")),
    ("verify", ("verify", "--json")),
    ("simulate", ("simulate", "{config}", "--out", "{out}", "--json")),
    ("sweep", ("sweep", "{config}", "--simulate", "--gamma-range", "0.95:1.0",
               "--eta-range", "0.9:1.0", "--step", "0.01")),
)


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


class Child:
    """A finished subprocess: exit code, output, wall seconds, peak RSS."""

    def __init__(self, code, stdout, stderr, seconds, rss_mb):
        self.code, self.stdout, self.stderr = code, stdout, stderr
        self.seconds, self.rss_mb = seconds, rss_mb


class Session:
    """Environment and scratch directory shared by one run's children, and
    the peak RSS among them."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.peak_rss_mb = 0.0
        path = os.environ.get("PYTHONPATH")
        src = str(ROOT / "src")
        self.env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)

    def run(self, args) -> Child:
        """Run ``args`` to completion; the time covers start to exit."""
        out_path, err_path = self.workdir / "child.out", self.workdir / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(args, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        rss_mb = usage.ru_maxrss / 1024
        self.peak_rss_mb = max(self.peak_rss_mb, rss_mb)
        return Child(proc.returncode, out_path.read_text(), err_path.read_text(), seconds, rss_mb)

    def run_ok(self, args) -> Child:
        child = self.run(args)
        if child.code != 0:
            raise BenchError(f"{' '.join(map(str, args))} exited {child.code}: {child.stderr.strip()[-2000:]}")
        return child


# ---------------------------------------------------------------------------
# Import layer


def parse_importtime(text: str) -> dict:
    """Cumulative import seconds of ``obell``, ``obell.cli`` and every
    outermost ``scipy`` module, from ``python -X importtime`` output."""
    entries = []
    for line in text.splitlines():
        parts = line.partition("import time:")[2].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        raw = parts[2].rstrip()
        entries.append((len(raw) - len(raw.lstrip()), raw.strip(), int(parts[1]) / 1e6))
    out = {"import.obell_s": 0.0, "import.obell_cli_s": 0.0, "import.scipy_s": 0.0}
    ancestors: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(entries):  # parents precede children
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        in_scipy = any(a == "scipy" or a.startswith("scipy.") for _, a in ancestors)
        if (name == "scipy" or name.startswith("scipy.")) and not in_scipy:
            out["import.scipy_s"] += cumulative
        elif name == "obell":
            out["import.obell_s"] = cumulative
        elif name == "obell.cli":
            out["import.obell_cli_s"] = cumulative
        ancestors.append((depth, name))
    return out


def import_layer(session: Session) -> dict:
    runs = [
        parse_importtime(session.run_ok([PYTHON, "-X", "importtime", "-c", "import obell.cli"]).stderr)
        for _ in range(IMPORT_REPEATS)
    ]
    return {key: (statistics.median(r[key] for r in runs), "s") for key in runs[0]}


# ---------------------------------------------------------------------------
# Workloads


def _worker(session: Session, workload: str, seed: int, mode: str, seconds: float = 0.0):
    args = [PYTHON, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--mode", mode, "--seconds", str(seconds), "--workdir", str(session.workdir)]
    return session.run_ok(args)


def run_in_process(session: Session, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        data = json.loads(_worker(session, workload, seed, "trace", seconds).stdout.splitlines()[-1])
        return _traced_result(data["untraced"], data["traced"], data["layers"], data["absent"], session)
    setups = [_worker(session, workload, seed, "setup").seconds for _ in range(SETUP_REPEATS)]
    child = _worker(session, workload, seed, "measure", seconds)
    summary = json.loads(child.stdout.splitlines()[-1])
    return _untraced_result(summary, statistics.median(setups), child.rss_mb)


def _cli_ops(session: Session, config: Path, trace_stats=None):
    """The rotation as (call, check) pairs; with ``trace_stats`` each call
    runs traced and appends its span aggregates to that list."""
    ops = []
    for index, (name, template) in enumerate(CLI_ROTATION):
        out = session.workdir / f"out{index}"
        args = [a.format(config=config, out=out) for a in template]

        def call(args=args, index=index):
            prefix = [PYTHON, str(BENCH / "cli_child.py")]
            if trace_stats is None:
                return session.run(prefix + args)
            trace_file = session.workdir / f"trace{index}.json"
            child = session.run(prefix + ["--trace-out", str(trace_file)] + args)
            trace_stats.append(json.loads(trace_file.read_text()))
            return child

        def check(child, name=name, out=out):
            reason = reference.check_cli(name, child.code, child.stdout)
            if reason is None and name == "simulate":
                missing = [f for f in ("result.json", "result.csv") if not (out / f).is_file()]
                if missing:
                    reason = f"simulate: missing {missing}"
            return reason

        ops.append((call, check))
    return ops


def _write_config(session: Session, seed: int) -> Path:
    path = session.workdir / "config.json"
    path.write_text(json.dumps(inputs.simulation_config(seed % 2**63)))
    return path


def run_cli_session(session: Session, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        config = _write_config(session, seed)
        stats: list = []
        untraced, traced = measure.paired_loops(
            _cli_ops(session, config), _cli_ops(session, config, stats), seconds)
        layers = tracer.layer_metrics(
            tracer.merge(s["stats"] for s in stats), traced.attempted // len(CLI_ROTATION))
        absent = sorted({name for s in stats for name in s["absent"]})
        return _traced_result(untraced.summary(), traced.summary(), layers, absent, session)

    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        config = _write_config(session, seed)
        call, check = _cli_ops(session, config)[0]
        child = call()
        setups.append(time.perf_counter() - start)
        reason = check(child)
        if reason is not None:
            raise BenchError(f"warm-up op failed: {reason}")
    session.peak_rss_mb = 0.0
    result = measure.closed_loop(_cli_ops(session, config), seconds)
    out = _untraced_result(result.summary(), statistics.median(setups), session.peak_rss_mb)
    for (name, _), best in zip(CLI_ROTATION, result.best()):
        out["extra"][f"cli_{name}_s"] = (best, "s")
    return out


def _untraced_result(summary: dict, setup_s: float, rss_mb: float) -> dict:
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (summary["ops_per_s"], "1/s"),
        "op_p50_ms": (summary["op_p50_ms"], "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    extra = {"failed_ratio": (summary["failed_ratio"], "failed/attempted"),
             "passes": (summary["passes"], "count")}
    if summary["op_p90_ms"] is not None:
        extra["op_p90_ms"] = (summary["op_p90_ms"], "ms")
    return {"attempted": summary["attempted"], "failed": summary["failed"],
            "errors": summary["errors"], "metrics": metrics, "extra": extra}


def _traced_result(untraced: dict, traced: dict, layers: dict, absent, session: Session) -> dict:
    metrics = dict(layers)
    metrics.update(import_layer(session))
    metrics["trace.overhead_ratio"] = (untraced["ops_per_s"] / traced["ops_per_s"], "ratio")
    return {
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
        "errors": untraced["errors"] + traced["errors"],
        "metrics": metrics,
        "extra": {"traced_ops": (traced["attempted"], "count")},
        "absent": list(absent),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = BENCH / ".work" / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        session = Session(workdir)
        if workload == "cli_session":
            return run_cli_session(session, seed, seconds, trace)
        return run_in_process(session, workload, seed, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass


# ---------------------------------------------------------------------------
# Reporting


def env_block() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "click": version("click"),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit,
    }


def print_metrics(workload: str, result: dict) -> None:
    for name, (value, unit) in sorted({**result["metrics"], **result["extra"]}.items()):
        print(f"{workload:12s} {name:48s} {value:.6g} {unit}")
    if result.get("absent"):
        print(f"{workload:12s} absent: {', '.join(result['absent'])}")
    for reason in result["errors"]:
        print(f"{workload:12s} FAILED: {reason}", file=sys.stderr)


def result_line(result: dict) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in result["metrics"].items()},
    })


def run_all(seed: int, seconds: float) -> int:
    env = env_block()
    print("env " + json.dumps(env, sort_keys=True))
    report = {"env": env, "seed": seed, "seconds": seconds, "workloads": {}}
    failed = 0
    for workload in WORKLOADS:
        untraced = run_workload(workload, seed, seconds, trace=False)
        traced = run_workload(workload, seed, seconds, trace=True)
        for result in (untraced, traced):
            print_metrics(workload, result)
            failed += result["failed"]
        report["workloads"][workload] = {
            "attempted": untraced["attempted"],
            "failed": untraced["failed"],
            "end_to_end": {n: {"value": v, "unit": u}
                           for n, (v, u) in {**untraced["metrics"], **untraced["extra"]}.items()},
            "per_layer": {n: {"value": v, "unit": u} for n, (v, u) in traced["metrics"].items()},
            "absent": traced["absent"],
        }
    path = BENCH / "out" / "report.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "obell" / "__init__.py").is_file():
        print(f"no obell sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print_metrics(args.workload, result)
    print(result_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
