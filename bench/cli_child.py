"""Run one ``obell`` CLI call the way the installed ``obell`` script does.

    python3 bench/cli_child.py [--trace-out FILE] <obell arguments>

With ``--trace-out`` the benchmark's span wrappers are installed after the
import and before ``obell.cli.main`` runs; the per-name aggregates are
written to FILE as JSON when the call ends, whatever its exit code.
"""
import json
import sys


def main() -> None:
    argv = sys.argv[1:]
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    from obell.cli import main as obell_main

    if trace_out is None:
        obell_main(args=argv, prog_name="obell")
        return

    import tracer

    spans = tracer.Tracer()
    spans.install()
    try:
        obell_main(args=argv, prog_name="obell")
    finally:
        with open(trace_out, "w") as f:
            json.dump({"stats": tracer.aggregate(spans.spans), "absent": spans.absent}, f)


if __name__ == "__main__":
    main()
