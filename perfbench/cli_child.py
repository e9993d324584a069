"""One traced CLI call in a fresh interpreter (cli-cold with --trace 1).

    python -X importtime perfbench/cli_child.py TRACE_JSON <subcommand> [flags...]

Runs ``negmass.cli.run`` on the arguments with the layers wrapped and
writes the phase timestamps, spans and counters to TRACE_JSON.  The
timestamps are perf_counter readings, which share one monotonic clock
with the parent process.
"""

import time

FIRST = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import negmass.cli
    t1 = time.perf_counter()
    nm = types.SimpleNamespace(lens=negmass.lens, caustics=negmass.caustics,
                               spherical=negmass.spherical, imcf=negmass.imcf,
                               weyl=negmass.weyl, cli=negmass.cli)
    tracer = tracing.Tracer()
    tracing.install(tracer, nm, with_cli=True)
    tracer.op = 0
    with tracer.span("cli.run"):
        code = negmass.cli.run(argv)
    end = time.perf_counter()
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"first": FIRST, "import": [t0, t1], "end": end,
                   "spans": tracer.spans, "counts": dict(tracer.counts)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
