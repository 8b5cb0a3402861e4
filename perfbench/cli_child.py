"""Traced CLI process: ``python3 cli_child.py SUMMARY_JSONL SPANS_TSV -- ARGS...``.

Times ``import peanoquad.cli``, runs ``peanoquad.cli.main(ARGS)`` with the
tracer installed, appends one JSON line with the import time and the trace
summary to SUMMARY_JSONL and its spans, labelled with its process id, to
SPANS_TSV, and exits with the CLI's own code.  The benchmark uses it only
for traced runs; untraced runs start ``python3 -m peanoquad.cli`` directly.
"""

import json
import os
import sys
import time

if __name__ == "__main__":
    summary_path, spans_path, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        sys.exit("usage: cli_child.py SUMMARY_JSONL SPANS_TSV -- ARGS...")
    t0 = time.perf_counter()
    import peanoquad.cli

    import_ms = (time.perf_counter() - t0) * 1e3
    from tracer import Tracer, write_spans

    tracer = Tracer()
    tracer.install()
    try:
        code = peanoquad.cli.main(cli_args)
    finally:
        tracer.uninstall()
    with open(summary_path, "a") as fh:
        fh.write(json.dumps({"import_ms": import_ms, "summary": tracer.summary()}) + "\n")
    write_spans(tracer, spans_path, str(os.getpid()))
    sys.exit(code)
