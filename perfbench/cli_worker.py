"""Run one ``dbarn`` CLI request in a fresh process with spans on its layer calls.

Usage: python cli_worker.py SPAWN_TIME OUT_JSON SUBCOMMAND [ARGS...]

SPAWN_TIME is the parent's ``time.time()`` just before it started this
process, so ``import_s`` covers process start plus imports.  The worker runs
``dbarn.cli.main`` under a span, captures its standard output and exit code,
and writes them with the recorded spans to OUT_JSON.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    spawned, out_path, cli_args = float(argv[0]), argv[1], argv[2:]
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here))
    import layers
    import spans
    import dbarn.cli

    import_s = time.time() - spawned
    tracer = spans.Tracer()
    tracer.request = "cli"
    instrumentation = layers.instrumentation(tracer)
    instrumentation.install()
    buffer = io.StringIO()
    error = None
    with contextlib.redirect_stdout(buffer):
        try:
            code = dbarn.cli.main(cli_args)
        except SystemExit as exc:  # argparse or an "error:" line
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            error = None if exc.code is None else str(exc.code)
        except Exception as exc:  # the request failed; report it like a traceback exit
            code = 1
            error = repr(exc)
    instrumentation.uninstall()
    with open(out_path, "w") as handle:
        json.dump({"import_s": import_s, "exit": code, "stdout": buffer.getvalue(),
                   "error": error, "spans": tracer.spans, "counters": tracer.counters},
                  handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
