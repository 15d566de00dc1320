"""Run ``repro-experiments serve`` with the layer tracer installed.

    python3 perfbench/serve_traced.py SPANS.json serve -j 1 --port P ...

Everything after the spans path goes to the CLI unchanged.  The spans
are written once the server stops (SIGINT ends ``serve`` normally).
"""

from __future__ import annotations

import sys
import time

from spans import install


def main() -> int:
    path, cli_args = sys.argv[1], sys.argv[2:]
    tracer = install()
    from repro.experiments import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.window[1] = time.perf_counter()
        tracer.dump(path)


if __name__ == "__main__":
    raise SystemExit(main())
