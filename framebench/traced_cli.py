"""Run ``handdepth detect`` with the tracer installed around the CLI's bindings.

The whole ``cli.main`` call is the root span.  The pass trace is written
as JSON to TRACE_JSON; the CLI's own output and exit code are unchanged.

Usage: python traced_cli.py TRACE_JSON detect --input ... [CLI arguments]
"""

import json
import sys
from pathlib import Path

import handdepth.cli as cli

from tracer import Tracer


def main(argv: list[str]) -> int:
    out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        start = tracer.begin()
        code = cli.main(cli_args)
        tracer.end("cli.main", start)
    finally:
        tracer.uninstall()
    Path(out).write_text(json.dumps({"trace": tracer.trace.to_json(), "missing": tracer.missing}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
