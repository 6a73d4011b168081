"""Traced stand-in for `python -m msakit.cli`, used by the traced cli workload.

Usage: python3 perfbench/cli_child.py SPANS_JSON <msakit cli arguments...>

Times `import msakit`, wraps the public functions the CLI calls with the
benchmark's `Layers` (at every name the CLI looks them up under), runs
`msakit.cli.main` in this process and writes the spans and per-layer counts
to SPANS_JSON. The exit code is the CLI's.
"""
from __future__ import annotations

import json
import sys
from collections import defaultdict

from tracer import Layers, Tracer


def main(spans_path: str, argv: list) -> int:
    tracer = Tracer(enabled=True)
    counts = defaultdict(int)
    with tracer.span("cli.import"):
        import msakit.cli
    Layers(tracer, counts).install(msakit)

    code = 1
    try:
        with tracer.span("cli.main"):
            code = msakit.cli.main(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"spans": [row[:4] for row in tracer.spans], "counts": counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
