"""Run one ddce CLI call in this process and record how long it took.

The timed region is ``ddce.cli.main(argv)`` alone: it starts with loading
the inputs and ends once the outputs are written. Interpreter start and
the ddce imports are timed apart, as ``startup_s``: from ``--spawned-at``,
the parent's ``time.monotonic()`` just before it started this process (the
clock is system-wide on Linux), to the end of the imports. With
``--trace`` the layer wrappers from ``tracer.py`` are installed first and
their per-layer figures are saved.

Usage: python3 perfbench/child.py --result FILE --spawned-at T [--trace] -- CLI-ARGS...
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    from ddce import cli

    startup = time.monotonic() - args.spawned_at
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    code = cli.main(cli_args)
    wall = time.perf_counter() - t0
    result = {
        "exit_code": code,
        "startup_s": startup,
        "wall_s": wall,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.report(wall)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
