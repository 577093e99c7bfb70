"""``repro serve`` with the benchmark's span wrappers installed.

The traced HTTP run cannot patch a server it spawns as ``python -m
repro serve``, so it spawns this launcher instead: it installs the
serving wrappers, then runs the very same CLI entry point in-process.
``repro serve`` returns normally after its SIGTERM drain; the spans and
boundary counts recorded meanwhile are then written to the dump file
named by the first argument.

    python traced_server.py DUMP.json CHECKPOINT --host H --port P
"""

from __future__ import annotations

import json
import os
import sys


def main(argv) -> int:
    dump, serve_args = argv[0], argv[1:]
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    sys.path[0] = root  # was this script's directory

    from benchmarks.lifecycle import tracing
    from repro.cli import main as repro_main

    tracer = tracing.Tracer("srv")
    tracing.install_serving(tracer, front_end=True)
    code = repro_main(["serve", *serve_args])
    tracer.uninstall()
    with open(dump, "w", encoding="utf-8") as handle:
        json.dump({"spans": tracer.records(), "counts": dict(tracer.counts)}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
