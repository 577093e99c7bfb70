"""Entry point of the lifecycle benchmark (``BENCHMARK.json``'s command).

    python3 benchmarks/lifecycle/run.py --workload W --seed N --seconds S --trace 0|1

Makes the checkout importable (``benchmarks.lifecycle`` and ``repro``
from ``src/``) and pins the BLAS pools to one thread before numpy loads:
every matmul here has an inner dimension of at most 32, so extra BLAS
threads only add scheduling noise.  See ``cli.py`` for the modes.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    for pin in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[pin] = "1"
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from benchmarks.lifecycle.cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.path.pop(0)  # this directory: its modules are imported as a package
    sys.exit(main())
