"""``python -m benchmarks.lifecycle`` — same entry as ``run.py``."""

import sys

from benchmarks.lifecycle.run import main

sys.exit(main())
