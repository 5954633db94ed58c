"""Entry point named by ``BENCHMARK.json``: ``python3 benchmarks/e2e/run.py``.

Run as a plain script from any checkout, so it puts the checkout's root
(for ``benchmarks.e2e``) and ``src`` (for ``repro``, which is not
installed) on the path itself, and on ``PYTHONPATH`` for the child
processes the benchmark starts.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")

if __name__ == "__main__":
    sys.path[:0] = [ROOT, SRC]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT, SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    from benchmarks.e2e.cli import main

    sys.exit(main())
