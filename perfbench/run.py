#!/usr/bin/env python3
"""Signcryption benchmark entry point; run it from the repository root.

    python3 perfbench/run.py --workload l1-20-stream --seed 1 --seconds 25 --trace 0

It imports cbsc from ``src/`` under the current directory and refuses to
run (exit 1, no result) when those sources are missing, so it can never
measure some other installed copy.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  Lines before it start with
``#``.
"""

import os

# Pinned before numpy is imported: BLAS threads would contend on a small VM.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys
from pathlib import Path

if __name__ == "__main__":
    src = Path.cwd() / "src"
    if not (src / "cbsc" / "__init__.py").is_file():
        sys.exit(f"run.py: no cbsc sources in {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import workloads

    sys.exit(workloads.main())
