"""Entry point of the osauction benchmark.

    python3 osbench/run.py --workload design --seed 1 --seconds 30 --trace 0
    python3 osbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a source checkout: the program is imported from its
``src`` directory. Outputs (configs, result files, spans) go to
``.bench_out`` in the checkout.
"""

import os
import sys
from pathlib import Path

if __name__ == "__main__":
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "osauction" / "__init__.py").is_file():
        sys.exit(f"error: no osauction package under {src}; run from a source checkout")
    # one closed-loop client on one thread: keep numerical libraries single-threaded
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))
    from bench import main

    sys.exit(main())
