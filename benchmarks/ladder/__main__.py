"""``python -m benchmarks.ladder run|compare`` (see README.md)."""

import os
import sys
import time

STARTED = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

if __name__ == "__main__":
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit(f"benchmarks.ladder: no repro sources under {ROOT}/src")
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from benchmarks.ladder import THREAD_CAPS

    os.environ.update(THREAD_CAPS)
    from benchmarks.ladder.harness import main

    sys.exit(main(sys.argv[1:], started=STARTED))
