"""Time one set-up in a fresh interpreter: import irslink, then load and validate the workload's scenarios.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <src dir>
Prints the elapsed seconds.  run.py starts several of these and reports the median.
"""

import sys
import time


def main():
    workload, seed, src = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    import workloads  # standard library only, so numpy's import is timed below

    sys.path.insert(0, src)
    start = time.perf_counter()
    import irslink

    workloads.generate(irslink, workload, seed)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
