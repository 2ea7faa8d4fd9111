"""Set-up time of one workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py MAX_ORDER SEED FAMILY[,FAMILY...]

Times the import of orbiseif plus the enumeration and ordering of the
workload's specs, up to the first spec, and prints that spec, the
seconds, and the reference scale (reference.py) measured just after.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

import workloads  # noqa: E402  (imports orbiseif)


def main(argv) -> int:
    max_order, seed, families = int(argv[0]), int(argv[1]), argv[2].split(",")
    rows = workloads.enumerate_rows(families, max_order)
    first = rows[workloads.processing_order(len(rows), seed, 0)[0]].spec
    elapsed = time.perf_counter() - START
    import reference  # after the timed region
    print(first, repr(elapsed), repr(reference.scale_now()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
