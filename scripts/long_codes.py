"""Time both repair averages and repair plans on three long random codes,
each measurement in a fresh process, and print its CPU time and the
process's peak RSS.

The codes are random_support(spec, 1) with coefficient seed 1 for [28,20]
w=3, [32,24] w=3 and [30,20] w=2: the shapes whose flat listings are the
longest measured.  The plans are made through minimal_repair: plan erases
block 1, singles erases each block in turn, and triples erases 12
triples drawn with random.Random(1); their value is the total cost of the
decodable ones.

Usage: python scripts/long_codes.py
"""

import argparse
import itertools
import multiprocessing
import random
import resource
import time

SHAPES = ((28, 20, 3), (32, 24, 3), (30, 20, 2))
MEASURES = ("double", "single", "plan", "singles", "triples")


def measure(shape, what):
    """(value, CPU seconds, peak RSS in MB) of one measurement, run in the
    calling process; the code is built before the clock starts."""
    from blrc.analysis import (
        avg_repair_bandwidth_double,
        avg_repair_bandwidth_single,
        minimal_repair,
    )
    from blrc.code import CodeSpec, UndecodableError, assign_coefficients
    from blrc.search import random_support

    spec = CodeSpec(*shape)
    code = assign_coefficients(random_support(spec, 1), spec, seed=1)
    blocks = range(1, code.n + 1)
    triples = list(itertools.combinations(blocks, 3))
    patterns = {
        "plan": [(1,)],
        "singles": [(b,) for b in blocks],
        "triples": random.Random(1).sample(triples, 12),
    }.get(what)
    start = time.process_time()
    if what == "double":
        value = f"{avg_repair_bandwidth_double(code).mean_cost:.6f}"
    elif what == "single":
        value = f"{avg_repair_bandwidth_single(code):.6f}"
    else:
        total = lost = 0
        for pattern in patterns:
            try:
                total += minimal_repair(code, pattern).cost
            except UndecodableError:
                lost += 1
        value = f"cost {total}" + (f", {lost} lost" if lost else "")
    seconds = time.process_time() - start
    # ru_maxrss is in KiB on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return value, seconds, peak


def run() -> None:
    spawn = multiprocessing.get_context("spawn")
    print(f"{'code':<14}{'measure':<9}{'value':>12}{'cpu_s':>9}{'peak_MB':>9}")
    for n, k, w in SHAPES:
        for what in MEASURES:
            with spawn.Pool(1) as pool:
                value, seconds, peak = pool.apply(measure, ((n, k, w), what))
            label = f"[{n},{k}] w={w}"
            print(f"{label:<14}{what:<9}{value:>12}{seconds:>9.3f}{peak:>9.1f}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.parse_args(argv)
    run()


if __name__ == "__main__":
    main()
