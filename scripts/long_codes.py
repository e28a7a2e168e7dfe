"""Time both repair averages, repair plans, the decodability census, the
minimum distance and file decoding on three long random codes, each
measurement in a fresh process, and print its CPU time and the process's
peak RSS.

The codes are random_support(spec, 1) with coefficient seed 1 for [28,20]
w=3, [32,24] w=3 and [30,20] w=2: the shapes whose flat listings are the
longest measured.  The plans are made through minimal_repair: plan erases
block 1, singles erases each block in turn, and triples erases 12
triples drawn with random.Random(1); their value is the total cost of the
decodable ones.  census is undecodable_counts to f = r, the depth of
every report of these codes; its value is the number of undecodable
r-sets.  distance is minimum_distance, the census of the parity-check
columns to depth w + 1.  decode is decode_stream of a 1 MB payload drawn
with random.Random(1), once for each of 5 sets of w data blocks lost
(drawn with the same generator); its value is "ok" when every decode
gave the payload back.

Usage: python scripts/long_codes.py
"""

import argparse
import itertools
import multiprocessing
import random
import resource
import time

SHAPES = ((28, 20, 3), (32, 24, 3), (30, 20, 2))
MEASURES = (
    "double", "single", "plan", "singles", "triples", "census", "distance",
    "decode",
)


def measure(shape, what):
    """(value, CPU seconds, peak RSS in MB) of one measurement, run in the
    calling process; the code is built before the clock starts."""
    from blrc.analysis import (
        avg_repair_bandwidth_double,
        avg_repair_bandwidth_single,
        minimal_repair,
        undecodable_counts,
    )
    from blrc.code import (
        CodeSpec,
        UndecodableError,
        assign_coefficients,
        minimum_distance,
    )
    from blrc.search import random_support
    from blrc.sharding import decode_stream, encode_stream

    spec = CodeSpec(*shape)
    code = assign_coefficients(random_support(spec, 1), spec, seed=1)
    blocks = range(1, code.n + 1)
    triples = list(itertools.combinations(blocks, 3))
    patterns = {
        "plan": [(1,)],
        "singles": [(b,) for b in blocks],
        "triples": random.Random(1).sample(triples, 12),
    }.get(what)
    if what == "decode":
        rng = random.Random(1)
        payload = rng.randbytes(1_000_000)
        shards = encode_stream(code, payload)
        partials = []
        for _ in range(5):
            lost = rng.sample(range(1, code.k + 1), code.spec.w)
            partials.append(
                {b: shards[b - 1] for b in blocks if b not in lost}
            )
    start = time.process_time()
    if what == "double":
        value = f"{avg_repair_bandwidth_double(code).mean_cost:.6f}"
    elif what == "single":
        value = f"{avg_repair_bandwidth_single(code):.6f}"
    elif what == "census":
        value = f"{undecodable_counts(code, code.r)[code.r]}"
    elif what == "distance":
        value = f"{minimum_distance(code)}"
    elif what == "decode":
        back = [decode_stream(code, p, len(payload)) for p in partials]
        value = "ok" if all(b == payload for b in back) else "wrong"
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
    print(f"{'code':<14}{'measure':<10}{'value':>12}{'cpu_s':>9}{'peak_MB':>9}")
    for n, k, w in SHAPES:
        for what in MEASURES:
            with spawn.Pool(1) as pool:
                value, seconds, peak = pool.apply(measure, ((n, k, w), what))
            label = f"[{n},{k}] w={w}"
            print(f"{label:<14}{what:<10}{value:>12}{seconds:>9.3f}{peak:>9.1f}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.parse_args(argv)
    run()


if __name__ == "__main__":
    main()
