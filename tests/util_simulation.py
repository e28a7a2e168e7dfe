"""Monte Carlo check of the Markov MTTDL solve.

The library solves the reliability chain exactly; the tests compare that
solve against this simulation of the same chain.
"""

from __future__ import annotations

import math
import random

from blrc.reliability import MarkovModel


def simulate_mttdl(
    model: MarkovModel, trials: int, seed: int = 0
) -> tuple[float, float]:
    """Monte Carlo estimate of the stripe MTTDL: (mean, standard error)."""
    rng = random.Random(seed)
    total = 0.0
    total_sq = 0.0
    for _ in range(trials):
        f = 0
        t = 0.0
        while True:
            repair, birth = model.repairs[f], model.births[f]
            exit_rate = repair + birth + model.kills[f]
            t += rng.expovariate(exit_rate)
            x = rng.random() * exit_rate
            if x < repair:
                f -= 1
            elif x < repair + birth:
                f += 1
            else:
                break  # data lost
        total += t
        total_sq += t * t
    mean = total / trials
    var = max(0.0, total_sq / trials - mean * mean)
    return mean, math.sqrt(var / trials)
