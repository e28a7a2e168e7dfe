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
    size = len(model.states)
    for _ in range(trials):
        s = model.initial
        t = 0.0
        while s not in model.absorbing:
            exit_rate = model.exit_rate(s)
            t += rng.expovariate(exit_rate)
            x = rng.random() * exit_rate
            acc = 0.0
            nxt = s
            for j in range(size):
                acc += model.rates[s][j]
                if x < acc:
                    nxt = j
                    break
            s = nxt
        total += t
        total_sq += t * t
    mean = total / trials
    var = max(0.0, total_sq / trials - mean * mean)
    return mean, math.sqrt(var / trials)
