"""Reliability modeling: mean time to data loss of a coded stripe.

A stripe of n blocks is modeled as an absorbing continuous-time Markov
chain.  States count the available blocks; each failure arrives at rate
(available * lambda) and branches on whether the resulting erasure pattern
is still decodable (an undecodable branch is an absorbing "F" state).
Repairs move one state up at rate gamma / (transfer_size * block_size).
The stripe MTTDL is the expected time to absorption from the all-available
state; the system MTTDL divides by the number of stripes in the cluster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .analysis import MetricsReport

SECONDS_PER_DAY = 86400.0

UNIT_SCALES = {
    "decimal": {"K": 1e3, "M": 1e6, "G": 1e9, "T": 1e12, "P": 1e15},
    "binary": {"K": 2**10, "M": 2**20, "G": 2**30, "T": 2**40, "P": 2**50},
}
DAYS_PER_YEAR = 365.0


class ParamsError(ValueError):
    """A reliability parameter file or value could not be parsed."""


@dataclass(frozen=True)
class ReliabilityParams:
    """Cluster parameters: total raw bytes C, node count N, block bytes B,
    repair bandwidth gamma (bits/second), node mean time to failure."""

    total_bytes: float
    nodes: int
    block_bytes: float
    repair_bandwidth_bps: float
    mttf_days: float
    units: str = "decimal"

    def __post_init__(self):
        for name in (
            "total_bytes",
            "nodes",
            "block_bytes",
            "repair_bandwidth_bps",
            "mttf_days",
        ):
            if getattr(self, name) <= 0:
                raise ParamsError(f"{name} must be positive")
        if self.units not in UNIT_SCALES:
            raise ParamsError(f"unknown unit convention {self.units!r}")

    @classmethod
    def defaults(cls, units: str = "decimal") -> "ReliabilityParams":
        scale = UNIT_SCALES[units]
        return cls(
            total_bytes=30 * scale["P"],
            nodes=3000,
            block_bytes=256 * scale["M"],
            repair_bandwidth_bps=1 * scale["G"],
            mttf_days=4 * DAYS_PER_YEAR,
            units=units,
        )

    @property
    def failure_rate_per_day(self) -> float:
        return 1.0 / self.mttf_days

    @property
    def repair_bytes_per_day(self) -> float:
        return self.repair_bandwidth_bps * SECONDS_PER_DAY / 8.0

    def stripe_count(self, n: int) -> float:
        return self.total_bytes / (n * self.block_bytes)


def _parse_scaled(text: str, tail: str, scale: dict) -> float:
    s = text.strip()
    if s.endswith(tail) and tail:
        s = s[: -len(tail)]
    for prefix, mult in scale.items():
        if s.endswith(prefix):
            return float(s[: -len(prefix)]) * mult
    return float(s)


def parse_duration_days(text: str) -> float:
    s = text.strip().lower()
    for suffix, mult in (
        ("years", DAYS_PER_YEAR),
        ("year", DAYS_PER_YEAR),
        ("yr", DAYS_PER_YEAR),
        ("y", DAYS_PER_YEAR),
        ("days", 1.0),
        ("day", 1.0),
        ("d", 1.0),
    ):
        if s.endswith(suffix):
            return float(s[: -len(suffix)]) * mult
    return float(s)


def parse_params(text: str) -> ReliabilityParams:
    """Parse a key-value parameter file.

    Keys: C (total bytes), N (nodes), B (block bytes), gamma (bits/s),
    mttf (duration), units (decimal or binary).  Values accept suffixes,
    e.g. "30PB", "256MB", "1Gbps", "4y".  Missing keys take defaults.
    """
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace("=", " ").split(None, 1)
        if len(parts) != 2:
            raise ParamsError(f"line {lineno}: expected 'key value'")
        entries[parts[0].strip()] = parts[1].strip()
    units = entries.pop("units", "decimal").lower()
    if units not in UNIT_SCALES:
        raise ParamsError(f"units must be decimal or binary, got {units!r}")
    scale = UNIT_SCALES[units]
    base = ReliabilityParams.defaults(units)
    kwargs = {
        "total_bytes": base.total_bytes,
        "nodes": base.nodes,
        "block_bytes": base.block_bytes,
        "repair_bandwidth_bps": base.repair_bandwidth_bps,
        "mttf_days": base.mttf_days,
        "units": units,
    }
    for key, value in entries.items():
        if key == "C":
            kwargs["total_bytes"] = _parse_scaled(value, "B", scale)
        elif key == "N":
            kwargs["nodes"] = int(value)
        elif key == "B":
            kwargs["block_bytes"] = _parse_scaled(value, "B", scale)
        elif key == "gamma":
            kwargs["repair_bandwidth_bps"] = _parse_scaled(value, "bps", scale)
        elif key == "mttf":
            kwargs["mttf_days"] = parse_duration_days(value)
        else:
            raise ParamsError(f"unknown parameter key {key!r}")
    return ReliabilityParams(**kwargs)


@dataclass(frozen=True)
class MarkovModel:
    """Absorbing CTMC over block-availability states.

    rates[i][j] is the transition rate (per day) from state i to state j;
    diagonal entries are zero, absorbing states have all-zero rows.
    """

    states: tuple[str, ...]
    rates: tuple[tuple[float, ...], ...]
    initial: int
    absorbing: frozenset[int]

    def exit_rate(self, i: int) -> float:
        return sum(self.rates[i])

    def check(self) -> None:
        for i in self.absorbing:
            if any(self.rates[i]):
                raise AssertionError(f"absorbing state {self.states[i]} has exits")
        for i, row in enumerate(self.rates):
            if row[i] != 0.0:
                raise AssertionError("diagonal rate must be zero")
            if any(x < 0 for x in row):
                raise AssertionError("negative rate")


class ProfileError(ValueError):
    """The decodability profile is unusable for model construction."""


def build_model(
    report: MetricsReport,
    n: int,
    k: int,
    params: ReliabilityParams,
    b1: float | None = None,
    b2: float | None = None,
    b_bulk: float | None = None,
) -> MarkovModel:
    """Derive the failure/repair chain of one stripe from a metrics report.

    Repair transfer sizes default to the report's single and double repair
    bandwidths, with k blocks for deeper repairs.  States whose next
    failure can never be decoded collapse into a single down state.
    """
    r = n - k
    profile = dict(report.decodability)
    prev = 1.0
    for f in sorted(profile):
        if profile[f] > prev + 1e-12:
            raise ProfileError(f"decodability increases at f={f}")
        prev = profile[f]

    def p(f: int) -> float:
        if f <= 0:
            return 1.0
        if f > r:
            return 0.0
        if f in profile:
            return profile[f]
        raise ProfileError(
            f"profile ends before p_{f} while states remain reachable"
        )

    b1 = report.avg_repair_single if b1 is None else b1
    b2 = report.avg_repair_double if b2 is None else b2
    b_bulk = float(k) if b_bulk is None else b_bulk

    lam = params.failure_rate_per_day
    bw_day = params.repair_bytes_per_day

    def rho(f: int) -> float:
        size = b1 if f == 1 else (b2 if f == 2 else b_bulk)
        return bw_day / (size * params.block_bytes)

    f_last = 0
    while f_last < r and p(f_last + 1) > 0.0:
        f_last += 1

    labels: list[str] = []
    index: dict[str, int] = {}

    def add(label: str) -> int:
        index[label] = len(labels)
        labels.append(label)
        return index[label]

    for f in range(f_last + 1):
        add(str(n - f))
    down = add(str(n - f_last - 1))
    absorbing = {down}
    for f in range(1, f_last + 1):
        if p(f) < 1.0:
            absorbing.add(add(f"{n - f}F"))

    size = len(labels)
    rates = [[0.0] * size for _ in range(size)]
    for f in range(f_last + 1):
        i = index[str(n - f)]
        avail = n - f
        pf_next = p(f + 1)
        fail_rate = avail * lam
        if fail_rate > 0:
            if f == f_last:
                rates[i][down] += fail_rate
            else:
                good = index[str(n - f - 1)]
                rates[i][good] += fail_rate * pf_next
                if pf_next < 1.0:
                    rates[i][index[f"{n - f - 1}F"]] += fail_rate * (
                        1.0 - pf_next
                    )
        if f >= 1:
            rates[i][index[str(n - f + 1)]] += rho(f)

    model = MarkovModel(
        states=tuple(labels),
        rates=tuple(tuple(row) for row in rates),
        initial=index[str(n)],
        absorbing=frozenset(absorbing),
    )
    model.check()
    return model


def mttdl_stripe(model: MarkovModel) -> float:
    """Expected days until absorption from the initial state.

    Solves t(s) * exit(s) = 1 + sum_r rate(s, r) t(r) over transient states
    by Gaussian elimination in exact rational arithmetic (the repair/failure
    rate ratio makes the float system catastrophically ill-conditioned).
    Returns inf when no absorbing state is reachable.
    """
    size = len(model.states)
    transient = [i for i in range(size) if i not in model.absorbing]
    # reachability of the absorbing set
    reach = {model.initial}
    frontier = [model.initial]
    while frontier:
        s = frontier.pop()
        for j in range(size):
            if model.rates[s][j] > 0 and j not in reach:
                reach.add(j)
                frontier.append(j)
    if not (reach & model.absorbing):
        return math.inf

    idx = {s: i for i, s in enumerate(transient)}
    m = len(transient)
    A = [[Fraction(0)] * m for _ in range(m)]
    b = [Fraction(1)] * m
    for s in transient:
        i = idx[s]
        # the exit rate must be the exact sum of the same Fraction values
        # subtracted off-diagonal, or the near-singular balance breaks
        A[i][i] = sum(
            (Fraction(x) for x in model.rates[s] if x), Fraction(0)
        )
        for t in transient:
            if t != s and model.rates[s][t]:
                A[i][idx[t]] -= Fraction(model.rates[s][t])
    for c in range(m):
        piv = next((i for i in range(c, m) if A[i][c] != 0), None)
        if piv is None:
            return math.inf  # isolated transient subchain
        A[c], A[piv] = A[piv], A[c]
        b[c], b[piv] = b[piv], b[c]
        for i in range(c + 1, m):
            if A[i][c]:
                factor = A[i][c] / A[c][c]
                for j in range(c, m):
                    A[i][j] -= factor * A[c][j]
                b[i] -= factor * b[c]
    t = [Fraction(0)] * m
    for i in range(m - 1, -1, -1):
        acc = b[i]
        for j in range(i + 1, m):
            acc -= A[i][j] * t[j]
        t[i] = acc / A[i][i]
    return float(t[idx[model.initial]])


def mttdl_system(stripe_mttdl: float, n: int, params: ReliabilityParams) -> float:
    """System-level MTTDL in days: the stripe value divided by the number
    of stripes the cluster holds."""
    return stripe_mttdl / params.stripe_count(n)
