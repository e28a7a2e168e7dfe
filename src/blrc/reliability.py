"""Reliability modeling: mean time to data loss of a coded stripe.

A stripe of n blocks is modeled as a continuous-time birth-death chain
with killing.  State f counts the failed blocks; each failure arrives at
rate ((n - f) * lambda) and either moves to f + 1, when the resulting
erasure pattern is still decodable, or loses data.  Repairs move one state
down at rate gamma / (transfer_size * block_size).  The stripe MTTDL is
the expected time to data loss from f = 0; the system MTTDL divides by
the number of stripes in the cluster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
            value = getattr(self, name)
            if not value > 0:  # NaN fails this too
                raise ParamsError(f"{name} must be positive, got {value}")
            # an infinite MTTF is a stripe that never fails
            if math.isinf(value) and name != "mttf_days":
                raise ParamsError(f"{name} must be finite")
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
    parsers = {
        "C": ("total_bytes", lambda v: _parse_scaled(v, "B", scale)),
        "N": ("nodes", int),
        "B": ("block_bytes", lambda v: _parse_scaled(v, "B", scale)),
        "gamma": (
            "repair_bandwidth_bps",
            lambda v: _parse_scaled(v, "bps", scale),
        ),
        "mttf": ("mttf_days", parse_duration_days),
    }
    changes = {}
    for key, value in entries.items():
        if key not in parsers:
            raise ParamsError(f"unknown parameter key {key!r}")
        name, parse = parsers[key]
        try:
            changes[name] = parse(value)
        except ValueError:
            raise ParamsError(f"{key}: cannot parse value {value!r}") from None
    return replace(ReliabilityParams.defaults(units), **changes)


@dataclass(frozen=True)
class MarkovModel:
    """Birth-death chain with killing over the failure count f of a stripe.

    From state f, births[f] is the rate (per day) of a failure that leaves
    the stripe decodable (to f + 1), repairs[f] the rate of a repair (to
    f - 1) and kills[f] the rate of a failure that loses data.  The chain
    starts at f = 0.
    """

    births: tuple[float, ...]
    repairs: tuple[float, ...]
    kills: tuple[float, ...]

    def check(self) -> None:
        if not len(self.births) == len(self.repairs) == len(self.kills):
            raise AssertionError("rate tuples differ in length")
        if self.repairs[0] or self.births[-1]:
            raise AssertionError("repair out of f=0 or birth past the end")
        if any(x < 0 for x in self.births + self.repairs + self.kills):
            raise AssertionError("negative rate")


class ProfileError(ValueError):
    """The decodability profile is unusable for model construction."""


def build_model(
    report: MetricsReport,
    n: int,
    k: int,
    params: ReliabilityParams,
) -> MarkovModel:
    """Derive the failure/repair chain of one stripe from a metrics report.

    Repairs transfer the report's single and double repair bandwidths, and
    k blocks for deeper repairs.  The chain ends at the first failure count
    whose next failure can never be decoded.  Raises ParamsError when the
    stripe needs more nodes than the cluster has, when a rate overflows, or
    when the stripe count C / (n B) leaves the float range.
    """
    if n > params.nodes:
        raise ParamsError(
            f"a stripe of {n} blocks needs {n} distinct nodes;"
            f" N is {params.nodes}"
        )
    r = n - k
    profile = dict(report.decodability)
    prev = 1.0
    for f in sorted(profile):
        if profile[f] > prev + 1e-12:
            raise ProfileError(f"decodability increases at f={f}")
        prev = profile[f]

    def p(f: int) -> float:
        if f > r:
            return 0.0
        if f in profile:
            return profile[f]
        raise ProfileError(
            f"profile ends before p_{f} while states remain reachable"
        )

    b1, b2 = report.avg_repair_single, report.avg_repair_double
    f_last = 0
    while f_last < r and p(f_last + 1) > 0.0:
        f_last += 1

    lam = params.failure_rate_per_day
    bw_day = params.repair_bytes_per_day
    births, repairs, kills = [], [], []
    for f in range(f_last + 1):
        fail_rate = (n - f) * lam
        pf_next = p(f + 1) if f < f_last else 0.0
        births.append(fail_rate * pf_next)
        kills.append(fail_rate * (1.0 - pf_next))
        size = b1 if f == 1 else (b2 if f == 2 else float(k))
        repairs.append(bw_day / (size * params.block_bytes) if f else 0.0)
    if not all(math.isfinite(x) for x in births + repairs + kills):
        raise ParamsError(
            "failure and repair rates overflow; mttf, B or gamma is too"
            " extreme"
        )
    stripes = params.stripe_count(n)
    if not 0.0 < stripes < math.inf:
        raise ParamsError(
            f"C and B give {stripes:g} stripes of {n} blocks; C / (n B)"
            " leaves the float range"
        )

    model = MarkovModel(tuple(births), tuple(repairs), tuple(kills))
    model.check()
    return model


def mttdl_stripe(model: MarkovModel) -> float:
    """Expected days until data loss from f = 0.

    The chain is cut at its first state m without births.  A forward pass
    writes the expected time t_f = x_f + y_f t_{f+1}, eliminating t_{f-1}
    from t_f (b_f + k_f + r_f) = 1 + b_f t_{f+1} + r_f t_{f-1}; since
    y_m = 0, back-substitution starts at t_m = x_m.  The arithmetic is
    exact rational (the repair/failure rate ratio makes the float system
    catastrophically ill-conditioned).  Returns inf when data loss is not
    certain, as when no state up to the cut can be killed, and when the
    exact value exceeds the float range.
    """
    m = model.births.index(0.0)
    steps = []
    x = y = Fraction(0)
    for b, r, k in zip(model.births[: m + 1], model.repairs, model.kills):
        b, r = Fraction(b), Fraction(r)
        e = b + Fraction(k) + r * (1 - y)
        if not e:
            return math.inf
        x, y = (1 + r * x) / e, b / e
        steps.append((x, y))
    t = Fraction(0)
    for x, y in reversed(steps):
        t = x + y * t
    try:
        return float(t)
    except OverflowError:
        return math.inf


def mttdl_system(stripe_mttdl: float, n: int, params: ReliabilityParams) -> float:
    """System-level MTTDL in days: the stripe value divided by the number
    of stripes the cluster holds."""
    return stripe_mttdl / params.stripe_count(n)
