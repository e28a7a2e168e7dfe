"""Each correctness check of the benchmark passes the library's real output
and rejects the same output with one planted fault.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import dataclasses
import random
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import oracles  # noqa: E402
from blrc import analysis, presets, reliability, search, sharding  # noqa: E402
from blrc.code import CodeSpec, assign_coefficients  # noqa: E402
from checks import CheckError  # noqa: E402


class Checks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.code = presets.blrc_16_10_w3()
        cls.P = cls.code.P.data
        cls.report = analysis.build_report(cls.code)
        cls.params = reliability.ReliabilityParams.defaults()

    def test_rebuilt_shard_with_a_flipped_byte(self):
        payload = random.Random(1).randbytes(10_007)
        shards = sharding.encode_stream(self.code, payload)
        plan = analysis.minimal_repair(self.code, (4, 13))
        rebuilt = sharding.repair_stream(
            self.code, plan, {b: shards[b - 1] for b in plan.helpers}
        )
        checks.check_same_bytes("shard 4", rebuilt[4], shards[3])
        bad = bytearray(rebuilt[4])
        bad[517] ^= 0x20
        with self.assertRaises(CheckError):
            checks.check_same_bytes("shard 4", bytes(bad), shards[3])

    def test_plan_one_helper_short(self):
        plan = analysis.minimal_repair(self.code, (2, 11))
        checks.check_plan(self.P, plan.erased, plan.helpers, plan.cost, True)
        short = plan.helpers[:-1]
        with self.assertRaises(CheckError):
            checks.check_plan(self.P, plan.erased, short, len(short), False)
        with self.assertRaises(CheckError):
            checks.check_plan(self.P, plan.erased, short, plan.cost, False)

    def test_plan_that_is_not_minimal(self):
        plan = analysis.minimal_repair(self.code, (5,))
        spare = next(b for b in range(1, 17) if b not in plan.helpers + (5,))
        longer = tuple(sorted(plan.helpers + (spare,)))
        checks.check_plan(self.P, plan.erased, longer, len(longer), False)
        with self.assertRaises(CheckError):
            checks.check_plan(self.P, plan.erased, longer, len(longer), True)

    def test_bytes_read_per_repair(self):
        checks.check_bytes_read(7 * 1000, 7, 1000)
        with self.assertRaises(CheckError):
            checks.check_bytes_read(8 * 1000, 7, 1000)

    def test_mttdl_off_by_one_percent(self):
        model = reliability.build_model(self.report, 16, 10, self.params)
        stripe = reliability.mttdl_stripe(model)
        system = reliability.mttdl_system(stripe, 16, self.params)
        checks.check_mttdl(self.report, 16, 10, self.params, stripe, system)
        with self.assertRaises(CheckError):
            checks.check_mttdl(self.report, 16, 10, self.params, stripe * 1.01, system * 1.01)
        with self.assertRaises(CheckError):
            checks.check_mttdl(self.report, 16, 10, self.params, stripe, system * 1.01)

    def test_searched_code_with_a_broken_column_census(self):
        cfg = search.SearchConfig(11, 7, 3, seed=5, max_iterations=6, patience=6, restarts=1)
        code, trace = search.hill_climb(cfg)
        entries = [(e.restart, e.iteration, e.objective, e.accepted, e.best)
                   for e in trace.entries]
        double = analysis.avg_repair_bandwidth_double(code).mean_cost
        checks.check_search(code.P.data, 2, entries, double)
        P = [list(row) for row in code.P.data]
        # move a mark from a light column to a heavy one: row weights stay
        # w, the two column weights leave {l, l+1}
        weights = [sum(1 for row in P if row[j]) for j in range(4)]
        light, heavy = min(weights), max(weights)
        i, a, b = next(
            (i, a, b)
            for i, row in enumerate(P)
            for a in range(4)
            for b in range(4)
            if row[a] and not row[b] and weights[a] == light and weights[b] == heavy
        )
        P[i][a], P[i][b] = 0, P[i][a]
        with self.assertRaises(CheckError):
            checks.check_balanced(P, 2)
        with self.assertRaises(CheckError):
            checks.check_search(P, 2, entries, double)

    def test_search_trace_that_climbs_or_misreports(self):
        entries = [(0, 0, 7.5, True, 7.5), (0, 1, 7.6, False, 7.5),
                   (0, 2, 7.4, True, 7.4)]
        P = self.P
        checks.check_search(P, 3, entries, 7.4)
        with self.assertRaises(CheckError):  # accepted objective rises
            checks.check_search(P, 3, entries + [(0, 3, 7.45, True, 7.4)], 7.4)
        with self.assertRaises(CheckError):  # a better proposal rejected
            checks.check_search(P, 3, entries + [(0, 3, 7.3, False, 7.4)], 7.4)
        with self.assertRaises(CheckError):  # returned code is not the best
            checks.check_search(P, 3, entries, 7.5)

    def test_report_profile_distance_and_averages(self):
        checks.check_report(self.report, self.P, 16, 10, 4, True, self.code.spec.l)
        plant = {
            "rising profile": {"decodability": {**self.report.decodability, 5: 0.999}},
            "census mismatch": {"decodability": {**self.report.decodability, 6: 0.8}},
            "distance above w+1": {"min_distance": 5},
            "distance below the screened w+1": {"min_distance": 3},
            "double below single": {"avg_repair_double": 4.5},
            "single above l+1": {"avg_repair_single": 6.5, "avg_repair_double": 8.0},
        }
        for what, fields in plant.items():
            with self.subTest(what), self.assertRaises(CheckError):
                bad = dataclasses.replace(self.report, **fields)
                checks.check_report(bad, self.P, 16, 10, 4, True, self.code.spec.l)

    def test_exact_averages(self):
        spec = CodeSpec(10, 6, 2)
        code = assign_coefficients(search.random_support(spec, seed=3), spec, seed=3)
        single = analysis.avg_repair_bandwidth_single(code)
        double = analysis.avg_repair_bandwidth_double(code).mean_cost
        checks.check_exact_averages(code.P.data, single, double)
        with self.assertRaises(CheckError):
            checks.check_exact_averages(code.P.data, single, double + 1 / 45)

    def test_encoded_stripe_with_a_wrong_parity_byte(self):
        payload = random.Random(2).randbytes(4_001)
        shards = sharding.encode_stream(self.code, payload)
        stripes = list(range(len(shards[0])))
        checks.check_encoded(self.P, payload, shards, stripes)
        bad = list(shards)
        body = bytearray(bad[12])
        body[99] ^= 1
        bad[12] = bytes(body)
        with self.assertRaises(CheckError):
            checks.check_encoded(self.P, payload, bad, stripes)

    def test_oracle_field_matches_definition(self):
        # x * x^7 = x^8 = x^4 + x^3 + x^2 + 1 under 0x11D
        self.assertEqual(oracles.gf_mul(2, 0x80), 0x1D)
        for a in range(1, 256):
            self.assertEqual(oracles.gf_mul(a, oracles._tables()[1][a]), 1)


if __name__ == "__main__":
    unittest.main()
