#!/usr/bin/env python3
"""Unit tests for the decision function of tools/perf_gate.py.

Feeds verdict() synthetic run.py results: A/A-like pairs (with one
outlier pair) pass, a uniform 15% slowdown fails and names its
workload, and an incorrect or op-losing run fails naming its side.

Run directly or via ctest (registered in tests/CMakeLists.txt).
"""

import os
import sys
import unittest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, os.pardir)
sys.path.insert(0, os.path.join(ROOT, "tools"))
import perf_gate  # noqa: E402


def result(rate, correct=True, failed=0):
    return {"correct": correct, "attempted": 3, "failed": failed,
            "metrics": {perf_gate.METRIC: {"value": rate,
                                           "unit": "Minstr/s"}}}


def failures(results):
    return [msg for passed, msg in perf_gate.verdict(results) if not passed]


def pairs(ratios, parent_rate=2.5):
    return [(result(parent_rate), result(parent_rate * r)) for r in ratios]


AA = [1.03, 0.97, 1.01, 0.99, 1.02, 0.98, 1.00, 0.96, 1.04, 0.995] * 2


class VerdictTest(unittest.TestCase):
    def test_aa_pairs_pass_despite_one_outlier(self):
        outlier = AA[:-1] + [0.5]
        lines = perf_gate.verdict({
            "canneal-amnt": pairs(AA),
            "mp-sweep": pairs(outlier),
        })
        self.assertEqual(len(lines), 2)
        self.assertTrue(all(passed for passed, _ in lines), lines)

    def test_losing_most_pairs_by_little_passes(self):
        # Slower in 18/20 pairs, but the mean stays above the bound.
        self.assertEqual(failures(
            {"kvstore-amnt": pairs([0.95] * 18 + [1.05] * 2)}), [])

    def test_uniform_slowdown_fails_naming_the_workload(self):
        got = failures({
            "canneal-amnt": pairs([0.85 * r for r in AA]),
            "kvstore-amnt": pairs(AA),
        })
        self.assertEqual(len(got), 1, got)
        self.assertTrue(got[0].startswith("canneal-amnt:"), got[0])
        self.assertIn("20/20", got[0])

    def test_incorrect_run_fails_naming_its_side(self):
        for side in (0, 1):
            for bad in (result(2.5, correct=False),
                        result(2.5, failed=1), None):
                runs = pairs(AA)
                pair = list(runs[4])
                pair[side] = bad
                runs[4] = tuple(pair)
                got = failures({"gups-sharded": runs})
                name = ("parent", "change")[side]
                self.assertEqual(len(got), 1, got)
                self.assertTrue(got[0].startswith(
                    f"gups-sharded: pair 5: the {name} run"), got[0])


if __name__ == "__main__":
    unittest.main()
