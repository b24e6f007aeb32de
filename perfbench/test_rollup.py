"""Unit test of the span rollup on a synthetic trace.

    python3 perfbench/test_rollup.py
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from rollup import rollup  # noqa: E402


def span(name, tid, ts, dur):
    return {"name": name, "ph": "X", "pid": 1, "tid": tid, "ts": ts,
            "dur": dur}


class RollupTest(unittest.TestCase):
    def test_nested_spans_on_several_threads(self):
        events = [
            # Thread 1: A holds B (which holds C) and a second B; D starts
            # the instant A ends, so it is A's sibling, not its child.
            span("B", 1, 50, 20),
            span("A", 1, 0, 100),
            span("C", 1, 20, 10),
            span("B", 1, 10, 30),
            span("D", 1, 100, 10),
            # Thread 2 overlaps thread 1 in time; nothing on one thread may
            # be subtracted from a span on the other. B starts with A.
            span("B", 2, 5, 20),
            span("A", 2, 5, 50),
        ]
        stats = rollup(events)
        self.assertEqual(stats["A"]["count"], 2)
        self.assertAlmostEqual(stats["A"]["total_us"], 150)
        self.assertAlmostEqual(stats["A"]["self_us"], (100 - 30 - 20) + (50 - 20))
        self.assertEqual(stats["B"]["count"], 3)
        self.assertAlmostEqual(stats["B"]["total_us"], 70)
        self.assertAlmostEqual(stats["B"]["self_us"], (30 - 10) + 20 + 20)
        self.assertAlmostEqual(stats["C"]["self_us"], 10)
        self.assertAlmostEqual(stats["D"]["self_us"], 10)

    def test_child_rounded_past_parent_end_is_clipped(self):
        stats = rollup([span("P", 1, 0.0, 10.0), span("K", 1, 4.0, 6.001)])
        self.assertAlmostEqual(stats["P"]["self_us"], 4.0)
        self.assertAlmostEqual(stats["K"]["self_us"], 6.001)

    def test_non_complete_events_are_ignored(self):
        events = [span("P", 1, 0, 10), {"name": "n", "ph": "C", "tid": 1,
                                         "ts": 2}]
        self.assertEqual(set(rollup(events)), {"P"})


if __name__ == "__main__":
    unittest.main()
