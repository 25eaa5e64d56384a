"""Tests of the benchmark itself: python3 -m unittest discover perfbench"""

import hashlib
import json
import os
import tempfile
import time
import unittest
from pathlib import Path

import checks
import run

# ``weights --q 2 --m-max 3 --format csv``, rows out of the first three
# edges a sweep from the base edge (1, 0) reaches.
WEIGHTS_Q2 = """from_k2,from_l2,to_k2,to_l2,weight
1,0,2,1,3
1,0,3,0,1
1,1,1,0,4
2,1,1,1,2
2,1,3,2,2
3,0,4,1,3
3,0,5,0,1"""


#: sha256 over (relative path, NUL, content) of every ``baseline/**/*.py``.
BASELINE_SHA256 = "6c5709b31ca4e3d9aef5bd31122af56fde35b86aa20cedc9c18bf2c3d398f5d3"


def table(rows: list[tuple[int, int]]) -> bytes:
    lines = [f"{'n':>4} {'count':>24}"] + [f"{n:>4} {c:>24}" for n, c in rows]
    return ("\n".join(lines) + "\n").encode()


class OutputChecks(unittest.TestCase):
    def test_formulas_match_seed_output(self):
        self.assertEqual([checks.expected_g(2, n) for n in (3, 6, 9)], [24, 1536, 98304])
        self.assertEqual([checks.expected_f(2, n) for n in (3, 6, 9)], [24, 960, 38400])

    def test_count_table_rejects_one_changed_digit(self):
        rows = [(n, checks.expected_g(2, n)) for n in (3, 6, 9)]
        good = table(rows)
        self.assertTrue(checks.count_table_ok(good, 2, 9, "g"))
        bad = good.replace(b"98304", b"98305")
        self.assertNotEqual(good, bad)
        self.assertFalse(checks.count_table_ok(bad, 2, 9, "g"))
        self.assertFalse(checks.count_table_ok(good, 2, 9, "f"))
        self.assertFalse(checks.count_table_ok(table(rows[:2]), 2, 9, "g"))

    def test_digest_rejects_one_changed_byte(self):
        out = b"OK: 21 checks, 20 passed, 1 skipped, 0 failed\n"
        sha = hashlib.sha256(out).hexdigest()
        self.assertTrue(checks.digest_ok(out, sha))
        self.assertFalse(checks.digest_ok(out.replace(b"20", b"21"), sha))


class WorkCounts(unittest.TestCase):
    def test_oracle_nodes_by_hand(self):
        self.assertEqual(checks.oracle_nodes(2, 1), 1 + 4)
        self.assertEqual(checks.oracle_nodes(3, 2), 1 + 9 + 81)
        self.assertEqual(checks.oracle_nodes(2, 2, dim=2), 1 + 2 + 4)
        self.assertEqual(sum(checks.oracle_nodes(2, n) for n in (3, 6, 9)), 355071)

    def test_edge_steps_by_hand(self):
        # supports: {(1,0)}, {(2,1), (3,0)}, {(1,1), (3,2), (4,1), (5,0)}
        steps = checks.EdgeSteps({2: checks.parse_weights_csv(WEIGHTS_Q2)}, 3)
        self.assertEqual(steps.call("dp_g", 2, 3), 1 + 2 + 4)
        self.assertEqual(steps.call("dp_f", 2, 3), 1 + 2 + 4)
        self.assertEqual(steps.call("dp_g", 2, 1), 0)
        self.assertEqual(steps.call("dp_profiles", 2, 2), 1 + 2)

    def test_taboo_drops_the_base_edge(self):
        a = (9, 9)
        succ = {checks.BASE_EDGE: {a}, a: {a, checks.BASE_EDGE}}
        self.assertEqual(checks.support_sizes(succ, 4, taboo=False), [1, 1, 2, 2])
        self.assertEqual(checks.support_sizes(succ, 4, taboo=True), [1, 1, 1, 1])

    def test_weights_csv_drops_zero_weights(self):
        succ = checks.parse_weights_csv("from_k2,from_l2,to_k2,to_l2,weight\n1,0,2,1,0\n1,0,3,0,1")
        self.assertEqual(succ, {(1, 0): {(3, 0)}})


class Spans(unittest.TestCase):
    def test_nested_spans_are_counted_once(self):
        spans = [
            ["cli.main", 0.0, 10.0, -1, None],
            ["building.oracle_counts", 1.0, 9.0, 0, None],
            ["building.oracle_g_f", 1.0, 8.0, 1, [2, 3, 3]],
            ["algebra.FiniteField", 1.0, 2.0, 2, None],
        ]
        fig = run.span_figures(spans)
        self.assertEqual(fig["cli.s"], 10.0)
        self.assertEqual(fig["cli.self_s"], 2.0)
        self.assertEqual(fig["building.s"], 8.0)
        self.assertEqual(fig["building.self_s"], 1.0 + 6.0)
        self.assertEqual(fig["building.calls"], 2)
        self.assertEqual(fig["building.oracle_g_f.s"], 7.0)
        self.assertEqual(fig["algebra.FiniteField.calls"], 1)


class SideBySide(unittest.TestCase):
    def test_pair_finishes_both_sides_and_leaves_nothing_running(self):
        cmd = run._count("closed-g", "count --method closed --kind g --q 2 --steps 6 --threads 1", 2, 6, "g")
        with tempfile.TemporaryDirectory() as tmp:
            runner = run.Runner(Path(tmp), time.perf_counter() + 60)
            mine, theirs = runner.pair(cmd, base_first=True)
        self.assertTrue(mine and theirs)
        self.assertTrue(all(o.ok and o.cpu > 0 for o in mine + theirs))
        with self.assertRaises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_baseline_is_the_frozen_copy(self):
        digest = hashlib.sha256()
        for f in sorted(run.BASELINE.rglob("*.py")):
            digest.update(f.relative_to(run.BASELINE).as_posix().encode() + b"\0" + f.read_bytes())
        self.assertEqual(digest.hexdigest(), BASELINE_SHA256)


class Contract(unittest.TestCase):
    def test_benchmark_json_lists_what_run_reports(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual(spec["paths"], [Path(run.HERE).name])


if __name__ == "__main__":
    unittest.main()
