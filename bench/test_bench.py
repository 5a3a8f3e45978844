"""The benchmark's own tests.

    python3 -m unittest discover -s bench

Run from the root of a checkout.  The tests that start a worker import
hqsynth from ./src.
"""

import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

HD = workloads._inp("hard_drive.json")


def reply(out="", code=0, tb=None):
    return {"code": code, "out": out, "err": "", "traceback": tb,
            "latency_s": 0.01, "rss_kb": 1}


def fail_ratio(ops, replies):
    return len(check.check_batch(ops, replies)) / len(replies)


class FailRatio(unittest.TestCase):
    ops = [Op("ok", ["synth", HD], values={"expected": "3/4"}),
           Op("value", ["synth", HD], values={"expected": "3/4"}),
           Op("code", ["synth", HD, "--threshold", "3/5"], codes=(2,)),
           Op("crash", ["synth", HD], values={"expected": "3/4"})]

    def test_each_kind_of_failure_counts(self):
        replies = {
            "ok": reply("result = OK\nexpected = 3/4\n"),
            "value": reply("result = OK\nexpected = 1/2\n"),
            "code": reply("result = OK\nexpected = 3/4\n", code=0),
            "crash": reply(code=None, tb="Traceback ...\nTypeError: boom\n"),
        }
        failures = check.check_batch(self.ops, replies)
        self.assertEqual(set(failures), {"value", "code", "crash"})
        self.assertIn("expected = 1/2", failures["value"])
        self.assertIn("exit code 0", failures["code"])
        self.assertIn("TypeError", failures["crash"])
        self.assertEqual(fail_ratio(self.ops, replies), 3 / 4)

    def test_dead_worker_counts(self):
        replies = {"ok": {"error": "no answer within 60 s"}}
        self.assertEqual(fail_ratio(self.ops[:1], replies), 1)


class Invariants(unittest.TestCase):
    def group(self, worst, sure, expected, synth="1/2"):
        ops = [Op("s", [], group="g", role="synth"),
               Op("w", [], group="g", role="worst-case"),
               Op("a", [], group="g", role="almost-sure"),
               Op("e", [], group="g", role="expected")]
        replies = {"s": reply(f"expected = {synth}\n"),
                   "w": reply(f"worst-case = {worst}\n"),
                   "a": reply(f"almost-sure = {sure}\n"),
                   "e": reply(f"expected = {expected}\n")}
        return check.check_batch(ops, replies)

    def test_ordered_values_pass(self):
        self.assertEqual(self.group("0", "1/4", "1/2"), {})

    def test_worst_case_above_almost_sure(self):
        self.assertEqual(set(self.group("1/2", "1/4", "1/2")), {"w"})

    def test_almost_sure_above_expected(self):
        self.assertEqual(set(self.group("0", "3/4", "1/2")), {"a"})

    def test_synthesis_disagrees_with_evaluation(self):
        self.assertEqual(set(self.group("0", "1/4", "1/2", synth="3/4")), {"s"})

    def test_floor_below_threshold(self):
        op = Op("t", ["synth"], codes=(0, 2))
        out = "result = OK\nexpected = 1/2\nthreshold = 1/2\nfloor = 1/4\n"
        self.assertIn("t", check.check_batch([op], {"t": reply(out)}))

    def test_simulate_within_five_standard_errors(self):
        op = Op("m", ["simulate"], role="simulate")
        near = "samples = 100\nestimate = 1/2\nexact = 11/20\nstderr = 0.05\n"
        far = "samples = 100\nestimate = 1/5\nexact = 11/20\nstderr = 0.05\n"
        self.assertEqual(check.check_batch([op], {"m": reply(near)}), {})
        self.assertIn("m", check.check_batch([op], {"m": reply(far)}))


class Generator(unittest.TestCase):
    def test_same_seed_same_specs(self):
        a = workloads.small_specs(7, 2, "w").files
        b = workloads.small_specs(7, 2, "w").files
        c = workloads.small_specs(7, 3, "w").files
        self.assertEqual(a, b)
        self.assertNotEqual(workloads.specs_digest(a), workloads.specs_digest(c))

    def test_every_variant_is_drawn(self):
        docs = workloads.small_specs(1, 0, "w").files.values()
        self.assertTrue(any("distribution" in d for d in docs))
        self.assertTrue(any("hard_constraint" in d for d in docs))
        self.assertTrue(any("assumption" in d and "threshold" in d for d in docs))

    def test_variants_avoid_known_defects(self):
        for doc in workloads.small_specs(1, 0, "w").files.values():
            if "distribution" in doc:
                rows = {}
                for t in doc["distribution"]["transitions"]:
                    rows.setdefault((t["from"], bool(t["output"])), []).append(
                        (t["to"], t["prob"]))
                for s in range(4):
                    self.assertEqual(rows[s, False], rows[s, True])
            if "hard_constraint" in doc:
                self.assertNotIn(" U ", doc["hard_constraint"])
            self.assertLessEqual(doc["formula"].count(" U "), 1)

    def test_satisfiable(self):
        self.assertTrue(workloads.satisfiable(("min", None, "i0", ("next", None, "i1")),
                                              ["i0", "i1"], 1))
        self.assertFalse(workloads.satisfiable(("min", None, "i0", ("not", None, "i0")),
                                               ["i0", "i1"], 0))


class Percentiles(unittest.TestCase):
    def test_band_mean_averages_the_ranks_around_a_percentile(self):
        xs = [9, 0, 8, 1, 7, 2, 6, 3, 5, 4]
        self.assertEqual(run.band_mean(xs, 0.4, 0.6), 4.5)
        self.assertEqual(run.band_mean(xs, 0.85, 0.95), 8)
        self.assertEqual(run.band_mean([3.0], 0.85, 0.95), 3.0)


class LayerMetrics(unittest.TestCase):
    def test_self_time_excludes_children(self):
        spans = [["cli", 0.0, 10.0, None, "x", 0],
                 ["automata.dpw_for", 1.0, 5.0, 0, "x", 0],
                 ["automata.ltl_to_nbw", 1.0, 4.0, 1, "x", 7],
                 ["automata.dpw_for", 6.0, 6.5, 0, "x", 0],
                 ["mdp.linsolve", 7.0, 9.0, 0, "x", 12]]
        m, shares = tracer.layer_metrics([spans], batches=1)
        self.assertAlmostEqual(m["cli.self_s"], 3.5)
        self.assertAlmostEqual(m["automata.ltl_to_nbw_s"], 3.0)
        self.assertEqual(m["automata.nbw_states"], 7)
        self.assertEqual(m["automata.dpw_cache_hit_ratio"], 0.5)
        self.assertEqual(m["mdp.linsolve_max_unknowns"], 12)
        self.assertAlmostEqual(shares["automata"], 0.3)
        self.assertAlmostEqual(shares["linsolve+ergodic"], 0.2)


@unittest.skipUnless(os.path.isfile(os.path.join(run.SRC, "hqsynth", "cli.py")),
                     "needs the hqsynth sources in ./src")
class RealWorker(unittest.TestCase):
    def test_wrong_references_fail_through_a_worker(self):
        ops = [Op("ok", ["synth", HD], values={"expected": "3/4"}),
               Op("value", ["synth", HD], values={"expected": "1/2"}),
               Op("code", ["synth", HD, "--threshold", "3/5"], codes=(0,))]
        tmp = tempfile.mkdtemp()
        try:
            with open(os.path.join(tmp, "err"), "w") as errlog:
                r = run.run_batch(workloads.Batch(ops, fresh=True), False, errlog,
                                  float("inf"))
        finally:
            shutil.rmtree(tmp)
        self.assertEqual(set(check.check_batch(ops, r.replies)), {"value", "code"})
        self.assertEqual([len(t.setups) for t in r.timed], [1, 1, 1])

    def test_known_defects_are_reported(self):
        tmp = tempfile.mkdtemp()
        try:
            with open(os.path.join(tmp, "err"), "w") as errlog:
                defects = run.known_defects(errlog)
        finally:
            shutil.rmtree(tmp)
        self.assertEqual(set(defects), {op.id for op in workloads.KNOWN_DEFECTS})
        self.assertTrue(all(isinstance(why, str) for why in defects.values()))

    def test_traced_worker_records_spans(self):
        ops = [Op("ok", ["synth", HD], values={"expected": "3/4"})]
        tmp = tempfile.mkdtemp()
        try:
            with open(os.path.join(tmp, "err"), "w") as errlog:
                r = run.run_batch(workloads.Batch(ops, fresh=False), True, errlog,
                                  float("inf"))
        finally:
            shutil.rmtree(tmp)
        names = {s[tracer.NAME] for s in r.spans[0]}
        self.assertTrue({"cli", "synthesis", "automata.dpw_for", "automata.determinize",
                         "mdp.linsolve", "evaluation.exact"} <= names)
        self.assertEqual(check.check_batch(ops, r.replies), {})


if __name__ == "__main__":
    unittest.main()
