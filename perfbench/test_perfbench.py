"""Self-tests of the benchmark.

    python3 -m unittest discover -s perfbench -t perfbench

They check that corpora are reproducible from the seed, that the checker
rejects corrupted reports, and that the metric names the runner prints are
well formed and match ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import re
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402  (puts the checkout's src/ on sys.path)
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class CorpusTest(unittest.TestCase):
    def test_same_seed_same_corpus_other_seed_other_corpus(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                corpus = workloads.build(name, 7)
                self.assertEqual(corpus, workloads.build(name, 7))
                self.assertNotEqual(corpus, workloads.build(name, 8))

    def test_sizes_do_not_depend_on_the_seed(self):
        for seed in (1, 2):
            corpus = workloads.build("family3", seed)
            self.assertEqual(
                [len(text.split()) for _, text in corpus],
                list(workloads.FAMILY3_SYLLABLES),
            )
            crossings = [
                sum(abs(int(t.split("^")[1])) if "^" in t else 1 for t in text.split())
                for _, text in workloads.build("oracle_verify", seed)
            ]
            self.assertEqual(
                sorted(crossings),
                [c for c in workloads.ORACLE_CROSSINGS
                 for _ in range(workloads.ORACLE_PER_CROSSING)],
            )


class CheckerTest(unittest.TestCase):
    def setUp(self):
        import braidvol as bv

        word = bv.generate_words(bv.GeneratorSpec(n=3, syllable_count=8, seed=1))[0]
        self.row = json.loads(json.dumps(bv.analyze(word)))
        self.verify_row = bv.verify(
            bv.generate_words(
                bv.GeneratorSpec(n=3, syllable_count=4, negative_cap=3, seed=1)
            )[0]
        ).to_json_dict()

    def test_correct_rows_pass(self):
        self.assertEqual(checks.check_analyze_row(self.row, family=True), [])
        self.assertEqual(checks.check_verify_row(self.verify_row), [])

    def test_corrupted_analyze_rows_are_rejected(self):
        def corrupt(edit):
            row = json.loads(json.dumps(self.row))
            edit(row)
            return checks.check_analyze_row(row, family=True)

        self.assertTrue(corrupt(lambda r: r.update(neg_chi=r["neg_chi"] + 1)))
        self.assertTrue(corrupt(lambda r: r["circles"]["census"].update(small_inner=0)))
        self.assertTrue(corrupt(lambda r: r["schreier"].update(s=r["schreier"]["s"] + 1)))
        self.assertTrue(corrupt(lambda r: r["schreier"].update(hyperbolic=False)))
        self.assertTrue(corrupt(lambda r: r["bounds"].update(upper=-1.0)))
        self.assertTrue(corrupt(lambda r: r["main_lemma"].update({"pass": False})))
        self.assertTrue(corrupt(lambda r: r.update(schema="braidvol/2")))
        self.assertTrue(corrupt(lambda r: r.pop("turaev")))
        self.assertTrue(corrupt(lambda r: r.update(error="boom")))

    def test_words_outside_the_family_get_no_bounds(self):
        row = json.loads(json.dumps(self.row))
        row["main_lemma"]["pass"] = False
        self.assertTrue(checks.check_analyze_row(row, family=False))
        row["bounds"] = None
        self.assertEqual(checks.check_analyze_row(row, family=False), [])
        self.assertTrue(checks.check_analyze_row(row, family=True))

    def test_corrupted_verify_rows_are_rejected(self):
        row = json.loads(json.dumps(self.verify_row))
        row["checks"][0]["pass"] = False
        self.assertTrue(checks.check_verify_row(row))
        row = json.loads(json.dumps(self.verify_row))
        row["checks"] = [c for c in row["checks"] if c["name"] != "bracket_oracle"]
        self.assertTrue(checks.check_verify_row(row))


class MetricNameTest(unittest.TestCase):
    def setUp(self):
        self.bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

    def test_names_are_well_formed(self):
        names = [w["name"] for w in self.bench["workloads"]]
        for key in ("end_to_end", "per_layer"):
            names += [m["name"] for m in self.bench[key]]
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)))

    def test_benchmark_json_matches_the_runner(self):
        self.assertEqual(
            [(w["name"], w["why"]) for w in self.bench["workloads"]],
            [(name, why) for name, (_, why) in workloads.WORKLOADS.items()],
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in self.bench["end_to_end"]],
            run.END_TO_END,
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in self.bench["per_layer"]],
            spans.PER_LAYER,
        )

    def test_a_run_prints_exactly_the_declared_metrics(self):
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            with self.subTest(trace=trace):
                result = run.run("random_words", 3, 0, trace)
                self.assertEqual(result["failures"], {})
                self.assertEqual(
                    list(result["metrics"]),
                    [m["name"] for m in self.bench[key]],
                )


if __name__ == "__main__":
    unittest.main()
