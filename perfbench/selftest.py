"""Self-tests of the benchmark: small smoke runs, and outputs the checks must refuse.

    python3 perfbench/selftest.py        # from the root of a checkout, about 30 s

The smoke runs use a small configuration (scan to 20,000; ten checks near
10^5) with every class number recomputed, so that an altered h is caught
wherever it sits.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import oracle  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

LIMIT = 20_000
SMALL = run.Config(scan_limit=LIMIT, check_count=10, check_exponents=(5.0, 5.5), row_sample=10**6, report_sample=10**6)


def _work_dir() -> str:
    base = os.path.join(HERE, ".work")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix="selftest-", dir=base)


def _program(*argv: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, "-m", "congruent.cli", *argv], cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    return done.stdout


class SmokeRuns(unittest.TestCase):
    def test_every_workload_reports_every_declared_metric(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            declared = json.load(fh)
        end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
        per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
        self.assertEqual([w["name"] for w in declared["workloads"]], list(run.WORKLOADS))
        for workload in run.WORKLOADS:
            for trace, expected in ((False, end_to_end), (True, per_layer)):
                with self.subTest(workload=workload, trace=trace):
                    result = run.run(workload, 7, 0.1, trace, ROOT, SMALL)
                    self.assertEqual(result["problems"], [])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    units = {k: m["unit"] for k, m in result["metrics"].items()}
                    self.assertEqual(units, expected)
                    if not trace:
                        self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_refuses_to_run_without_the_program(self):
        bare = _work_dir()
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns(".work", "__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "scan_cold", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120,
            )
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class TracerTargets(unittest.TestCase):
    def test_a_removed_name_is_absent_not_fatal(self):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        try:
            tracer = Tracer()
            tracer.install([("congruent.no_such_module", "f", "gone.module"), ("congruent.scan", "no_such_name", "gone.name")])
        finally:
            sys.path.remove(os.path.join(ROOT, "src"))
        self.assertEqual(tracer.absent, {"gone.module", "gone.name"})
        self.assertEqual(tracer.present, set())


class CheckerRefusesCorruptOutput(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        work = _work_dir()
        try:
            path = os.path.join(work, "rows.csv")
            _program("scan", "--max", str(LIMIT), "--out", path)
            cls.rows = oracle.read_csv(path)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        cls.ns = oracle.check_sample(1, 4, 5.0, 5.5)
        cls.reports = [json.loads(_program("check", "-n", str(n), "--json")) for n in cls.ns]

    def scan_problems(self, rows):
        return oracle.check_scan_rows(rows, LIMIT, 1, 10**6)

    def report_problems(self, reports):
        return oracle.check_reports(reports, self.ns, 1, 10**6)

    def altered(self, index, **changes):
        rows = [dict(r) for r in self.rows]
        rows[index].update(changes)
        return rows

    def test_program_output_passes(self):
        self.assertGreater(len(self.rows), 100)
        self.assertEqual(self.scan_problems(self.rows), [])
        self.assertEqual(self.report_problems(self.reports), [])

    def test_dropped_row(self):
        for i in (0, len(self.rows) // 2, -1):
            self.assertTrue(self.scan_problems(self.rows[:i] + self.rows[i:][1:]))

    def test_flipped_verdict(self):
        i = len(self.rows) // 3
        flipped = {"consistent": "non_congruent_certificate", "non_congruent_certificate": "consistent"}
        self.assertTrue(self.scan_problems(self.altered(i, verdict=flipped[self.rows[i]["verdict"]])))
        reports = [dict(r) for r in self.reports]
        reports[1]["verdict"] = flipped[reports[1]["verdict"]]
        self.assertTrue(self.report_problems(reports))

    def test_altered_h_n(self):
        i = len(self.rows) // 4
        modulus = int(self.rows[i]["modulus"])
        for delta in (1, modulus // 2, modulus):  # +modulus keeps every congruence law
            h_n = int(self.rows[i]["h_n"]) + delta
            self.assertTrue(self.scan_problems(self.altered(i, h_n=str(h_n))), delta)
        reports = [dict(r) for r in self.reports]
        reports[2]["h_n"] += reports[2]["modulus"]
        self.assertTrue(self.report_problems(reports))

    def test_r8_disagreeing_with_the_congruence(self):
        reports = [dict(r) for r in self.reports]
        reports[0]["r8_n"] = 1 - reports[0]["r8_n"]
        self.assertTrue(self.report_problems(reports))


if __name__ == "__main__":
    unittest.main()
