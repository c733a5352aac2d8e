#!/usr/bin/env python3
"""Smoke test for the perfbench harness.

    python3 perfbench/test_smoke.py

Runs every workload at a small instance count, end to end and traced, and
asserts that each emits exactly the metrics BENCHMARK.json names, with
their units, and that every check passes. Then it doctors real driver
results to show that each output check can fail: swapped orderings, a
failed phase call, a broken mirror invariant, lost trace lines and a
perturbed simulation are all caught. Last, it scales the CPU times and
peak RSS of a real (build under test, reference build) pair to show that
the end-to-end metrics follow the build under test and that a change of
host speed common to both builds cancels out.
"""
import copy
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

# Small enough for seconds per run; paper_110 keeps its orderings at 30.
SMALL = {"scale_10k": 64, "paper_110": 30, "back_and_forth": 32,
         "traced_4k": 64}


def arm(res, strategy):
    return next(a for a in res["arms"] if run.short(a["strategy"]) == strategy)


def phase(res, strategy, call):
    return next(p for p in arm(res, strategy)["phases"] if p["call"] == call)


def failing(res):
    return [name for name, ok in run.checks(res) if not ok]


class MetricsEmitted(unittest.TestCase):
    def test_every_workload_emits_every_metric_with_its_unit(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(run.WORKLOADS))
        for workload in run.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    p = subprocess.run(
                        [sys.executable, os.path.join(HERE, "run.py"),
                         "--workload", workload, "--seconds", "0",
                         "--trace", str(trace),
                         "--instances", str(SMALL[workload])],
                        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                        text=True, check=True)
                    res = json.loads(p.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(res), {"correct", "attempted",
                                                "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreater(res["attempted"], 0)
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    want = {m["name"]: m["unit"] for m in spec[key]}
                    self.assertEqual(got, want)
                    for name, m in res["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)


class ReportFollowsSpec(unittest.TestCase):
    def test_missing_or_extra_metric_is_refused(self):
        e2e = {m["name"]: 1.0 for m in run.SPEC["end_to_end"]}
        self.assertEqual(set(run.report("end_to_end", e2e)), set(e2e))
        with self.assertRaises(RuntimeError):
            run.report("end_to_end", dict(e2e, extra_s=1.0))
        del e2e["host_time_rel"]
        with self.assertRaises(RuntimeError):
            run.report("end_to_end", e2e)


class ChecksCanFail(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        exe = run.build()["live"]
        cls.res = {w: run.drive([run.command(exe, w, 2011, SMALL[w])])[0]
                   for w in run.WORKLOADS}
        cls.traced = run.drive([run.command(
            exe, "back_and_forth", 2011, SMALL["back_and_forth"],
            ("--traced", "1"))])[0]

    def doctored(self, workload):
        return copy.deepcopy(self.res[workload])

    def test_real_runs_pass(self):
        for w, res in self.res.items():
            self.assertEqual(failing(res), [], w)
        self.assertEqual(failing(self.traced), [])
        self.assertTrue(run.same_simulation(self.traced,
                                            self.res["back_and_forth"]))

    def test_swapped_boot_ordering_is_caught(self):
        r = self.doctored("paper_110")
        a, b = phase(r, "taktuk", "multideploy"), phase(r, "ours", "multideploy")
        a["boot_mean_s"], b["boot_mean_s"] = b["boot_mean_s"], a["boot_mean_s"]
        self.assertIn("boot mean: taktuk < ours", failing(r))
        r = self.doctored("paper_110")
        a, b = phase(r, "qcow2", "multideploy"), phase(r, "ours", "multideploy")
        a["boot_mean_s"], b["boot_mean_s"] = b["boot_mean_s"], a["boot_mean_s"]
        self.assertIn("boot mean: ours < qcow2", failing(r))

    def test_swapped_completion_ordering_is_caught(self):
        r = self.doctored("paper_110")
        a, b = phase(r, "qcow2", "multideploy"), phase(r, "ours", "multideploy")
        a["completion_s"], b["completion_s"] = b["completion_s"], a["completion_s"]
        self.assertIn("completion: ours < qcow2", failing(r))
        r = self.doctored("paper_110")
        a, b = phase(r, "qcow2", "multideploy"), phase(r, "taktuk", "multideploy")
        a["completion_s"], b["completion_s"] = b["completion_s"], a["completion_s"]
        self.assertIn("completion: qcow2 < taktuk", failing(r))

    def test_traffic_orderings_are_caught(self):
        r = self.doctored("paper_110")
        phase(r, "ours", "multideploy")["traffic_bytes"] = (
            phase(r, "taktuk", "multideploy")["traffic_bytes"] // 5)
        self.assertIn("traffic: ours <= 10% of taktuk", failing(r))
        r = self.doctored("paper_110")
        a, b = phase(r, "qcow2", "multideploy"), phase(r, "ours", "multideploy")
        a["traffic_bytes"], b["traffic_bytes"] = b["traffic_bytes"] + 1, a["traffic_bytes"]
        self.assertIn("traffic: ours >= qcow2", failing(r))

    def test_failed_phase_call_is_caught(self):
        r = self.doctored("back_and_forth")
        phase(r, "ours", "resume_boot")["ok"] = False
        self.assertIn("ours.resume_boot ok", failing(r))
        r = self.doctored("scale_10k")
        phase(r, "ours", "multisnapshot")["ok"] = False
        self.assertIn("ours.multisnapshot ok", failing(r))

    def test_broken_single_region_invariant_is_caught(self):
        for w in ("scale_10k", "back_and_forth"):
            r = self.doctored(w)
            arm(r, "ours")["metrics"]["gauges"]["mirror.single_region_invariant"] = 0
            self.assertIn("mirror.single_region_invariant", failing(r), w)

    def test_lost_trace_lines_are_caught(self):
        r = self.doctored("traced_4k")
        phase(r, "ours", "trace_jsonl")["lines"] -= 1
        self.assertIn("trace_jsonl lines == retained records", failing(r))

    def test_perturbed_simulation_is_caught(self):
        ref = self.res["back_and_forth"]
        r = copy.deepcopy(self.traced)
        arm(r, "ours")["engine"]["events"] += 1
        self.assertFalse(run.same_simulation(r, ref))
        r = copy.deepcopy(self.traced)
        phase(r, "qcow2", "resume_boot")["completion_s"] *= 1.000001
        self.assertFalse(run.same_simulation(r, ref))


class RelativeMetrics(unittest.TestCase):
    """The end-to-end metrics follow the build under test, not the host."""

    @classmethod
    def setUpClass(cls):
        exes = run.build()
        cls.live, cls.ref = run.drive([
            run.command(exes[w], "paper_110", 2011, SMALL["paper_110"])
            for w in ("live", "ref")])

    def scaled(self, factor):
        live = copy.deepcopy(self.live)
        for a in live["arms"]:
            a["setup_cpu_s"] *= factor
            for p in a["phases"]:
                p["cpu_s"] *= factor
        live["peak_rss_mib"] *= factor
        return live

    def test_identical_builds_read_about_one(self):
        m = run.end_to_end("paper_110", [(self.live, self.ref)])
        self.assertAlmostEqual(m["host_time_rel"], 1.0, delta=0.1)
        self.assertAlmostEqual(m["peak_rss_rel"], 1.0, delta=0.01)

    def test_slower_build_reads_slower(self):
        base = run.end_to_end("paper_110", [(self.live, self.ref)])
        slow = run.end_to_end("paper_110", [(self.scaled(1.5), self.ref)])
        for k in ("host_time_rel", "setup_s", "peak_rss_rel"):
            self.assertAlmostEqual(slow[k] / base[k], 1.5, places=6, msg=k)

    def test_host_speed_cancels(self):
        # A host that is 1.5x slower for both builds changes nothing.
        ref = copy.deepcopy(self.ref)
        for a in ref["arms"]:
            a["setup_cpu_s"] *= 1.5
            for p in a["phases"]:
                p["cpu_s"] *= 1.5
        ref["peak_rss_mib"] *= 1.5
        base = run.end_to_end("paper_110", [(self.live, self.ref)])
        both = run.end_to_end("paper_110", [(self.scaled(1.5), ref)])
        for k in base:
            self.assertAlmostEqual(both[k], base[k], places=9, msg=k)


if __name__ == "__main__":
    unittest.main()
