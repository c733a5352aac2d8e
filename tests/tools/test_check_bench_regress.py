#!/usr/bin/env python3
"""Unit tests for tools/check_bench_regress.py.

Builds fresh/baseline artifact pairs in memory and runs them through
compare(): deterministic "sim" counters must match bit-for-bit, host
measurements are not compared (perfbench gates those), and config drift is
reported as a stale baseline rather than a regression.
"""
import copy
import importlib.util
import pathlib
import sys
import unittest

TOOL = (pathlib.Path(__file__).resolve().parents[2] / "tools"
        / "check_bench_regress.py")
spec = importlib.util.spec_from_file_location("check_bench_regress", TOOL)
cbr = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cbr)


def arm(name, events=100000.0, rss=1 << 24):
    return {"name": name, "wall_seconds": 1.0, "events_per_sec": events,
            "peak_rss_bytes": rss}


def doc():
    return {
        "schema": "vmstorm-engine-v1",
        "quick": True,
        "config": {"seed": 2011, "fingerprint": "0123456789abcdef"},
        "sim": {"events_processed": 180791, "events_scheduled": 190000,
                "trace": {"recorded": 1000, "dropped_ring": 0}},
        "timeline": {"cadence_seconds": 0.25, "samples": 14,
                     "time": [0.25, 0.5], "series": []},
        "overhead": {"arms": [arm("off"), arm("sampled"), arm("full")]},
    }


class RegressTest(unittest.TestCase):
    def test_identical_artifacts_pass(self):
        self.assertEqual(cbr.compare(doc(), doc()), [])

    def test_sim_drift_is_exact_fail(self):
        fresh = doc()
        fresh["sim"]["events_processed"] += 1
        errors = cbr.compare(fresh, doc())
        self.assertTrue(any("sim.events_processed" in e for e in errors))

    def test_nested_trace_drift_fails(self):
        fresh = doc()
        fresh["sim"]["trace"]["recorded"] += 1
        self.assertTrue(cbr.compare(fresh, doc()))

    def test_timeline_drift_fails(self):
        fresh = doc()
        fresh["timeline"]["time"][1] = 0.75
        errors = cbr.compare(fresh, doc())
        self.assertTrue(any("timeline" in e for e in errors))

    def test_missing_baseline_timeline_is_skipped(self):
        # Baselines from builds that predate the timeline lack the key;
        # that must not fail the fresh artifact.
        baseline = doc()
        del baseline["timeline"]
        self.assertEqual(cbr.compare(doc(), baseline), [])

    def test_null_baseline_timeline_is_skipped(self):
        baseline = doc()
        baseline["timeline"] = None
        self.assertEqual(cbr.compare(doc(), baseline), [])

    def test_overhead_section_is_not_compared(self):
        # Host figures vary with the machine; perfbench gates them against
        # its reference build, so no drift here may fail the artifact.
        fresh = doc()
        for a in fresh["overhead"]["arms"]:
            a["events_per_sec"] /= 100
            a["peak_rss_bytes"] *= 100
        fresh["overhead"]["arms"] = fresh["overhead"]["arms"][:1]
        self.assertEqual(cbr.compare(fresh, doc()), [])

    def test_fingerprint_drift_is_stale_not_regressed(self):
        fresh = doc()
        fresh["config"]["fingerprint"] = "fedcba9876543210"
        fresh["sim"]["events_processed"] += 12345  # would fail exact compare
        errors = cbr.compare(fresh, doc())
        self.assertTrue(all("stale baseline" in e for e in errors))

    def test_quick_flag_mismatch_is_stale(self):
        fresh = doc()
        fresh["quick"] = False
        errors = cbr.compare(fresh, doc())
        self.assertTrue(any("stale baseline" in e and "quick" in e
                            for e in errors))

    def test_require_exact_sim_catches_drift_behind_stale_fingerprint(self):
        # The hole the flag closes: a change that touches the bench config
        # AND reorders events would otherwise only report "stale baseline",
        # and a routine regenerate would silently bless the new ordering.
        fresh = doc()
        fresh["config"]["fingerprint"] = "fedcba9876543210"
        fresh["sim"]["events_processed"] += 12345
        errors = cbr.compare(fresh, doc(), require_exact_sim=True)
        self.assertTrue(any("stale baseline" in e for e in errors))
        self.assertTrue(any("sim.events_processed" in e for e in errors))
        self.assertTrue(any("ordering change" in e for e in errors))

    def test_require_exact_sim_checks_timeline_behind_stale_baseline(self):
        fresh = doc()
        fresh["quick"] = False
        fresh["timeline"]["time"][1] = 0.75
        errors = cbr.compare(fresh, doc(), require_exact_sim=True)
        self.assertTrue(any("timeline" in e for e in errors))

    def test_require_exact_sim_stale_but_identical_sim_is_stale_only(self):
        # A pure config refresh (config changed, sim identical): the flag
        # must add nothing beyond the stale-baseline message.
        fresh = doc()
        fresh["config"]["fingerprint"] = "fedcba9876543210"
        fresh["overhead"]["arms"][0]["events_per_sec"] = 1.0
        errors = cbr.compare(fresh, doc(), require_exact_sim=True)
        self.assertTrue(errors)
        self.assertTrue(all("stale baseline" in e for e in errors))

    def test_require_exact_sim_unchanged_on_fresh_baseline(self):
        self.assertEqual(cbr.compare(doc(), doc(), require_exact_sim=True),
                         [])
        fresh = doc()
        fresh["sim"]["events_processed"] += 1
        with_flag = cbr.compare(fresh, doc(), require_exact_sim=True)
        without = cbr.compare(fresh, doc())
        self.assertEqual(with_flag, without)

    def test_require_exact_sim_flag_parses(self):
        # The CI job passes the flag on the command line; make sure argparse
        # accepts it (a typo here would fail every bench job).
        import contextlib
        import io
        help_text = io.StringIO()
        with contextlib.redirect_stdout(help_text):
            with self.assertRaises(SystemExit) as ctx:
                cbr.main(["check_bench_regress.py", "--help"])
        self.assertEqual(ctx.exception.code, 0)
        self.assertIn("--require-exact-sim", help_text.getvalue())

    def test_default_baseline_picked_by_quick_flag(self):
        quick = cbr.default_baseline({"quick": True})
        full = cbr.default_baseline({"quick": False})
        self.assertEqual(quick.name, "BENCH_engine_quick.json")
        self.assertEqual(full.name, "BENCH_engine.json")
        self.assertEqual(quick.parent, full.parent)
        self.assertEqual(quick.parent.name, "baselines")

    def test_compare_does_not_mutate_inputs(self):
        fresh, baseline = doc(), doc()
        snap_f, snap_b = copy.deepcopy(fresh), copy.deepcopy(baseline)
        cbr.compare(fresh, baseline)
        self.assertEqual(fresh, snap_f)
        self.assertEqual(baseline, snap_b)


if __name__ == "__main__":
    sys.exit(unittest.main())
