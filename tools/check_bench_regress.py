#!/usr/bin/env python3
"""Compare a fresh BENCH_engine.json against a committed baseline.

Usage:  check_bench_regress.py FRESH.json [--baseline PATH]
            [--require-exact-sim]

The deterministic engine counters (and the trace volume accounting) in the
"sim" section are a pure function of the seed, so they must match the
baseline EXACTLY — any drift means the simulation's event order changed,
which is a behavioral regression however small. The optional "timeline"
section is deterministic too (sampled on the simulated clock) and is
compared exactly when both artifacts carry it.

Host measurements (the "overhead" section: events/sec, peak RSS) are not
compared here. perfbench (perfbench/run.py) gates host time and peak RSS
against its frozen reference build, with both builds sharing one CPU.

Mismatched schema, quick flag, or config fingerprint means the baseline is
stale rather than the build regressed; that fails with a distinct message
telling you to regenerate bench/baselines/.

--require-exact-sim hardens the gate for CI: the deterministic "sim" (and
"timeline") comparison runs even when the baseline looks stale, so a change
that both touches the bench config AND reorders events cannot hide behind
the "regenerate the baseline" message. Sim drift always needs explicit
sign-off (committing the new sim section IS that sign-off — once committed,
fresh runs match it again).

Default baseline: bench/baselines/BENCH_engine_quick.json when the fresh
artifact says "quick": true, else bench/baselines/BENCH_engine.json, both
relative to the repository root (this script's grandparent directory).

Exits non-zero and prints one line per violation. Pure stdlib.
"""
import argparse
import json
import pathlib
import sys


def compare(fresh, baseline, require_exact_sim=False):
    """Returns a list of violation strings (empty = no regression)."""
    stale = []
    for key in ("schema", "quick"):
        if fresh.get(key) != baseline.get(key):
            stale.append(
                f"stale baseline: {key} is {baseline.get(key)!r} in the "
                f"baseline but {fresh.get(key)!r} in the fresh artifact — "
                f"regenerate bench/baselines/")
    fp_fresh = fresh.get("config", {}).get("fingerprint")
    fp_base = baseline.get("config", {}).get("fingerprint")
    if fp_fresh != fp_base:
        stale.append(
            f"stale baseline: config fingerprint {fp_base!r} != fresh "
            f"{fp_fresh!r} — the bench configuration changed, regenerate "
            f"bench/baselines/")
    if stale and not require_exact_sim:
        return stale  # value comparisons are meaningless across configs
    errors = list(stale)

    # Deterministic section: exact match, deep. Under --require-exact-sim a
    # stale baseline does not excuse sim drift: event ordering must be
    # proven unchanged (or explicitly signed off by committing the new sim
    # section) independently of config refreshes.
    exact_note = ("deterministic counters must match exactly — sim drift "
                  "is an ordering change, not a baseline refresh"
                  if stale else
                  "deterministic counters must match exactly")
    if fresh.get("sim") != baseline.get("sim"):
        before = len(errors)
        for key, want in baseline.get("sim", {}).items():
            got = fresh.get("sim", {}).get(key)
            if got != want:
                errors.append(
                    f"sim.{key}: baseline {want!r}, fresh {got!r} "
                    f"({exact_note})")
        for key in fresh.get("sim", {}):
            if key not in baseline.get("sim", {}):
                errors.append(f"sim.{key}: present in fresh artifact only")
        if len(errors) == before:
            errors.append("sim sections differ")

    # Deterministic time series, when both sides have one.
    if ("timeline" in fresh and "timeline" in baseline
            and baseline["timeline"] is not None):
        if fresh["timeline"] != baseline["timeline"]:
            errors.append(
                "timeline section differs from the baseline "
                "(deterministic series must match exactly)")
    return errors


def default_baseline(fresh):
    root = pathlib.Path(__file__).resolve().parents[1]
    name = ("BENCH_engine_quick.json" if fresh.get("quick")
            else "BENCH_engine.json")
    return root / "bench" / "baselines" / name


def main(argv):
    ap = argparse.ArgumentParser(
        description="compare BENCH_engine.json against a committed baseline")
    ap.add_argument("fresh", help="freshly produced BENCH_engine.json")
    ap.add_argument("--baseline", help="baseline artifact "
                    "(default: bench/baselines/, picked by the quick flag)")
    ap.add_argument("--require-exact-sim", action="store_true",
                    help="compare the deterministic sim/timeline sections "
                    "even when the baseline is stale, so ordering changes "
                    "cannot hide behind a config refresh")
    args = ap.parse_args(argv[1:])

    try:
        fresh = json.loads(pathlib.Path(args.fresh).read_text())
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_bench_regress: cannot read {args.fresh}: {e}",
              file=sys.stderr)
        return 2
    baseline_path = (pathlib.Path(args.baseline) if args.baseline
                     else default_baseline(fresh))
    try:
        baseline = json.loads(baseline_path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_bench_regress: cannot read baseline {baseline_path}: "
              f"{e}", file=sys.stderr)
        return 2

    errors = compare(fresh, baseline,
                     require_exact_sim=args.require_exact_sim)
    for line in errors:
        print(f"{args.fresh}: {line}", file=sys.stderr)
    print(f"check_bench_regress: {args.fresh} vs {baseline_path}: "
          f"{len(errors)} problem(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
