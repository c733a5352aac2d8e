#!/usr/bin/env python3
"""vmstorm host benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload <name> [--seed 2011] [--seconds 20]
                             [--trace 0|1] [--instances N]

It builds the driver (perfbench/driver.cpp) twice into .bench_build/perfbench:
"live" against src/, the build under test, and "ref" against ref/src/, a
frozen copy of vmstorm's sources (see README.md). A run is a series of
pairs: one fresh live process and one fresh ref process on --seed,
started together and pinned to the same CPU, so both see the same host
speed. Pairs run until one more would end past --seconds; there is always
at least one.

--trace 0 prints the end-to-end metrics (see README.md), each the median
over the pairs of live against ref:
  host_time_rel  CPU seconds inside the workload's Cloud phase calls, live/ref
  setup_s        CPU seconds constructing the workload's Clouds, live/ref,
                 times the reference's own set-up time (REF_SETUP_CPU_S)
  peak_rss_rel   VmHWM of the live process / VmHWM of the ref process
--trace 1 makes the same pairs, then one untraced and one traced live run
alone on --seed, and prints the per-layer metrics (see README.md).

Every live run is checked (see checks()); a failed check or a failed phase
call counts in "failed". The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics. The metric names and units are
read from BENCHMARK.json. The workload seed feeds the simulation's
CloudConfig::seed; the same seed gives the same simulation.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("scale_10k", "paper_110", "back_and_forth", "traced_4k")
STRATEGIES = {"taktuk pre-propagation": "taktuk",
              "qcow2 over PVFS": "qcow2",
              "our approach": "ours"}
# The reference build's set-up CPU seconds (all of a workload's Clouds, run
# alone, median of five runs on the machine in README.md). setup_s is this
# times the build under test's set-up CPU time relative to the reference's.
REF_SETUP_CPU_S = {"scale_10k": 0.0172, "paper_110": 0.00475,
                   "back_and_forth": 0.00149, "traced_4k": 0.00625}
MIB = 1024.0 * 1024.0
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# Phase call -> the cloud.* / mem.* name of its phase.
PHASE = {"multideploy": "deploy", "multisnapshot": "snapshot",
         "run_app_phase": "app", "resume_boot": "resume"}
# Exact counters summed over a workload's Clouds, from metrics_json().
REGISTRY = {
    "net.messages": "net.messages",
    "net.transfers": "net.transfers",
    "net.traffic_bytes": "net.total_traffic_bytes",
    "net.payload_bytes": "net.payload_bytes",
    "disk.cache_hits": "disk.cache_hits",
    "disk.cache_misses": "disk.cache_misses",
    "mirror.remote_fetches": "mirror.remote_fetches",
    "mirror.remote_bytes_fetched": "mirror.remote_bytes_fetched",
    "mirror.gapfill_bytes": "mirror.gapfill_bytes",
    "mirror.fragment_count": "mirror.fragment_count",
    "mirror.mirrored_bytes": "mirror.mirrored_bytes",
    "mirror.locate_calls": "mirror.locate_calls",
    "blob.commits": "blob.commits",
    "blob.clones": "blob.clones",
    "blob.locates": "blob.locates",
    "blob.fetches": "blob.fetches",
    "blob.metadata_nodes": "blob.metadata_nodes",
    "blob.metadata_node_visits": "blob.metadata_node_visits",
    "blob.stored_bytes": "blob.stored_bytes",
}


def report(kind, vals):
    """{name: (value, unit)} for every SPEC[kind] metric, in SPEC order."""
    want = [(m["name"], m["unit"]) for m in SPEC[kind]]
    if set(vals) != {name for name, _ in want}:
        raise RuntimeError(f"{kind} metrics computed != BENCHMARK.json: "
                           f"{sorted(set(vals) ^ {n for n, _ in want})}")
    return {name: (vals[name], unit) for name, unit in want}


# ---- build ------------------------------------------------------------------

def build_dir(which=""):
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench", which)


def build():
    """Configures (once) and builds the driver twice, against src/ (the
    build under test) and against ref/src/ (the frozen reference build);
    returns {"live": path, "ref": path}."""
    for need in ("src/CMakeLists.txt", "bench/util/bench_util.cpp",
                 "perfbench/ref/src/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            sys.exit(f"perfbench: {need} not found under {ROOT}; "
                     "run from a vmstorm source tree")
    log = sys.stderr
    exes = {}
    for which, tree in (("live", ROOT), ("ref", os.path.join(HERE, "ref"))):
        out = build_dir(which)
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                            f"-DVMSTORM_ROOT={tree}"],
                           check=True, stdout=log, stderr=log)
        subprocess.run(["cmake", "--build", out, "--target", "vmstorm_perfbench",
                        "-j", str(min(os.cpu_count() or 1, 4))],
                       check=True, stdout=log, stderr=log)
        exes[which] = os.path.join(out, "vmstorm_perfbench")
    return exes


def clean_env():
    # VMSTORM_* knobs (tracing, timeline, ring size) would change the
    # workload; the driver sets what each workload needs explicitly.
    return {k: v for k, v in os.environ.items() if not k.startswith("VMSTORM_")}


def command(exe, workload, seed, instances, extra=()):
    cmd = [exe, "--workload", workload, "--seed", str(seed)]
    if instances:
        cmd += ["--instances", str(instances)]
    return cmd + list(extra)


def drive(cmds):
    """Runs the driver commands at once, all pinned to one CPU, and returns
    their results in order. One command is a solo run; two are a pair that
    shares the CPU, so both see the same host speed."""
    cpu = max(os.sched_getaffinity(0))
    procs = []
    try:
        for cmd in cmds:
            procs.append(subprocess.Popen(
                cmd, stdout=subprocess.PIPE, env=clean_env(), text=True,
                preexec_fn=lambda: os.sched_setaffinity(0, {cpu})))
        outs = [p.communicate(timeout=170)[0] for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
    for cmd, p in zip(cmds, procs):
        if p.returncode != 0:
            raise RuntimeError(f"driver exited {p.returncode}: {' '.join(cmd)}")
    return [json.loads(out.strip().splitlines()[-1]) for out in outs]


# ---- reading one driver result ----------------------------------------------

def short(strategy):
    return STRATEGIES[strategy]


def registry(arm, key):
    m = arm["metrics"]
    return m["counters"].get(key, m["gauges"].get(key, 0))


def model(res):
    """The simulated outputs of one run, keyed model.<what>.<strategy>."""
    out = {}
    for arm in res["arms"]:
        s = short(arm["strategy"])
        traffic = growth = 0
        for ph in arm["phases"]:
            traffic += ph.get("traffic_bytes", 0)
            growth += ph.get("repo_growth_bytes", 0)
            if ph["call"] == "multideploy":
                out[f"model.boot_mean_s.{s}"] = ph["boot_mean_s"]
                out[f"model.boot_p99_s.{s}"] = ph["boot_p99_s"]
                out[f"model.deploy_completion_s.{s}"] = ph["completion_s"]
            elif ph["call"] == "multisnapshot" and ph["ok"]:
                # The last round: the longest version chain.
                out[f"model.snapshot_completion_s.{s}"] = ph["completion_s"]
            elif ph["call"] == "resume_boot" and ph["ok"]:
                out[f"model.resume_completion_s.{s}"] = ph["completion_s"]
        out[f"model.traffic_gb.{s}"] = traffic / 1e9
        if s != "taktuk":
            out[f"model.repo_growth_mb.{s}"] = growth / 1e6
    return out


def phase_seconds(res, key="wall_s"):
    """Host seconds (wall_s or cpu_s) inside the run's Cloud phase calls."""
    return sum(p[key] for a in res["arms"] for p in a["phases"])


def setup_seconds(res, key="setup_s"):
    """Host seconds (setup_s or setup_cpu_s) constructing the run's Clouds."""
    return sum(a[key] for a in res["arms"])


def sim_counts(res):
    return {k: sum(a["engine"][k] for a in res["arms"])
            for k in ("events", "events_scheduled", "wait_records_created")}


def checks(res):
    """The output checks of one run: a list of (name, passed)."""
    out = []
    w = res["workload"]
    arms = {short(a["strategy"]): a for a in res["arms"]}
    for a in res["arms"]:
        for ph in a["phases"]:
            out.append((f"{short(a['strategy'])}.{ph['call']} ok", ph["ok"]))
    if w == "paper_110":
        m = model(res)
        boot = {s: m[f"model.boot_mean_s.{s}"] for s in arms}
        done = {s: m[f"model.deploy_completion_s.{s}"] for s in arms}
        # Fig. 4(d) is deployment traffic, so snapshot traffic is left out.
        dep = {s: next(p["traffic_bytes"] for p in arms[s]["phases"]
                       if p["call"] == "multideploy") for s in arms}
        out += [
            ("boot mean: taktuk < ours", boot["taktuk"] < boot["ours"]),
            ("boot mean: ours < qcow2", boot["ours"] < boot["qcow2"]),
            ("completion: ours < qcow2", done["ours"] < done["qcow2"]),
            ("completion: qcow2 < taktuk", done["qcow2"] < done["taktuk"]),
            ("traffic: ours <= 10% of taktuk", dep["ours"] <= 0.1 * dep["taktuk"]),
            ("traffic: ours >= qcow2", dep["ours"] >= dep["qcow2"]),
        ]
    if w in ("scale_10k", "back_and_forth"):
        out.append(("mirror.single_region_invariant",
                    registry(arms["ours"], "mirror.single_region_invariant") == 1))
    if w == "traced_4k":
        ex = next(p for p in arms["ours"]["phases"] if p["call"] == "trace_jsonl")
        out.append(("trace_jsonl lines == retained records",
                    ex["lines"] == arms["ours"]["trace"]["retained"]))
    return out


def phase_cpu(res):
    """CPU seconds per cloud.<phase>_rel.<strategy> name."""
    out = {}
    for arm in res["arms"]:
        s = short(arm["strategy"])
        for ph in arm["phases"]:
            kind = PHASE.get(ph["call"])
            if kind is not None:
                name = f"cloud.{kind}_rel.{s}"
                out[name] = out.get(name, 0.0) + ph["cpu_s"]
    return out


def per_layer(traced, solo, pairs):
    """Per-layer metrics: host times, memory and counters from the traced
    run, the untraced solo run's wall time, and each phase's CPU time
    relative to the reference build's, the median over the pairs. 0 where
    the workload does not run that strategy or phase."""
    vals = {m["name"]: 0.0 for m in SPEC["per_layer"]}
    rss0 = traced["rss_start_mib"]
    peak_rss = rss0
    instances = 0
    for arm in traced["arms"]:
        s = short(arm["strategy"])
        instances += arm["instances"]
        vals[f"mem.setup_mib.{s}"] = (arm["rss_after_setup_mib"]
                                      - arm["rss_before_setup_mib"])
        before = arm["rss_after_setup_mib"]
        for ph in arm["phases"]:
            kind = PHASE.get(ph["call"])
            if kind is not None:
                vals[f"cloud.{kind}_s.{s}"] += ph["wall_s"]
                vals[f"mem.{kind}_mib.{s}"] += ph["rss_after_mib"] - before
            if ph["call"] == "trace_jsonl":
                vals["obs.export_s"] = ph["wall_s"]
                vals["obs.export_bytes"] = ph["export_bytes"]
                vals["obs.export_mib"] = ph["export_peak_rss_mib"] - before
            before = ph["rss_after_mib"]
            peak_rss = max(peak_rss, before)
        if s == "qcow2":
            vals["cloud.repository_bytes.qcow2"] = arm["repository_bytes"]
        e, prof = arm["engine"], arm["profiler"]
        vals["sim.events"] += e["events"]
        vals["sim.events_scheduled"] += e["events_scheduled"]
        vals["sim.queue_depth_hw"] = max(vals["sim.queue_depth_hw"],
                                         e["queue_depth_hw"])
        vals["sim.wait_records_created"] += e["wait_records_created"]
        for k in ("queue_ops_s", "resume_s", "auditor_s", "user_work_s",
                  "tracer_s"):
            vals[f"engine.{k}"] += prof[k]
        vals["engine.ns_per_event"] += prof["run_s"]  # divided below
        for name, key in REGISTRY.items():
            vals[name] += registry(arm, key)
        for k in ("recorded", "dropped_ring", "dropped_sampling"):
            vals[f"trace.{k}"] += arm["trace"][k]
    vals["engine.ns_per_event"] *= 1e9 / max(vals["sim.events"], 1)
    vals["mem.bytes_per_instance"] = (peak_rss - rss0) * MIB / max(instances, 1)
    lookups = vals["disk.cache_hits"] + vals["disk.cache_misses"]
    vals["disk.cache_hit_ratio"] = vals["disk.cache_hits"] / max(lookups, 1)
    vals["blob.visits_per_locate"] = (vals["blob.metadata_node_visits"]
                                      / max(vals["blob.locates"], 1))
    vals.update(model(traced))
    vals["wall_s"] = phase_seconds(solo)
    vals["peak_rss_mib"] = solo["peak_rss_mib"]
    vals["bench.tracing_overhead_s"] = phase_seconds(traced) - phase_seconds(solo)
    rel = [(phase_cpu(live), phase_cpu(ref)) for live, ref in pairs]
    for name in rel[0][0]:
        vals[name] = statistics.median(l[name] / r[name] for l, r in rel)
    return vals


# ---- main -------------------------------------------------------------------

def same_simulation(a, b):
    return sim_counts(a) == sim_counts(b) and model(a) == model(b)


class Ledger:
    """Counts operations (phase calls and output checks) and failures."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.failures = []

    def add(self, results):
        for name, ok in results:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.failures.append(name)


def end_to_end(workload, pairs):
    """The end-to-end metrics of a run's (live, ref) pairs: each is the
    median over the pairs of the build under test against the reference
    build on the same seed."""
    setup = [live["setup_cpu_s"] / ref["setup_cpu_s"]
             for l, r in pairs for live, ref in zip(l["arms"], r["arms"])]
    return {
        "host_time_rel": statistics.median(
            phase_seconds(l, "cpu_s") / phase_seconds(r, "cpu_s")
            for l, r in pairs),
        "setup_s": REF_SETUP_CPU_S[workload] * statistics.median(setup),
        "peak_rss_rel": statistics.median(
            l["peak_rss_mib"] / r["peak_rss_mib"] for l, r in pairs),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=2011)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--instances", type=int, default=0,
                    help="override the workload's instance count (smoke test)")
    args = ap.parse_args()
    exes = build()

    def cmd(which, *extra):
        return command(exes[which], args.workload, args.seed, args.instances,
                       extra)

    ledger = Ledger()
    pairs = []  # (live, ref) results
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        # Alternate which build starts first.
        order = ("live", "ref") if len(pairs) % 2 == 0 else ("ref", "live")
        res = dict(zip(order, drive([cmd(which) for which in order])))
        ledger.add(checks(res["live"]))
        pairs.append((res["live"], res["ref"]))
        now = time.monotonic()
        # Stop before a pair that would end past --seconds.
        if now - start + (now - t0) > args.seconds:
            break

    if args.trace == 0:
        metrics = report("end_to_end", end_to_end(args.workload, pairs))
    else:
        spans = os.path.join(build_dir(), f"spans_{args.workload}_{args.seed}.jsonl")
        solo = drive([cmd("live")])[0]
        traced = drive([cmd("live", "--traced", "1", "--spans", spans)])[0]
        ledger.add(checks(solo))
        ledger.add(checks(traced))
        # Non-perturbation: the profiler, RSS sampling and spans must not
        # change the simulation.
        ledger.add([("traced run repeats the simulation",
                     same_simulation(traced, solo))])
        vals = per_layer(traced, solo, pairs)
        vals["ops_failed"] = ledger.failed / ledger.attempted
        metrics = report("per_layer", vals)
        print(f"perfbench: spans in {spans}", file=sys.stderr)

    for live, ref in pairs:
        print(f"perfbench {args.workload} seed={args.seed}: "
              f"{sim_counts(live)['events']} events, cpu_s live "
              f"{phase_seconds(live, 'cpu_s'):.4f} ref "
              f"{phase_seconds(ref, 'cpu_s'):.4f}, setup_cpu_s live "
              f"{setup_seconds(live, 'setup_cpu_s'):.6f} ref "
              f"{setup_seconds(ref, 'setup_cpu_s'):.6f}, peak_rss_mib "
              f"{live['peak_rss_mib']:.1f}", file=sys.stderr)
    if ledger.failures:
        print("perfbench FAILED: " + "; ".join(sorted(set(ledger.failures))),
              file=sys.stderr)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
