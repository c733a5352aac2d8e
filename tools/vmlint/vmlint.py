#!/usr/bin/env python3
"""vmlint — vmstorm's project static-analysis driver.

Usage:
  tools/vmlint/vmlint.py [--root DIR] [--rules r1,r2,...] [--strict]
                         [--baseline FILE] [--fix-baseline]
                         [--stats FILE] [--list-rules]

Runs the registered rules (see rules/__init__.py) over src/, tests/,
bench/, examples/ and tools/ (each rule scopes itself further). Exit 0
when clean, 1 on findings (or, with --strict, stale baseline entries),
2 on usage/configuration errors.

  --rules         comma-separated subset (default: all). Token rules:
                  determinism, coro-capture, layer-dag, status-discipline.
                  Call-graph rules (cross-TU, see callgraph.py):
                  lock-across-await, span-coverage, determinism-taint,
                  env-read-discipline.
  --baseline      grandfathered-findings file
                  (default: tools/vmlint/baseline.txt under --root)
  --fix-baseline  rewrite the baseline from current findings and exit 0
  --stats FILE    write machine-readable run stats as JSON ("-" = stdout):
                  per-rule wall timings and finding counts, plus call-graph
                  size (functions, call sites, blocking set size) when a
                  graph rule ran
  --strict        fail on stale baseline entries too (CI mode)
  --list-rules    print "name: description" per rule and exit

Suppress a deliberate finding with `// vmlint:allow(<rule>) <reason>` on
the same line or the line above; sub-rule names (e.g. naked-value) work
too, as does the legacy `lint:allow(...)` spelling.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import core                      # noqa: E402
from rules import ALL_RULES, make_rules  # noqa: E402


def _write_stats(path, project, result, n_new, n_grandfathered, n_stale):
    graph = getattr(project, "_vmlint_callgraph", None)
    flow = getattr(project, "_vmlint_dataflow", None)
    stats = {
        "schema": "vmstorm-vmlint-stats-v1",
        "files": len(project.files),
        "rules": result.timings,
        "total_seconds": round(sum(r["seconds"] for r in result.timings), 4),
        "findings": n_new,
        "grandfathered": n_grandfathered,
        "stale_entries": n_stale,
        "callgraph": graph.stats if graph is not None else None,
        "dataflow": flow.stats if flow is not None else None,
    }
    text = json.dumps(stats, indent=2, sort_keys=True) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)


def main(argv):
    ap = argparse.ArgumentParser(prog="vmlint", add_help=True)
    ap.add_argument("--root", default=os.getcwd())
    ap.add_argument("--rules", default=None,
                    help="comma-separated rule names (default: all)")
    ap.add_argument("--baseline", default=None)
    ap.add_argument("--fix-baseline", action="store_true")
    ap.add_argument("--stats", default=None, metavar="FILE",
                    help="write run statistics as JSON ('-' for stdout)")
    ap.add_argument("--strict", action="store_true")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args(argv)

    if args.list_rules:
        for cls in ALL_RULES:
            print(f"{cls.name}: {cls.description}")
        return 0

    root = os.path.abspath(args.root)
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"vmlint: no src/ under {root}", file=sys.stderr)
        return 2
    baseline_path = args.baseline or os.path.join(
        root, "tools", "vmlint", "baseline.txt")

    try:
        rules = make_rules(args.rules.split(",") if args.rules else None)
        project = core.walk_project(root)
        result = core.run_rules(project, rules)
    except ValueError as err:
        print(f"vmlint: {err}", file=sys.stderr)
        return 2

    findings = result.findings
    if args.fix_baseline:
        keys = [f.baseline_key(sf) for f, sf in findings]
        core.save_baseline(baseline_path, keys)
        print(f"vmlint: baseline rewritten with {len(keys)} entr(ies) "
              f"at {os.path.relpath(baseline_path, root)}")
        return 0

    baseline = core.load_baseline(baseline_path)
    new, grandfathered, stale = core.apply_baseline(findings, baseline)

    if args.stats:
        _write_stats(args.stats, project, result, len(new),
                     len(grandfathered), len(stale))
    return core.print_report(new, grandfathered, stale,
                             len(project.files), len(rules), args.strict)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
