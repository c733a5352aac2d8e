"""determinism-taint: host-observable values must not reach deterministic
sinks.

The metrics Registry, the trace and the bench fingerprints are same-seed
byte-identical artifacts; the runtime double-run tests check that, and
this rule is the static proof: the interprocedural taint analysis
(dataflow.py, kind "host" in taint.toml) labels every value derived from
SelfProfiler::wall_now(), RSS reads or getenv, follows it through returns,
arguments and member stores, and reports when it reaches

  metric-write    a .set/.add/.record on a Registry handle (the Registry
                  holds only deterministic metrics)
  sim-schedule    an Engine::schedule_at time
  fingerprint     a Report::config entry (feeds the BENCH_*.json
                  config fingerprint)
  trace-payload   a Tracer span/cost/flow record (the trace JSONL is a
                  same-seed byte-identical artifact)

common::env_or() is the sanctioned sanitizer: env values are host-side
configuration, identical across the determinism oracle's double runs.

Scoped to src/ and bench/. Suppress a deliberate crossing with
`// vmlint:allow(determinism-taint) <reason>` at the sink line.
"""

import dataflow
from core import Finding


class DeterminismTaintRule:
    name = "determinism-taint"
    description = ("host taint (wall clock, RSS, env) reaching a "
                   "deterministic sink (metrics, schedule times, "
                   "fingerprints, trace payloads)")

    def prepare(self, project):
        self._kind = dataflow.get(project).kinds.get("host")

    def visit(self, sf, tokens):
        if self._kind is None or not sf.in_dir("src", "bench"):
            return []
        return [
            Finding(self.name, sf.rel, line,
                    f"host-tainted value reaches deterministic sink: {msg}",
                    subrule=label)
            for line, label, msg in self._kind.findings_by_rel.get(sf.rel, [])
        ]
