"""rng-flow: simulated decisions must derive from vmstorm::Rng.

The determinism rule bans calling ambient randomness; this rule is its
interprocedural complement, the static twin of the dynamic double-run
oracle: even where a rand()/std::mt19937 value appears legally (or leaks
past a ban through a helper's return value), it must never *influence a
simulated decision*. The taint analysis (dataflow.py, kind "entropy" in
taint.toml) follows non-Rng entropy through returns, arguments and member
stores and reports when it reaches

  rng-seed        a vmstorm::Rng constructor/reseed/fork or the
                  mix64/splitmix64 seed derivation — a foreign generator
                  laundered into the sanctioned one
  sim-schedule    an Engine::schedule_at time
  metric-write    a deterministic Registry handle write

Scoped to src/. Suppress with `// vmlint:allow(rng-flow) <reason>`.
"""

import dataflow
from core import Finding


class RngFlowRule:
    name = "rng-flow"
    description = ("non-vmstorm::Rng entropy influencing a simulated "
                   "decision (Rng seeding, schedule times, metrics)")

    def prepare(self, project):
        self._kind = dataflow.get(project).kinds.get("entropy")

    def visit(self, sf, tokens):
        if self._kind is None or not sf.in_dir("src"):
            return []
        return [
            Finding(self.name, sf.rel, line,
                    f"non-Rng entropy reaches a simulated decision: {msg}",
                    subrule=label)
            for line, label, msg in self._kind.findings_by_rel.get(sf.rel, [])
        ]
