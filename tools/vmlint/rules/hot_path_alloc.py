"""hot-path-alloc: no unbudgeted allocation in the dispatch/wakeup closure.

The ROADMAP's 10k+ node scale item names per-wait WaitRecord allocations and
hot-loop bookkeeping as the expected bottleneck, and the fixes (pooled
WaitRecords, a slab-backed event queue) only stay fixed if a gate stops new
allocations from leaking back into the hot set. This rule is that gate: blocking.toml [hot] declares the roots (Engine::run dispatch,
schedule_at/schedule_start, every await_suspend, wake_waiter, FifoServer
inner loops, ...), the call graph closes them forward, and any
allocation-shaped operation inside the closure is a finding:

  new-expression  a `new` token
  alloc-call      make_unique / make_shared / vector-growth mutators
                  (push_back, emplace*, resize, reserve) from
                  blocking.toml [hot].alloc_calls
  std-function    `std::function<...>` construction (type-erased callables
                  heap-allocate beyond the small-buffer size)

Deliberate allocations are escaped with `// vmlint:allow(hot-path-alloc)
<reason>` — but unlike other rules the escapes are not invisible: every one
is recorded in the committed budget file tools/vmlint/hotpath_budget.txt.
A new escape that is not in the budget fails --strict (subrule
unbudgeted-allow, synthesized by the driver), and a budget entry whose
escape was removed goes stale, so every change to the budget shows in the
diff of that file. Amortized vector growth to a peak size (the event
queue's key heap and payload slab) is budgeted like any other escape.

Scoped to src/.
"""

import callgraph
from core import Finding


class HotPathAllocRule:
    name = "hot-path-alloc"
    description = ("allocation-shaped operations reachable from the hot "
                   "dispatch/wakeup roots (blocking.toml [hot]); escapes "
                   "feed the committed hotpath_budget.txt")

    def prepare(self, project):
        self._graph = callgraph.get(project)
        self._alloc_calls = set(
            self._graph.config.get("hot", {}).get("alloc_calls", []))

    def visit(self, sf, tokens):
        if not sf.in_dir("src"):
            return []
        graph = self._graph
        toks = graph.code_tokens(sf.rel)
        fns = graph.functions_in(sf.rel)
        findings = []
        for fn in fns:
            if not fn.hot:
                continue
            # Nested local-struct methods are separate FunctionDefs; skip
            # their spans so a hot outer fn does not double-report them.
            nested = sorted((o.body_start, o.body_end) for o in fns
                            if o is not fn and o.body_start > fn.body_start
                            and o.body_end < fn.body_end)

            def where(site_name):
                return (f"'{site_name}' in hot function {fn.display()} "
                        f"(reachable from hot root {fn.hot_root})")

            for s in fn.calls:
                # `.push(`/`->push(` member calls cover priority_queue and
                # deque growth; bare `push(...)` is too often a method of the
                # enclosing class (Tracer::push) to flag by name.
                if s.name in self._alloc_calls \
                        or (s.name == "push" and s.member):
                    findings.append(Finding(
                        self.name, sf.rel, s.line,
                        f"allocation {where(s.name)}: pool or preallocate, "
                        "or escape with vmlint:allow(hot-path-alloc) "
                        "<reason> (tracked in tools/vmlint/"
                        "hotpath_budget.txt)",
                        subrule="alloc-call"))
            k = fn.body_start + 1
            ni = 0
            while k < fn.body_end - 1:
                while ni < len(nested) and nested[ni][1] <= k:
                    ni += 1
                if ni < len(nested) and nested[ni][0] <= k:
                    k = nested[ni][1]
                    continue
                t = toks[k]
                if t.kind == "id" and t.text == "new":
                    findings.append(Finding(
                        self.name, sf.rel, t.line,
                        f"new-expression {where('new')}: pool or "
                        "preallocate, or escape with "
                        "vmlint:allow(hot-path-alloc) <reason>",
                        subrule="new-expression"))
                elif t.kind == "id" and t.text == "function" \
                        and k + 1 < fn.body_end \
                        and toks[k + 1].text == "<" \
                        and k >= 1 and toks[k - 1].text == "::":
                    findings.append(Finding(
                        self.name, sf.rel, t.line,
                        f"std::function construction {where('function')}: "
                        "type-erased callables heap-allocate; take a "
                        "template parameter or a function pointer",
                        subrule="std-function"))
                k += 1
        return findings
