"""layer-dag: enforce the src/ include DAG declared in layers.toml.

Layering is what keeps the simulator deterministic and testable in
isolation: sim cannot reach into obs (it carries only a forward-declared
Recorder*), storage cannot know about blob, and nothing below cloud can
see the orchestration layer. The table is declarative —
tools/vmlint/layers.toml — so adding a layer or sanctioning an edge is a
data change, reviewed as such, not a lint-code change.

The rule checks every `#include "first_segment/..."` in src/<layer>/
against the table: the edge is legal if first_segment is the layer itself
or one of its declared deps, or the (layer, include) pair is listed under
[[exceptions]]. Qualified includes of unknown first segments are ignored.
The table itself is validated to be acyclic at load time.

  unqualified-include  a quoted include without a layer prefix anywhere
                       in src/ ("sim/task.hpp", never "task.hpp"): the DAG
                       check cannot see which layer it reaches, and the
                       include graph turns ambiguous under -I src

Whether a header is guarded and whether its includes resolve is proven by
compiling it: vmstorm_header_check (ctest vmlint_header_selfcontained).
"""

import os
import re
import tomllib

from core import Finding

RE_INCLUDE = re.compile(r'^\s*#\s*include\s*"(?P<path>[^"]+)"')


def load_layers(path):
    """Parses layers.toml -> (deps: dict layer -> set, exceptions: set of
    (layer, include)). Raises ValueError on cycles or unknown deps."""
    with open(path, "rb") as f:
        data = tomllib.load(f)
    deps = {layer: set(ds) for layer, ds in data.get("layers", {}).items()}
    for layer, ds in deps.items():
        unknown = ds - deps.keys()
        if unknown:
            raise ValueError(
                f"layers.toml: layer '{layer}' depends on undeclared "
                f"layer(s): {', '.join(sorted(unknown))}")
    # Cycle check: depth-first walk with a visitation stack.
    WHITE, GREY, BLACK = 0, 1, 2
    color = {layer: WHITE for layer in deps}

    def dfs(layer, stack):
        color[layer] = GREY
        for d in sorted(deps[layer]):
            if color[d] == GREY:
                cycle = " -> ".join(stack + [layer, d])
                raise ValueError(f"layers.toml: dependency cycle: {cycle}")
            if color[d] == WHITE:
                dfs(d, stack + [layer])
        color[layer] = BLACK

    for layer in sorted(deps):
        if color[layer] == WHITE:
            dfs(layer, [])
    exceptions = {(e["layer"], e["include"])
                  for e in data.get("exceptions", [])}
    return deps, exceptions


class LayerDagRule:
    name = "layer-dag"
    description = "enforces the src/ include DAG from tools/vmlint/layers.toml"

    def __init__(self, table_path=None):
        self._table_path = table_path or os.path.join(
            os.path.dirname(os.path.abspath(__file__)), os.pardir,
            "layers.toml")
        self._deps = None
        self._exceptions = None

    def prepare(self, project):
        self._deps, self._exceptions = load_layers(self._table_path)

    def visit(self, sf, tokens):
        if not sf.in_dir("src"):
            return []
        findings = []
        parts = sf.rel.split("/")
        layer = parts[1] if len(parts) >= 3 else None  # None: src/<file>
        if layer is not None and layer not in self._deps:
            findings.append(Finding(
                self.name, sf.rel, 1,
                f"directory src/{layer}/ is not declared in "
                "tools/vmlint/layers.toml; add it with its allowed deps"))
            layer = None
        allowed = self._deps[layer] | {layer} if layer is not None else set()
        for idx, line in enumerate(sf.lines):
            m = RE_INCLUDE.match(line)
            if not m:
                continue
            inc = m.group("path")
            if "/" not in inc:
                findings.append(Finding(
                    self.name, sf.rel, idx + 1,
                    f"unqualified include \"{inc}\": project includes are "
                    "layer-qualified (\"<layer>/<file>\") so the layer DAG "
                    "can check them", subrule="unqualified-include"))
                continue
            first = inc.split("/", 1)[0]
            if layer is None or first not in self._deps:
                continue
            if first in allowed or (layer, inc) in self._exceptions:
                continue
            findings.append(Finding(
                self.name, sf.rel, idx + 1,
                f"src/{layer}/ may not include \"{inc}\": allowed layers "
                f"are {{{', '.join(sorted(allowed))}}} "
                "(tools/vmlint/layers.toml)"))
        return findings
