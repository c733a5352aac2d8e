"""determinism: no wall-clock, ambient randomness, or hash-order iteration.

The simulator's contract is bit-identical replay from a seed, and PR 2's
byte-identical metrics/trace artifacts depend on it. This rule bans, in
src/ (except common/rng.hpp, the one sanctioned randomness source):

  wall-clock      std::chrono::{system,steady,high_resolution}_clock::now(),
                  time(nullptr)-style calls, std::clock(), gettimeofday()
  ambient-rng     rand(), srand(), random(), drand48(), lrand48(),
                  mrand48(), random_device, random_shuffle
  hash-order-iter range-for over a std::unordered_{map,set,multimap,multiset}
                  variable: iteration order varies across libstdc++ versions
                  and ASLR runs, so anything it feeds (JSON, metrics,
                  snapshot manifests, RPC order) loses reproducibility.
                  Iterate a sorted copy, or use std::map/flat ordering.

One check runs project-wide (every scan root, not just src/):

  std-random-engine  direct construction of a <random> engine
                     (std::mt19937 et al.). All randomness — including test
                     and fuzz workload generation — must flow through the
                     seeded vmstorm::Rng wrapper (src/common/rng.hpp), which
                     is splitmix64-seeded, forkable per entity, and the only
                     generator whose stream the fuzz decision logs and
                     bit-replay artifacts are defined against.

Deliberate wall-clock use (e.g. benchmarking a real in-memory filesystem)
is annotated `// vmlint:allow(determinism) <reason>` at the use site.
"""

import os
import re

from core import Finding

_CLOCKS = {"system_clock", "steady_clock", "high_resolution_clock"}
_BANNED_CALLS = {
    "time": "wall-clock time() call",
    "gettimeofday": "wall-clock gettimeofday() call",
    "rand": "ambient rand(): seed an explicit vmstorm::Rng instead",
    "srand": "ambient srand(): seed an explicit vmstorm::Rng instead",
    "random": "ambient random(): seed an explicit vmstorm::Rng instead",
    "drand48": "ambient drand48(): seed an explicit vmstorm::Rng instead",
    "lrand48": "ambient lrand48(): seed an explicit vmstorm::Rng instead",
    "mrand48": "ambient mrand48(): seed an explicit vmstorm::Rng instead",
}
_BANNED_IDS = {
    "random_device": "std::random_device is nondeterministic by design; "
                     "derive seeds with vmstorm::mix64/Rng::fork",
    "random_shuffle": "std::random_shuffle uses ambient rand(); use an "
                      "explicit Rng-driven shuffle",
}
_UNORDERED = {"unordered_map", "unordered_set",
              "unordered_multimap", "unordered_multiset"}
# <random> engine types whose direct construction bypasses vmstorm::Rng.
_STD_ENGINES = {
    "mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
    "default_random_engine", "knuth_b",
    "ranlux24", "ranlux48", "ranlux24_base", "ranlux48_base",
    "mersenne_twister_engine", "linear_congruential_engine",
    "subtract_with_carry_engine", "discard_block_engine",
    "independent_bits_engine", "shuffle_order_engine",
}

RE_UNORDERED_DECL = re.compile(
    r"\bunordered_(?:multi)?(?:map|set)\s*<")


class DeterminismRule:
    name = "determinism"
    description = ("bans wall-clock time, ambient randomness, and "
                   "unordered-container iteration in src/; bans raw "
                   "<random> engines project-wide")

    def prepare(self, project):
        self._project = project

    def _unordered_names(self, sf):
        """Variable names declared with an unordered container type in this
        file. Token scan: `unordered_map < ... > name` at matching depth."""
        names = set()
        toks = sf.tokens
        k = 0
        while k < len(toks):
            t = toks[k]
            if t.kind == "id" and t.text in _UNORDERED \
                    and k + 1 < len(toks) and toks[k + 1].text == "<":
                depth, j = 1, k + 2
                while j < len(toks) and depth:
                    if toks[j].text == "<":
                        depth += 1
                    elif toks[j].text == ">":
                        depth -= 1
                    elif toks[j].text == ">>":
                        depth -= 2
                    j += 1
                # After the closing '>': optional ::iterator etc. disqualifies;
                # an identifier here is the declared variable name.
                if j < len(toks) and toks[j].kind == "id":
                    names.add(toks[j].text)
                k = j
                continue
            k += 1
        return names

    def _paired_names(self, sf):
        names = self._unordered_names(sf)
        base, ext = os.path.splitext(sf.rel)
        if ext in (".cpp", ".cc"):
            for hext in (".hpp", ".h"):
                header = self._project.get(base + hext)
                if header is not None:
                    names |= self._unordered_names(header)
        return names

    def visit(self, sf, tokens):
        if sf.rel == "src/common/rng.hpp":
            return []
        findings = []

        # Project-wide: raw <random> engines. Tests and fuzz harnesses are in
        # scope — their reproducibility (seed -> identical decision log)
        # depends on vmstorm::Rng just as much as the simulator's.
        for t in tokens:
            if t.kind == "id" and t.text in _STD_ENGINES:
                findings.append(Finding(
                    self.name, sf.rel, t.line,
                    f"raw <random> engine std::{t.text}: construct a seeded "
                    "vmstorm::Rng (common/rng.hpp) so streams are forkable "
                    "and replayable from the decision log",
                    subrule="std-random-engine"))

        if not sf.in_dir("src"):
            return findings

        def report(line, msg):
            findings.append(Finding(self.name, sf.rel, line, msg))

        for k, t in enumerate(tokens):
            if t.kind != "id":
                continue
            nxt = tokens[k + 1] if k + 1 < len(tokens) else None
            nxt2 = tokens[k + 2] if k + 2 < len(tokens) else None
            prev = tokens[k - 1] if k > 0 else None
            if t.text in _CLOCKS and nxt is not None and nxt.text == "::" \
                    and nxt2 is not None and nxt2.text == "now":
                report(t.line, f"wall-clock {t.text}::now(): simulated time "
                               "comes from sim::Engine::now()")
            elif t.text in _BANNED_CALLS and nxt is not None \
                    and nxt.text == "(" \
                    and (prev is None or prev.text not in (".", "->")):
                report(t.line, _BANNED_CALLS[t.text])
            elif t.text == "clock" and nxt is not None and nxt.text == "(" \
                    and prev is not None and prev.text == "::":
                # Only the qualified std::clock/::clock form: bare `clock`
                # is too common as a local callable name to ban outright.
                report(t.line, "wall-clock clock() call")
            elif t.text in _BANNED_IDS:
                report(t.line, _BANNED_IDS[t.text])

        names = self._paired_names(sf)
        if names:
            # `for ( ... : NAME )` — range-for over an unordered container.
            pat = re.compile(
                r"\bfor\s*\([^();]*:\s*(?:\w+(?:\.|->|::))*"
                r"(?P<var>" + "|".join(map(re.escape, sorted(names))) +
                r")\s*\)")
            for idx, code in enumerate(sf.code_lines):
                m = pat.search(code)
                if m:
                    report(idx + 1,
                           f"range-for over unordered container "
                           f"'{m.group('var')}': hash order is not "
                           "deterministic; iterate a sorted copy")
        return findings
