"""status-discipline: the tools/lint_status.py checks, ported to vmlint.

The compiler enforces the rest of Status discipline: Status, Result and
Task are [[nodiscard]] and the build compiles with -Werror=unused-result,
so a bare discarding call does not build. These sub-rules catch what the
type system lets through. Ported verbatim in spirit from the retired
tools/lint_status.py, now running on the shared tokenizer's masked lines
(so block comments and raw strings can no longer false-positive). Legacy `// lint:allow(<rule>)`
escapes keep working — the framework treats them as vmlint:allow.

  raw-waiter-container   vector/deque of raw std::coroutine_handle<>.
                         Store sim::WaitRef records and wake them through
                         Engine::schedule_at instead (a destroyed waiter
                         must never be resumed). The type system cannot
                         stop a stored raw handle from being resumed
                         directly with .resume(), bypassing the engine.
  void-suppressed-status (void)-cast of a call returning Status/Result:
                         the one discard the compiler accepts.
  naked-value            Result<T>::value()/value_unchecked()/check() in
                         library code without a preceding is_ok()/
                         truthiness guard.

The waiter-container rule applies everywhere (a stale handle in a test is
still UB); the Status rules apply to src/ only — tests/bench may .value() freely,
a crash there is a test failure, not data corruption.
"""

import re

from core import Finding

GUARD_LOOKBACK_LINES = 8

RE_RAW_WAITER = re.compile(
    r"(?:std::)?(?:vector|deque)\s*<\s*std::coroutine_handle\b")
RE_VALUE = re.compile(
    r"[\w\)\]]\s*\.\s*(?:value(?:_unchecked)?|check)\s*\(\s*\)")
RE_DECL_STATUS_FN = re.compile(
    r"^\s*(?:\[\[nodiscard\]\]\s*)?"
    r"(?:virtual\s+|static\s+|inline\s+|friend\s+|constexpr\s+)*"
    r"(?:vmstorm::)?(?:Status|Result\s*<[^;{()]*>)\s+"
    r"(?P<name>\w+)\s*\(")
RE_DECL_VOID_FN = re.compile(
    r"^\s*(?:virtual\s+|static\s+|inline\s+|constexpr\s+)*"
    r"void\s+(?P<name>\w+)\s*\(")
RE_VOID_CAST_CALL = re.compile(
    r"\(void\)\s*(?:\w+(?:\.|->))*(?P<name>\w+)\s*\(")

MESSAGES = {
    "raw-waiter-container":
        "raw coroutine-handle waiter container; store sim::WaitRef "
        "records and wake them via Engine::schedule_at",
    "void-suppressed-status":
        "(void)-cast discards a Status/Result; handle or propagate it",
    "naked-value":
        "Result::value() without a preceding is_ok()/truthiness guard",
}


def _has_value_guard(code_lines, idx):
    window = code_lines[max(0, idx - GUARD_LOOKBACK_LINES):idx + 1]
    text = "\n".join(window)
    if re.search(r"\bis_ok\s*\(\s*\)", text):
        return True
    if re.search(r"\b(?:if|while)\s*\(\s*!?\s*\*?\w+\s*[\)&|]", text):
        return True
    return False


class StatusDisciplineRule:
    name = "status-discipline"
    description = ("(void)-discarded Status/Result, unguarded "
                   "Result::value(), and raw coroutine-waiter containers")

    def prepare(self, project):
        """Names of src-header functions returning Status/Result, minus any
        name that also appears with a void return (cross-class collisions)."""
        status_fns, void_fns = set(), set()
        for sf in project.sources():
            if not sf.in_dir("src") or not sf.rel.endswith((".hpp", ".h")):
                continue
            for code in sf.code_lines:
                m = RE_DECL_STATUS_FN.match(code)
                if m:
                    status_fns.add(m.group("name"))
                m = RE_DECL_VOID_FN.match(code)
                if m:
                    void_fns.add(m.group("name"))
        self._registry = status_fns - void_fns

    def visit(self, sf, tokens):
        findings = []
        in_src = sf.in_dir("src")
        is_status_hpp = sf.rel == "src/common/status.hpp"

        def report(idx, subrule, detail=""):
            msg = MESSAGES[subrule] + (f" [{detail}]" if detail else "")
            findings.append(Finding(self.name, sf.rel, idx + 1, msg,
                                    subrule=subrule))

        for idx, code in enumerate(sf.code_lines):
            # Everywhere: raw waiter containers.
            if RE_RAW_WAITER.search(code):
                report(idx, "raw-waiter-container")

            if not in_src or is_status_hpp:
                continue

            m = RE_VOID_CAST_CALL.search(code)
            if m and m.group("name") in self._registry:
                report(idx, "void-suppressed-status", m.group("name"))

            if RE_VALUE.search(code) and not _has_value_guard(
                    sf.code_lines, idx):
                report(idx, "naked-value")
        return findings
