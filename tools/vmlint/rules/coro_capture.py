"""coro-capture: lambda/spawn capture lifetime.

A coroutine frame outlives the expression that created it, but a lambda's
captures live in the *closure object*, not the frame. If the closure is a
temporary (the overwhelmingly common case for `spawn([...]{...}())` and
ad-hoc lambda coroutines), every capture — `this`, references, even
by-value copies — dangles at the first suspension point. Named coroutine
functions taking arguments by value are the safe pattern (parameters ARE
copied into the frame).

Sub-rules (all scoped to src/):

  lambda-coro-capture  a lambda whose body contains co_await/co_return/
                       co_yield and whose capture list is non-empty
  spawned-capture      a capturing lambda appearing inside the argument
                       list of spawn(...)

A discarded sim::Task is not checked here: Task is [[nodiscard]] and the
build compiles with -Werror=unused-result.
"""

from core import Finding

_CO_KEYWORDS = {"co_await", "co_return", "co_yield"}


def _find_matching(tokens, k, open_text, close_text):
    """Index just past the token matching tokens[k] (an opener)."""
    depth = 0
    j = k
    while j < len(tokens):
        if tokens[j].text == open_text:
            depth += 1
        elif tokens[j].text == close_text:
            depth -= 1
            if depth == 0:
                return j + 1
        j += 1
    return len(tokens)


def _lambda_at(tokens, k):
    """If tokens[k] starts a lambda introducer, returns
    (capture_tokens, body_range, end_index) else None. Heuristic: a `[`
    whose matching `]` is followed by `(`, `{`, `<`, `mutable`, `noexcept`,
    or `->`, and which is not an array subscript/attribute."""
    if tokens[k].text != "[":
        return None
    if k + 1 < len(tokens) and tokens[k + 1].text == "[":
        return None  # [[attribute]]
    prev = tokens[k - 1] if k > 0 else None
    # Subscript: ident[...]  /  )[...]  /  ][...]  — not a lambda.
    if prev is not None and (prev.kind in ("id", "num")
                             or prev.text in (")", "]")):
        return None
    close = _find_matching(tokens, k, "[", "]")
    captures = tokens[k + 1:close - 1]
    j = close
    if j < len(tokens) and tokens[j].text == "<":  # template lambda
        j = _find_matching(tokens, j, "<", ">")
    if j < len(tokens) and tokens[j].text == "(":
        j = _find_matching(tokens, j, "(", ")")
    while j < len(tokens) and tokens[j].kind == "id" \
            and tokens[j].text in ("mutable", "constexpr", "noexcept", "static"):
        j += 1
    if j < len(tokens) and tokens[j].text == "->":  # trailing return type
        while j < len(tokens) and tokens[j].text != "{":
            j += 1
    if j >= len(tokens) or tokens[j].text != "{":
        return None
    body_end = _find_matching(tokens, j, "{", "}")
    return captures, (j, body_end), body_end


def _describe_captures(captures):
    parts, j = [], 0
    while j < len(captures):
        t = captures[j]
        if t.text == "&":
            if j + 1 < len(captures) and captures[j + 1].kind == "id":
                parts.append("&" + captures[j + 1].text)
                j += 2
                continue
            parts.append("&")
        elif t.text == "=":
            parts.append("=")
        elif t.kind == "id":
            parts.append(t.text)
        j += 1
    return ", ".join(parts)


class CoroCaptureRule:
    name = "coro-capture"
    description = ("flags capturing coroutine lambdas and capturing "
                   "lambdas spawned as tasks")

    def visit(self, sf, tokens):
        if not sf.in_dir("src"):
            return []
        findings = []

        def report(line, msg, subrule):
            findings.append(Finding(self.name, sf.rel, line, msg,
                                    subrule=subrule))

        # Lambda scans over the token stream.
        spawn_arg_ranges = []
        for k, t in enumerate(tokens):
            if t.kind == "id" and t.text == "spawn" \
                    and k + 1 < len(tokens) and tokens[k + 1].text == "(":
                spawn_arg_ranges.append(
                    (k + 1, _find_matching(tokens, k + 1, "(", ")")))

        k = 0
        while k < len(tokens):
            lam = _lambda_at(tokens, k)
            if lam is None:
                k += 1
                continue
            captures, (body_start, body_end), end = lam
            has_captures = any(t.text not in (",",) for t in captures)
            is_coro = any(t.kind == "id" and t.text in _CO_KEYWORDS
                          for t in tokens[body_start:body_end])
            cap_text = _describe_captures(captures)
            if is_coro and has_captures:
                report(tokens[k].line,
                       f"lambda coroutine captures [{cap_text}]: captures "
                       "live in the closure object, not the coroutine "
                       "frame, and dangle at the first suspension; use a "
                       "named coroutine taking arguments by value",
                       "lambda-coro-capture")
            elif has_captures and any(a <= k < b for a, b in spawn_arg_ranges):
                report(tokens[k].line,
                       f"capturing lambda [{cap_text}] passed to spawn(): "
                       "the closure dies with the spawn expression while "
                       "the task frame lives on; pass state by value to a "
                       "named coroutine",
                       "spawned-capture")
            # Do not skip the body: nested lambdas are scanned too.
            k += 1
        return findings
