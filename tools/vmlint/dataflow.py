"""Interprocedural taint dataflow over the vmlint call graph.

Where callgraph.py answers "can control flow from A reach B", this module
answers "can a *value* produced at A reach B": per-function def-use chains
over the code-token stream, composed across the PR 6 call graph through
returns, arguments and member stores. Sources, sinks and sanctioned
sanitizers are declared in taint.toml; each configured *kind* (today only
"host") runs the same engine with its own label.

The analysis is a may-analysis tuned to fail toward noise on real flows
and toward silence on unresolvable code, in that order:

  * per function, a single label-set lattice is computed: an expression
    carries the kind label T when it contains a source call, a read of a
    tainted local/parameter/field, or a call whose callee summary returns
    taint; it carries a param:i label when it reads parameter i.
  * summaries (returns-taint, param-to-return, param-to-sink) and
    class-field taint compose across the call graph in a global fixpoint;
    caller arguments carrying T mark the callee's parameter as
    entry-tainted, so taint flows down through helpers like
    SelfProfiler::charge and back out through its getters.
  * multi-candidate call edges aggregate with callgraph.combine() under
    taint.toml [taint] propagation ("any": one plausible callee suffices —
    the sound direction for taint, and the mirror image of blocking.toml's
    "all").
  * sanitizer calls contribute nothing regardless of their arguments:
    env_or() launders env reads because the environment is host-side
    configuration, identical across the double-run determinism oracle.

Everything is heuristic at the edges (an assignment's lvalue is resolved
textually; members are recognized by the trailing-underscore convention;
unresolved calls contribute no taint) — the same bargain as the rest of
vmlint: strict and byte-stable where it matters, silent where C++ would
demand a real frontend.

Deterministic metric writes (`.set/.add/.record` on Registry handles) are
recognized structurally rather than through name resolution, because those
member names are in blocking.toml's ambiguous_members: a receiver chaining
from counter()/gauge()/histogram(), or a variable whose declared type or
initializer marks it as a Registry handle, is a sink. The Registry holds
only deterministic metrics, so every handle write is one.

Built once per Project (see get()) and read by determinism-taint; build
stats are exported for `vmlint --stats`.
"""

import os
import time
import tomllib
import collections

import callgraph

_CONFIG_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "taint.toml")

_KIND = "T"  # the kind-taint label; other labels are ("p", index)

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^="}

_CHAIN_SEPS = (".", "->", "::")

# Identifiers that read like calls but never carry value taint.
_NOISE_CALLS = callgraph._KEYWORDS


def _load_config(path=_CONFIG_PATH):
    with open(path, "rb") as f:
        return tomllib.load(f)


def _patterns(names):
    return [tuple(n.split("::")) for n in names]


def _suffix(path, pat):
    return len(path) >= len(pat) and path[-len(pat):] == pat


def _match_back(toks, j, open_text, close_text):
    """toks[j] == close_text -> index of the matching opener, else None."""
    depth = 0
    while j >= 0:
        x = toks[j].text
        if x == close_text:
            depth += 1
        elif x == open_text:
            depth -= 1
            if depth == 0:
                return j
        j -= 1
    return None


def _skip_angle(toks, i, limit):
    """toks[i] == '<' -> index past a plausible template-argument '>', else
    i + 1 (treat as less-than). Mirror of _FileParser.match_angle."""
    depth, j = 1, i + 1
    while j < limit and j - i < 256:
        x = toks[j].text
        if x == "<":
            depth += 1
        elif x == ">":
            depth -= 1
            if depth == 0:
                return j + 1
        elif x == ">>":
            depth -= 2
            if depth <= 0:
                return j + 1
        elif x in (";", "{", "}"):
            break
        j += 1
    return i + 1


class _FnInfo:
    """Pre-extracted value events for one function: parameter names,
    assignments (lvalue chain + rhs span), return-expression spans, call
    sites indexed by name token, and constructor member-init field stores.
    Kind-independent; shared by every kind's analysis."""

    def __init__(self, fn, toks):
        self.fn = fn
        self.toks = toks
        self.sites_by_index = {s.name_index: s for s in fn.calls}
        self.params = self._param_names(fn, toks)
        self.param_index = {p: i for i, p in enumerate(self.params)}
        self.assigns = []    # (target_kind 'var'|'field', name, lo, hi)
        self.returns = []    # (lo, hi)
        self._collect_member_inits(fn, toks)
        self._collect_body(fn, toks)

    # -- extraction ----------------------------------------------------------

    def _param_names(self, fn, toks):
        """Last identifier of each top-level comma segment before any `=`
        (default argument). Unnamed parameters yield their type's last
        identifier — harmless, those names never appear in the body."""
        lo = fn.params_start + 1
        hi = self._match_fwd(toks, fn.params_start)
        names, last_id, depth = [], None, 0
        in_default = False
        j = lo
        while j < hi:
            x = toks[j]
            if x.text in ("(", "[", "{"):
                depth += 1
            elif x.text in (")", "]", "}"):
                depth -= 1
            elif x.text == "<":
                j = _skip_angle(toks, j, hi) - 1
            elif depth == 0:
                if x.text == ",":
                    if last_id:
                        names.append(last_id)
                    last_id = None
                    in_default = False
                elif x.text == "=":
                    in_default = True
                elif x.kind == "id" and not in_default:
                    last_id = x.text
            j += 1
        if last_id:
            names.append(last_id)
        return names

    def _match_fwd(self, toks, i):
        depth, j, n = 0, i, len(toks)
        while j < n:
            x = toks[j].text
            if x == "(":
                depth += 1
            elif x == ")":
                depth -= 1
                if depth == 0:
                    return j
            j += 1
        return n - 1

    def _collect_member_inits(self, fn, toks):
        """Constructor member-init list: `name_(expr)` / `name_{expr}`
        between the parameter list and the body brace taints field name_."""
        lo = self._match_fwd(toks, fn.params_start) + 1
        hi = fn.body_start
        j = lo
        while j < hi - 1:
            t = toks[j]
            nxt = toks[j + 1].text
            if (t.kind == "id" and t.text.endswith("_")
                    and nxt in ("(", "{")):
                close = ")" if nxt == "(" else "}"
                end = self._span_end(toks, j + 1, hi, nxt, close)
                self.assigns.append(("field", t.text, j + 2, end))
                j = end + 1
                continue
            j += 1

    def _span_end(self, toks, i, limit, open_text, close_text):
        depth = 0
        while i < limit:
            x = toks[i].text
            if x == open_text:
                depth += 1
            elif x == close_text:
                depth -= 1
                if depth == 0:
                    return i
            i += 1
        return limit

    def _collect_body(self, fn, toks):
        lo, hi = fn.body_start + 1, fn.body_end - 1
        j = lo
        while j < hi:
            t = toks[j]
            if t.kind == "id" and t.text in ("return", "co_return"):
                end = self._stmt_end(toks, j + 1, hi)
                if end > j + 1:
                    self.returns.append((j + 1, end))
                j = end
                continue
            if (t.text in _ASSIGN_OPS and j > lo
                    and toks[j - 1].text != "operator"):
                chain = self._lhs_chain(toks, j, lo)
                if chain:
                    target = self._classify_lvalue(chain, toks, j)
                    end = self._stmt_end(toks, j + 1, hi)
                    if target:
                        self.assigns.append((*target, j + 1, end))
                    j = j + 1
                    continue
            j += 1

    def _stmt_end(self, toks, i, limit):
        """Index of the token ending the expression starting at i: the first
        top-level ';' or ',' (or an unmatched closer)."""
        depth = 0
        while i < limit:
            x = toks[i].text
            if x in ("(", "[", "{"):
                depth += 1
            elif x in (")", "]", "}"):
                if depth == 0:
                    return i
                depth -= 1
            elif depth == 0 and x in (";", ","):
                return i
            i += 1
        return limit

    def _lhs_chain(self, toks, i, lo):
        """Identifier chain of the lvalue ending just before toks[i]
        ('=' et al), e.g. ['this','seconds_'] for `this->seconds_[p] = ..`.
        None when the lvalue is not a simple chain."""
        j, parts = i - 1, []
        while j >= lo:
            if toks[j].text == "]":
                j = _match_back(toks, j, "[", "]")
                if j is None:
                    return None
                j -= 1
                continue
            if toks[j].kind == "id":
                parts.append((toks[j].text, j))
                if j - 1 >= lo and toks[j - 1].text in _CHAIN_SEPS:
                    j -= 2
                    continue
                break
            return None
        parts.reverse()
        return parts or None

    def _classify_lvalue(self, chain, toks, op_index):
        """('var', name) or ('field', name) for an lvalue chain.

        Heuristics, in order: a type token right before the chain means a
        declaration (always a local); `this->f` or a bare trailing-underscore
        name inside a class is a member store; `obj.f = x` poisons obj."""
        base_name, base_idx = chain[0]
        declared = (base_idx - 1 >= 0
                    and (toks[base_idx - 1].kind == "id"
                         or toks[base_idx - 1].text in ("&", "*", ">", "&&")))
        if len(chain) == 1:
            if not declared and base_name.endswith("_") and self.fn.cls:
                return ("field", base_name)
            return ("var", base_name)
        if base_name == "this":
            return ("field", chain[-1][0])
        return ("var", base_name)


class _Summary:
    __slots__ = ("ret_kind", "ret_why", "ret_params", "param_to_sink",
                 "entry")

    def __init__(self):
        self.ret_kind = False
        self.ret_why = ""
        self.ret_params = set()
        self.param_to_sink = {}   # arg index -> (label, why)
        self.entry = {}           # param index -> why (from callers)


class KindAnalysis:
    """One taint kind's fixpoint over the whole project."""

    def __init__(self, df, name, cfg):
        self.df = df
        self.name = name
        self.rule = cfg.get("rule", name)
        self.mode = df.mode
        self.source_pats = _patterns(cfg.get("source_calls", []))
        self.sanitizer_pats = _patterns(cfg.get("sanitizer_calls", []))
        self.sink_groups = [(_patterns(g.get("calls", [])), g.get("label", "sink"))
                            for g in cfg.get("sinks", [])]
        self.metric_sinks = bool(cfg.get("sink_metric_writes", False))
        self._source_names = {p[-1] for p in self.source_pats}
        self.findings = []            # (rel, line, label, message)
        self.findings_by_rel = collections.defaultdict(list)
        self.iterations = 0
        self._finding_keys = set()
        self._sanitized_sites = None

    # -- call-site classification --------------------------------------------

    def _site_matches(self, site, pats):
        if not pats:
            return False
        spath = site.quals + (site.name,)
        for p in pats:
            if p[-1] == site.name and _suffix(spath, p):
                return True
        if site.cands:
            flags = [any(_suffix(c.path, p) for p in pats if p[-1] == c.name)
                     for c in site.cands]
            return callgraph.combine(flags, self.mode)
        return False

    def _sink_label(self, site):
        for pats, label in self.sink_groups:
            if self._site_matches(site, pats):
                return label
        return None

    # -- the fixpoint --------------------------------------------------------

    def run(self):
        df = self.df
        self.summaries = [_Summary() for _ in df.graph.functions]
        self.field_taint = {}   # (cls, field) -> why
        max_iter = 40
        for it in range(max_iter):
            self.iterations = it + 1
            self.findings = []
            self._finding_keys = set()
            changed = False
            for fidx, fn in enumerate(df.graph.functions):
                if self._analyze(fidx, fn):
                    changed = True
            if not changed:
                break
        for rel, line, label, msg in self.findings:
            self.findings_by_rel[rel].append((line, label, msg))

    def _emit(self, rel, line, label, msg):
        key = (rel, line, label)
        if key not in self._finding_keys:
            self._finding_keys.add(key)
            self.findings.append((rel, line, label, msg))

    def _analyze(self, fidx, fn):
        df = self.df
        fi = df.fn_info(fidx)
        summ = self.summaries[fidx]
        changed = False

        vars_ = {}
        for i, p in enumerate(fi.params):
            labs = {("p", i)}
            if i in summ.entry:
                labs.add(_KIND)
            vars_[p] = labs
        why_ = {p: summ.entry.get(i, "")
                for i, p in enumerate(fi.params) if i in summ.entry}

        # local fixpoint over assignments (statement order, few passes)
        for _ in range(4):
            local_changed = False
            for target_kind, name, lo, hi in fi.assigns:
                labs, why = self._eval(fi, fn, vars_, why_, lo, hi)
                if target_kind == "var":
                    cur = vars_.setdefault(name, set())
                    if not labs <= cur:
                        cur |= labs
                        local_changed = True
                    if _KIND in labs and name not in why_:
                        why_[name] = why
                elif _KIND in labs and fn.cls:
                    key = (fn.cls, name)
                    if key not in self.field_taint:
                        self.field_taint[key] = (
                            f"{fn.cls}::{name} stores {why}"
                            f" ({fn.rel}:{self._line_of(fi, lo)})")
                        changed = True
            if not local_changed:
                break

        # returns -> summary
        for lo, hi in fi.returns:
            labs, why = self._eval(fi, fn, vars_, why_, lo, hi)
            if _KIND in labs and not summ.ret_kind:
                summ.ret_kind = True
                summ.ret_why = why
                changed = True
            new_params = {i for tag, i in _param_labels(labs)
                          if i not in summ.ret_params}
            if new_params:
                summ.ret_params |= new_params
                changed = True

        # calls: sinks, callee entry marking, sink composition
        for site in fn.calls:
            if self._site_matches(site, self.sanitizer_pats):
                continue
            arg_spans = df.arg_spans(fi, site)
            argl = [self._eval(fi, fn, vars_, why_, lo, hi)
                    for lo, hi in arg_spans]

            label = self._sink_label(site)
            if label:
                changed |= self._check_sink_args(fn, summ, site, argl, label)

            if (self.metric_sinks and site.member
                    and site.name in df.mw_methods
                    and df.is_handle_receiver(fi, site)):
                changed |= self._check_sink_args(
                    fn, summ, site, argl, df.mw_label)

            if site.cands:
                changed |= self._compose(fn, summ, site, argl)
        return changed

    def _check_sink_args(self, fn, summ, site, argl, label):
        changed = False
        for labs, why in argl:
            if _KIND in labs:
                self._emit(fn.rel, site.line, label,
                           f"{site.name}() argument carries {why}")
            for tag, i in _param_labels(labs):
                if i not in summ.param_to_sink:
                    summ.param_to_sink[i] = (
                        label,
                        f"parameter flows into {site.name}() "
                        f"({fn.rel}:{site.line})")
                    changed = True
        return changed

    def _compose(self, fn, summ, site, argl):
        """Caller-side composition across a resolved call: tainted arguments
        entry-taint the callee's parameter, and callee param-to-sink
        summaries turn a tainted argument into a finding here."""
        changed = False
        df = self.df
        for ai, (labs, why) in enumerate(argl):
            if _KIND in labs:
                targets = (site.cands if self.mode == "any"
                           else site.cands if len(site.cands) == 1 else [])
                for c in targets:
                    csumm = self.summaries[df.fn_index(c)]
                    if ai < len(df.fn_info(df.fn_index(c)).params) \
                            and ai not in csumm.entry:
                        csumm.entry[ai] = why
                        changed = True
            flags, info = [], None
            for c in site.cands:
                ps = self.summaries[df.fn_index(c)].param_to_sink.get(ai)
                flags.append(ps is not None)
                if ps is not None and info is None:
                    info = ps
            if info is not None and callgraph.combine(flags, self.mode):
                label, where = info
                if _KIND in labs:
                    self._emit(fn.rel, site.line, label,
                               f"{site.name}() argument carries {why}; "
                               f"{where}")
                for tag, i in _param_labels(labs):
                    if i not in summ.param_to_sink:
                        summ.param_to_sink[i] = (label, where)
                        changed = True
        return changed

    # -- expression evaluation -----------------------------------------------

    def _eval(self, fi, fn, vars_, why_, lo, hi, depth=0):
        """Label set + witness for the expression tokens [lo, hi)."""
        labs, why = set(), None
        toks = fi.toks
        k = lo
        while k < hi:
            site = fi.sites_by_index.get(k)
            if site is not None:
                if self._site_matches(site, self.sanitizer_pats):
                    k = min(site.args_end, hi)
                    continue
                if self._site_matches(site, self.source_pats):
                    labs.add(_KIND)
                    why = why or f"{site.name}() (line {site.line})"
                    k = min(site.args_end, hi)
                    continue
                if depth < 6:
                    rl, rwhy = self._call_labels(fi, fn, vars_, why_, site,
                                                 depth)
                    if rl:
                        labs |= rl
                        if _KIND in rl:
                            why = why or rwhy
                k = min(site.args_end, hi)
                continue
            t = toks[k]
            if t.kind == "id":
                txt = t.text
                src_end = self._id_source_end(toks, k, hi)
                if src_end is not None:
                    # source call outside the parsed call-site list (e.g.
                    # inside a constructor member-init list)
                    labs.add(_KIND)
                    why = why or f"{txt}() (line {t.line})"
                    k = src_end
                    continue
                if txt in vars_:
                    vl = vars_[txt]
                    labs |= vl
                    if _KIND in vl:
                        why = why or why_.get(txt) or f"tainted '{txt}'"
                elif fn.cls and (fn.cls, txt) in self.field_taint:
                    labs.add(_KIND)
                    why = why or self.field_taint[(fn.cls, txt)]
            k += 1
        return labs, why or "tainted value"

    def _id_source_end(self, toks, k, hi):
        """When toks[k] spells a source call that has no CallSite entry
        (member-init lists are outside collect_body's walk), returns the
        index past the call name, else None."""
        t = toks[k]
        if t.text not in self._source_names:
            return None
        if k + 1 >= hi or toks[k + 1].text != "(":
            return None
        quals, j = [], k - 1
        while j >= 1 and toks[j].text == "::" and toks[j - 1].kind == "id":
            quals.append(toks[j - 1].text)
            j -= 2
        spath = tuple(reversed(quals)) + (t.text,)
        for p in self.source_pats:
            if p[-1] == t.text and _suffix(spath, p):
                return k + 1
        return None

    def _call_labels(self, fi, fn, vars_, why_, site, depth):
        """Labels flowing out of a call expression.

        Resolved calls use callee summaries (returns-taint, param-to-return)
        aggregated under the propagation mode. Unresolved calls — std
        library, unknown members — are treated as taint-transparent: the
        union of their argument labels flows through (to_string, min/max,
        casts all preserve the value), the may-analysis counterpart of the
        blocking analysis's conservative silence."""
        df = self.df
        arg_spans = df.arg_spans(fi, site)
        out, why = set(), None
        if not site.cands:
            if site.name in _NOISE_CALLS:
                return out, why
            if site.name in vars_ and not site.member:
                # invoking a tainted callable (`f()` where f is a tainted
                # local) yields a tainted value
                vl = vars_[site.name]
                out |= vl
                if _KIND in vl:
                    why = why_.get(site.name) or f"tainted '{site.name}'"
            for alo, ahi in arg_spans:
                alabs, awhy = self._eval(fi, fn, vars_, why_, alo, ahi,
                                         depth + 1)
                out |= alabs
                if _KIND in alabs and why is None:
                    why = awhy
            return out, why
        argl = None
        flags = [self.summaries[df.fn_index(c)].ret_kind for c in site.cands]
        if callgraph.combine(flags, self.mode):
            out.add(_KIND)
            for c in site.cands:
                s = self.summaries[df.fn_index(c)]
                if s.ret_kind:
                    why = f"{site.name}() returning {s.ret_why}"
                    break
        for ai in range(len(arg_spans)):
            pflags = [ai in self.summaries[df.fn_index(c)].ret_params
                      for c in site.cands]
            if callgraph.combine(pflags, self.mode):
                if argl is None:
                    argl = [self._eval(fi, fn, vars_, why_, alo, ahi,
                                       depth + 1)
                            for alo, ahi in arg_spans]
                alabs, awhy = argl[ai]
                out |= alabs
                if _KIND in alabs and why is None:
                    why = awhy
        return out, why

    def _line_of(self, fi, tok_index):
        if 0 <= tok_index < len(fi.toks):
            return fi.toks[tok_index].line
        return 0


def _param_labels(labs):
    return [lab for lab in labs if isinstance(lab, tuple)]


class Dataflow:
    """The project's taint analyses: one KindAnalysis per taint.toml kind,
    sharing per-function event extraction and per-file handle tables."""

    def __init__(self, project, config=None):
        t0 = time.perf_counter()
        self.config = config if config is not None else _load_config()
        self.graph = callgraph.get(project)
        self.mode = self.config.get("taint", {}).get("propagation", "any")
        mw = self.config.get("metric_writes", {})
        self.mw_methods = set(mw.get("methods", []))
        self.mw_handle_calls = set(mw.get("handle_calls", []))
        self.mw_handle_types = set(mw.get("handle_types", []))
        self.mw_label = mw.get("label", "metric-write")

        self._fn_index = {id(fn): i
                          for i, fn in enumerate(self.graph.functions)}
        self._fn_infos = [None] * len(self.graph.functions)
        self._arg_spans = {}
        self._handles = {}

        self.kinds = {}
        for kname, kcfg in sorted(self.config.get("kinds", {}).items()):
            ka = KindAnalysis(self, kname, kcfg)
            ka.run()
            self.kinds[kname] = ka

        self.stats = {
            "functions": len(self.graph.functions),
            "propagation": self.mode,
            "kinds": {
                k: {
                    "iterations": ka.iterations,
                    "tainted_returns": sum(
                        s.ret_kind for s in ka.summaries),
                    "tainted_fields": len(ka.field_taint),
                    "entry_tainted_params": sum(
                        len(s.entry) for s in ka.summaries),
                    "findings": len(ka.findings),
                }
                for k, ka in self.kinds.items()
            },
            "build_seconds": round(time.perf_counter() - t0, 4),
        }

    # -- shared lookups ------------------------------------------------------

    def fn_index(self, fn):
        return self._fn_index[id(fn)]

    def fn_info(self, fidx):
        fi = self._fn_infos[fidx]
        if fi is None:
            fn = self.graph.functions[fidx]
            fi = _FnInfo(fn, self.graph.code_tokens(fn.rel))
            self._fn_infos[fidx] = fi
        return fi

    def arg_spans(self, fi, site):
        """[(lo, hi)] spans of the call's top-level comma-separated
        arguments, template-argument aware."""
        key = (fi.fn.rel, site.name_index)
        spans = self._arg_spans.get(key)
        if spans is not None:
            return spans
        toks = fi.toks
        i = site.name_index + 1
        if i < len(toks) and toks[i].text == "<":
            i = _skip_angle(toks, i, site.args_end)
        spans = []
        if i < len(toks) and toks[i].text == "(":
            close = site.args_end - 1
            depth, start = 0, i + 1
            j = i + 1
            while j < close:
                x = toks[j].text
                if x in ("(", "[", "{"):
                    depth += 1
                elif x in (")", "]", "}"):
                    depth -= 1
                elif x == "<":
                    j = _skip_angle(toks, j, close) - 1
                elif x == "," and depth == 0:
                    spans.append((start, j))
                    start = j + 1
                j += 1
            if close > start:
                spans.append((start, close))
        self._arg_spans[key] = spans
        return spans

    # -- metric-handle receivers ---------------------------------------------

    def handles(self, rel):
        """Names in the file known to refer to Registry handles: declared
        with a handle type, or initialized from a handle call."""
        h = self._handles.get(rel)
        if h is not None:
            return h
        h = set()
        toks = self.graph.code_tokens(rel)
        # declared handle types: `Counter& name`, `obs::Gauge* name`
        for j in range(len(toks) - 1):
            t = toks[j]
            if t.kind != "id" or t.text not in self.mw_handle_types:
                continue
            k = j + 1
            while k < len(toks) and toks[k].text in ("&", "*", "&&", "const"):
                k += 1
            if (k < len(toks) and toks[k].kind == "id"
                    and (k + 1 >= len(toks) or toks[k + 1].text != "(")):
                h.add(toks[k].text)
        # initializer origin: `x = reg.gauge(..` / member-init `x_(reg.gauge(..`
        sig_regions = [(fn.params_start, fn.body_start)
                       for fn in self.graph.functions_in(rel)]
        for j in range(len(toks) - 1):
            t = toks[j]
            if (t.kind != "id" or toks[j + 1].text != "("
                    or t.text not in self.mw_handle_calls):
                continue
            # walk back over the receiver chain to its first identifier
            start = j
            while start - 2 >= 0 and toks[start - 1].text in _CHAIN_SEPS \
                    and toks[start - 2].kind == "id":
                start -= 2
            prev = start - 1
            if prev < 0:
                continue
            target = None
            if toks[prev].text == "=":
                m = prev - 1
                while m >= 0 and toks[m].text in ("&", "*", "&&"):
                    m -= 1
                if m >= 0 and toks[m].kind == "id":
                    target = toks[m].text
            elif toks[prev].text == "(" and prev - 1 >= 0 \
                    and toks[prev - 1].kind == "id" \
                    and any(lo <= prev - 1 < hi for lo, hi in sig_regions):
                target = toks[prev - 1].text
            if target:
                h.add(target)
        self._handles[rel] = h
        return h

    def is_handle_receiver(self, fi, site):
        """Whether a member call's receiver is a Registry handle."""
        toks = fi.toks
        j = site.name_index - 2   # before the '.'/'->'
        if j < 0:
            return False
        t = toks[j]
        if t.text == ")":
            k = _match_back(toks, j, "(", ")")
            return (k is not None and k - 1 >= 0
                    and toks[k - 1].kind == "id"
                    and toks[k - 1].text in self.mw_handle_calls)
        return t.kind == "id" and t.text in self.handles(fi.fn.rel)


def get(project, config=None):
    """The project's Dataflow, built on first use and cached. Rules share
    one instance; `vmlint --stats` reads its stats off the project."""
    cached = getattr(project, "_vmlint_dataflow", None)
    if cached is None or (config is not None and cached.config is not config):
        cached = Dataflow(project, config=config)
        project._vmlint_dataflow = cached
    return cached
