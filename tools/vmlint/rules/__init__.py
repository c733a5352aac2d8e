"""vmlint rule registry.

Adding a rule: create rules/<name>.py defining a class with `name`,
`description`, optional `prepare(project)`, and `visit(file, tokens)`;
then list its constructor here. Tests live in tests/tools/ (one violating
and one clean fixture). The per-rule ctests `vmlint_<name>` are not derived
from this registry: add the name to VMSTORM_VMLINT_RULES in
tools/vmlint/vmlint.cmake (and to the CI vmlint-graph --rules list for a
call-graph rule).
"""

from rules.determinism import DeterminismRule
from rules.coro_capture import CoroCaptureRule
from rules.layer_dag import LayerDagRule
from rules.status_discipline import StatusDisciplineRule
from rules.lock_across_await import LockAcrossAwaitRule
from rules.span_coverage import SpanCoverageRule
from rules.determinism_taint import DeterminismTaintRule
from rules.env_discipline import EnvDisciplineRule

ALL_RULES = (
    DeterminismRule,
    CoroCaptureRule,
    LayerDagRule,
    StatusDisciplineRule,
    LockAcrossAwaitRule,
    SpanCoverageRule,
    DeterminismTaintRule,
    EnvDisciplineRule,
)


def make_rules(names=None):
    """Instantiates the named rules (all by default). Unknown names raise."""
    by_name = {cls.name: cls for cls in ALL_RULES}
    if names is None:
        return [cls() for cls in ALL_RULES]
    rules = []
    for name in names:
        if name not in by_name:
            known = ", ".join(sorted(by_name))
            raise ValueError(f"unknown rule '{name}' (known: {known})")
        rules.append(by_name[name]())
    return rules
