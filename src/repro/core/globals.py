"""Derivation of global constraints from the link statements of a system.

Section V derives the inequalities::

    λ(i, j, (i+j)/2) > μ(i, j-1, (i+j)/2)            (from A1)
    λ(i, j, i+1)     > σ(i+1, j, j)                  (from A2)
    ...
    σ(i, j, j) >= max[λ(i, j, i+1), μ(i, j, j-1)]    (from A5)

by inspecting the inter-module statements.  We compute the same constraints
*extensionally* from the system's :class:`~repro.ir.evaluate.ExecutionPlan`:
every link node of the plan is one instance, its destination point the
node's own point and its source point that of its one operand.  The plan
has already resolved which rule fires where (first-match guards) and where
each quasi-affine index map (the ``(i+j)/2`` boundaries) points, so the
instances are exact for the plan's parameter values.  They feed the timing
solver (gap >= min_gap), the space solver (link distance <= gap) and the
global-gap check of verification.
"""

from __future__ import annotations

import numpy as np

from repro.ir.evaluate import ExecutionPlan
from repro.ir.statements import LinkRule
from repro.schedule.constraints import GlobalConstraint


def link_constraints(plan: ExecutionPlan) -> list[GlobalConstraint]:
    """One :class:`GlobalConstraint` per link rule that fires somewhere.

    Constraints come in module, equation and rule order, instances in the
    module's point order.  They are named by the rule's label (A1..A5)
    when present, otherwise ``dst_module.dst_var[rule_index]``.
    """
    groups: dict[tuple[str, str, int], list[int]] = {}
    streams, stream_ids = plan.keys.streams, plan.keys.stream_ids
    for nid, rule in enumerate(plan.rules):
        if isinstance(rule, LinkRule):
            module, var = streams[stream_ids[nid]]
            groups.setdefault((module, var, id(rule)), []).append(nid)
    rows = np.asarray(plan.rows, dtype=np.int64)
    constraints: list[GlobalConstraint] = []
    for module_name, module in plan.system.modules.items():
        for eqn in module.equations.values():
            for rule_idx, rule in enumerate(eqn.rules):
                nids = groups.get((module_name, eqn.var, id(rule)))
                if not isinstance(rule, LinkRule) or not nids:
                    continue
                src_ids = [plan.operands[nid][0] for nid in nids]
                name = rule.label or f"{module_name}.{eqn.var}[{rule_idx}]"
                constraints.append(GlobalConstraint(
                    name=name,
                    dst_module=module_name,
                    src_module=rule.source.module,
                    dst_points=plan.points[module_name][rows[nids]],
                    src_points=plan.points[rule.source.module][rows[src_ids]],
                    min_gap=rule.min_gap))
    return constraints
