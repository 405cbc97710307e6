"""The scalar derivation of the global link constraints, kept as the test
oracle.

This is the body :func:`repro.core.globals.link_constraints` had before it
read the execution plan: it enumerates every module with
``Polyhedron.points``, runs ``Equation.defined_at`` and the first-match
``Equation.select`` at every point, and evaluates each link's source index
there.  It shares no code with :func:`repro.ir.evaluate.build_execution_plan`.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.ir.program import RecurrenceSystem
from repro.schedule.constraints import GlobalConstraint


def scalar_link_constraints(system: RecurrenceSystem,
                            params: Mapping[str, int]
                            ) -> list[GlobalConstraint]:
    """One :class:`GlobalConstraint` per link rule, instances enumerated.

    Constraints are named by the rule's label (A1..A5) when present,
    otherwise ``dst_module.dst_var[rule_index]``.
    """
    constraints: list[GlobalConstraint] = []
    domains = {name: list(m.domain.points(params))
               for name, m in system.modules.items()}
    for module_name, module in system.modules.items():
        for eqn in module.equations.values():
            for rule_idx, rule in enumerate(eqn.rules):
                if not hasattr(rule, "source"):
                    continue
                dst_pts: list[tuple[int, ...]] = []
                src_pts: list[tuple[int, ...]] = []
                for p in domains[module_name]:
                    binding = {**params, **dict(zip(module.dims, p))}
                    if not eqn.defined_at(binding):
                        continue
                    # First-match semantics: the rule constrains only the
                    # points where it actually fires.
                    if eqn.select(binding) is not rule:
                        continue
                    dst_pts.append(p)
                    src_pts.append(rule.source.evaluate(binding))
                if not dst_pts:
                    continue
                name = rule.label or f"{module_name}.{eqn.var}[{rule_idx}]"
                constraints.append(GlobalConstraint(
                    name=name,
                    dst_module=module_name,
                    src_module=rule.source.module,
                    dst_points=np.array(dst_pts, dtype=np.int64),
                    src_points=np.array(src_pts, dtype=np.int64),
                    min_gap=rule.min_gap))
    return constraints
