"""Rewrite patterns and the greedy fixpoint driver.

A :class:`RewritePattern` is a local transformation over the typed IR of
:mod:`repro.rewrite.ir`: given one op it either returns a replacement op
(and thereby claims a rewrite) or ``None``.  :func:`apply_patterns` drives
a set of patterns to a fixpoint, bottom-up, greedily — the standard
worklist-free driver for confluent pattern sets.

Because op equality deliberately ignores executable payloads (``Op.fn`` /
``Op.int_kernel`` compare by name and arity only, exactly like the design
cache), the driver trusts a non-``None`` return: a pattern must return
``None`` for ops it does not change, and every rewrite must extinguish its
own match condition, or the driver reports non-convergence.

Stock patterns:

* :class:`FuseAccumulatorKernels` — attaches the composed exact int64
  kernel to accumulator composites built by
  :func:`repro.ir.ops.compose_accumulate`.  This is the rewrite-pattern
  form of what used to be hard-wired into the restructurer; it changes
  only the int64 fast-path eligibility, never values or event
  streams.
* :class:`CrossChainCSE` — merges structurally identical equations within
  each module (duplicated carrier chains arise whenever a spec repeats an
  argument) and redirects every local, cross-module and output reference
  to the surviving variable.  This genuinely changes the synthesized
  design (fewer values, fewer links), so it is opt-in, not part of the
  default pipeline.
"""

from __future__ import annotations

import abc

from repro.ir.statements import ComputeRule
from repro.ir.variables import ExternalRef, Ref
from repro.ir.vector import fused_int_kernel
from repro.rewrite.ir import IROp, Region
from repro.util.instrument import STATS


class RewritePattern(abc.ABC):
    """One local rewrite; stateless and reusable across drivers."""

    #: short kebab-case identifier used in trace counters and reports
    name: str = "pattern"

    @abc.abstractmethod
    def match_and_rewrite(self, op: IROp) -> IROp | None:
        """Return the replacement for ``op``, or ``None`` if no match.

        A returned op is taken as-is (the driver does not re-compare); the
        rewrite must make the pattern no longer match the result.
        """


class PatternConvergenceError(Exception):
    """A pattern set kept rewriting past the iteration bound."""


def _rewrite_once(op: IROp, patterns, counts: dict[str, int]
                  ) -> tuple[IROp, bool]:
    changed = False
    if op.regions:
        regions = []
        for region in op.regions:
            ops = []
            for child in region:
                new_child, child_changed = _rewrite_once(
                    child, patterns, counts)
                changed = changed or child_changed
                ops.append(new_child)
            regions.append(Region(ops))
        if changed:
            op = op.with_regions(regions)
    for pattern in patterns:
        replacement = pattern.match_and_rewrite(op)
        if replacement is not None:
            counts[pattern.name] = counts.get(pattern.name, 0) + 1
            return replacement, True
    return op, changed


def apply_patterns(root: IROp, patterns, max_iterations: int = 32
                   ) -> tuple[IROp, dict[str, int]]:
    """Greedily apply ``patterns`` bottom-up until fixpoint.

    Returns the rewritten root and per-pattern rewrite counts (also pushed
    into the span tracer as ``rewrite.<pattern>`` counters).  Raises
    :class:`PatternConvergenceError` after ``max_iterations`` full sweeps
    that each still rewrote something.
    """
    counts: dict[str, int] = {}
    for _ in range(max_iterations):
        root, changed = _rewrite_once(root, tuple(patterns), counts)
        if not changed:
            break
    else:
        raise PatternConvergenceError(
            f"patterns did not converge after {max_iterations} sweeps: "
            f"{counts}")
    for name, n in counts.items():
        STATS.count(f"rewrite.{name}", n)
    return root, counts


# -- stock patterns ----------------------------------------------------------

class FuseAccumulatorKernels(RewritePattern):
    """Attach the composed exact int64 kernel to accumulator composites.

    Matches ``rule.compute`` ops whose :class:`~repro.ir.ops.Op` records
    ``components=(h, f)`` but carries no ``int_kernel`` yet, and for which
    :func:`~repro.ir.vector.fused_int_kernel` can derive an exact kernel
    (both components stock).  Custom components stay on the object path —
    the pattern simply never matches them.
    """

    name = "fuse-accumulator-kernels"

    def match_and_rewrite(self, op: IROp) -> IROp | None:
        if op.name != "rule.compute":
            return None
        body = op.attr("op")
        if body.components is None or body.int_kernel is not None:
            return None
        kernel = fused_int_kernel(*body.components)
        if kernel is None:
            return None
        fused = type(body)(body.name, body.arity, body.fn,
                           int_kernel=kernel, components=body.components)
        return op.with_attrs(op=fused)


class CrossChainCSE(RewritePattern):
    """Merge structurally identical equations within each module.

    Two equations of one module are common subexpressions when their rule
    lists and ``where`` predicates are structurally equal — for a
    restructured system this happens exactly when the spec repeats an
    argument, duplicating a carrier pipeline in *both* chain modules.  The
    first (in declaration order) survives; every :class:`Ref`,
    :class:`ExternalRef` and output referring to a dropped variable is
    redirected to the survivor.
    """

    name = "cross-chain-cse"

    def match_and_rewrite(self, op: IROp) -> IROp | None:
        if op.name != "design.system":
            return None
        renames: dict[tuple[str, str], str] = {}
        for module in op.regions[0]:
            seen: dict[IROp, str] = {}
            mod = module.attr("name")
            for eqn in module.regions[0]:
                var = eqn.attr("var")
                survivor = seen.setdefault(_alpha_body(eqn), var)
                if survivor != var:
                    renames[(mod, var)] = survivor
        if not renames:
            return None
        return _apply_renames(op, renames)


def _alpha_body(eqn: IROp) -> IROp:
    """The equation's identity modulo its own name.

    Self-references (a carrier propagating itself) are rewritten to the
    placeholder ``%self`` so two equations that differ only in what they
    call themselves compare equal.  Link labels are scrubbed too: the
    restructurer derives them from the variable name
    (``m1.ap<-comb``), and a label is bookkeeping, not semantics.
    """
    var = eqn.attr("var")

    def scrub(op: IROp) -> IROp:
        if op.name == "rule.link":
            return op.with_attrs(label="%self")
        if op.name != "rule.compute":
            return op
        operands = tuple(Ref("%self", ref.index) if ref.var == var else ref
                         for ref in op.attr("operands"))
        return op.with_attrs(operands=operands)

    rules = Region([scrub(rop) for rop in eqn.regions[0]])
    return eqn.with_attrs(var="%self").with_regions((rules,))


def _apply_renames(root: IROp,
                   renames: dict[tuple[str, str], str]) -> IROp:
    """Drop renamed equations and redirect every reference to them."""

    def rename_rule(op: IROp, module: str) -> IROp:
        if op.name == "rule.compute":
            operands = tuple(
                Ref(renames.get((module, ref.var), ref.var), ref.index)
                for ref in op.attr("operands"))
            return op.with_attrs(operands=operands)
        if op.name == "rule.link":
            src = op.attr("source")
            new_var = renames.get((src.module, src.var))
            if new_var is None:
                return op
            return op.with_attrs(
                source=ExternalRef(src.module, new_var, src.index))
        return op

    modules = []
    for module in root.regions[0]:
        mod = module.attr("name")
        equations = []
        for eqn in module.regions[0]:
            if (mod, eqn.attr("var")) in renames:
                continue
            rules = Region([rename_rule(rop, mod)
                            for rop in eqn.regions[0]])
            equations.append(eqn.with_regions((rules,)))
        modules.append(module.with_regions((Region(equations),)))
    outputs = []
    for out in root.regions[1]:
        new_var = renames.get((out.attr("module"), out.attr("var")))
        outputs.append(out if new_var is None
                       else out.with_attrs(var=new_var))
    return root.with_regions((Region(modules), Region(outputs)))
