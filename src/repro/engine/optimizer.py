"""Logical plan optimizer.

A small rule-based rewriter applied before execution, mirroring the
always-on optimizations of production dataflow engines:

* **filter fusion** -- adjacent filters combine into one conjunction;
* **project fusion** -- adjacent projections compose into one;
* **filter pushdown** -- a filter above a projection moves below it when
  every column it references is a pure column reference in the
  projection (no recomputation of derived columns);
* **identity-project elimination** -- projections that neither reorder,
  rename nor compute anything are dropped;
* **project pruning** -- in ``Project(Filter(Project))`` (a filter on a
  computed column blocks pushdown and fusion) the inner projection
  keeps only the columns the filter or the outer projection read, so
  nothing computes or compresses a column nobody reads.

All rewrites operate on *bound* expressions (index-resolved), using
structural substitution; results are provably identical because bound
expressions are pure functions of the row.
"""

from __future__ import annotations

import dataclasses

from repro.engine import plan as logical
from repro.engine.expressions import (
    BoundAnd,
    BoundApply,
    BoundBinary,
    BoundColumn,
    BoundInSet,
    BoundLiteral,
    BoundOr,
    BoundUnary,
)


def optimize(node, trace=None):
    """Rewrite *node* bottom-up; returns an equivalent, cheaper plan.

    When *trace* is a list, the name of every rule that fires is
    appended to it (``"filter_fusion"``, ``"filter_pushdown"``,
    ``"project_fusion"``, ``"identity_project_elimination"``,
    ``"project_pruning"``) -- the
    per-rule equivalence tests use this to assert a plan actually
    exercised the rewrite under test.

    Shared subtrees (plans are DAGs: ``table.union(table)`` references
    one child node twice) are optimized once and reused -- without the
    memo a subtree shared by k self-unions would be rewritten 2^k
    times, and its rule fires double-counted in *trace*.
    """
    return _optimize(node, trace, {})


def _optimize(node, trace, memo):
    done = memo.get(id(node))
    if done is not None:
        return done
    out = _rewrite_children(node, trace, memo)
    while True:
        rewritten = _apply_rules(out, trace)
        if rewritten is out:
            break
        out = rewritten
    memo[id(node)] = out
    return out


def _rewrite_children(node, trace, memo):
    children = node.children()
    if not children:
        return node
    new_children = tuple(_optimize(c, trace, memo) for c in children)
    if new_children == children:
        return node
    if len(children) == 1:
        return dataclasses.replace(node, child=new_children[0])
    return dataclasses.replace(
        node, left=new_children[0], right=new_children[1]
    )


def _apply_rules(node, trace=None):
    if isinstance(node, logical.Filter):
        child = node.child
        if isinstance(child, logical.Filter):
            # Filter fusion: evaluate the lower predicate first.
            _record(trace, "filter_fusion")
            return logical.Filter(
                child.child, BoundAnd(child.predicate, node.predicate)
            )
        if isinstance(child, logical.Project):
            pushed = _push_filter_below_project(node, child)
            if pushed is not None:
                _record(trace, "filter_pushdown")
                return pushed
    if isinstance(node, logical.Project):
        child = node.child
        if isinstance(child, logical.Project):
            _record(trace, "project_fusion")
            composed = tuple(
                substitute(e, child.exprs) for e in node.exprs
            )
            return logical.Project(child.child, node.out_schema, composed)
        if _is_identity_project(node):
            _record(trace, "identity_project_elimination")
            return node.child
        if isinstance(child, logical.Filter) and isinstance(
            child.child, logical.Project
        ):
            pruned = _prune_inner_project(node, child, child.child)
            if pruned is not None:
                _record(trace, "project_pruning")
                return pruned
    return node


def _record(trace, rule_name):
    if trace is not None:
        trace.append(rule_name)


def _push_filter_below_project(filter_node, project_node):
    """Filter(Project(x)) -> Project(Filter(x)) when safe.

    Safe when each column the predicate references is produced by a pure
    ``BoundColumn`` in the projection -- substitution then renames
    indices without duplicating computed work.
    """
    refs = references(filter_node.predicate)
    for index in refs:
        if not isinstance(project_node.exprs[index], BoundColumn):
            return None
    new_predicate = substitute(filter_node.predicate, project_node.exprs)
    return logical.Project(
        logical.Filter(project_node.child, new_predicate),
        project_node.out_schema,
        project_node.exprs,
    )


def _prune_inner_project(outer, filter_node, inner):
    """Project(Filter(Project(x))): drop inner columns nobody above reads.

    The filter references a computed column (otherwise pushdown and
    fusion would already have collapsed the three nodes), so the inner
    projection is evaluated in full before any row is dropped. Keeping
    only the expressions the predicate or *outer* reference saves their
    evaluation and their trip through the filter; surviving columns
    keep their relative order and the references above are re-indexed.
    Returns None when every inner column is read.
    """
    live = references(filter_node.predicate)
    for expr in outer.exprs:
        live |= references(expr)
    if len(live) == len(inner.exprs):
        return None
    keep = sorted(live)
    remap = [None] * len(inner.exprs)
    for new, old in enumerate(keep):
        remap[old] = BoundColumn(new)
    pruned = logical.Project(
        inner.child,
        inner.out_schema.select(inner.out_schema.names[i] for i in keep),
        tuple(inner.exprs[i] for i in keep),
    )
    return logical.Project(
        logical.Filter(pruned, substitute(filter_node.predicate, remap)),
        outer.out_schema,
        tuple(substitute(e, remap) for e in outer.exprs),
    )


def _is_identity_project(node):
    child_schema = node.child.schema
    if node.out_schema.names != child_schema.names:
        return False
    return all(
        isinstance(e, BoundColumn) and e.index == i
        for i, e in enumerate(node.exprs)
    )


# ---------------------------------------------------------------------------
# Bound-expression structural tools
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ComposedApply:
    """A BoundApply whose inputs are arbitrary bound sub-expressions.

    Produced by project fusion when a computed column feeds a function
    column; keeps the fused projection a single pass over the row.
    """

    func: object
    producers: tuple

    def __call__(self, row):
        return self.func(*(p(row) for p in self.producers))


def references(expr):
    """Set of column indices a bound expression reads."""
    if isinstance(expr, BoundColumn):
        return {expr.index}
    if isinstance(expr, BoundLiteral):
        return set()
    if isinstance(expr, (BoundBinary, BoundAnd, BoundOr)):
        return references(expr.left) | references(expr.right)
    if isinstance(expr, BoundUnary):
        return references(expr.operand)
    if isinstance(expr, BoundInSet):
        return references(expr.operand)
    if isinstance(expr, BoundApply):
        return set(expr.indices)
    if isinstance(expr, ComposedApply):
        out = set()
        for producer in expr.producers:
            out |= references(producer)
        return out
    raise TypeError("unknown bound expression {!r}".format(type(expr).__name__))


def substitute(expr, exprs):
    """Replace each column reference *i* in *expr* by ``exprs[i]``."""
    if isinstance(expr, BoundColumn):
        return exprs[expr.index]
    if isinstance(expr, BoundLiteral):
        return expr
    if isinstance(expr, BoundBinary):
        return BoundBinary(
            expr.op, substitute(expr.left, exprs), substitute(expr.right, exprs)
        )
    if isinstance(expr, BoundAnd):
        return BoundAnd(
            substitute(expr.left, exprs), substitute(expr.right, exprs)
        )
    if isinstance(expr, BoundOr):
        return BoundOr(
            substitute(expr.left, exprs), substitute(expr.right, exprs)
        )
    if isinstance(expr, BoundUnary):
        return BoundUnary(expr.op, substitute(expr.operand, exprs))
    if isinstance(expr, BoundInSet):
        return BoundInSet(substitute(expr.operand, exprs), expr.values)
    if isinstance(expr, BoundApply):
        producers = tuple(exprs[i] for i in expr.indices)
        if all(isinstance(p, BoundColumn) for p in producers):
            return BoundApply(expr.func, tuple(p.index for p in producers))
        return ComposedApply(expr.func, producers)
    if isinstance(expr, ComposedApply):
        return ComposedApply(
            expr.func, tuple(substitute(p, exprs) for p in expr.producers)
        )
    raise TypeError("unknown bound expression {!r}".format(type(expr).__name__))
