"""Algorithm 1 lines 10-29 for one signal sequence -- the only copy.

Every entry point that runs the back half of Algorithm 1 composes the
functions of this module: :meth:`PreprocessingPipeline.run
<repro.core.pipeline.PreprocessingPipeline.run>` feeds each split
group's rows with an empty carry, :class:`IncrementalRunner
<repro.core.incremental.IncrementalRunner>` feeds each window's chunk
with the carry of the chunks before it, and the public engine wrappers
:func:`~repro.core.reduction.reduce_signal` and
:func:`~repro.core.extension.apply_extensions` run them as one task per
sequence. Whole-trace and windowed results are therefore equal because
they are computed by the same statements, not because a property test
holds two copies together.

A *sequence* is a list of ``K_s``-layout rows ``(t, v, s_id, b_id)`` of
one signal type (normally of one channel). The stages, in order:

1. :func:`order_sequence` -- the canonical order ``(t, value_order_key(v))``;
2. :func:`reduce_sequence` -- Eq. 1 with an explicit per-marker carry
   (lines 10-11);
3. :func:`derive_extensions` -- the W rows of the reduced sequence
   (line 12);
4. :func:`process_sequence` -- ``classify`` then ``process_branch``
   (lines 13-28);
5. :func:`merge_sequences` -- ``merge_results`` over all sequences'
   output rows (line 29).
"""

from __future__ import annotations

from repro.core.branches import R_COLUMNS, process_branch
from repro.core.classification import classify
from repro.core.model import K_S_COLUMNS, W_COLUMNS
from repro.core.representation import merge_results
from repro.engine.schema import Schema

#: Layout of the rows every stage below takes.
K_S_SCHEMA = Schema.of(*K_S_COLUMNS)


def value_order_key(value):
    """Canonical tiebreak for rows sharing a timestamp.

    ``repr`` yields a deterministic, comparable string across the
    mixed value types a sequence can hold (floats, labels, the
    TRUNCATED sentinel).
    """
    return repr(value)


def order_sequence(rows):
    """Sort one sequence's rows into the canonical order.

    Sorting on the timestamp alone is not a total order once transport
    corruption is in play: a gateway duplicate whose copy lost payload
    bytes yields two rows of one (s_id, b_id) at the same ``t`` with
    *different* values, and the repeat-removal markers would then depend
    on arrival order. The value's :func:`value_order_key` breaks such
    ties deterministically.
    """
    return sorted(rows, key=lambda r: (r[0], value_order_key(r[1])))


def marker_functions(constraints):
    """Line 10: the ``f ∈ F`` of the constraints joined to a sequence."""
    return tuple(f for c in constraints for f in c.functions)


def reduce_sequence(rows, functions, carries):
    """Lines 10-11: evaluate Eq. 1 and keep the rows whose flag is false.

    *rows* are canonically ordered; *functions* come from
    :func:`marker_functions`. *carries* maps a marker's position in
    *functions* to the ``prev`` it continues from (see
    :meth:`MarkerFunction.carry_after
    <repro.core.reduction.MarkerFunction.carry_after>`): pass an empty
    dict for a whole sequence, and the dict of the preceding chunk for a
    continuation. It is updated in place, so reducing a sequence chunk
    by chunk is element-for-element identical to reducing it at once.
    """
    if not functions:
        return list(rows)
    times = [row[0] for row in rows]
    values = [row[1] for row in rows]
    redundant = [False] * len(rows)
    for index, func in enumerate(functions):
        prev = carries.get(index)
        for i, flag in enumerate(func.flags(times, values, prev)):
            if flag:
                redundant[i] = True
        carries[index] = func.carry_after(times, values, prev)
    return [row for row, e in zip(rows, redundant) if not e]


def derive_extensions(rows, rules):
    """Line 12: the W rows of one reduced, ordered sequence."""
    out = []
    for rule in rules:
        out.extend(rule.derive(rows, K_S_SCHEMA))
    out.sort(key=lambda r: (r[0], r[2]))
    return out


def classify_sequence(rows, classifier_config=None):
    """Table 3 for one ordered sequence."""
    return classify(
        [row[0] for row in rows], [row[1] for row in rows], classifier_config
    )


def process_sequence(rows, branch_config):
    """Lines 13-28: classify a reduced sequence and run its branch.

    Returns ``(classification, R rows)``.
    """
    classification = classify_sequence(rows, branch_config.classifier)
    return classification, process_branch(
        rows, K_S_SCHEMA, classification, branch_config
    )


def merge_sequences(context, result_rows, w_rows):
    """Line 29: ``R_out`` from all sequences' branch rows and W rows."""
    return merge_results(
        context,
        [context.table_from_rows(list(R_COLUMNS), result_rows)],
        [context.table_from_rows(list(W_COLUMNS), w_rows)],
    )
