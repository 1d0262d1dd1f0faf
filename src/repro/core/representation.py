"""Common representation and the state representation (Sec. 4.3).

The branch outputs ``K_α, K_β, K_γ`` and the extension tables ``W`` are
merged into one sequence ``K_rep`` of unified shape (``R_COLUMNS``). From
it, the *state representation* of Table 4 is formed: one column per
signal type, one row per timestamp at which any signal changed, missing
cells forward-filled with the signal's last value -- "each row resembles
the state of all signal instances at a time". The paper builds it from
concatenation, sort and lag (forward-fill) operations, all scalable
database operations; here the merge is an engine union and sort, and
the pivot with its forward fill is one pass over the collected rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.branches import (
    KIND_EXTENSION,
    KIND_OUTLIER,
    KIND_SYMBOL,
    R_COLUMNS,
)


class RepresentationError(ValueError):
    """Raised for malformed representation inputs."""


def merge_results(context, branch_tables, extension_tables=()):
    """Line 29: ``R_out = ∪ K_res ∪ W`` as one engine table.

    *branch_tables* are tables with ``R_COLUMNS``; *extension_tables*
    have the W layout ``(t, v, w_id, s_id, b_id)`` and are reshaped to
    ``R_COLUMNS`` with ``kind='extension'`` and the ``w_id`` as the
    signal type.
    """
    merged = context.empty_table(list(R_COLUMNS))
    for table in branch_tables:
        if tuple(table.schema.names) != R_COLUMNS:
            raise RepresentationError(
                "branch table has columns {}, expected {}".format(
                    list(table.schema.names), list(R_COLUMNS)
                )
            )
        merged = merged.union(table)
    for w_table in extension_tables:
        merged = merged.union(
            w_table.flat_map(_reshape_extension_row, list(R_COLUMNS))
        )
    return merged.sort(["t", "s_id"])


def _reshape_extension_row(row):
    t, v, w_id, _s_id, b_id = row
    return [(t, w_id, b_id, KIND_EXTENSION, v, None)]


def format_cell(kind, value, trend):
    """Render one homogeneous element the way Table 4 prints it."""
    if kind == KIND_OUTLIER:
        return "outlier v = {}".format(value)
    if kind == KIND_SYMBOL and trend is not None:
        return "({},{})".format(value, trend)
    return str(value)


@dataclass
class StateRepresentation:
    """The pivoted state table of Table 4.

    ``columns`` are the signal types (and extension ids); ``rows`` are
    ``(t, cell_0, ..., cell_k)`` tuples with every cell forward-filled.
    """

    columns: tuple
    rows: list

    def __len__(self):
        return len(self.rows)

    def signal_column(self, signal_id):
        """All (t, cell) pairs of one signal column."""
        index = self.columns.index(signal_id) + 1
        return [(row[0], row[index]) for row in self.rows]

    def state_at(self, t):
        """The state dict at the latest row with timestamp <= t."""
        chosen = None
        for row in self.rows:
            if row[0] <= t:
                chosen = row
            else:
                break
        if chosen is None:
            raise RepresentationError("no state at or before t={}".format(t))
        return dict(zip(("t",) + self.columns, chosen))

    def iter_states(self):
        """Iterate state dicts row by row."""
        header = ("t",) + self.columns
        for row in self.rows:
            yield dict(zip(header, row))

    def to_markdown(self, max_rows=None):
        """Markdown table in the style of Table 4."""
        header = ("t",) + self.columns
        lines = [
            "| " + " | ".join(header) + " |",
            "|" + "|".join("---" for _unused in header) + "|",
        ]
        rows = self.rows if max_rows is None else self.rows[:max_rows]
        for row in rows:
            cells = [str(row[0])] + [
                "" if c is None else str(c) for c in row[1:]
            ]
            lines.append("| " + " | ".join(cells) + " |")
        return "\n".join(lines)

    def transitions(self, signal_id):
        """Consecutive (from, to) value pairs of one column (for mining)."""
        cells = [c for _t, c in self.signal_column(signal_id)]
        return [
            (a, b) for a, b in zip(cells, cells[1:]) if a is not None
        ]


def build_state_representation(r_out, signal_order=None, round_time=9):
    """Pivot ``R_out`` into a :class:`StateRepresentation`.

    ``R_out`` is collected once; its rows are coalesced into one sparse
    wide row per (rounded) timestamp, and the rows, in time order, are
    forward-filled: an empty cell takes its column's last value (a lag
    operation).
    """
    rows = r_out.collect()
    schema = r_out.schema
    t_i = schema.index_of("t")
    s_i = schema.index_of("s_id")
    k_i = schema.index_of("kind")
    v_i = schema.index_of("value")
    tr_i = schema.index_of("trend")
    if signal_order is None:
        signal_order = tuple(sorted({str(r[s_i]) for r in rows}))
    else:
        signal_order = tuple(signal_order)
    col_index = {s: i for i, s in enumerate(signal_order)}
    sparse = {}
    # The cell for (t, s_id) is last-write-wins; iterate in a total
    # order so the pivot is a pure function of the row multiset, not of
    # the collect order (which shuffles may permute).
    rows = sorted(
        rows,
        key=lambda r: (
            r[t_i], str(r[s_i]), str(r[k_i]), repr(r[v_i]), repr(r[tr_i])
        ),
    )
    for r in rows:
        s_id = str(r[s_i])
        if s_id not in col_index:
            continue
        t = round(r[t_i], round_time)
        cell = format_cell(r[k_i], r[v_i], r[tr_i])
        wide = sparse.setdefault(t, [None] * len(signal_order))
        wide[col_index[s_id]] = cell
    state = [None] * len(signal_order)
    filled = []
    for t, cells in sorted(sparse.items()):
        state = [
            last if cell is None else cell for cell, last in zip(cells, state)
        ]
        filled.append((t,) + tuple(state))
    return StateRepresentation(signal_order, filled)
