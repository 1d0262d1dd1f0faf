"""Windowed (ordered) partition functions for ``sorted_map_partitions``.

``ForwardFill`` carries the last seen value forward; the state
representation (Table 4) is built with it. Partition functions are
picklable dataclasses so they run on the multiprocessing executor.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ForwardFill:
    """Replace None values with the last non-None value per column.

    ``fill_indices`` lists columns to fill. Assumes a global sort by the
    ordering column; carry rows let the fill continue across partitions.
    """

    fill_indices: tuple

    def __call__(self, partition, carry):
        last = {}
        for row in carry:
            for i in self.fill_indices:
                if row[i] is not None:
                    last[i] = row[i]
        out = []
        for row in partition:
            values = list(row)
            for i in self.fill_indices:
                if values[i] is None:
                    values[i] = last.get(i)
                else:
                    last[i] = values[i]
            out.append(tuple(values))
        return out
