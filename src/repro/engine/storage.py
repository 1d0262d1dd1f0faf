"""On-disk table storage.

The paper measures its extraction time as "interpretation followed by
writing the results to the database". :class:`TableStore` provides that
sink: a directory-per-table layout with one pickle file per partition plus
a small JSON manifest, so written tables reload with their partitioning
intact.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
from pathlib import Path

from repro.engine.columnar import as_row_partition
from repro.engine.errors import ExecutionError

_MANIFEST = "manifest.json"


class TableStore:
    """A directory of named, partitioned tables."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def table_dir(self, name):
        return self.root / name

    def exists(self, name):
        return (self.table_dir(name) / _MANIFEST).is_file()

    def list_tables(self):
        """Names of all stored tables, sorted (staging dirs excluded)."""
        return sorted(
            p.name for p in self.root.iterdir()
            if not p.name.startswith(".") and (p / _MANIFEST).is_file()
        )

    def write(self, name, table):
        """Materialize *table* and persist it under *name* (overwrites).

        Crash-safe: partitions and manifest are staged in a hidden
        sibling directory that is renamed over the old table only once
        complete, so a crash mid-write leaves either the previous table
        or the new one fully readable -- never a manifest pointing at
        already-deleted partition files.
        """
        partitions = table.collect_partitions()
        directory = self.table_dir(name)
        staging = self.root / ".staging-{}-{}".format(name, os.getpid())
        if staging.exists():
            shutil.rmtree(staging)
        staging.mkdir(parents=True)
        for i, part in enumerate(partitions):
            path = staging / "part-{:05d}.pkl".format(i)
            # Stored partitions are always row lists, even if a bare
            # columnar Source flows straight into a write: one on-disk
            # layout keeps every manifest reloadable by older readers.
            # as_row_partition already returns a fresh list for
            # columnar partitions and the partition itself otherwise;
            # copying only non-lists avoids duplicating every row
            # partition just to pickle it.
            rows = as_row_partition(part)
            if not isinstance(rows, list):
                rows = list(rows)
            with open(path, "wb") as fh:
                pickle.dump(rows, fh, protocol=pickle.HIGHEST_PROTOCOL)
        manifest = {
            "columns": list(table.schema.names),
            "num_partitions": len(partitions),
            "num_rows": sum(len(p) for p in partitions),
        }
        with open(staging / _MANIFEST, "w") as fh:
            json.dump(manifest, fh, indent=2)
        if directory.exists():
            retired = self.root / ".retired-{}-{}".format(name, os.getpid())
            if retired.exists():
                shutil.rmtree(retired)
            os.rename(directory, retired)
            os.rename(staging, directory)
            shutil.rmtree(retired)
        else:
            os.rename(staging, directory)
        return manifest

    def read(self, context, name):
        """Load a stored table into *context*, preserving partitions."""
        directory = self.table_dir(name)
        manifest_path = directory / _MANIFEST
        if not manifest_path.is_file():
            raise ExecutionError("no stored table named {!r}".format(name))
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        partitions = []
        for i in range(manifest["num_partitions"]):
            path = directory / "part-{:05d}.pkl".format(i)
            try:
                with open(path, "rb") as fh:
                    partitions.append(pickle.load(fh))
            except FileNotFoundError as exc:
                raise ExecutionError(
                    "stored table {!r} is missing partition file {!r} "
                    "(manifest expects {} partitions)".format(
                        name, path.name, manifest["num_partitions"]
                    ),
                    exc,
                )
        # Older manifests also carry a "dtypes" list, which is ignored.
        return context.table_from_partitions(manifest["columns"], partitions)

    def manifest(self, name):
        """Return the manifest dict of a stored table."""
        with open(self.table_dir(name) / _MANIFEST) as fh:
            return json.load(fh)

    def gc(self):
        """Remove orphaned staging/retired directories; returns their names.

        :meth:`write` stages new partitions in a hidden ``.staging-*``
        sibling and briefly parks the old table as ``.retired-*`` during
        the swap. A crash between stage and rename leaves that debris
        behind -- invisible to readers (:meth:`list_tables` skips hidden
        directories) but consuming disk forever. Safe to call any time
        no write is concurrently in flight on this store.
        """
        removed = []
        for path in sorted(self.root.iterdir()):
            if not path.is_dir():
                continue
            if path.name.startswith((".staging-", ".retired-")):
                shutil.rmtree(path)
                removed.append(path.name)
        return removed

    def delete(self, name):
        """Remove a stored table if present."""
        directory = self.table_dir(name)
        if not directory.is_dir():
            return
        for path in directory.glob("part-*.pkl"):
            path.unlink()
        manifest = directory / _MANIFEST
        if manifest.is_file():
            manifest.unlink()
        try:
            directory.rmdir()
        except OSError:
            pass
