"""Shuffle-bucketing determinism and sort-path equivalence.

``hash_partition`` must place a row in the same bucket in every
interpreter run and worker process: the builtin :func:`hash` is salted
per run for strings (``PYTHONHASHSEED``), which silently broke that
contract for string shuffle keys. The regression test here runs the
same keyed repartition under two different hash seeds in subprocesses
and demands byte-identical partitions.
"""

import math
import random
import subprocess
import sys

import pytest

from repro.engine.operations import (
    SortPartitionTask,
    hash_partition,
    stable_hash,
)

NAN = float("nan")


class TestStableHash:
    def test_equal_values_hash_equal_across_numeric_types(self):
        # Keyed repartitions rely on hash(k1) == hash(k2) whenever
        # k1 == k2.
        assert stable_hash(1) == stable_hash(1.0) == stable_hash(True)
        assert stable_hash(0) == stable_hash(0.0) == stable_hash(False)
        assert stable_hash((1, "a")) == stable_hash((1.0, "a"))

    def test_distinct_values_usually_differ(self):
        values = [None, 0, 1, -1, 2.5, "a", "b", b"a", (1, 2), ("1", 2),
                  NAN, math.inf, -math.inf, ("a",), "a\x00b"]
        hashes = [stable_hash(v) for v in values]
        assert len(set(hashes)) == len(hashes)

    def test_nan_is_canonical(self):
        assert stable_hash(NAN) == stable_hash(float("nan"))
        assert stable_hash((NAN, 1)) == stable_hash((float("nan"), 1))

    def test_type_tags_prevent_cross_type_collisions(self):
        assert stable_hash("1") != stable_hash(1)
        assert stable_hash(b"x") != stable_hash("x")
        assert stable_hash(("a", "b")) != stable_hash(("a,b",))

    def test_hash_partition_routes_equal_keys_together(self):
        rows = [(1, "x"), (1.0, "y"), (True, "z"), (2, "w")]
        buckets = hash_partition(rows, (0,), 16)
        populated = [b for b in buckets if b]
        by_bucket = {id(b): [r[1] for r in b] for b in populated}
        merged = sorted(v for vals in by_bucket.values() for v in vals)
        assert merged == ["w", "x", "y", "z"]
        for bucket in populated:
            keys = {1.0 if r[0] == 1 else r[0] for r in bucket}
            assert len(keys) == 1


_REPARTITION_SCRIPT = """
import sys
from repro.engine import EngineContext
from repro.engine.executor import SerialExecutor

rows = [("id%d" % (i % 17), i % 5, float(i)) for i in range(500)]
with SerialExecutor(default_parallelism=7) as executor:
    ctx = EngineContext(executor)
    t = ctx.table_from_rows(["name", "m", "v"], rows)
    out = t.repartition(7, keys=["name", "m"])
    partitions = out.collect_partitions()
for partition in partitions:
    sys.stdout.write(repr(partition) + "\\n")
"""


class TestHashSeedRegression:
    @pytest.mark.parametrize("seeds", [("0", "1"), ("0", "12345")])
    def test_keyed_repartition_identical_across_hash_seeds(self, seeds):
        outputs = []
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, "-c", _REPARTITION_SCRIPT],
                capture_output=True, text=True,
                env={"PYTHONHASHSEED": seed, "PYTHONPATH": "src"},
                cwd="/root/repo",
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].count("\n") == 7

    def test_hash_partition_layout_identical_across_hash_seeds(self):
        script = (
            "from repro.engine.operations import hash_partition;"
            "rows=[('k%d'%i, i) for i in range(100)];"
            "print(hash_partition(rows,(0,),8))"
        )
        outputs = []
        for seed in ("0", "7"):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True,
                env={"PYTHONHASHSEED": seed, "PYTHONPATH": "src"},
                cwd="/root/repo",
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


def _multi_pass_reference(rows, key_indices, ascending):
    """The pre-optimization k-pass stable sort, kept as the oracle."""
    ordered = list(rows)
    for idx, asc in reversed(list(zip(key_indices, ascending))):
        ordered.sort(key=lambda r, i=idx: r[i], reverse=not asc)
    return ordered


class TestSortSinglePass:
    @pytest.mark.parametrize("keys,directions", [
        ((0,), (True,)),
        ((1, 0), (True, True)),
        ((2, 0, 1), (True, True, True)),
    ])
    def test_all_ascending_matches_multi_pass(self, keys, directions):
        rng = random.Random(11)
        rows = [
            (rng.randrange(5), rng.randrange(3), rng.random())
            for _ in range(200)
        ]
        task = SortPartitionTask(keys, directions)
        assert task(rows) == _multi_pass_reference(rows, keys, directions)

    def test_mixed_directions_still_correct(self):
        rng = random.Random(13)
        rows = [(rng.randrange(4), rng.randrange(4)) for _ in range(100)]
        task = SortPartitionTask((0, 1), (True, False))
        out = task(rows)
        assert out == _multi_pass_reference(rows, (0, 1), (True, False))
        assert out == sorted(rows, key=lambda r: (r[0], -r[1]))

    def test_single_pass_is_stable(self):
        # Ties keep input order, exactly like the stable multi-pass.
        rows = [(1, "a"), (0, "b"), (1, "c"), (0, "d"), (1, "e")]
        task = SortPartitionTask((0,), (True,))
        assert task(rows) == [(0, "b"), (0, "d"), (1, "a"), (1, "c"), (1, "e")]

    def test_empty_keys_is_identity(self):
        rows = [(3,), (1,), (2,)]
        assert SortPartitionTask((), ())(rows) == rows
