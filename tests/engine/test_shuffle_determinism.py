"""Shuffle determinism across hash seeds, and the sort task.

The builtin :func:`hash` is salted per interpreter run for strings
(``PYTHONHASHSEED``), so anything that orders or routes rows by it
would make partition layouts and collect order differ across fresh
runs -- breaking the engine's determinism contract. The regression test
here runs a split and a whole LIG pipeline under three hash seeds in
subprocesses and demands identical output.
"""

import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine.operations import SortPartitionTask

ROOT = Path(__file__).resolve().parents[2]

_SCRIPT = """
import hashlib
from repro.core import PipelineConfig, PreprocessingPipeline
from repro.datasets import SPECS, build_dataset
from repro.engine import EngineContext

bundle = build_dataset(SPECS["LIG"])
k_b = bundle.record_table(EngineContext.serial(), 4.0)
print(list(k_b.split_by_key("b_id")))
config = PipelineConfig(
    catalog=bundle.catalog(), constraints=bundle.default_constraints()
)
rows = PreprocessingPipeline(config).run(k_b).r_out.collect()
print(len(rows), hashlib.sha256(repr(rows).encode("utf-8")).hexdigest())
"""


def test_split_keys_and_r_out_order_identical_across_hash_seeds():
    outputs = set()
    for seed in ("0", "1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _SCRIPT],
            capture_output=True, text=True, cwd=str(ROOT),
            env={"PYTHONHASHSEED": seed, "PYTHONPATH": str(ROOT / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    [output] = outputs
    keys, r_out = output.splitlines()
    assert keys == "['BC', 'FC', 'K-LIN']"
    assert int(r_out.split()[0]) > 0


def _stable_sorted(rows, key_indices):
    """The reference: Python's stable sort on the composite key."""
    return sorted(rows, key=lambda r: tuple(r[i] for i in key_indices))


class TestSortSinglePass:
    @pytest.mark.parametrize("keys", [(0,), (1, 0), (2, 0, 1)])
    def test_matches_stable_composite_sort(self, keys):
        rng = random.Random(11)
        rows = [
            (rng.randrange(5), rng.randrange(3), rng.random())
            for _ in range(200)
        ]
        assert SortPartitionTask(keys)(rows) == _stable_sorted(rows, keys)

    def test_single_pass_is_stable(self):
        # Ties keep input order.
        rows = [(1, "a"), (0, "b"), (1, "c"), (0, "d"), (1, "e")]
        task = SortPartitionTask((0,))
        assert task(rows) == [(0, "b"), (0, "d"), (1, "a"), (1, "c"), (1, "e")]

    def test_empty_keys_is_identity(self):
        rows = [(3,), (1,), (2,)]
        assert SortPartitionTask(())(rows) == rows
