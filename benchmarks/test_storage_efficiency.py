"""Sec. 3.2 memory-efficiency claim: store K_b raw, interpret on demand.

"To keep memory efficiency high ... we store traces in raw format K_b
which is more efficient than translating all K_b to K_s as, e.g., per
CAN message 8 bytes could contain 8 signals which would result in a K_s
of 8 times the size of K_b."

This bench measures the serialized size of the raw trace vs the fully
interpreted signal table for each data set, asserting that the raw form
is smaller and that the blow-up grows with the signals-per-message
density (LIG, at ~5 signals/message, blows up more than SYN at ~1.5).
Sizes are of the tables' row tuples pickled, one row encoding for both
forms. The report adds, without asserting on it, the bytes
:class:`~repro.engine.storage.TableStore` writes for ``K_s`` as one file
of typed column sections (``K_b``'s ``m_info`` tuples are not a
stored-table type).
"""

import pickle
import tempfile

import pytest

from benchmarks.conftest import DURATIONS, print_table
from repro.core import interpret, preselect
from repro.engine import EngineContext, TableStore


def serialized_size(table):
    """Bytes of the table's row tuples, pickled per partition."""
    return sum(
        len(pickle.dumps(part, protocol=pickle.HIGHEST_PROTOCOL))
        for part in table.collect_partitions()
    )


def stored_size(table):
    """Bytes of the file :class:`TableStore` writes for *table*."""
    with tempfile.TemporaryDirectory() as directory:
        store = TableStore(directory)
        store.write("t", table)
        return store.path("t").stat().st_size


def measure(bundle, duration):
    ctx = EngineContext.serial()
    k_b = bundle.record_table(ctx, duration).cache()
    catalog = bundle.catalog()
    k_s = interpret(preselect(k_b, catalog), catalog).cache()
    raw = serialized_size(k_b)
    interpreted = serialized_size(k_s)
    return {
        "rows_raw": k_b.count(),
        "rows_interpreted": k_s.count(),
        "bytes_raw": raw,
        "bytes_interpreted": interpreted,
        "bytes_stored": stored_size(k_s),
        "blowup": interpreted / raw,
    }


@pytest.fixture(scope="module")
def measurements(bundles):
    return {
        name: measure(bundle, DURATIONS[name])
        for name, bundle in bundles.items()
    }


def test_storage_efficiency_report(benchmark, measurements):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print_table(
        "Sec. 3.2 -- raw K_b vs fully interpreted K_s storage",
        [
            "set", "raw rows", "K_s rows", "raw bytes",
            "K_s bytes", "K_s / K_b size", "K_s stored bytes",
        ],
        [
            (
                name,
                m["rows_raw"],
                m["rows_interpreted"],
                m["bytes_raw"],
                m["bytes_interpreted"],
                round(m["blowup"], 2),
                m["bytes_stored"],
            )
            for name, m in sorted(measurements.items())
        ],
    )
    assert len(measurements) == 3


def test_raw_storage_wins_at_high_density(benchmark, measurements):
    """The paper's example assumes dense CAN packing (8 signals per
    8-byte message). LIG, our densest set (~5 signals/message), must
    show the claimed blow-up; sparse sets need not (SYN at ~1.5
    signals/message is the honest counterpoint -- per-row header
    overhead there outweighs row multiplication)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert measurements["LIG"]["blowup"] > 1.5


def test_blowup_grows_with_signal_density(benchmark, measurements):
    """The blow-up factor must be ordered by signals-per-message
    density: SYN (~1.5) < STA (~3.5) < LIG (~5)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert (
        measurements["SYN"]["blowup"]
        < measurements["STA"]["blowup"]
        < measurements["LIG"]["blowup"]
    )


def test_row_multiplication_matches_density(benchmark, measurements, bundles):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for name, m in measurements.items():
        density = m["rows_interpreted"] / m["rows_raw"]
        # The row blow-up IS the signals-per-message density.
        assert density == pytest.approx(
            bundles[name].database.statistics()["avg_signals_per_message"],
            rel=0.5,
        )
