"""One differential for ``R_out``: a generated journey on every axis.

The paper's Algorithm 1 is distributable: ``R_out`` is a pure function
of (trace, parameter set), however the work is split. This module
checks that on journeys from
:func:`~repro.testing.generator.generate_journey_case` by running each
one at a set of :class:`Point` s -- one value per axis --

* partitions: 1-8, the source partitions and the executor's default;
* layout: rows in memory, a ``.btrc`` or a ``.ctrc`` file;
* window: none (:meth:`PreprocessingPipeline.run`) or a size in seconds
  (:class:`IncrementalRunner` over :func:`split_into_windows`);
* kill: none, or :meth:`StreamIngestService.serve` killed after that
  many frames and then resumed from its session log --

and comparing the sha256 of the sorted ``R_out`` rows (and of ``K_s``
where the run keeps it) with the serial, one-partition, in-memory,
whole-trace run's. A point that errors where the reference does not is
a divergence too.

Each run builds its own serial executor at the point's partition
count, so a run is a pure function of (records, point). A divergence
shrinks to fewer frames of the same journey (tail cut, then frames
dropped) and is written as a JSON reproducer naming the seed, the lossy
flag, the kept frame indices and the failing point.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import random
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.core.incremental import IncrementalRunner, split_into_windows
from repro.core.params import config_from_dict
from repro.core.pipeline import PreprocessingPipeline
from repro.engine import EngineContext
from repro.obs import RunReport
from repro.protocols.frames import BYTE_RECORD_COLUMNS
from repro.stream import ReplaySource, StreamConfig, StreamIngestService
from repro.testing.generator import generate_journey_case
from repro.tracefile import codec_for

LAYOUTS = ("rows", ".btrc", ".ctrc")
MAX_PARTITIONS = 8
SHRINK_CHECKS = 400  # the most reruns one shrink may make
REPRODUCER_FORMAT = "repro.testing/3"


@dataclass(frozen=True)
class Point:
    """One value per axis; ``window=None`` is the whole trace at once
    and ``kill=None`` a run that is never killed. A killed run streams
    with ``window`` seconds and commits every ``kill // 3`` frames."""

    partitions: int
    layout: str
    window: float = None
    kill: int = None

    def __str__(self):
        return "/".join("{}={}".format(k, v) for k, v in asdict(self).items()
                        if v is not None)


REFERENCE = Point(1, "rows")


@dataclass(frozen=True)
class Divergence:
    point: Point
    kind: str  # "R_out", "K_s" or "error"
    detail: str


@dataclass
class CaseReport:
    runs: int = 0
    divergences: list = field(default_factory=list)
    invalid: str = ""  # why the reference itself failed


def journey(seed, lossy=False):
    """The journey of *seed*, as ``generate_journey_case`` draws it."""
    return generate_journey_case(random.Random(seed), lossy=lossy)


def draw_points(seed, frames):
    """The points of one case: every layout at one partition and at a
    drawn count, then one windowed and one killed run at drawn values.
    The reference comes first."""
    rng = random.Random("points-{}".format(seed))
    partitions = rng.randint(2, MAX_PARTITIONS)
    points = [Point(count, layout)
              for layout in LAYOUTS for count in (1, partitions)]
    # Log-uniform, so many windows are short enough to seal between two
    # commits of the killed run: what a resumed log must carry.
    window = round(math.exp(rng.uniform(math.log(0.1), math.log(3.0))), 2)
    for kill in (None, rng.randint(1, max(1, frames - 1))):
        points.append(Point(rng.randint(1, MAX_PARTITIONS),
                            rng.choice(LAYOUTS), window, kill))
    return points


def digest(rows):
    """sha256 of the rows' sorted ``repr`` s."""
    text = "\n".join(sorted(map(repr, rows)))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(case, records, point):
    """``(R_out digest, K_s digest or None)`` of *records* at *point*."""
    config = config_from_dict(case.params, case.database)
    context = EngineContext.serial(default_parallelism=point.partitions)
    with tempfile.TemporaryDirectory(prefix="repro-diff-") as tmp:
        source = records
        if point.layout != "rows":
            source = Path(tmp, "trace" + point.layout)
            codec_for(source).dump_records(records, source)
        if point.kill is not None:
            return _stream(context, config, source, point, tmp), None
        if point.window is not None:
            runner = IncrementalRunner(config)
            for window in split_into_windows(_records(source), point.window):
                runner.process_window(_table(context, window, point))
            return digest(runner.finalize(context).r_out.collect()), None
        if point.layout == "rows":
            k_b = _table(context, records, point)
        else:
            k_b = codec_for(source).load_table(
                context, source, num_partitions=point.partitions
            )
        result = PreprocessingPipeline(config).run(k_b)
        return digest(result.r_out.collect()), digest(result.k_s.collect())


def check(case, records, points):
    """Run *points* (the reference first) on *records*; report each
    point that disagrees with the reference."""
    report = CaseReport()
    try:
        expected = run(case, records, points[0])
    except Exception as exc:  # any failure is an outcome to compare
        report.invalid = _failure(exc)
        return report
    for point in points[1:]:
        report.runs += 1
        try:
            r_out, k_s = run(case, records, point)
        except Exception as exc:
            report.divergences.append(
                Divergence(point, "error", _failure(exc)))
            continue
        for kind, got, want in (("R_out", r_out, expected[0]),
                                ("K_s", k_s, expected[1])):
            if got not in (None, want):
                report.divergences.append(Divergence(
                    point, kind, "{} digest {} != {}".format(
                        kind, got[:12], want[:12])))
                break
    return report


def diverges(case, records, point):
    return bool(check(case, records, [REFERENCE, point]).divergences)


def shrink(case, point):
    """Indices of fewer frames of *case* that still diverge at *point*:
    the tail is cut, then frames are dropped, halving the step each time
    nothing more can go."""
    kept = list(range(len(case.records)))
    checks = 0

    def still_diverges(indices):
        nonlocal checks
        if not indices or checks >= SHRINK_CHECKS:
            return False
        checks += 1
        return diverges(case, [case.records[i] for i in indices], point)

    step = len(kept) // 2
    while step:
        if still_diverges(kept[:-step]):
            kept = kept[:-step]
        else:
            step //= 2
    step = len(kept) // 2
    while step:
        start = 0
        while start < len(kept):
            candidate = kept[:start] + kept[start + step:]
            if still_diverges(candidate):
                kept = candidate
            else:
                start += step
        step //= 2
    return kept


def _records(source):
    if isinstance(source, Path):
        return list(codec_for(source).load_records(source))
    return list(source)


def _table(context, records, point):
    return context.table_from_rows(
        list(BYTE_RECORD_COLUMNS), list(records),
        num_partitions=point.partitions,
    )


def _stream(context, config, source, point, tmp):
    """Serve *source* killed after ``point.kill`` frames, resume, and
    digest the finalized ``R_out``. The replay is in time order, so no
    frame is late at zero grace."""
    stream = StreamConfig(window_seconds=point.window, grace_seconds=0.0,
                          checkpoint_every=max(1, point.kill // 3))
    records = _records(source)
    for max_frames in (point.kill, None):
        service = StreamIngestService(Path(tmp, "run"), stream)
        service.add_vehicle("v", ReplaySource(records), config, context)
        asyncio.run(service.serve(max_frames))
    return digest(service.finalize_all()["v"].r_out.collect())


def _failure(exc):
    return "{}: {}".format(type(exc).__name__, exc)


def shrink_and_write(seed, lossy, case, divergence, path):
    """Shrink *divergence*, recheck it and write its reproducer JSON to
    *path*; returns the kept frame indices."""
    report = RunReport("fuzz.divergence")
    with report.span("shrink"):
        frames = shrink(case, divergence.point)
    with report.span("recheck"):
        final = check(
            case, [case.records[i] for i in frames],
            [REFERENCE, divergence.point],
        )
    report.set_meta(seed=seed, lossy=lossy, frames=len(frames),
                    point=str(divergence.point),
                    still_divergent=bool(final.divergences))
    final = (final.divergences or [divergence])[0]
    payload = {
        "format": REPRODUCER_FORMAT, "seed": seed, "lossy": lossy,
        "frames": frames, "point": asdict(final.point), "kind": final.kind,
        "detail": final.detail, "report": report.to_dict(),
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n",
                          encoding="utf-8")
    return frames


def load_reproducer(path):
    """``(seed, lossy, frame indices, point)`` of a reproducer file;
    anything else in it raises ``ValueError``."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or \
            payload.get("format") != REPRODUCER_FORMAT:
        raise ValueError("not a {} reproducer".format(REPRODUCER_FORMAT))
    seed, lossy, frames, point = (
        payload.get(key) for key in ("seed", "lossy", "frames", "point")
    )
    if type(seed) is not int or type(lossy) is not bool:
        raise ValueError("'seed' must be an integer and 'lossy' a boolean")
    fields = Point.__dataclass_fields__
    if not isinstance(point, dict) or set(point) != set(fields):
        raise ValueError("'point' must name {}".format(", ".join(fields)))
    point = Point(**point)
    if not (type(point.layout) is str and point.layout in LAYOUTS
            and _counts([point.partitions])
            and point.partitions <= MAX_PARTITIONS
            and (point.window is None or type(point.window) in (int, float)
                 and point.window > 0)
            and (point.kill is None or point.window is not None
                 and _counts([point.kill]))):
        raise ValueError("'point' {} is not on the axes".format(point))
    case = journey(seed, lossy)
    if not isinstance(frames, list) or not _counts(frames, 0) or \
            not all(i < len(case.records) for i in frames):
        raise ValueError("'frames' must be indices of the journey's {} "
                         "frames".format(len(case.records)))
    return seed, lossy, frames, point


def _counts(values, minimum=1):
    return all(type(v) is int and v >= minimum for v in values)
