"""Session checkpoints: one append-only log per vehicle session.

Each commit appends one record to ``checkpoints/stream-session-<id>.log``
holding only what changed since the previous record, in one write::

    record:   I body length | I CRC32 of the body | I CRC32 of those 8 bytes
    body:     I head length | head | sections, each I length | bytes

The head is JSON: the format tag, the vehicle id, the per-channel
cursors as ``[channel, frames]`` pairs, the counters, the assembler's
origin, watermark and floor, the runner's ``last_window_end``, whether
the session is drained, and every ``(s_id, b_id)`` key with the count
of reduced elements it added since the previous record and the section
holding them. The sections are partition files of
:func:`repro.engine.storage.encode_partition`, the repository's one
column codec: every key's carries, the pending frames (``m_info`` as
its packed bytes, never decoded), then the added elements as ``t``/``v``
planes, one section per value type, so ``v`` is typed wherever a run
of one key is, encoded from the runner's typed chunks (``t`` float64,
``v`` a :class:`~repro.engine.columnar.ValueColumn`) and decoded back
into them, one chunk per record and key.

A record is a pure function of the session state at its commit and at
the commit before, so chunked and frame-by-frame runs, and resumed and
uninterrupted ones, write byte-identical logs. Resume folds the records
in order into the session, runner and assembler payload dicts and hands
them to the ``from_state`` validators. A last record that is short or
fails its body CRC is a torn tail -- a commit the kill interrupted: it
is dropped, and cut off before the next append. Any other record that
fails, and a record whose 8-byte prefix fails its own CRC (a torn write
leaves a prefix of the right bytes, never wrong ones), is a
:class:`StreamError`. There is no compaction: the drain commit is the
last record.
"""

from __future__ import annotations

import json
import struct
import zlib
from array import array
from pathlib import Path

import numpy as np

from repro.core.incremental import STATE_FORMAT, IncrementalError, ReducedRows
from repro.core.sequence import objects
from repro.engine.columnar import (
    OBJECT,
    BytesColumn,
    ColumnarPartition,
    ValueColumn,
)
from repro.engine.errors import ExecutionError
from repro.engine.storage import (
    atomic_write_bytes,
    decode_partition,
    encode_partition,
    names_block,
)
from repro.obs import stopwatch
from repro.protocols.frames import BYTE_RECORD_COLUMNS
from repro.stream.assembler import ASSEMBLER_STATE_FORMAT
from repro.stream.errors import StreamError
from repro.stream.session import SESSION_STATE_FORMAT, VehicleSession
from repro.tracefile.binlog import _unpack_cell

#: Schema tag of the run-directory manifest written by ``stream serve``.
STREAM_STATE_FORMAT = "repro.stream/1"

#: Manifest file name inside a stream run directory.
STREAM_MANIFEST_FILE = "stream.json"

#: Format tag of every record head of a session log.
LOG_FORMAT = "repro.stream-log/1"

_JOB_PREFIX = "stream-session-"
_FRAME = struct.Struct("<III")
_LENGTH = struct.Struct("<I")

#: Column names of the sections: the carries by key position, the
#: pending frames by window, and elements.
_CARRIES = ("key", "index", "t", "v")
_PENDING = ("window",) + tuple(BYTE_RECORD_COLUMNS)
_ELEMENTS = ("t", "v")
_NAMES = {names: names_block(names)
          for names in (_CARRIES, _PENDING, _ELEMENTS)}


def session_job_id(vehicle_id):
    """Checkpoint name of one vehicle session."""
    return _JOB_PREFIX + str(vehicle_id)


def _encode(names, columns, length):
    return encode_partition(
        "a checkpoint section", names, _NAMES[names],
        ColumnarPartition(columns, length),
    )


def session_record(payload, written):
    """The log record of a session's :meth:`VehicleSession.export_state`
    *payload*; *written* maps each key to its reduced elements already
    in the log."""
    runner, assembler = payload["runner"], payload["assembler"]
    states = runner["states"]
    keys = sorted(states)
    added = [states[key]["reduced_rows"].chunks[written.get(key, 0):]
             for key in keys]  # per key, its (t, v) chunks since *written*
    # Runs whose values share one type go to one section, so v is typed
    # wherever a run is; a run of mixed types joins the mixed section.
    kinds, counts = _type_names(added)
    groups = sorted({kind for kind, n in zip(kinds, counts) if n})
    # The scalars of the three payloads; their names do not collide.
    head = {name: value for part in (payload, runner, assembler)
            for name, value in part.items() if not isinstance(value, dict)}
    head.update(
        format=LOG_FORMAT,
        cursors=[list(item) for item in payload["channel_cursors"].items()],
        keys=[[*key, n, groups.index(kind) if n else -1]
              for key, n, kind in zip(keys, counts, kinds)],
    )
    carries = [(position, index, *(carry or (None, None)))
               for position, key in enumerate(keys)
               for index, carry in states[key]["carries"].items()]
    block = assembler["pending"]["frames"]
    windows = np.asarray(assembler["pending"]["windows"], np.int64)
    sections = [
        _encode(_CARRIES, [list(column) for column in zip(*carries)]
                or [[]] * 4, len(carries)),
        _encode(_PENDING, [
            array("q", windows.tobytes()),
            *block.columns[:-1],
            # m_info as its packed bytes: a plane without the decode hook.
            BytesColumn(block.columns[-1].offsets, block.columns[-1].blob)
            if isinstance(block.columns[-1], BytesColumn)
            else block.columns[-1],
        ], len(block)),
    ]
    for group in groups:
        t, v = zip(*(chunk for kind, run in zip(kinds, added)
                     if kind == group for chunk in run))
        t = np.concatenate(t)
        sections.append(_encode(_ELEMENTS, [
            memoryview(t) if t.dtype == np.float64 else t.tolist(),
            ValueColumn.concat(v),
        ], len(t)))
    text = json.dumps(head, sort_keys=True, separators=(",", ":")).encode()
    body = b"".join(
        _LENGTH.pack(len(part)) + part for part in [text] + sections
    )
    frame = _LENGTH.pack(len(body)) + _LENGTH.pack(zlib.crc32(body))
    return frame + _LENGTH.pack(zlib.crc32(frame)) + body


def _type_names(added):
    """Per key, the name of the one type of the values its chunks
    *added* hold (``""`` for none or several), and how many there are."""
    names, counts = [], []
    for run in added:
        types = set()
        for _t, v in run:
            present = np.bincount(v.kinds, minlength=4).tolist()
            types.update(t for t, n in zip((float, int, str), present) if n)
            if present[OBJECT]:
                at = v.x[v.kinds == OBJECT].astype(np.intp).tolist()
                types.update(type(v.objects[i]) for i in at)
        names.append(types.pop().__name__ if len(types) == 1 else "")
        counts.append(sum(len(v) for _t, v in run))
    return names, counts


def _elements(payload):
    """Each key's reduced chunks in a session payload."""
    return {key: len(entry["reduced_rows"].chunks)
            for key, entry in payload["runner"]["states"].items()}


def _records(data):
    """``(bodies, end)``: the bodies of the log *data* in order and where
    the last of them ends; a torn tail is left out."""
    bodies, pos = [], 0
    while pos + _FRAME.size <= len(data):
        length, crc, frame_crc = _FRAME.unpack_from(data, pos)
        end = pos + _FRAME.size + length
        body = data[pos + _FRAME.size : end]
        if zlib.crc32(data[pos : pos + 8]) != frame_crc:
            raise StreamError("record {} at byte {} has a corrupt "
                              "header".format(len(bodies), pos))
        if zlib.crc32(body) != crc:
            if end >= len(data):
                break  # torn tail
            raise StreamError("record {} at byte {} fails its "
                              "checksum".format(len(bodies), pos))
        bodies.append(body)
        pos = end
    return bodies, pos


def _parse(body):
    """``(head, sections)`` of one record body."""
    parts, pos = [], 0
    while pos < len(body):
        (length,) = _LENGTH.unpack_from(body, pos)
        parts.append(body[pos + _LENGTH.size : pos + _LENGTH.size + length])
        pos += _LENGTH.size + length
    head = json.loads(parts[0])
    if pos != len(body) or head["format"] != LOG_FORMAT:
        raise ValueError("not a {} record".format(LOG_FORMAT))
    return head, parts[1:]


def _fold(bodies, vehicle_id):
    """The :meth:`VehicleSession.export_state` payload the records
    *bodies* of *vehicle_id*'s log fold into."""
    states = {}
    for number, body in enumerate(bodies):
        try:
            head, (carries, pending, *elements) = _parse(body)
            if head["vehicle_id"] != vehicle_id:
                raise StreamError("record {} names vehicle {!r}, not "
                                  "{!r}".format(number, head["vehicle_id"],
                                                vehicle_id))
            elements = [(
                np.array(t) if getattr(t, "format", "") == "d"
                else objects(t), ValueColumn.from_plane(v),
            ) for t, v in (decode_partition(part, _NAMES[_ELEMENTS], 2).columns
                           for part in elements)]
            taken = [0] * len(elements)
            keys = [(s_id, b_id) for s_id, b_id, _n, _s in head["keys"]]
            for key, (_s, _b, count, group) in zip(keys, head["keys"]):
                entry = states.setdefault(key, {"reduced_rows": ReducedRows()})
                entry["carries"] = {}
                if not count:
                    continue
                t, v = elements[group]
                part = slice(taken[group], taken[group] + count)
                if group < 0 or len(t) < part.stop:
                    raise ValueError("key {!r} lacks elements".format(key))
                taken[group] += count
                entry["reduced_rows"].chunks.append((t[part], v[part]))
            if taken != [len(t) for t, _v in elements]:
                raise ValueError("elements of no key")
            for position, index, t, v in zip(
                *decode_partition(carries, _NAMES[_CARRIES], 4).columns
            ):
                states[keys[position]]["carries"][index] = \
                    None if t is None else (t, v)
            block = decode_partition(pending, _NAMES[_PENDING], 6)
            windows, *columns = block.columns
            if isinstance(columns[-1], BytesColumn):
                columns[-1] = BytesColumn(columns[-1].offsets,
                                          columns[-1].blob, _unpack_cell)
            pending = {"frames": ColumnarPartition(columns, len(block)),
                       "windows": np.asarray(windows)}
            cursors = dict(map(tuple, head["cursors"]))
        except (ExecutionError, struct.error, TypeError, ValueError,
                KeyError, IndexError) as exc:
            raise StreamError("record {} is malformed: {}: {}".format(
                number, type(exc).__name__, exc))
    # Each payload takes its fields from the head; ``from_state`` checks
    # that they are there and of their types.
    return dict(head, format=SESSION_STATE_FORMAT, channel_cursors=cursors,
                runner=dict(head, format=STATE_FORMAT, states=states),
                assembler=dict(head, format=ASSEMBLER_STATE_FORMAT,
                               pending=pending))


class StreamCheckpointer:
    """Session logs + the run manifest of one directory."""

    def __init__(self, run_dir):
        self.root = Path(run_dir)
        self._logs = self.root / "checkpoints"
        self._logs.mkdir(parents=True, exist_ok=True)
        #: vehicle id -> [bytes of its log that hold records, {key:
        #: reduced elements in the log}]
        self._written = {}

    # -- manifest --------------------------------------------------------
    def write_manifest(self, manifest):
        payload = dict(manifest)
        payload["format"] = STREAM_STATE_FORMAT
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        return atomic_write_bytes(self.root / STREAM_MANIFEST_FILE,
                                  text.encode("utf-8"))

    def read_manifest(self):
        path = self.root / STREAM_MANIFEST_FILE
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise StreamError(
                "{!r} is not a stream run directory (no {})".format(
                    str(self.root), STREAM_MANIFEST_FILE
                )
            )
        except ValueError as exc:
            raise StreamError(
                "stream manifest in {!r} is corrupt: {}".format(
                    str(self.root), exc
                )
            )
        if not isinstance(payload, dict):
            raise StreamError(
                "stream manifest in {!r} holds a {}, not a JSON "
                "object".format(str(self.root), type(payload).__name__)
            )
        if payload.get("format") != STREAM_STATE_FORMAT:
            raise StreamError(
                "stream manifest format {!r} is not {}".format(
                    payload.get("format"), STREAM_STATE_FORMAT
                )
            )
        return payload

    # -- session logs ----------------------------------------------------
    def log_path(self, vehicle_id):
        return self._logs / (session_job_id(vehicle_id) + ".log")

    def save_session(self, session, metrics=None):
        """Append one record of *session*'s state to its log; returns
        the log's path. A torn tail is cut off first."""
        with stopwatch() as watch:
            path = self.log_path(session.vehicle_id)
            written = self._written.setdefault(session.vehicle_id, [0, {}])
            payload = session.export_state()
            try:
                record = session_record(payload, written[1])
            except ExecutionError as exc:
                raise StreamError("vehicle {!r} cannot be checkpointed: "
                                  "{}".format(session.vehicle_id, exc))
            with open(path, "ab") as handle:
                if handle.tell() != written[0]:
                    handle.truncate(written[0])
                handle.write(record)
            written[0] += len(record)
            written[1] = _elements(payload)
        if metrics is not None:
            metrics.inc("stream.checkpoints")
            metrics.observe("stream.checkpoint.seconds", watch.seconds)
        return path

    def _bodies(self, vehicle_id):
        """The records of one log, checked, or None without a log."""
        try:
            data = self.log_path(vehicle_id).read_bytes()
        except FileNotFoundError:
            return None
        try:
            bodies, end = _records(data)
            if bodies:  # the newest head, as ``stream status`` reads it
                _parse(bodies[-1])
        except (StreamError, struct.error, ValueError, KeyError) as exc:
            raise StreamError("checkpoint {!r} cannot be read: {}".format(
                session_job_id(vehicle_id), exc))
        self._written[vehicle_id] = [end, {}]
        return bodies

    def session_payload(self, vehicle_id):
        """The head of one session's last record, or None (what
        ``stream status`` prints from)."""
        bodies = self._bodies(vehicle_id)
        return _parse(bodies[-1])[0] if bodies else None

    def load_session(self, vehicle_id, config, context, metrics=None):
        """Rebuild one session from its log, or None without a record."""
        bodies = self._bodies(vehicle_id)
        if not bodies:
            return None
        try:
            payload = _fold(bodies, vehicle_id)
            session = VehicleSession.from_state(
                payload, config, context, metrics=metrics
            )
        except (StreamError, IncrementalError) as exc:
            raise StreamError(
                "checkpoint {!r} is not a usable session snapshot: "
                "{}".format(session_job_id(vehicle_id), exc)
            )
        self._written[vehicle_id][1] = _elements(payload)
        return session

    def session_ids(self):
        """Vehicle ids with a session log, sorted."""
        return sorted(
            path.name[len(_JOB_PREFIX) : -len(".log")]
            for path in self._logs.glob(_JOB_PREFIX + "*.log")
        )

    def checkpoint_mtime(self, vehicle_id):
        """Time of one session's last commit, or None."""
        try:
            return self.log_path(vehicle_id).stat().st_mtime
        except FileNotFoundError:
            return None
