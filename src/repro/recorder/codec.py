"""Compact binary codec for the recorded measurement-event stream.

The recorder spills every event the substrate manager dispatches
-- enters, exits, task lifecycle, metrics, phase brackets -- as small
binary records: unsigned LEB128 varints for ids and counts, zigzag
varints for (possibly negative) task-instance ids, and raw little-endian
doubles for virtual timestamps, so times survive encode/decode
bit-exactly (replay must reproduce the live profile *byte*-identically).

Region handles are interned on the wire exactly like
:class:`~repro.events.regions.RegionRegistry` interns them in memory: the
encoder emits one ``REGION_DEF`` record the first time a region is
referenced, and every later reference is a single varint.  The decoder
rebuilds its own registry from the defs, so a recorded stream is
self-contained -- replay needs nothing but the bytes.

Records are plain tuples (``(kind, ...)``) rather than event classes:
the hot path appends one tuple per event and all encoding happens in
batches when a chunk is sealed (:mod:`repro.recorder.chunks`).

Both directions inline the common shape of the five task/region kinds
(``enter``, ``exit``, ``task_begin``, ``task_end``, ``task_switch``):
one-byte thread and region ids, an instance id of one or two varint
bytes, no parameter.  The decoder also requires the region to be
defined already and the whole record to lie inside the payload.  Wider
ids, longer instance varints, parameters, undefined regions, cut-short
records and every other kind fall through to the checked per-field
helpers, which hold every :class:`~repro.errors.RecordingError`.
"""

from __future__ import annotations

import json
import struct
from typing import List, Optional, Tuple

from repro.errors import RecordingError
from repro.events.regions import Region, RegionRegistry, RegionType

#: Wire kinds (one byte each).
KIND_REGION_DEF = 0x01
KIND_INIT = 0x02
KIND_ENTER = 0x10
KIND_EXIT = 0x11
KIND_TASK_BEGIN = 0x12
KIND_TASK_END = 0x13
KIND_TASK_SWITCH = 0x14
KIND_METRIC = 0x17
KIND_PHASE_BEGIN = 0x18
KIND_PHASE_END = 0x19
KIND_FIN = 0x7F

_DOUBLE = struct.Struct("<d")


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------
def encode_varint(value: int, out: bytearray) -> None:
    """Unsigned LEB128."""
    if value < 0:
        raise ValueError(f"varint value must be >= 0, got {value}")
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def decode_varint(data: bytes, offset: int) -> Tuple[int, int]:
    """Unsigned LEB128; values of 2**64 or more are rejected."""
    value = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise RecordingError("truncated varint in record payload")
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if value >> 64:
                raise RecordingError("varint longer than 64 bits")
            return value, offset
        shift += 7
        if shift > 63:
            raise RecordingError("varint longer than 64 bits")


def zigzag(value: int) -> int:
    return (value << 1) if value >= 0 else ((-value << 1) - 1)


def unzigzag(value: int) -> int:
    return (value >> 1) if not value & 1 else -((value + 1) >> 1)


def _decode_signed(data: bytes, offset: int) -> Tuple[int, int]:
    value, offset = decode_varint(data, offset)
    return unzigzag(value), offset


def _encode_str(text: str, out: bytearray) -> None:
    raw = text.encode("utf-8")
    encode_varint(len(raw), out)
    out += raw


def _decode_str(data: bytes, offset: int) -> Tuple[str, int]:
    length, offset = decode_varint(data, offset)
    end = offset + length
    if end > len(data):
        raise RecordingError("truncated string in record payload")
    return data[offset:end].decode("utf-8"), end


def _encode_time(time: float, out: bytearray) -> None:
    out += _DOUBLE.pack(time)


def _decode_time(data: bytes, offset: int) -> Tuple[float, int]:
    end = offset + 8
    if end > len(data):
        raise RecordingError("truncated timestamp in record payload")
    return _DOUBLE.unpack_from(data, offset)[0], end


def _encode_json(value, out: bytearray) -> None:
    _encode_str(json.dumps(value, sort_keys=True, separators=(",", ":")), out)


def _decode_json(data: bytes, offset: int):
    text, offset = _decode_str(data, offset)
    try:
        return json.loads(text), offset
    except ValueError as exc:
        raise RecordingError(f"malformed JSON payload in record: {exc}") from exc


def _encode_parameter(parameter: Optional[tuple], out: bytearray) -> None:
    if parameter is None:
        out.append(0)
    else:
        out.append(1)
        _encode_json(list(parameter), out)


def _decode_parameter(data: bytes, offset: int) -> Tuple[Optional[tuple], int]:
    if offset >= len(data):
        raise RecordingError("truncated parameter flag in record payload")
    flag = data[offset]
    offset += 1
    if flag == 0:
        return None, offset
    value, offset = _decode_json(data, offset)
    if not isinstance(value, list):
        raise RecordingError(f"parameter payload is not a list: {value!r}")
    return tuple(value), offset


# ----------------------------------------------------------------------
# Record stream encoder
# ----------------------------------------------------------------------
class RecordEncoder:
    """Stateful encoder: emits each region's def once, keyed by its
    live registry handle.

    The wire region id *is* ``region.handle`` -- no private renumbering.
    That makes the registry the one shared intern table end to end: a
    decoder pins replayed regions to these same handles, so recorded
    and live runs (including the columnar batch path, whose packed
    codes carry handles) agree on every region id.

    Region defs are emitted into the same payload that first references
    them, so any prefix of *sealed* chunks is self-describing -- the
    property torn-tail recovery relies on.
    """

    def __init__(self) -> None:
        self._defined = set()

    def _region_ref(self, region: Region, out: bytearray) -> int:
        rid = region.handle
        if rid not in self._defined:
            self._defined.add(rid)
            out.append(KIND_REGION_DEF)
            encode_varint(rid, out)
            _encode_str(region.name, out)
            _encode_str(region.region_type.value, out)
            flags = (1 if region.file is not None else 0) | (
                2 if region.line is not None else 0
            )
            out.append(flags)
            if region.file is not None:
                _encode_str(region.file, out)
            if region.line is not None:
                encode_varint(region.line, out)
        return rid

    def encode(self, records) -> bytes:
        """Encode a batch of record tuples into one chunk payload.

        The five task/region kinds inline their common case -- ids that
        fit one varint byte, no parameter -- because at ~5k records per
        run the per-field helper calls would cost more than the I/O.
        """
        out = bytearray()
        append = out.append
        pack_time = _DOUBLE.pack
        defined = self._defined
        for record in records:
            kind = record[0]
            if kind == "enter":
                _, thread_id, time, region, parameter = record
                rid = region.handle
                if rid not in defined:
                    self._region_ref(region, out)
                append(KIND_ENTER)
                if thread_id < 0x80:
                    append(thread_id)
                else:
                    encode_varint(thread_id, out)
                out += pack_time(time)
                if rid < 0x80:
                    append(rid)
                else:
                    encode_varint(rid, out)
                if parameter is None:
                    append(0)
                else:
                    _encode_parameter(parameter, out)
            elif kind == "exit":
                _, thread_id, time, region = record
                rid = region.handle
                if rid not in defined:
                    self._region_ref(region, out)
                append(KIND_EXIT)
                if thread_id < 0x80:
                    append(thread_id)
                else:
                    encode_varint(thread_id, out)
                out += pack_time(time)
                if rid < 0x80:
                    append(rid)
                else:
                    encode_varint(rid, out)
            elif kind == "task_begin":
                _, thread_id, time, region, instance, parameter = record
                rid = region.handle
                if rid not in defined:
                    self._region_ref(region, out)
                append(KIND_TASK_BEGIN)
                if thread_id < 0x80:
                    append(thread_id)
                else:
                    encode_varint(thread_id, out)
                out += pack_time(time)
                if rid < 0x80:
                    append(rid)
                else:
                    encode_varint(rid, out)
                zz = (instance << 1) if instance >= 0 else ((-instance << 1) - 1)
                if zz < 0x80:
                    append(zz)
                else:
                    encode_varint(zz, out)
                if parameter is None:
                    append(0)
                else:
                    _encode_parameter(parameter, out)
            elif kind == "task_end":
                _, thread_id, time, region, instance = record
                rid = region.handle
                if rid not in defined:
                    self._region_ref(region, out)
                append(KIND_TASK_END)
                if thread_id < 0x80:
                    append(thread_id)
                else:
                    encode_varint(thread_id, out)
                out += pack_time(time)
                if rid < 0x80:
                    append(rid)
                else:
                    encode_varint(rid, out)
                zz = (instance << 1) if instance >= 0 else ((-instance << 1) - 1)
                if zz < 0x80:
                    append(zz)
                else:
                    encode_varint(zz, out)
            elif kind == "task_switch":
                _, thread_id, time, instance = record
                append(KIND_TASK_SWITCH)
                if thread_id < 0x80:
                    append(thread_id)
                else:
                    encode_varint(thread_id, out)
                out += pack_time(time)
                zz = (instance << 1) if instance >= 0 else ((-instance << 1) - 1)
                if zz < 0x80:
                    append(zz)
                else:
                    encode_varint(zz, out)
            elif kind == "metric":
                _, thread_id, time, counters = record
                out.append(KIND_METRIC)
                encode_varint(thread_id, out)
                _encode_time(time, out)
                _encode_json(dict(counters), out)
            elif kind == "phase_begin":
                out.append(KIND_PHASE_BEGIN)
                _encode_str(record[1], out)
            elif kind == "phase_end":
                out.append(KIND_PHASE_END)
                _encode_str(record[1], out)
            elif kind == "init":
                _, n_threads, start_time, region, depth = record
                rid = self._region_ref(region, out)
                out.append(KIND_INIT)
                encode_varint(n_threads, out)
                _encode_time(start_time, out)
                encode_varint(rid, out)
                out.append(1 if depth is not None else 0)
                if depth is not None:
                    encode_varint(depth, out)
            elif kind == "fin":
                _, time, count = record
                out.append(KIND_FIN)
                _encode_time(time, out)
                encode_varint(count, out)
            else:
                raise ValueError(f"unknown record kind {kind!r}")
        return bytes(out)


# ----------------------------------------------------------------------
# Record stream decoder
# ----------------------------------------------------------------------
class RecordDecoder:
    """Stateful decoder: rebuilds regions from defs across chunks.

    Returns record tuples in the shape the encoder consumed, with
    decoded :class:`Region` objects interned in :attr:`registry` (so
    ``is``-comparison inside the replayed profiler is valid).
    """

    def __init__(self) -> None:
        self.registry = RegionRegistry()
        self._regions = {}

    def _region(self, rid: int) -> Region:
        region = self._regions.get(rid)
        if region is None:
            raise RecordingError(f"record references undefined region id {rid}")
        return region

    def decode(self, payload: bytes) -> List[tuple]:
        """Decode one chunk payload; raises :class:`RecordingError` on
        any malformed content (the CRC should have caught real tearing,
        so a decode failure means corruption-past-the-CRC or a bug).

        The five task/region kinds inline their common case, mirroring
        :meth:`RecordEncoder.encode`: one-byte thread and region ids, an
        instance varint of one or two bytes, no parameter, a region
        already defined, and the whole record inside the payload.  Every
        other shape -- wider ids or instance varints, a parameter, an
        undefined region, a cut-short record, and every other kind --
        falls through to the checked per-field decode, so each
        :class:`RecordingError` keeps a single definition.
        """
        records: List[tuple] = []
        append = records.append
        regions_get = self._regions.get
        unpack_time = _DOUBLE.unpack_from
        offset = 0
        data = payload
        size = len(data)
        while offset < size:
            kind = data[offset]
            offset += 1
            # Fast path.  Fixed positions after the kind byte: thread id
            # at +0, time at +1..+8, region id at +9, then the instance
            # varint or the flag.  A valid one- or two-byte instance
            # zigzag is < 0x4000; a third byte, or a second byte past the
            # payload (zz set to 0x4000), sends the record to the checked
            # decode.
            if kind == KIND_ENTER:
                end = offset + 11
                if (
                    end <= size
                    and data[offset] < 0x80
                    and data[offset + 9] < 0x80
                    and data[offset + 10] == 0
                ):
                    region = regions_get(data[offset + 9])
                    if region is not None:
                        append(
                            ("enter", data[offset],
                             unpack_time(data, offset + 1)[0], region, None)
                        )
                        offset = end
                        continue
            elif kind == KIND_EXIT:
                end = offset + 10
                if end <= size and data[offset] < 0x80 and data[offset + 9] < 0x80:
                    region = regions_get(data[offset + 9])
                    if region is not None:
                        append(
                            ("exit", data[offset],
                             unpack_time(data, offset + 1)[0], region)
                        )
                        offset = end
                        continue
            elif kind == KIND_TASK_BEGIN:
                # The byte after a one-byte instance is the flag, so the
                # second instance byte is in bounds whenever it is read.
                end = offset + 12
                if end <= size and data[offset] < 0x80 and data[offset + 9] < 0x80:
                    zz = data[offset + 10]
                    if zz & 0x80:
                        zz = (zz & 0x7F) | (data[offset + 11] << 7)
                        end += 1
                    if zz < 0x4000 and end <= size and data[end - 1] == 0:
                        region = regions_get(data[offset + 9])
                        if region is not None:
                            append(
                                ("task_begin", data[offset],
                                 unpack_time(data, offset + 1)[0], region,
                                 -((zz + 1) >> 1) if zz & 1 else zz >> 1, None)
                            )
                            offset = end
                            continue
            elif kind == KIND_TASK_END:
                end = offset + 11
                if end <= size and data[offset] < 0x80 and data[offset + 9] < 0x80:
                    zz = data[offset + 10]
                    if zz & 0x80:
                        zz = (
                            (zz & 0x7F) | (data[end] << 7) if end < size else 0x4000
                        )
                        end += 1
                    if zz < 0x4000:
                        region = regions_get(data[offset + 9])
                        if region is not None:
                            append(
                                ("task_end", data[offset],
                                 unpack_time(data, offset + 1)[0], region,
                                 -((zz + 1) >> 1) if zz & 1 else zz >> 1)
                            )
                            offset = end
                            continue
            elif kind == KIND_TASK_SWITCH:
                end = offset + 10
                if end <= size and data[offset] < 0x80:
                    zz = data[offset + 9]
                    if zz & 0x80:
                        zz = (
                            (zz & 0x7F) | (data[end] << 7) if end < size else 0x4000
                        )
                        end += 1
                    if zz < 0x4000:
                        append(
                            ("task_switch", data[offset],
                             unpack_time(data, offset + 1)[0],
                             -((zz + 1) >> 1) if zz & 1 else zz >> 1)
                        )
                        offset = end
                        continue
            # Checked per-field decode: every other shape and kind.
            if kind == KIND_REGION_DEF:
                rid, offset = decode_varint(data, offset)
                name, offset = _decode_str(data, offset)
                type_value, offset = _decode_str(data, offset)
                if offset >= len(data):
                    raise RecordingError("truncated region def")
                flags = data[offset]
                offset += 1
                file = None
                line = None
                if flags & 1:
                    file, offset = _decode_str(data, offset)
                if flags & 2:
                    line, offset = decode_varint(data, offset)
                try:
                    region_type = RegionType(type_value)
                except ValueError as exc:
                    raise RecordingError(
                        f"unknown region type {type_value!r}"
                    ) from exc
                if rid in self._regions:
                    raise RecordingError(f"duplicate region def for id {rid}")
                # Pin the replayed region to the wire id (= the live
                # run's registry handle): one shared intern table, so
                # recorded-and-replayed batches agree on region ids.
                self._regions[rid] = self.registry.register(
                    name, region_type, file, line, handle=rid
                )
            elif kind == KIND_INIT:
                n_threads, offset = decode_varint(data, offset)
                start_time, offset = _decode_time(data, offset)
                rid, offset = decode_varint(data, offset)
                if offset >= len(data):
                    raise RecordingError("truncated init record")
                has_depth = data[offset]
                offset += 1
                depth = None
                if has_depth:
                    depth, offset = decode_varint(data, offset)
                records.append(
                    ("init", n_threads, start_time, self._region(rid), depth)
                )
            elif kind == KIND_ENTER:
                thread_id, offset = decode_varint(data, offset)
                time, offset = _decode_time(data, offset)
                rid, offset = decode_varint(data, offset)
                parameter, offset = _decode_parameter(data, offset)
                records.append(
                    ("enter", thread_id, time, self._region(rid), parameter)
                )
            elif kind == KIND_EXIT:
                thread_id, offset = decode_varint(data, offset)
                time, offset = _decode_time(data, offset)
                rid, offset = decode_varint(data, offset)
                records.append(("exit", thread_id, time, self._region(rid)))
            elif kind == KIND_TASK_BEGIN:
                thread_id, offset = decode_varint(data, offset)
                time, offset = _decode_time(data, offset)
                rid, offset = decode_varint(data, offset)
                instance, offset = _decode_signed(data, offset)
                parameter, offset = _decode_parameter(data, offset)
                records.append(
                    (
                        "task_begin",
                        thread_id,
                        time,
                        self._region(rid),
                        instance,
                        parameter,
                    )
                )
            elif kind == KIND_TASK_END:
                thread_id, offset = decode_varint(data, offset)
                time, offset = _decode_time(data, offset)
                rid, offset = decode_varint(data, offset)
                instance, offset = _decode_signed(data, offset)
                records.append(
                    ("task_end", thread_id, time, self._region(rid), instance)
                )
            elif kind == KIND_TASK_SWITCH:
                thread_id, offset = decode_varint(data, offset)
                time, offset = _decode_time(data, offset)
                instance, offset = _decode_signed(data, offset)
                records.append(("task_switch", thread_id, time, instance))
            elif kind == KIND_METRIC:
                thread_id, offset = decode_varint(data, offset)
                time, offset = _decode_time(data, offset)
                counters, offset = _decode_json(data, offset)
                if not isinstance(counters, dict):
                    raise RecordingError(
                        f"metric counters are not a dict: {counters!r}"
                    )
                records.append(("metric", thread_id, time, counters))
            elif kind == KIND_PHASE_BEGIN:
                name, offset = _decode_str(data, offset)
                records.append(("phase_begin", name))
            elif kind == KIND_PHASE_END:
                name, offset = _decode_str(data, offset)
                records.append(("phase_end", name))
            elif kind == KIND_FIN:
                time, offset = _decode_time(data, offset)
                count, offset = decode_varint(data, offset)
                records.append(("fin", time, count))
            else:
                raise RecordingError(f"unknown record kind byte 0x{kind:02x}")
        return records
