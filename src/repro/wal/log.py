"""Append-only write-ahead log with CRC-framed JSON records.

One line per committed transaction::

    {"crc": <crc32 of [ts, ops]>, "ops": [...], "ts": <commit ts>}

Records carry *logical redo* operations read off the tables' version
journals, not physical bytes, so replay goes through the normal
MVCC/runtime paths and every engine invariant holds on the recovered
state by construction. An op is one of::

    ["update", table, row_id, {col: value}]   # the columns that changed
    ["insert", table, row_id, {col: value}]   # the whole row
    ["delete", table, row_id]

with ``bytes`` values as ``{"__bytes__": hex}``. A record lists its ops
table by table, each table's in journal order. No op names an index:
the table derives a row's key from its key columns on replay.

Torn-tail semantics: a crash can cut the final line anywhere. On replay,
a last line that fails to parse or fails its CRC is treated as a torn
tail and dropped; the same damage *before* the last line cannot be
explained by one interrupted append and raises
:class:`~repro.errors.WALError`.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import IO, List, Optional, Tuple

from repro.errors import WALError

__all__ = ["WriteAheadLog", "jsonify", "unjsonify"]

#: The modelled flush granularity (one cache line) used to convert
#: appended bytes into §6.3 flush-line charges.
LINE_BYTES = 64


def jsonify(value):
    """Convert a redo-op value into a JSON-safe equivalent.

    ``bytes`` become ``{"__bytes__": hex}`` (the only dict shape the
    ops never produce naturally); tuples become lists; ints and strings
    pass through.
    """
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [jsonify(item) for item in value]
    if isinstance(value, dict):
        return {key: jsonify(item) for key, item in value.items()}
    raise WALError(f"cannot encode {type(value).__name__} value in a WAL record")


def unjsonify(value):
    """Inverse of :func:`jsonify`; JSON arrays come back as tuples."""
    if isinstance(value, dict):
        if set(value) == {"__bytes__"}:
            return bytes.fromhex(value["__bytes__"])
        return {key: unjsonify(item) for key, item in value.items()}
    if isinstance(value, list):
        return tuple(unjsonify(item) for item in value)
    return value


def _record_crc(ts: int, ops: list) -> int:
    payload = json.dumps([ts, ops], separators=(",", ":"), sort_keys=True)
    return zlib.crc32(payload.encode("utf-8"))


class WriteAheadLog:
    """One append-only redo log file (``wal.log``)."""

    def __init__(self, path: str, sync: bool = True) -> None:
        self.path = path
        #: fsync after every append (the durability guarantee); tests
        #: and recovery-only readers may turn it off.
        self.sync = sync
        self._fh: Optional[IO[bytes]] = None

    def _handle(self) -> IO[bytes]:
        if self._fh is None:
            self._fh = open(self.path, "ab")
        return self._fh

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(self, ts: int, ops: list) -> int:
        """Append one commit record (already-jsonified ops); returns bytes.

        The record is flushed (and fsync'd when ``sync``) before
        returning — once this returns, the commit survives a crash.
        """
        record = {"crc": _record_crc(ts, ops), "ops": ops, "ts": int(ts)}
        data = (json.dumps(record, separators=(",", ":"), sort_keys=True) + "\n").encode(
            "utf-8"
        )
        handle = self._handle()
        handle.write(data)
        handle.flush()
        if self.sync:
            os.fsync(handle.fileno())
        return len(data)

    def reset(self) -> None:
        """Rotate: truncate the log (after a checkpoint made it redundant)."""
        self.close()
        with open(self.path, "wb") as handle:
            handle.flush()
            os.fsync(handle.fileno())

    def close(self) -> None:
        """Release the file handle (no-op if never opened)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def replay(self) -> Tuple[List[Tuple[int, list]], bool]:
        """All intact records as ``(ts, ops)`` plus a torn-tail flag.

        ``ops`` come back through :func:`unjsonify` (tuples restored).
        """
        if not os.path.exists(self.path):
            return [], False
        with open(self.path, "rb") as handle:
            raw = handle.read()
        records: List[Tuple[int, list]] = []
        lines = raw.split(b"\n")
        if lines and lines[-1] == b"":
            lines.pop()
        for position, line in enumerate(lines):
            record = self._parse(line)
            if record is None:
                if position == len(lines) - 1:
                    return records, True
                raise WALError(
                    f"{self.path}: corrupt record at line {position + 1} "
                    f"(not the tail; cannot be a torn append)"
                )
            ts, ops = record
            if records and ts < records[-1][0]:
                raise WALError(
                    f"{self.path}: commit timestamps regress at line {position + 1}"
                )
            records.append((ts, ops))
        return records, False

    @staticmethod
    def _parse(line: bytes) -> Optional[Tuple[int, list]]:
        try:
            record = json.loads(line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return None
        if not isinstance(record, dict) or not {"crc", "ops", "ts"} <= set(record):
            return None
        if _record_crc(record["ts"], record["ops"]) != record["crc"]:
            return None
        return int(record["ts"]), [unjsonify(op) for op in record["ops"]]
