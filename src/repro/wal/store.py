"""LSM-style leveled store of checkpoint segments behind a manifest.

A *segment* is the folded redo state of one checkpoint window plus the
per-table liveness bitmaps at the window's commit horizon::

    {"horizon": ts,
     "tables": {table: {"<row_id>": {"created": bool,
                                     "values": {col: ...} | None,
                                     "deleted": bool}}},
     "bitmaps": {table: {"num_rows": n, "bits": "<hex packbits>"}}}

An entry holds values only: a table derives a row's index key from its
own key columns, so recovery re-indexes created rows and unindexes
deleted ones without the segment naming any index.

Segments land in level 0; when a level exceeds the fanout its segments
are merged newest-wins into the next level (level 2 is the terminal
level and re-merges in place). ``MANIFEST.json`` names the reachable
segments per level and is replaced atomically (temp file + rename), so
a crash at any point leaves either the old or the new manifest — never
a half-written one. Segment files not named by the manifest are orphans
from a crash mid-checkpoint; :meth:`LeveledStore.drop_orphans` removes
them and recovery ignores them (the WAL still covers their window).
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from repro.errors import WALError

__all__ = ["LeveledStore", "merge_segments"]

MANIFEST_NAME = "MANIFEST.json"
LEVELS = 3


def _merge_entry(old: Optional[dict], new: dict) -> dict:
    """Fold a newer row entry over an older one (newest wins)."""
    if old is None:
        return dict(new)
    values = old.get("values")
    if new.get("values") is not None:
        values = dict(values or {})
        values.update(new["values"])
    return {
        "created": bool(old.get("created") or new.get("created")),
        "values": values,
        "deleted": bool(old.get("deleted") or new.get("deleted")),
    }


def merge_segments(segments: List[dict]) -> dict:
    """Merge segments (oldest first) into one at the newest horizon.

    Row states fold newest-wins: update changes-dicts accumulate, a
    creation or deletion anywhere in the run survives the merge, and the
    liveness bitmaps of the newest segment (the merged horizon) are kept.
    """
    if not segments:
        raise WALError("cannot merge zero segments")
    tables: Dict[str, Dict[str, dict]] = {}
    for segment in segments:
        for table, rows in segment.get("tables", {}).items():
            folded = tables.setdefault(table, {})
            for row_key, entry in rows.items():
                folded[row_key] = _merge_entry(folded.get(row_key), entry)
    return {
        "horizon": segments[-1]["horizon"],
        "tables": tables,
        "bitmaps": segments[-1].get("bitmaps", {}),
    }


class LeveledStore:
    """Manifest + leveled segment files in one directory."""

    def __init__(self, path: str, fanout: int = 4) -> None:
        if fanout < 2:
            raise WALError(f"compaction fanout must be >= 2, got {fanout}")
        self.path = path
        self.fanout = fanout
        self.compactions = 0
        os.makedirs(path, exist_ok=True)
        manifest = self._read_manifest()
        self._horizon: int = manifest["horizon"]
        self._levels: List[List[str]] = manifest["levels"]
        self._next_seq: int = manifest["next_seq"]

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> str:
        return os.path.join(self.path, MANIFEST_NAME)

    @property
    def horizon(self) -> int:
        """Commit horizon covered by the reachable segments (0 if none)."""
        return self._horizon

    def _read_manifest(self) -> dict:
        if not os.path.exists(self.manifest_path):
            return {"horizon": 0, "levels": [[] for _ in range(LEVELS)], "next_seq": 0}
        try:
            with open(self.manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except ValueError as exc:
            raise WALError(f"{self.manifest_path}: unreadable manifest: {exc}") from None
        for name in (n for level in manifest["levels"] for n in level):
            if not os.path.exists(os.path.join(self.path, name)):
                raise WALError(f"manifest references missing segment {name!r}")
        return manifest

    def _write_manifest(self) -> None:
        manifest = {
            "horizon": self._horizon,
            "levels": self._levels,
            "next_seq": self._next_seq,
        }
        tmp = self.manifest_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.manifest_path)

    # ------------------------------------------------------------------
    # Segments
    # ------------------------------------------------------------------
    def write_segment(self, segment: dict) -> str:
        """Write a segment file durably *without* publishing it.

        The segment stays an orphan until :meth:`commit_segment` names it
        in the manifest — this is the window the ``crash_mid_checkpoint``
        fault hook strikes in.
        """
        name = f"seg-{self._next_seq:06d}.json"
        self._write_segment_file(name, segment)
        return name

    def _write_segment_file(self, name: str, segment: dict) -> None:
        with open(os.path.join(self.path, name), "w", encoding="utf-8") as handle:
            json.dump(segment, handle, separators=(",", ":"), sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())

    def commit_segment(self, name: str, horizon: int) -> int:
        """Publish a written segment into level 0; returns compactions run."""
        if horizon < self._horizon:
            raise WALError(
                f"checkpoint horizon regressed: {horizon} < {self._horizon}"
            )
        self._levels[0].append(name)
        self._horizon = int(horizon)
        self._next_seq += 1
        self._write_manifest()
        return self._maybe_compact()

    def segment_bytes(self, name: str) -> int:
        return os.path.getsize(os.path.join(self.path, name))

    def load_segment(self, name: str) -> dict:
        path = os.path.join(self.path, name)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except ValueError as exc:
            raise WALError(f"{path}: unreadable segment: {exc}") from None

    def load_segments(self) -> List[dict]:
        """Reachable segments in application order (oldest state first)."""
        names = [name for level in reversed(self._levels) for name in level]
        return [self.load_segment(name) for name in names]

    def drop_orphans(self) -> List[str]:
        """Delete segment files the manifest does not reference."""
        reachable = {name for level in self._levels for name in level}
        dropped = []
        for name in sorted(os.listdir(self.path)):
            if name.startswith("seg-") and name.endswith(".json") and name not in reachable:
                os.remove(os.path.join(self.path, name))
                dropped.append(name)
        return dropped

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def _maybe_compact(self) -> int:
        """Merge any over-fanout level into the next; terminal re-merges."""
        ran = 0
        for level in range(LEVELS):
            if len(self._levels[level]) <= self.fanout:
                continue
            terminal = level == LEVELS - 1
            if terminal:
                # The last level re-merges in place into one segment.
                target, victims = level, list(self._levels[level])
            else:
                # Fold this level's run into one segment pushed down a
                # level; the target's existing segments stay older than
                # (i.e. ahead of) the arrival, preserving merge order.
                target, victims = level + 1, list(self._levels[level])
            merged = merge_segments([self.load_segment(name) for name in victims])
            name = f"seg-{self._next_seq:06d}.json"
            self._write_segment_file(name, merged)
            self._next_seq += 1
            if terminal:
                self._levels[level] = [name]
            else:
                self._levels[level] = []
                self._levels[target].append(name)
            self._write_manifest()
            for victim in victims:
                os.remove(os.path.join(self.path, victim))
            ran += 1
            self.compactions += 1
        return ran
