"""JSONL checkpoint store for resumable task campaigns.

A checkpoint file is one JSON object per line: a header describing the
run it belongs to, followed by one record per *successfully finished*
task.  Failed attempts are never checkpointed -- on resume they run
again, which is exactly what a retrying harness wants.

The header carries the task count and a content digest of the pickled
task list, so resuming against a *different* campaign (changed faults,
different seed, reordered grid) fails loudly instead of silently stitching
incompatible halves together.  Task result values are arbitrary Python
objects (dataclasses, traces, ...), so the payload is a pickle wrapped in
base64 inside the JSON envelope; the human-readable metadata (index,
attempts, elapsed) stays queryable with plain ``jq``.

A record is complete once its newline is on disk.  A process killed
mid-write leaves one torn record after the last newline; resuming drops
it (its task runs again), truncates the file back to the last complete
line and warns.  A malformed record *before* the last newline cannot come
from an interrupted append, so it raises :class:`CheckpointMismatch`.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import warnings
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

FORMAT = "repro-exec-checkpoint-v1"


class CheckpointMismatch(ValueError):
    """The checkpoint on disk belongs to a different task list."""


def task_digest(tasks: Sequence[Any]) -> str:
    """Stable content digest of a task list (``unpicklable:N`` when the
    tasks cannot be pickled -- such runs cannot be resumed safely, but
    they can still be checkpointed and inspected)."""
    hasher = hashlib.sha256()
    for task in tasks:
        try:
            hasher.update(pickle.dumps(task))
        except Exception:
            return f"unpicklable:{len(tasks)}"
    return hasher.hexdigest()


@dataclass(frozen=True)
class CheckpointEntry:
    """One restored task result."""

    index: int
    attempts: int
    elapsed_seconds: float
    value: Any


class CheckpointStore:
    """Append-only JSONL writer/reader keyed to one task list.

    ``open_for_run`` truncates (fresh run) or validates-and-loads
    (``resume=True``); ``write`` appends one finished task and flushes, so
    a killed process loses at most the record being written.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle = None

    # -- writing -------------------------------------------------------------

    def open_for_run(self, tasks: Sequence[Any],
                     resume: bool = False) -> Dict[int, CheckpointEntry]:
        """Prepare the store for a run over ``tasks``.

        Returns the entries restored from disk (empty unless ``resume``
        and the file exists and matches).  Leaves the file open for
        appending; call :meth:`close` when the run ends.
        """
        digest = task_digest(tasks)
        if resume and os.path.exists(self.path):
            restored = self._load(tasks, digest)
            if restored is not None:
                self._handle = open(self.path, "a", encoding="utf-8")
                return restored
        self._handle = open(self.path, "w", encoding="utf-8")
        header = {"format": FORMAT, "tasks": len(tasks), "digest": digest}
        self._handle.write(json.dumps(header) + "\n")
        self._handle.flush()
        return {}

    def write(self, index: int, attempts: int, elapsed_seconds: float,
              value: Any) -> bool:
        """Append one finished task; returns ``False`` (and writes
        nothing) when the value cannot be pickled."""
        if self._handle is None:
            raise RuntimeError("checkpoint store is not open")
        try:
            payload = base64.b64encode(pickle.dumps(value)).decode("ascii")
        except Exception:
            return False
        record = {"index": index, "attempts": attempts,
                  "elapsed": elapsed_seconds, "payload": payload}
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()
        return True

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- reading -------------------------------------------------------------

    def _load(self, tasks: Sequence[Any],
              digest: str) -> Optional[Dict[int, CheckpointEntry]]:
        """Restore the finished tasks; ``None`` when the file holds no
        complete header (it is empty, or was killed writing the header)."""
        with open(self.path, "rb") as handle:
            data = handle.read()
        complete = data.rfind(b"\n") + 1
        records = [(number, line) for number, line
                   in enumerate(data[:complete].split(b"\n"), 1)
                   if line.strip()]
        if not records:
            return None
        header = self._record(*records[0])
        if header.get("format") != FORMAT:
            raise CheckpointMismatch(
                f"{self.path} is not a {FORMAT} file "
                f"(found format={header.get('format')!r})")
        if header.get("tasks") != len(tasks) or header.get("digest") != digest:
            raise CheckpointMismatch(
                f"{self.path} was written for a different campaign "
                f"({header.get('tasks')} task(s), digest "
                f"{str(header.get('digest'))[:12]}...) than the one being "
                f"resumed ({len(tasks)} task(s), digest {digest[:12]}...); "
                f"delete the file or drop --resume to start fresh")
        restored: Dict[int, CheckpointEntry] = {}
        for number, line in records[1:]:
            record = self._record(number, line)
            index = record["index"]
            if not 0 <= index < len(tasks):
                raise CheckpointMismatch(
                    f"{self.path} holds index {index}, outside the "
                    f"{len(tasks)}-task campaign being resumed")
            value = pickle.loads(base64.b64decode(record["payload"]))
            restored[index] = CheckpointEntry(
                index=index, attempts=record.get("attempts", 1),
                elapsed_seconds=record.get("elapsed", 0.0), value=value)
        if complete < len(data):
            if data[complete:].strip():
                warnings.warn(
                    f"{self.path}: dropped a torn trailing record "
                    f"({len(data) - complete} byte(s) after the last complete "
                    f"line); its task runs again", RuntimeWarning, stacklevel=3)
            # Appending after the torn bytes would glue the next record
            # onto them.
            os.truncate(self.path, complete)
        return restored

    def _record(self, number: int, line: bytes) -> Dict[str, Any]:
        try:
            record = json.loads(line)
        except ValueError as error:
            raise CheckpointMismatch(
                f"{self.path}:{number}: malformed record before the last "
                f"line ({error}); an interrupted write only tears the last "
                f"record, so the file is damaged: delete it or drop --resume "
                f"to start fresh") from error
        if not isinstance(record, dict):
            raise CheckpointMismatch(
                f"{self.path}:{number}: record is not a JSON object")
        return record


def read_entries(path: str) -> List[Dict[str, Any]]:
    """Raw records of a checkpoint file (header first), for inspection."""
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]
