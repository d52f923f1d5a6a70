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
from an interrupted append, so it raises :class:`CheckpointMismatch`
naming ``path:line`` -- bad JSON, a non-integer index, a payload that
does not decode.

Resuming unpickles every payload in the file, and unpickling runs
whatever code the pickle names: only ``--resume`` a checkpoint this
program wrote, never one from a source you do not trust.
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
            entry = self._entry(number, self._record(number, line),
                                len(tasks))
            restored[entry.index] = entry
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

    def _entry(self, number: int, record: Dict[str, Any],
               task_count: int) -> CheckpointEntry:
        """Validate one task record and unpickle its payload."""
        where = f"{self.path}:{number}"
        index = record.get("index")
        if not _is_int(index):
            raise CheckpointMismatch(
                f"{where}: index must be an integer, got {index!r}")
        if not 0 <= index < task_count:
            raise CheckpointMismatch(
                f"{where}: index {index} is outside the {task_count}-task "
                f"campaign being resumed")
        attempts = record.get("attempts", 1)
        if not _is_int(attempts) or attempts < 1:
            raise CheckpointMismatch(
                f"{where}: attempts must be a positive integer, "
                f"got {attempts!r}")
        elapsed = record.get("elapsed", 0.0)
        if not (_is_int(elapsed) or isinstance(elapsed, float)):
            raise CheckpointMismatch(
                f"{where}: elapsed must be a number, got {elapsed!r}")
        payload = record.get("payload")
        if not isinstance(payload, str):
            raise CheckpointMismatch(
                f"{where}: payload must be a base64 string, got "
                f"{type(payload).__name__}")
        try:
            value = pickle.loads(base64.b64decode(payload, validate=True))
        except Exception as error:  # damaged pickles raise almost any type
            raise CheckpointMismatch(
                f"{where}: payload does not decode "
                f"({type(error).__name__}: {error})") from error
        return CheckpointEntry(index=index, attempts=attempts,
                               elapsed_seconds=elapsed, value=value)


def _is_int(value: Any) -> bool:
    """An integer JSON value (``true``/``false`` load as bools, not ints)."""
    return isinstance(value, int) and not isinstance(value, bool)


def read_entries(path: str) -> List[Dict[str, Any]]:
    """Raw records of a checkpoint file (header first), for inspection."""
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]
