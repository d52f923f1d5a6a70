"""Tests for the JSONL checkpoint store and TaskRunner resume."""

import json

import pytest

from repro.exec import (CheckpointMismatch, CheckpointStore, TaskRunner,
                        read_entries, task_digest)


def _double(value):
    return value * 2


def test_round_trip(tmp_path):
    path = str(tmp_path / "ck.jsonl")
    tasks = [1, 2, 3]
    store = CheckpointStore(path)
    assert store.open_for_run(tasks) == {}
    assert store.write(0, attempts=1, elapsed_seconds=0.5, value={"a": 1})
    assert store.write(2, attempts=3, elapsed_seconds=0.1, value=[1, 2])
    store.close()

    reopened = CheckpointStore(path)
    restored = reopened.open_for_run(tasks, resume=True)
    reopened.close()
    assert sorted(restored) == [0, 2]
    assert restored[0].value == {"a": 1}
    assert restored[2].attempts == 3


def test_header_is_human_readable(tmp_path):
    path = str(tmp_path / "ck.jsonl")
    store = CheckpointStore(path)
    store.open_for_run(["x"])
    store.close()
    header = json.loads(open(path).readline())
    assert header["format"] == "repro-exec-checkpoint-v1"
    assert header["tasks"] == 1
    assert header["digest"] == task_digest(["x"])


def test_resume_against_different_tasks_rejected(tmp_path):
    path = str(tmp_path / "ck.jsonl")
    store = CheckpointStore(path)
    store.open_for_run([1, 2, 3])
    store.close()
    with pytest.raises(CheckpointMismatch, match="different campaign"):
        CheckpointStore(path).open_for_run([1, 2, 4], resume=True)
    with pytest.raises(CheckpointMismatch, match="different campaign"):
        CheckpointStore(path).open_for_run([1, 2], resume=True)


def test_resume_with_missing_file_starts_fresh(tmp_path):
    path = str(tmp_path / "absent.jsonl")
    store = CheckpointStore(path)
    assert store.open_for_run([1, 2], resume=True) == {}
    store.close()
    assert json.loads(open(path).readline())["tasks"] == 2


def test_non_checkpoint_file_rejected(tmp_path):
    path = str(tmp_path / "other.jsonl")
    with open(path, "w") as handle:
        handle.write('{"format": "something-else"}\n')
    with pytest.raises(CheckpointMismatch, match="not a repro-exec"):
        CheckpointStore(path).open_for_run([1], resume=True)


def test_unpicklable_value_skipped(tmp_path):
    path = str(tmp_path / "ck.jsonl")
    store = CheckpointStore(path)
    store.open_for_run([1])
    assert not store.write(0, attempts=1, elapsed_seconds=0.0,
                           value=lambda: None)
    store.close()
    assert len(read_entries(path)) == 1  # header only


def test_runner_checkpoint_then_resume(tmp_path):
    path = str(tmp_path / "run.jsonl")
    tasks = [1, 2, 3, 4]
    first = TaskRunner(max_workers=1, checkpoint=path)
    assert first.run(_double, tasks).values() == [2, 4, 6, 8]

    resumed = TaskRunner(max_workers=1, checkpoint=path, resume=True)
    report = resumed.run(_double, tasks)
    assert report.values() == [2, 4, 6, 8]
    assert report.restored_count == 4
    assert all(result.restored for result in report.results)


def test_runner_without_resume_overwrites(tmp_path):
    path = str(tmp_path / "run.jsonl")
    TaskRunner(max_workers=1, checkpoint=path).run(_double, [1, 2])
    TaskRunner(max_workers=1, checkpoint=path).run(_double, [5])
    entries = read_entries(path)
    assert entries[0]["tasks"] == 1
    assert len(entries) == 2


def _cut(path, byte_count):
    with open(path, "rb+") as handle:
        handle.truncate(len(handle.read()) - byte_count)


def test_resume_drops_a_torn_trailing_record(tmp_path):
    path = str(tmp_path / "run.jsonl")
    tasks = [1, 2, 3, 4]
    uninterrupted = TaskRunner(max_workers=1).map(_double, tasks)
    TaskRunner(max_workers=1, checkpoint=path).run(_double, tasks)
    _cut(path, 20)

    resumed = TaskRunner(max_workers=1, checkpoint=path, resume=True)
    with pytest.warns(RuntimeWarning, match="torn trailing record"):
        report = resumed.run(_double, tasks)
    assert report.values() == uninterrupted
    assert report.restored_count == 3
    assert not report.results[3].restored
    # The torn bytes are gone: the rewritten record starts on its own line.
    entries = read_entries(path)
    assert [entry["index"] for entry in entries[1:]] == [0, 1, 2, 3]
    again = TaskRunner(max_workers=1, checkpoint=path, resume=True)
    assert again.run(_double, tasks).restored_count == 4


def test_resume_after_a_torn_header_starts_fresh(tmp_path):
    path = str(tmp_path / "run.jsonl")
    with open(path, "w") as handle:
        handle.write('{"format": "repro-exec-chec')
    report = TaskRunner(max_workers=1, checkpoint=path,
                        resume=True).run(_double, [1, 2])
    assert report.values() == [2, 4]
    assert report.restored_count == 0
    assert read_entries(path)[0]["tasks"] == 2


def test_torn_record_in_the_middle_rejected(tmp_path):
    path = str(tmp_path / "run.jsonl")
    tasks = [1, 2, 3, 4]
    TaskRunner(max_workers=1, checkpoint=path).run(_double, tasks)
    lines = open(path).read().splitlines(keepends=True)
    lines[2] = lines[2][:-20] + "\n"
    with open(path, "w") as handle:
        handle.writelines(lines)
    with pytest.raises(CheckpointMismatch, match=":3: malformed record"):
        TaskRunner(max_workers=1, checkpoint=path, resume=True).run(_double,
                                                                    tasks)
