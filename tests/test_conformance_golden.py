"""Differential golden traces: the refactored hot path is bit-exact.

The engine rebuild (compiled MEDL dispatch tables, pooled event
scheduling, re-armed ticks, channel completions on the engine queue) is
a pure performance refactor -- the typed event stream it produces must
be byte-identical to the stream the pre-refactor stack produced.  Both
paper conformance scenarios were captured as JSONL golden fixtures before
the refactor; here each scenario is replayed and the exported stream is
compared byte-for-byte against the fixture.
"""

import filecmp
from pathlib import Path

import pytest

from repro.conformance import SCENARIOS

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"

#: (scenario name, golden fixture) -- captured from the pre-refactor stack.
GOLDEN_TRACES = [
    ("trace1", GOLDEN_DIR / "trace1_events.jsonl"),
    ("trace2", GOLDEN_DIR / "trace2_events.jsonl"),
]


@pytest.mark.parametrize("name,golden", GOLDEN_TRACES,
                         ids=[name for name, _ in GOLDEN_TRACES])
def test_conformance_trace_is_byte_identical(name, golden, tmp_path):
    cluster = SCENARIOS[name].run()
    exported = tmp_path / f"{name}.jsonl"
    cluster.monitor.export_jsonl(str(exported))
    assert filecmp.cmp(str(exported), str(golden), shallow=False), (
        f"{name} event stream diverged from the pre-refactor golden "
        f"fixture {golden.name}")


def test_golden_fixtures_are_nonempty():
    for _, golden in GOLDEN_TRACES:
        lines = golden.read_text().splitlines()
        assert len(lines) > 100
        assert all(line.startswith("{") for line in lines)
