"""The README's stage table follows ``harness.PIPELINE``."""
import re
from pathlib import Path

from refscore.harness import PIPELINE, STAGES

README = Path(__file__).resolve().parent.parent / "README.md"


def stage_rows() -> dict[str, tuple[str, str]]:
    """Stage name -> (reads cell, writes cell), in the order the table lists them."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index(next(line for line in lines if line.startswith("| stage")))
    rows = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        name, reads, writes = (cell.strip() for cell in line.strip("|").split("|")[:3])
        rows[name] = reads, writes
    return rows


def test_rows_follow_stage_order():
    assert tuple(stage_rows()) == STAGES


def test_reads_cell_lists_the_stage_reads():
    for name, (reads, _) in stage_rows().items():
        expected = [f.format(kind="<kind>") for f in PIPELINE[name].reads]
        if not expected:
            assert reads == "(the configured input files)", name
            continue
        assert re.findall(r"`([^`]+)`", reads) == expected, name


def test_writes_cell_lists_the_stage_writes():
    for name, (_, writes) in stage_rows().items():
        expected = [f.format(kind="<kind>") for f in PIPELINE[name].writes]
        assert re.findall(r"`([^`]+)`", writes) == expected, name
