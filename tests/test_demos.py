"""Every demo script runs to completion against the current public API."""
import runpy
import tempfile
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path, monkeypatch):
    system_tmp = Path(tempfile.gettempdir())
    before = set(system_tmp.glob("refscore-demo-*"))
    # in-process, so no interpreter start-up per demo; the demos that call
    # mkdtemp leave their files under tmp_path
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(demo), run_name="__main__")
    assert set(system_tmp.glob("refscore-demo-*")) == before
