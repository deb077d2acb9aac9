"""Importing refscore loads only what every stage needs."""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# loaded where they run: scipy.special by the analyze and wata stages,
# requests by live scoring
LAZY = ("scipy.stats", "scipy.special", "requests")


def test_import_leaves_lazy_modules_unloaded():
    code = (
        "import sys\n"
        "import refscore, refscore.cli, refscore.harness, refscore.synth\n"
        f"print(','.join(m for m in {LAZY!r} if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert out.stdout.strip() == ""
