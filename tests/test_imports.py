"""Importing refscore loads only what every stage needs, and the evaluation
modules import no layer above them."""
import ast
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


# the evaluation modules work on plain data; none may reach back into the
# request layer or the orchestration that calls them
EVALUATION = ("stats", "fusion", "extract", "wata", "violin")
UPPER = {"gateway", "harness", "cli"}


def imported_modules(source: str) -> set[str]:
    """The top-level names of the modules ``source`` imports, counting a
    refscore submodule by its own name, as "gateway" for ``from .gateway
    import X``, ``from . import gateway`` and ``import refscore.gateway``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            # an imported name may itself be a module: "from . import gateway"
            names |= {module} | {f"{module}.{alias.name}".lstrip(".") for alias in node.names}
    return {name.removeprefix("refscore.").split(".")[0] for name in names}


def test_evaluation_modules_import_no_upper_layer():
    for name in EVALUATION:
        source = (SRC / "refscore" / f"{name}.py").read_text(encoding="utf-8")
        assert imported_modules(source) & UPPER == set(), name
