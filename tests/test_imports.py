"""Importing refscore loads only what every stage needs, the evaluation
modules import no layer above them, neither in their source nor at run
time, the pipeline never loads the synthetic-corpus generator, and
refscore depends on nothing beyond the standard library, numpy and
scipy."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# loaded where they run: scipy.special by the analyze and wata stages,
# urllib.request by live scoring
LAZY = ("scipy.stats", "scipy.special", "urllib.request")

# the only packages outside the standard library that refscore may import
DEPENDENCIES = ["numpy", "scipy"]


def loaded_after(imports: str, candidates) -> list[str]:
    """The ``candidates`` that a fresh interpreter has loaded after running
    ``import {imports}``."""
    code = (
        "import sys\n"
        f"import {imports}\n"
        f"print(','.join(m for m in {tuple(candidates)!r} if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return [m for m in out.stdout.strip().split(",") if m]


def test_import_leaves_lazy_modules_unloaded():
    assert loaded_after("refscore, refscore.cli, refscore.harness, refscore.synth", LAZY) == []


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


# what loading the evaluation layer must leave unloaded: the request and
# prompt layers, the orchestration and the synthetic-corpus generator
NOT_EVALUATION = [f"refscore.{name}" for name in ("gateway", "harness", "prompts", "synth", "cli")]


def test_evaluation_modules_load_no_upper_layer():
    imports = ", ".join(f"refscore.{name}" for name in EVALUATION)
    assert loaded_after(imports, NOT_EVALUATION) == []


def test_pipeline_does_not_load_the_synthetic_corpus_generator():
    assert loaded_after("refscore.harness, refscore.cli", ["refscore.synth"]) == []


def test_modules_import_only_the_standard_library_and_the_dependencies():
    for path in sorted((SRC / "refscore").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top in DEPENDENCIES, (path.name, name)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_pyproject_declares_exactly_the_dependencies():
    import tomllib

    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    names = [re.match(r"[A-Za-z0-9._-]+", dep).group() for dep in project["dependencies"]]
    assert sorted(names) == DEPENDENCIES
