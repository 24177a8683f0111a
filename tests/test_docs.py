"""Every fenced Python block in README.md and docs/*.md runs.

Each file's blocks run in order in one namespace (later blocks may use
names earlier ones defined, as a reader following the page would), with
the working directory set to a temporary directory so blocks that write
files leave nothing behind.
"""

import re
from pathlib import Path

import pytest

from repro.stack import spec as stack_spec

ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = [ROOT / "README.md"] + sorted((ROOT / "docs").glob("*.md"))
FENCE = re.compile(r"^```python\n(.*?)^```", re.S | re.M)


@pytest.fixture
def system_registry():
    """Restore the system registry a block's example may add to."""
    saved = dict(stack_spec.SYSTEM_REGISTRY)
    yield
    stack_spec.SYSTEM_REGISTRY.clear()
    stack_spec.SYSTEM_REGISTRY.update(saved)


@pytest.mark.parametrize("path", DOC_FILES,
                         ids=[str(p.relative_to(ROOT)) for p in DOC_FILES])
def test_python_blocks_run(path, tmp_path, monkeypatch, system_registry):
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "__docs__"}
    for index, block in enumerate(FENCE.findall(path.read_text())):
        exec(compile(block, f"{path.name}[block {index}]", "exec"), namespace)
