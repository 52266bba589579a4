"""The example scripts stay importable against the current API.

Each example is main-guarded, so importing it only resolves its imports
and module-level names; nothing heavy runs.
"""

import importlib.util
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def test_every_example_imports():
    paths = sorted(EXAMPLES.glob("*.py"))
    assert paths
    for path in paths:
        spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert callable(module.main), path.name
