"""The package surface: public names and the README's library example."""
import importlib
import pathlib
import re

import pytest

import isospectra

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
SUBMODULES = ("specfun", "nu", "nonrel", "rel", "oracle", "golden", "validate", "cli")


@pytest.mark.parametrize("module", ("",) + SUBMODULES)
def test_every_public_name_resolves(module):
    mod = importlib.import_module(f"isospectra.{module}" if module else "isospectra")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks, "README has no python example"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
