"""The package surface: public names and the README's library example."""
import importlib
import pathlib
import re

import pytest

import isospectra

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
SUBMODULES = ("errors", "specfun", "nu", "nonrel", "rel", "oracle", "golden", "validate", "cli")
REEXPORTED = ("errors", "nonrel", "nu", "rel", "oracle")  # in the order of isospectra.__all__


@pytest.mark.parametrize("module", ("",) + SUBMODULES)
def test_every_public_name_resolves(module):
    mod = importlib.import_module(f"isospectra.{module}" if module else "isospectra")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_package_reexports_each_module_surface_in_order():
    modules = [importlib.import_module(f"isospectra.{name}") for name in REEXPORTED]
    assert isospectra.__all__ == ["__version__"] + [name for mod in modules for name in mod.__all__]
    for mod in modules:
        for name in mod.__all__:
            assert getattr(isospectra, name) is getattr(mod, name), f"{mod.__name__}.{name}"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks, "README has no python example"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
