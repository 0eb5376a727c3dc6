"""The package surface: public names, the README's library example and its argument contract."""
import importlib
import math
import pathlib
import re

import pytest

import isospectra
from isospectra import specfun
from isospectra.nu import HypergeometricForm, nu_reduce
from isospectra.specfun import kummer_1f1

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
    assert specfun.__all__ == ["laguerre", "kummer_1f1"]  # not re-exported


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks, "README has no python example"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: nu_reduce(HypergeometricForm(math.nan, 1.0, 1.0)), "a2 must be finite, got nan"),
        (lambda: nu_reduce(HypergeometricForm(-math.inf, 1.0, 0.0)), "a2 must be finite, got -inf"),
        (lambda: nu_reduce(HypergeometricForm(-1.0, math.nan, 0.0)), "a1 must be finite, got nan"),
        (lambda: nu_reduce(HypergeometricForm(-1.0, math.inf, 0.0)), "a1 must be finite, got inf"),
        (lambda: nu_reduce(HypergeometricForm(-1.0, -math.inf, 0.0)), "a1 must be finite, got -inf"),
        (lambda: nu_reduce(HypergeometricForm(-1.0, 1.0, math.nan)), "a0 must be finite, got nan"),
        (lambda: nu_reduce(HypergeometricForm(-1.0, 1.0, -math.inf)), "a0 must be finite, got -inf"),
        # a = -2 takes the terminating branch, which formed Fraction(z)
        (lambda: kummer_1f1(-2.0, 1.0, math.inf), "z must be finite, got inf"),
        (lambda: kummer_1f1(-2.0, 1.0, -math.inf), "z must be finite, got -inf"),
        (lambda: kummer_1f1(-2.0, 1.0, math.nan), "z must be finite, got nan"),
        (lambda: kummer_1f1(math.nan, 1.0, 1.0), "a must be finite, got nan"),
        (lambda: kummer_1f1(-math.inf, 1.0, 1.0), "a must be finite, got -inf"),
        (lambda: kummer_1f1(0.5, -math.inf, 1.0), "b must be finite, got -inf"),
    ],
    ids=["nu-a2-nan", "nu-a2-minus-inf", "nu-a1-nan", "nu-a1-inf", "nu-a1-minus-inf", "nu-a0-nan", "nu-a0-minus-inf",
         "kummer-z-inf", "kummer-z-minus-inf", "kummer-z-nan", "kummer-a-nan", "kummer-a-minus-inf",
         "kummer-b-minus-inf"],
)
def test_non_finite_argument_raises_value_error_naming_it(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
