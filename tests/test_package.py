import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import super_scrambler

CORE_USE = """
import sys
import super_scrambler as ss

program = ss.parse_program("N 6\\nT 1\\nC3 1 3 5\\n")
assert ss.parse_program(ss.format_program(program)) == program
assert len(ss.localize_c3(ss.C3(1, 3, 5), 6)) > 1
tableau = ss.SuperStabilizerTableau.new_all_x(6)
tableau.apply_program(program)
assert tableau.entropy(ss.Region.prefix(3)) == 1
loaded = ss.SuperStabilizerTableau.loads(tableau.dumps())
assert (loaded.x, loaded.z) == (tableau.x, tableau.z)
assert ss.gf2_rank([0b11, 0b01, 0b10]) == 2
print(" ".join(
    name for name in ("numpy", "super_scrambler.oracle", "super_scrambler.experiments",
                      "dataclasses", "inspect")
    if name in sys.modules
))
"""


def test_core_imports_without_numpy():
    # a fresh interpreter that imports this copy of the package
    src = Path(super_scrambler.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", CORE_USE],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.split() == []


FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
"""


def test_failing_property_test_reports_its_example(tmp_path):
    # under the project's filters, which make a warning an error, a failing
    # Hypothesis test still reports its example, and the session ends normally
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "-p", "no:cacheprovider",
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output


@pytest.mark.parametrize("name", super_scrambler.__all__)
def test_export_is_defining_module_object(name):
    value = getattr(super_scrambler, name)
    module = importlib.import_module(value.__module__)
    assert module.__name__.startswith("super_scrambler.")
    assert getattr(module, name) is value


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        super_scrambler.no_such_name


def test_star_import_binds_all():
    namespace = {}
    exec("from super_scrambler import *", namespace)
    assert set(super_scrambler.__all__) <= set(namespace)
    for name in super_scrambler.__all__:
        assert namespace[name] is getattr(super_scrambler, name)


def test_submodule_import():
    from super_scrambler import experiments, oracle

    assert experiments is sys.modules["super_scrambler.experiments"]
    assert oracle is sys.modules["super_scrambler.oracle"]
