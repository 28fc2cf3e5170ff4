"""Cold starts: the package and the CLI's argument handling load no submodule and no numpy."""

import os
import subprocess
import sys

import pytest

_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
# what a subcommand that argparse has not accepted must never load
_HEAVY = ("numpy", "layertime.layers", "layertime.nnls", "layertime.tree")


def _imported(stderr: str) -> set[str]:
    """Module names in the ``-X importtime`` lines of ``stderr``."""
    return {
        line.rsplit("|", 1)[1].strip()
        for line in stderr.splitlines()
        if line.startswith("import time:") and line.count("|") == 2
    }


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--help"], 0),
        (["fit", "--help"], 0),
        (["plan"], 1),  # --out is required
        (["frobnicate"], 1),
    ],
)
def test_argument_handling_loads_no_numpy_and_no_core(tmp_path, argv, code):
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "layertime.cli", *argv],
        cwd=tmp_path, env=_ENV, capture_output=True, text=True,
    )
    assert result.returncode == code
    imported = _imported(result.stderr)
    assert {"layertime", "argparse"} <= imported  # -m runs cli itself as __main__
    assert imported.isdisjoint(_HEAVY)
    if code:
        errors = [line for line in result.stderr.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1 and errors[0].startswith("error: usage: ")


def test_package_import_loads_no_submodule():
    probe = (
        "import sys, layertime; "
        "print(sorted(m for m in sys.modules if m.startswith('layertime.') or m == 'numpy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=_ENV, capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "[]"


_NNLS_PROBE = """
import sys
import layertime
assert "layertime.nnls" not in sys.modules
solver = layertime.nnls
assert callable(solver) and solver.__module__ == "layertime.nnls"
import layertime.nnls
import layertime.nnls as bound
from layertime import nnls
from layertime.nnls import nnls as direct
assert layertime.nnls is bound is nnls is direct is solver
try:
    layertime.nnls = len
except AttributeError as exc:
    assert str(exc) == "layertime.nnls is read-only", exc
else:
    raise AssertionError("a patch of layertime.nnls was silently dropped")
assert layertime.nnls is solver
print("ok")
"""

_NNLS_SUBMODULE_FIRST_PROBE = """
import layertime.nnls as bound
import layertime.tree
import layertime
assert layertime.nnls is bound is layertime.tree.nnls
assert callable(bound) and bound.__module__ == "layertime.nnls"
print("ok")
"""


@pytest.mark.parametrize(
    "probe", [_NNLS_PROBE, _NNLS_SUBMODULE_FIRST_PROBE], ids=["package-first", "submodule-first"]
)
def test_package_nnls_is_the_solver_before_and_after_its_submodule_loads(probe):
    # -W error: an ImportWarning from binding the submodule would fail the probe
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", probe],
        env=_ENV, capture_output=True, text=True,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "ok\n", "")
