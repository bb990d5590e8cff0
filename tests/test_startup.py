"""What importing the package loads, and what still works without scipy.optimize.

scipy is imported by the functions that use it, so a fresh interpreter
that only imports the package, reads the witness table and loads the
command line loads no scipy module; the grid certificate needs only
scipy.special.  Each check runs in a fresh interpreter, in a temporary
directory, so the modules this test session has already imported do not
count.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import commbounds

SOURCE = str(Path(commbounds.__file__).resolve().parent.parent)

LOADED = "import sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"

PAPER_CERTIFICATE = """
from commbounds.optimize import build_paper_grid, certify_grid
from commbounds.stitch import global_constant, sqrt_constant
grid = build_paper_grid()
points = certify_grid(grid)
global_constant(points, grid[0], grid[-1])
print(repr(sqrt_constant(points)))
"""

# A finder ahead of every other one that refuses scipy.optimize and its
# submodules, as a scipy release without the private HiGHS binding would.
BLOCK_OPTIMIZE = """
import sys
class Blocked:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy.optimize" or name.startswith("scipy.optimize."):
            raise ModuleNotFoundError(f"{name} is blocked", name=name)
        return None
sys.meta_path.insert(0, Blocked())
"""


def run_python(code, tmp_path):
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, (SOURCE, os.environ.get("PYTHONPATH")))),
        PYTHONDONTWRITEBYTECODE="1",
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_import_load_and_cli_load_no_scipy(tmp_path):
    code = """
import commbounds
from commbounds.witnesses import load_witnesses
load_witnesses()
import commbounds.cli
""" + LOADED
    assert run_python(code, tmp_path) == ["[]"]


def test_paper_certificate_loads_only_scipy_special(tmp_path):
    lines = run_python(PAPER_CERTIFICATE + LOADED, tmp_path)
    assert lines[0] == "1.0087602160646407"
    loaded = ast.literal_eval(lines[1])
    assert "scipy.special" in loaded
    for package in ("scipy.optimize", "scipy.integrate", "scipy.sparse"):
        assert not any(m == package or m.startswith(package + ".") for m in loaded), package


def test_linprog_attribute_is_scipys(tmp_path):
    code = """
import sys
from commbounds import witnesses
print("scipy.optimize" in sys.modules)
linprog = witnesses.linprog
import scipy.optimize
print(linprog is scipy.optimize.linprog)
try:
    witnesses.no_such_name
except AttributeError as error:
    print(error)
"""
    assert run_python(code, tmp_path) == [
        "False",
        "True",
        "module 'commbounds.witnesses' has no attribute 'no_such_name'",
    ]


def test_only_the_fit_needs_scipy_optimize(tmp_path):
    code = BLOCK_OPTIMIZE + PAPER_CERTIFICATE + """
import commbounds.cli
from commbounds.witnesses import fit_witness
try:
    fit_witness(1.0)
except ImportError as error:
    print("fit_witness:", type(error).__name__, error.name)
"""
    assert run_python(code, tmp_path) == [
        "1.0087602160646407",
        "fit_witness: ModuleNotFoundError scipy.optimize",
    ]
