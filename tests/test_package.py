"""The top-level package: exported names, the cost of `import ktflow`, and
the one route its spectral transforms take."""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
import ktflow
assert "numpy" not in sys.modules, "import ktflow loaded numpy"
assert ktflow.errors.KTError
assert "numpy" not in sys.modules, "ktflow.errors loaded numpy"
missing = [name for name in ktflow.__all__ if getattr(ktflow, name, None) is None]
assert not missing, missing
"""


def test_all_names_resolve_and_import_stays_light():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", PROBE], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


# The only places that may touch numpy's FFT module: the wavenumber tables
# and the two transforms every spectral operation goes through, which the
# transform budget tests count.
FFT_SITES = {"BaseGrid.__init__", "BaseGrid._forward", "BaseGrid._inverse"}


def _fft_uses(tree):
    """(scope, line) of each numpy fft attribute or import in a module tree."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Attribute) and child.attr == "fft":
                found.append((scope, child.lineno))
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in child.names]
                names.append(getattr(child, "module", None) or "")
                if any("fft" in name for name in names):
                    found.append((scope, child.lineno))
            visit(child, inner)

    visit(tree, "")
    return found


def test_transforms_go_through_grid_primitives():
    sources = sorted((SRC / "ktflow").glob("*.py"))
    assert sources
    stray = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        stray += [f"{path.name}:{line} in {scope or '<module>'}"
                  for scope, line in _fft_uses(tree) if scope not in FFT_SITES]
    assert not stray, stray


def test_fft_scan_sees_calls_and_imports():
    code = """
import numpy.fft
from numpy import fft
def f(v):
    return np.fft.rfft2(v)
class BaseGrid:
    def _forward(self, v):
        return np.fft.rfft(v)
"""
    scopes = [scope for scope, _ in _fft_uses(ast.parse(code))]
    assert scopes == ["", "", "f", "BaseGrid._forward"]
