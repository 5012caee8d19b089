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


# The only callers of the transforms: partial_sums, which combines every
# spectrum, and random_band_limited, which synthesizes one.  A spectral
# body written outside partial_sums shows up here.
TRANSFORM_CALLERS = {"_forward": {"BaseGrid.partial_sums"},
                     "_inverse": {"BaseGrid.partial_sums", "random_band_limited"}}


def _scan(tree, match):
    """(scope, line, match(node)) of each node of a module tree that match names."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            what = match(child)
            if what:
                found.append((scope, child.lineno, what))
            visit(child, inner)

    visit(tree, "")
    return found


def _fft_use(node):
    if isinstance(node, ast.Attribute) and node.attr == "fft":
        return "fft"
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        names = [alias.name for alias in node.names]
        names.append(getattr(node, "module", None) or "")
        if any("fft" in name for name in names):
            return "fft"
    return None


def _transform_call(node):
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in TRANSFORM_CALLERS):
        return node.func.attr
    return None


def _fft_uses(tree):
    """(scope, line) of each numpy fft attribute or import in a module tree."""
    return [(scope, line) for scope, line, _ in _scan(tree, _fft_use)]


def _sources():
    sources = sorted((SRC / "ktflow").glob("*.py"))
    assert sources
    return [(path.name, ast.parse(path.read_text(), filename=str(path))) for path in sources]


def test_transforms_go_through_grid_primitives():
    stray = []
    for name, tree in _sources():
        stray += [f"{name}:{line} in {scope or '<module>'}"
                  for scope, line in _fft_uses(tree) if scope not in FFT_SITES]
    assert not stray, stray


def test_spectra_are_combined_only_in_partial_sums():
    stray = []
    for name, tree in _sources():
        stray += [f"{name}:{line} calls {what} in {scope or '<module>'}"
                  for scope, line, what in _scan(tree, _transform_call)
                  if scope not in TRANSFORM_CALLERS[what]]
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


def test_transform_scan_sees_calls_by_scope():
    code = """
class BaseGrid:
    def partial_sums(self, v):
        return self._inverse(self._forward(v))
    def poisson(self, v):
        return self._inverse(self._forward(v))
def random_band_limited(grid):
    return grid._inverse(grid._forward)
"""
    found = [(scope, what) for scope, _, what in _scan(ast.parse(code), _transform_call)]
    assert found == [("BaseGrid.partial_sums", "_inverse"), ("BaseGrid.partial_sums", "_forward"),
                     ("BaseGrid.poisson", "_inverse"), ("BaseGrid.poisson", "_forward"),
                     ("random_band_limited", "_inverse")]
    stray = [(scope, what) for scope, what in found if scope not in TRANSFORM_CALLERS[what]]
    assert stray == [("BaseGrid.poisson", "_inverse"), ("BaseGrid.poisson", "_forward")]
