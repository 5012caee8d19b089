"""The top-level package: the cost of `import ktflow` and of a battery
run, the one route its spectral transforms take, the places it scans for
NaN/Inf or spells out a one-state shape, no numpy.random, no numpy
reduction wrapper, no module-level dict cache, no environment variable,
no import that a module of the library, the tests or the demos does not
read, and no public function or method that only the tests call."""

import ast
import collections
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from ktflow.cli_runner import SNAPSHOT_FORMAT, load_snapshot
from ktflow.errors import ConfigError, NonFiniteFieldError
from ktflow.hermitian_geometry import MetricState
from ktflow.invariant_forms import CONVENTIONS_VERSION, BaseGrid, InvariantForm, coframe

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

PROBE = """
import sys
import ktflow
assert "numpy" not in sys.modules, "import ktflow loaded numpy"
import ktflow.errors
assert ktflow.errors.KTError
assert "numpy" not in sys.modules, "ktflow.errors loaded numpy"
"""


BATTERY_PROBE = """
import sys
from ktflow.identities import identity_battery
assert all(item.ok for item in identity_battery(n=16, samples=2, seed=5))
loaded = [name for name in ("numpy.random", "argparse") if name in sys.modules]
assert not loaded, f"the identity battery loaded {loaded}"
"""


def _run_probe(probe):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_import_stays_light():
    _run_probe(PROBE)


def test_identity_battery_loads_neither_numpy_random_nor_argparse():
    _run_probe(BATTERY_PROBE)


# The only places that may touch numpy's FFT module: the wavenumber tables
# and the two transforms every spectral operation goes through, which the
# transform budget tests count.
FFT_SITES = {"BaseGrid.__init__", "BaseGrid._forward", "BaseGrid._inverse"}


# The only callers of the transforms: partial_sums, which combines every
# spectrum, and random_band_limited, which synthesizes one.  A spectral
# body written outside partial_sums shows up here.
TRANSFORM_CALLERS = {"_forward": {"BaseGrid.partial_sums"},
                     "_inverse": {"BaseGrid.partial_sums", "random_band_limited"}}


# The only callers of the NaN/Inf scan: the places where data enters.  A
# state's four input fields, each stage stack and new stack of the flow's
# RK4 step, and a state built from a new stack; the form constructor; the
# grid's derivative and integral, and a form's scaling field.  Config and
# snapshot loading reach it through MetricState.  Everything computed from
# checked data is not scanned again.
CHECK_SITES = {"MetricState.__post_init__", "MetricState.with_fields", "step",
               "InvariantForm.__init__", "InvariantForm.__mul__",
               "BaseGrid.derivative", "BaseGrid.integral"}


# The only places that spell out a shape of one state's fields, such as
# (n, n) or (grid.n, grid.n): the constructors and checks where one state's
# fields enter.  Every operation after them allocates from its operands'
# shapes, so a stack of states (*stack, n, n) goes through it as one.
SHAPE_SITES = {"BaseGrid.zeros", "BaseGrid.constant", "BaseGrid.check_field",
               "MetricState.__post_init__", "random_band_limited", "load_snapshot"}


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


def _check_call(node):
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "check_field"):
        return "check_field"
    return None


def _extent(node):
    """A resolution n or x.n, or arithmetic on one, such as n // 2 + 1."""
    if isinstance(node, ast.BinOp):
        return _extent(node.left) or _extent(node.right)
    return ((isinstance(node, ast.Name) and node.id == "n")
            or (isinstance(node, ast.Attribute) and node.attr == "n"))


def _shape_literal(node):
    """A tuple display with two or more extents among its entries."""
    if isinstance(node, ast.Tuple) and sum(map(_extent, node.elts)) >= 2:
        return "shape"
    return None


def _fft_uses(tree):
    """(scope, line) of each numpy fft attribute or import in a module tree."""
    return [(scope, line) for scope, line, _ in _scan(tree, _fft_use)]


def _sources(*dirs):
    """(path from the repo root, tree) of each module of the library, or of dirs."""
    sources = [path for where in dirs or (SRC / "ktflow",) for path in sorted(where.glob("*.py"))]
    assert sources
    return [(str(path.relative_to(ROOT)), ast.parse(path.read_text(), filename=str(path)))
            for path in sources]


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


def test_one_state_shapes_only_where_fields_enter():
    stray = []
    for name, tree in _sources():
        stray += [f"{name}:{line} spells out a one-state shape in {scope or '<module>'}"
                  for scope, line, _ in _scan(tree, _shape_literal) if scope not in SHAPE_SITES]
    assert not stray, stray


def test_shape_scan_sees_literals_by_scope():
    code = """
class BaseGrid:
    def zeros(self, *lead):
        return np.zeros(lead + (self.n, self.n))
def wedge(alpha, grid, n):
    out = np.zeros((6, grid.n, grid.n))
    spec = np.empty((n, n // 2 + 1))
    return out, (alpha.shape, n), (grid.h, grid.h), np.full((n, n), 0.0)
"""
    found = [(scope, line) for scope, line, _ in _scan(ast.parse(code), _shape_literal)]
    assert found == [("BaseGrid.zeros", 4), ("wedge", 6), ("wedge", 7), ("wedge", 8)]
    assert [scope for scope, _ in found if scope not in SHAPE_SITES] == ["wedge"] * 3


def _numpy_random_use(node):
    if (isinstance(node, ast.Attribute) and node.attr == "random"
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
        return "numpy.random"
    if isinstance(node, ast.Import):
        if any(alias.name.startswith("numpy.random") for alias in node.names):
            return "numpy.random"
    if isinstance(node, ast.ImportFrom) and node.module:
        if node.module.startswith("numpy.random") or (
                node.module == "numpy" and any(alias.name == "random" for alias in node.names)):
            return "numpy.random"
    return None


def test_no_module_names_numpy_random():
    # random draws come from random.Random, which the interpreter has loaded
    # before numpy; importing numpy.random costs a run about 5 MiB
    stray = []
    for name, tree in _sources():
        stray += [f"{name}:{line} names numpy.random in {scope or '<module>'}"
                  for scope, line, _ in _scan(tree, _numpy_random_use)]
    assert not stray, stray


def test_numpy_random_scan_sees_attributes_and_imports():
    code = """
import numpy.random
import numpy.random as npr
from numpy import random
from numpy.random import default_rng
import random
def f(seed):
    return np.random.default_rng(seed), numpy.random.normal(), random.Random(seed)
"""
    found = [(scope, line) for scope, line, _ in _scan(ast.parse(code), _numpy_random_use)]
    assert found == [("", 2), ("", 3), ("", 4), ("", 5), ("f", 8), ("f", 8)]


# os's names for the process environment
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def _environment_use(node):
    if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT:
        return node.attr
    if isinstance(node, ast.ImportFrom) and node.module == "os":
        used = [alias.name for alias in node.names if alias.name in ENVIRONMENT]
        return used[0] if used else None
    return None


def test_no_module_reads_or_sets_the_environment():
    # a run is set by its config and its command line alone
    stray = []
    for name, tree in _sources():
        stray += [f"{name}:{line} uses os.{what} in {scope or '<module>'}"
                  for scope, line, what in _scan(tree, _environment_use)]
    assert not stray, stray


def test_environment_scan_sees_attributes_and_imports():
    code = """
import os
from os import path, getenv as ge
def f():
    return os.environ.get("X"), os.getenv("Y"), os.path.join("a", "b")
class Runner:
    def start(self):
        os.putenv("Z", "1")
"""
    found = [(scope, line, what) for scope, line, what in _scan(ast.parse(code), _environment_use)]
    assert found == [("", 3, "getenv"), ("f", 5, "environ"), ("f", 5, "getenv"),
                     ("Runner.start", 8, "putenv")]


def test_finiteness_scans_only_where_data_enters():
    stray = []
    for name, tree in _sources():
        stray += [f"{name}:{line} calls check_field in {scope or '<module>'}"
                  for scope, line, _ in _scan(tree, _check_call) if scope not in CHECK_SITES]
    assert not stray, stray


def test_check_scan_sees_calls_by_scope():
    code = """
class MetricState:
    def __post_init__(self):
        u = (self.grid.check_field(v) for v in self.fields)
def lee_form(m):
    return m.grid.check_field(m.p)
check_field(x)
"""
    found = [(scope, what) for scope, _, what in _scan(ast.parse(code), _check_call)]
    assert found == [("MetricState.__post_init__", "check_field"), ("lee_form", "check_field")]
    assert [scope for scope, _ in found if scope not in CHECK_SITES] == ["lee_form"]


# numpy's reduction functions and array methods that go through its Python
# wrappers (numpy/_core/fromnumeric.py, _methods.py) before the ufunc's
# reduce.  The library calls the reduce itself, through invariant_forms'
# largest, smallest, mean and mean_and_variance or directly.
NUMPY_REDUCTIONS = {"max", "min", "amax", "amin", "mean", "all", "any", "sum", "var", "std"}
ARRAY_REDUCTIONS = {"max", "min", "mean", "sum", "all", "any", "var", "std"}


def _reduction_wrapper(node):
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return None
    owner, name = node.func.value, node.func.attr
    if isinstance(owner, ast.Name) and owner.id in ("np", "numpy"):
        return f"np.{name}" if name in NUMPY_REDUCTIONS else None
    return f".{name}()" if name in ARRAY_REDUCTIONS else None


def test_no_numpy_reduction_wrappers():
    # each wrapper costs a few microseconds a call before the same reduce,
    # and one suite run reduces about a thousand times
    stray = []
    for name, tree in _sources():
        stray += [f"{name}:{line} calls {what} in {scope or '<module>'}"
                  for scope, line, what in _scan(tree, _reduction_wrapper)]
    assert not stray, stray


def test_reduction_scan_sees_functions_and_methods():
    code = """
import numpy
def peak(x, m):
    a = np.max(np.abs(x)) + numpy.mean(x, axis=0) + np.all(np.isfinite(x))
    b = x.min() + m.lam.sum(axis=0) + max(a, 1.0) + math.prod(x.shape)
    return np.maximum.reduce(x, axis=None), np.add.reduce(x) / x.size, np.abs(x).any()
"""
    found = [(scope, line, what) for scope, line, what
             in _scan(ast.parse(code), _reduction_wrapper)]
    assert found == [("peak", 4, "np.max"), ("peak", 4, "np.mean"), ("peak", 4, "np.all"),
                     ("peak", 5, ".min()"), ("peak", 5, ".sum()"), ("peak", 6, ".any()")]


def _dict_value(node):
    """"empty" or "filled" for a dict display, comprehension or dict() call, else None."""
    if isinstance(node, ast.Dict):
        return "filled" if node.keys else "empty"
    if isinstance(node, ast.DictComp):
        return "filled"
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict":
        return "filled" if node.args or node.keywords else "empty"
    return None


def _module_dict_caches(tree):
    """(line, name) of each module-level dict that starts empty or that a
    function stores into: a cache kept beside the code that fills it."""
    dicts = {}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and _dict_value(node.value):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            dicts.update((target.id, (node.lineno, _dict_value(node.value)))
                         for target in targets if isinstance(target, ast.Name))
    found = {(line, name) for name, (line, kind) in dicts.items() if kind == "empty"}
    functions = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for function in functions:
        for node in ast.walk(function):
            stored = None
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                stored = node.value
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in (
                    "setdefault", "update", "pop", "clear", "__setitem__"):
                stored = node.func.value
            if isinstance(stored, ast.Name) and stored.id in dicts:
                found.add((dicts[stored.id][0], stored.id))
    return sorted(found)


def test_no_module_level_dict_cache():
    # tables are built once per key by functools.cache, or kept on the
    # object they belong to (BaseGrid._symbols), never in a module dict
    stray = []
    for name, tree in _sources():
        stray += [f"{name}:{line} keeps {what} as a module-level cache"
                  for line, what in _module_dict_caches(tree)]
    assert not stray, stray


def test_dict_cache_scan_sees_empty_and_filled_dicts():
    code = """
_TABLE = {}
_CACHE: dict = dict()
NAMES = {"a": 1}
SQUARES = {k: k * k for k in range(4)}
_FILLED = {"a": 1}
_GROWN = dict(a=1)
def f(key):
    values = {}
    values[key] = 1
    _FILLED[key] = NAMES[key]
    _GROWN.setdefault(key, 2)
    return SQUARES[key]
class Grid:
    def __init__(self):
        self._tables = {}
"""
    assert _module_dict_caches(ast.parse(code)) == [(2, "_TABLE"), (3, "_CACHE"),
                                                    (6, "_FILLED"), (7, "_GROWN")]


def _imported_names(node):
    """Names an import statement binds; from __future__ and * bind none we track."""
    if isinstance(node, ast.Import):
        return [alias.asname or alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [alias.asname or alias.name for alias in node.names if alias.name != "*"]
    return []


def _own_nodes(scope):
    """Nodes of a scope's body, not descending into nested functions or classes."""
    for child in ast.iter_child_nodes(scope):
        yield child
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _own_nodes(child)


def _unused_imports(tree):
    """(line, name) of each name imported in a scope that the scope never reads.

    A scope is the module or a function or class; a read anywhere inside
    it, nested scopes included, counts.  Names listed in a module-level
    __all__ are exports and count as read.
    """
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(target, "id", None) == "__all__" for target in node.targets)):
            exported = {item.value for item in ast.walk(node.value)
                        if isinstance(item, ast.Constant) and isinstance(item.value, str)}
    found = []
    scopes = [tree] + [node for node in ast.walk(tree) if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    for scope in scopes:
        read = {node.id for node in ast.walk(scope)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        found += [(node.lineno, name) for node in _own_nodes(scope)
                  for name in _imported_names(node)
                  if name not in read and name not in exported]
    return sorted(found)


def test_no_unused_imports():
    stray = []
    for name, tree in _sources(SRC / "ktflow", ROOT / "tests", ROOT / "demos"):
        stray += [f"{name}:{line} imports {what} unused" for line, what in _unused_imports(tree)]
    assert not stray, stray


def test_import_scan_sees_unused_names_by_scope():
    code = """
from __future__ import annotations
import os.path
import numpy as np
from . import errors
from .forms import wedge, exterior_d as d
__all__ = sorted(["errors"])
def f(x):
    import json
    from .forms import wedge
    return d(np.asarray(x))
def g():
    def inner():
        return json
"""
    assert _unused_imports(ast.parse(code)) == [(3, "os"), (6, "wedge"), (9, "json"),
                                                (10, "wedge")]


# Public library functions and classes that nothing outside the tests names
# yet, each with the reason it stays.
WAIVERS = {
    "load_snapshot": "reads back what emit_snapshot writes; resuming a run from a "
                     "final-state snapshot (ROADMAP item 8) will call it",
}


def _named(tree):
    """How often a tree reads a name, binds it by import or calls it as an attribute."""
    found = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.rpartition(".")[2]] += 1
    return found


def _public_definitions(tree):
    """(line, name, node) of each public top-level function or class, and of
    each public method of a top-level class, named Class.method."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions + (ast.ClassDef,)) and not node.name.startswith("_"):
            yield node.lineno, node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((item.lineno, f"{node.name}.{item.name}", item) for item in node.body
                        if isinstance(item, functions) and not item.name.startswith("_"))


def _uncalled(library, others, exports):
    """(module, line, name) of each public definition of the library that no
    library module, other module or export names outside the definition."""
    named = sum(map(_named, list(library.values()) + list(others)),
                collections.Counter(exports))
    return [(module, line, name) for module, tree in library.items()
            for line, name, node in _public_definitions(tree)
            if named[node.name] <= _named(node)[node.name]]


def test_every_public_function_has_a_caller_or_a_waiver():
    outside = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    assert outside
    others = [ast.parse(path.read_text(), filename=str(path)) for path in outside]
    uncalled = _uncalled(dict(_sources()), others, ())
    stray = [f"{module}:{line} {name} has no caller outside the tests"
             for module, line, name in uncalled if name not in WAIVERS]
    assert not stray, stray
    assert sorted(name for _, _, name in uncalled) == sorted(WAIVERS), "stale waiver"


def test_caller_scan_sees_names_outside_their_definition():
    library = {"forms.py": ast.parse("""
def used():
    return defined_later()
def recursive(n):
    return recursive(n - 1)
class Lonely:
    def copy(self):
        return Lonely()
def exported():
    pass
def _private():
    pass
def caller():
    return used()
def method_name():
    pass
def defined_later():
    pass
class Grid:
    def derivative(self):
        return self.derivative()
    def integral(self):
        return self._mean()
    def _mean(self):
        return self.zeros()
    def zeros(self):
        pass
""")}
    others = [ast.parse("from ktflow.forms import caller, Grid\n"
                        "x.method_name()\nGrid().integral()\n")]
    assert _uncalled(library, others, {"exported"}) == [
        ("forms.py", 4, "recursive"), ("forms.py", 6, "Lonely"), ("forms.py", 7, "Lonely.copy"),
        ("forms.py", 20, "Grid.derivative")]


# Defaulted parameters of public library functions that no call outside the
# tests passes, each with the reason it stays.
DEFAULT_WAIVERS = {
    ("load_snapshot", "grid"): "checks a snapshot against the grid of the run that reads "
                               "it; resuming a run (ROADMAP item 8) will pass it, as it "
                               "will call load_snapshot, which is waived above",
}


def _defaulted(library):
    """(module, line, function, position, parameter) of each defaulted parameter
    of a public top-level function, position None for a keyword-only one."""
    found = []
    for module, tree in library.items():
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or node.name.startswith("_")):
                continue
            positional = node.args.posonlyargs + node.args.args
            first = len(positional) - len(node.args.defaults)
            found += [(module, node.lineno, node.name, i, arg.arg)
                      for i, arg in enumerate(positional) if i >= first]
            found += [(module, node.lineno, node.name, None, arg.arg)
                      for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
                      if default is not None]
    return found


def _passes(call, position, parameter):
    """Whether a call passes the parameter: by keyword, by position, or through
    a *args or **kwargs whose contents the scan cannot see."""
    if any(keyword.arg in (parameter, None) for keyword in call.keywords):
        return True
    if position is None:
        return False
    return (len(call.args) > position
            or any(isinstance(arg, ast.Starred) for arg in call.args))


def _unpassed_defaults(library, others):
    """(module, line, function, parameter) of each defaulted parameter of a
    public library function that no call in the library or in others passes;
    a call names the function by name or attribute."""
    calls = {}
    for tree in list(library.values()) + list(others):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    return [(module, line, function, parameter)
            for module, line, function, position, parameter in _defaulted(library)
            if not any(_passes(call, position, parameter) for call in calls.get(function, ()))]


def test_every_default_is_passed_or_waived():
    # a default that no caller changes is a constant written as a parameter
    outside = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    others = [ast.parse(path.read_text(), filename=str(path)) for path in outside]
    unpassed = _unpassed_defaults(dict(_sources()), others)
    stray = [f"{module}:{line} {function}'s {parameter} is never passed outside the tests"
             for module, line, function, parameter in unpassed
             if (function, parameter) not in DEFAULT_WAIVERS]
    assert not stray, stray
    assert sorted((f, p) for _, _, f, p in unpassed) == sorted(DEFAULT_WAIVERS), "stale waiver"


def test_default_scan_sees_keywords_positions_and_unpacking():
    library = {"forms.py": ast.parse("""
def by_keyword(a, kmax=2):
    return by_position(a, 3) + by_keyword(a, kmax=1)
def by_position(a, b=1, c=2):
    return starred(*a) + double_starred(**a)
def starred(a, b=1, *, c=2):
    pass
def double_starred(a, *, b=1):
    pass
def never(a, h=1e-5):
    return x.keyword_only(a)
def keyword_only(a, *, tol=1e-8):
    pass
def _private(a, b=1):
    pass
class Grid:
    def method(self, b=1):
        pass
""")}
    others = [ast.parse("x.keyword_only(1, 2)\n")]
    assert _unpassed_defaults(library, others) == [
        ("forms.py", 4, "by_position", "c"), ("forms.py", 6, "starred", "c"),
        ("forms.py", 10, "never", "h"), ("forms.py", 12, "keyword_only", "tol")]


def _bad_field(grid):
    bad = np.ones((grid.n, grid.n))
    bad[1, 2] = np.nan
    return bad


def _bad_snapshot(grid, bad, tmp_path):
    fields = {key: np.ones_like(bad).tolist() for key in ("u", "lam", "p", "q")}
    fields["p"] = (bad - 1.0).tolist()
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"format": SNAPSHOT_FORMAT, "conventions": CONVENTIONS_VERSION,
                                "n": grid.n, **fields}))
    return load_snapshot(str(path))


BOUNDARIES = {
    "MetricState": lambda grid, bad, _: MetricState(grid, 1.0, bad, 0.0, 0.0),
    "MetricState.with_fields": lambda grid, bad, _: MetricState.constant(
        grid, 1.0, 1.0).with_fields(np.stack((np.ones_like(bad), bad, np.zeros_like(bad)))),
    "InvariantForm": lambda grid, bad, _: InvariantForm(grid, 1, np.stack((bad,) * 4)),
    "InvariantForm.__mul__": lambda grid, bad, _: coframe(grid, 0) * bad,
    "BaseGrid.derivative": lambda grid, bad, _: grid.derivative(bad),
    "BaseGrid.integral": lambda grid, bad, _: grid.integral(bad),
    "load_snapshot": _bad_snapshot,
}


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_each_boundary_rejects_nonfinite(boundary, tmp_path):
    # a snapshot is outside input, so its non-finite value is a ConfigError
    # that names the file, like every other malformed snapshot
    grid = BaseGrid(8)
    error = ConfigError if boundary == "load_snapshot" else NonFiniteFieldError
    with pytest.raises(error, match=r"non-finite at grid index \(.*1, 2\)"):
        BOUNDARIES[boundary](grid, _bad_field(grid), tmp_path)
