"""Numerical laboratory for invariant Hermitian metrics on a nilmanifold
surface with a free 2-torus symmetry, and for the metric flow
d/dt omega = -rho^(1,1) they satisfy.

Submodules
----------
invariant_forms     coframe calculus: wedge, d, J, contractions, base grid
hermitian_geometry  metric states, splitting data, Bismut curvature
vaisman_toolkit     structure defect reports and the two seed families
flow_engine         RK4 integration and conservation monitors
identities          the identity battery, one table of checks
cli_runner          config-driven experiment runner (console script `ktflow`)

Attribute access is lazy so that `import ktflow` stays cheap and the
command-line entry point can configure thread environment variables before
the numerical stack loads.  Only `errors`, which imports nothing, is loaded
eagerly.
"""

from . import errors

_EXPORTS = {
    "BaseGrid": "invariant_forms",
    "InvariantForm": "invariant_forms",
    "wedge": "invariant_forms",
    "exterior_d": "invariant_forms",
    "apply_J": "invariant_forms",
    "p11_projection": "invariant_forms",
    "contract": "invariant_forms",
    "base_integral": "invariant_forms",
    "MetricState": "hermitian_geometry",
    "MetricSplit": "hermitian_geometry",
    "CurvaturePackage": "hermitian_geometry",
    "metric_split": "hermitian_geometry",
    "lee_form": "hermitian_geometry",
    "bismut_torsion": "hermitian_geometry",
    "bismut_ricci": "hermitian_geometry",
    "characteristic_numbers": "hermitian_geometry",
    "DefectReport": "vaisman_toolkit",
    "assess": "vaisman_toolkit",
    "make_standard_vaisman": "vaisman_toolkit",
    "make_noncsc_vaisman": "vaisman_toolkit",
    "FlowConfig": "flow_engine",
    "FlowTrace": "flow_engine",
    "flow_rhs": "flow_engine",
    "step": "flow_engine",
    "run": "flow_engine",
    "conservation_monitors": "flow_engine",
    "ExperimentConfig": "cli_runner",
    "parse_config": "cli_runner",
    "run_experiment": "cli_runner",
    "identity_battery": "identities",
    "emit_csv": "cli_runner",
    "emit_snapshot": "cli_runner",
}

__all__ = sorted(_EXPORTS) + ["errors"]

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        import importlib
        module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
