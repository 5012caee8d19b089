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
errors              the exception hierarchy; it imports nothing

The package re-exports nothing: import names from their submodule, as in
`from ktflow.flow_engine import run`.  `import ktflow` loads no submodule.
"""

__version__ = "0.1.0"
