"""The identity battery, one table of the structural identities of the
coframe calculus, the splitting, the Lee form and the Bismut curvature.

IDENTITIES lists the items in output order as (name, bound, families,
residual), the bound a number or a function of the resolution n.  An item's
value is its largest residual over the contexts of its families: "grid"
(once), "forms" (a pair of random forms for each of 9 pairs of degrees,
each form differentiated once), and stacks of four states of "general"
(every field varies), "lam_const", "constant" (constant coefficients),
"csc_seed" and "noncsc_seed" (the two seed families).  A stack goes
through the calculus as one state, so its residual is bitwise the largest
of its states'.  Each identity is checked along a route other than the one
the package computes it by.  The random states draw from
random.Random(seed) and the forms from a stream of their own; the
interpreter has loaded random before numpy, so a suite run never imports
numpy.random.  A sample's four fields, and a form's coefficients,
come from one random_band_limited call, one synthesis transform.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import cached_property

import numpy as np

from .hermitian_geometry import MetricState, inner_1forms
from .invariant_forms import (V1, V2, BaseGrid, apply_J, base_integral, basis_form,
                              coframe, contract, exterior_d, largest, random_band_limited,
                              random_form, wedge)
from .vaisman_toolkit import make_noncsc_vaisman, make_standard_vaisman, potential_residual


class BatteryItem:
    __slots__ = ("name", "value", "bound")

    def __init__(self, name, value, bound):
        self.name = name
        self.value = float(value)
        self.bound = float(bound)

    @property
    def ok(self):
        return self.value < self.bound

    def as_dict(self):
        return {"name": self.name, "max_residual": self.value,
                "bound": self.bound, "ok": self.ok}


# states per stack in the battery.  Against stacks of 2, the CPU of a suite run
# (fresh processes, 50 samples, two runs of 16 rounds, measured on the former
# draws through numpy-like calls) reads at n = 16, 32, 64:
# 3 states 0.78-0.83, 0.92-0.93, 0.97-0.98; 4 states 0.73-0.76, 0.84-0.92,
# 0.93-0.94; 5 states 0.64-0.70, 0.90-0.96, 0.99; 8 states 0.62-0.67,
# 0.87-0.92, 0.99-1.00.  Past 4 at n = 32 the heap starts trimming (minor
# faults 280-360 at 2, 850-1,630 at 4, 6,500-8,000 at 5) and the gain falls
# away, so 4 is the best fixed size from n = 16 to 64.  The tracemalloc peak of
# identity_battery(32, 50, 21) is 1.72, 2.09, 2.74, 3.48 and 4.88 MiB at 2, 3,
# 4, 5 and 8 states (re-measured with one synthesis transform a sample).
_BATTERY_STACK = 4


def _battery_states(grid, samples, seed):
    """(family, state) pairs, each state a stack of up to _BATTERY_STACK = 4 states.

    random.Random(seed) draws in the order of the state-by-state loop: per
    sample one random_band_limited call of four fields, the u, lam, p and q
    of a "general" state, then the lam of its "lam_const" twin; then the
    "constant" states, as (size, 1, 1) values that MetricState broadcasts,
    since a field stack kept here would add to the memory peak they set.
    Each family is stacked in draw order, four at a time, the last stack
    holding the 1 to 4 states left: about a quarter of the state calls of
    the state-by-state loop, and one synthesis transform a sample.
    """
    rng = random.Random(seed)
    for start in range(0, samples, _BATTERY_STACK):
        u, lam, p, q = grid.zeros(4, min(_BATTERY_STACK, samples - start))
        lam_const = []
        for i in range(len(u)):
            fields = random_band_limited(grid, rng, lead=(4,))
            u[i], lam[i] = 1.0 + 0.3 * fields[:2]
            p[i], q[i] = 0.2 * fields[2:]
            lam_const.append(1.0 + 0.5 * rng.random())
        yield "general", MetricState(grid, u, lam, p, q)
        yield "lam_const", MetricState(grid, u, np.array(lam_const)[:, None, None], p, q)
    constant = max(4, samples // 8)
    for start in range(0, constant, _BATTERY_STACK):
        values = []
        for _ in range(min(_BATTERY_STACK, constant - start)):
            u0 = math.exp(0.5 * rng.gauss(0.0, 1.0))
            lam0 = math.exp(0.5 * rng.gauss(0.0, 1.0))
            r = 0.8 * math.sqrt(u0 * lam0) * rng.random()
            ang = 2.0 * math.pi * rng.random()
            values.append((u0, lam0, r * math.cos(ang), r * math.sin(ang)))
        yield "constant", MetricState(grid, *np.array(values).T[..., None, None])
    seeds = {"csc_seed": [make_standard_vaisman(grid, scale) for scale in (1.0, 2.0)],
             "noncsc_seed": [make_noncsc_vaisman(grid, 0.1, mode) for mode in ((1, 1), (2, 1))]}
    for family, ms in seeds.items():
        yield family, MetricState(grid, *np.stack([(m.u, m.lam, m.p, m.q) for m in ms], 1))


class _Pair:
    """A pair of random forms, a and b, and their exterior derivatives, taken once."""

    def __init__(self, a, b):
        self.a, self.b = a, b

    @cached_property
    def da(self):
        return exterior_d(self.a)

    @cached_property
    def db(self):
        return exterior_d(self.b)


# the degrees (deg a, deg b) of the form pairs: every pair with d d a and
# d(a ^ b) defined, deg a <= 2 and deg a + deg b <= 3, so that each
# hygiene item sees every degree it can, whatever the draws
_FORM_DEGREES = tuple((p, q) for p in range(3) for q in range(4 - p))


def _calculus_contexts(grid, seed):
    """("grid", grid), then ("forms", (a, b)) of random forms for each of _FORM_DEGREES.

    They draw from random.Random(f"forms {seed}"), which seeds with the
    string's bytes and their SHA-512, an integer of over 500 bits that no
    practical state seed equals, so adjacent seeds' suites share no draws.
    """
    yield "grid", grid
    rng = random.Random(f"forms {seed}")
    # products of two forms reach mode 2 kmax, kept below the Nyquist mode n/2
    # whose derivative symbols are zero: kmax 1 at n = 8, 2 from n = 16
    kmax = min(2, (grid.n // 2 - 1) // 2)
    for p, q in _FORM_DEGREES:
        a = random_form(grid, rng, p, kmax=kmax)
        yield "forms", _Pair(a, random_form(grid, rng, q, kmax=kmax))


class _Stack:
    """A stack of battery states, m, and the forms several identities read, built once."""

    def __init__(self, m):
        self.m = m      # which caches its own split and theta

    @cached_property
    def omega(self):
        return self.m.omega()

    @cached_property
    def d_omega(self):
        return exterior_d(self.omega)

    @cached_property
    def d_mu(self):
        return exterior_d(self.m.split.mu1), exterior_d(self.m.split.mu2)


def _peak(values):
    return largest(np.abs(values))


def _on_e12(form, field):
    """max |form - field e1^e2| by rows: e1^e2 against field, the other five against zero."""
    return _worst(_peak(form.coeffs[0] - field), _peak(form.coeffs[1:]))


def _worst(*residuals):
    """The largest residual, or nan if one is nan, which the builtin max can drop."""
    return math.nan if any(map(math.isnan, residuals)) else max(residuals)


def _derivative_exactness(grid):
    f = np.sin(2.0 * np.pi * grid.xx) * np.cos(4.0 * np.pi * grid.yy)
    fx = 2.0 * np.pi * np.cos(2.0 * np.pi * grid.xx) * np.cos(4.0 * np.pi * grid.yy)
    fy = -4.0 * np.pi * np.sin(2.0 * np.pi * grid.xx) * np.sin(4.0 * np.pi * grid.yy)
    return _peak(grid.derivative(f) - np.stack((fx, fy)))


def _ricci_velocity(s):
    c12, c13, c14, c23, c24, c34 = s.m.curvature.rho11.coeffs
    du, dp, dq = s.m.velocity
    return _worst(*map(_peak, (du + c12, dp + c13, dq + c14, c34, c13 - c24, c14 + c23)))


_STATES = ("general", "lam_const", "constant", "csc_seed", "noncsc_seed")
_LAM_CONSTANT = _STATES[1:]
_SEEDS = ("csc_seed", "noncsc_seed")

IDENTITIES = (
    # a fixed input, so one residual per n: 3.6e-15, 2.8e-14, 4.6e-14, 1.2e-13, 2.1e-13,
    # 3.9e-13, 1.66e-12, 2.41e-12 and 4.94e-12 at n = 8..2048, about linear from
    # n = 256; the bound is 1e-12 up to n = 256, and the slope 3.9e-15 n past it
    ("spectral derivative exactness", lambda n: max(1e-12, 3.9e-15 * n), ("grid",),
     _derivative_exactness),
    ("structure equation", 1e-14, ("grid",),
     lambda grid: (exterior_d(coframe(grid, 2)) + basis_form(grid, (0, 1))).max_abs()),
    ("exterior nilpotency", 1e-10, ("forms",), lambda f: exterior_d(f.da).max_abs()),
    ("leibniz rule", 1e-10, ("forms",),
     lambda f: (exterior_d(wedge(f.a, f.b))
                - (wedge(f.da, f.b) + wedge(f.a, f.db) * (-1.0) ** f.a.degree)).max_abs()),
    ("complex structure squares", 1e-14, ("forms",),
     lambda f: (apply_J(apply_J(f.a)) - f.a * (-1.0) ** f.a.degree).max_abs()),
    ("wedge graded symmetry", 1e-14, ("forms",),
     lambda f: (wedge(f.a, f.b)
                - wedge(f.b, f.a) * (-1.0) ** (f.a.degree * f.b.degree)).max_abs()),
    # the closed-form split against mu1 = -(1/lam) V2 . omega, mu2 = (1/lam) V1 . omega
    ("connection forms by contraction", 1e-12, _STATES,
     lambda s: _worst((s.m.split.mu1 + contract(V2, s.omega) * s.m.lam_data.inv).max_abs(),
                      (s.m.split.mu2 - contract(V1, s.omega) * s.m.lam_data.inv).max_abs())),
    # d(mu_i) = sigma_i omega_check = sigma_i w_check e1^e2 with exterior_d
    ("first curvature ratio", 1e-12, _STATES,
     lambda s: _on_e12(s.d_mu[0], s.m.split.w_check * s.m.split.sigma1)),
    ("second curvature ratio", 1e-12, _STATES,
     lambda s: _on_e12(s.d_mu[1], s.m.split.w_check * s.m.split.sigma2)),
    ("state reassembly", 1e-12, _STATES,
     lambda s: (s.omega - (s.m.split.omega_check
                           + wedge(s.m.split.mu1, s.m.split.mu2) * s.m.lam)).max_abs()),
    ("characteristic numbers", 1e-12, _STATES,
     lambda s: _worst(_peak(base_integral(s.d_mu[0]) + 1.0),
                      _peak(base_integral(s.d_mu[1])))),
    # theta against theta ^ omega = d omega
    ("lee form defining property", 1e-12, _STATES,
     lambda s: (wedge(s.m.theta, s.omega) - s.d_omega).max_abs()),
    ("lee form formula", 1e-12, _LAM_CONSTANT,
     lambda s: (s.m.theta - (s.m.split.mu2 * (s.m.lam * s.m.split.sigma1)
                             + s.m.split.mu1 * (-s.m.lam * s.m.split.sigma2))).max_abs()),
    # |theta|^2 = lam (sigma1^2 + sigma2^2) on lam-constant states: theta and sigma are
    # first derivatives, and on the lam_const family the rounding gap grows about as n
    # (the constant family stays near 1.4e-14), worst over seeds 0-99 (50 samples)
    # 2.8e-14, 3.2e-14, 7.5e-14, 1.6e-13, 4.0e-13, 9.9e-13 at n = 8..256, 16 to 30
    # times below the bound; capped at the former fixed 1e-10
    ("lee norm identity", lambda n: min(6e-14 * n, 1e-10), _LAM_CONSTANT,
     lambda s: _peak(inner_1forms(s.m, s.m.theta, s.m.theta)
                     - s.m.lam * (s.m.split.sigma1 ** 2 + s.m.split.sigma2 ** 2))),
    # d H = -(lam_xx + lam_yy) e1^e2^e3^e4 for the torsion H = -J d omega, against
    # m.lam_data.laplacian: on |d H| up to about 80 the rounding gap grows about linearly
    # in n, worst over seeds 0-99 (50 samples) 5.0e-14, 7.1e-14, 1.4e-13, 2.8e-13,
    # 7.0e-13, 1.6e-12 at n = 8..256, at most 0.31 of the bound
    ("torsion closure", lambda n: 2e-14 * n, ("general",),
     lambda s: _peak(exterior_d(-1.0 * apply_J(s.d_omega)).coeffs[0] + s.m.lam_data.laplacian)),
    ("potential identity", 1e-12, ("constant", "csc_seed"), lambda s: potential_residual(s.m)),
    # rho = s omega_check; rho and s are second derivatives, and the seeds do not depend on
    # the battery's seed: 9.9e-16, 4.6e-15, 2.0e-14, 1.3e-13, 4.4e-13, 2.3e-12 at n = 8..256
    ("transverse ricci", lambda n: 5e-16 * n * n, _SEEDS,
     lambda s: _on_e12(s.m.curvature.rho, s.m.split.w_check * s.m.curvature.s)),
    # m.velocity, -d11 of the flow's alpha, against rho^(1,1) = p11_projection(d alpha):
    # -(du, dp, dq) on (e12, e13, e14), paired as omega is (e13 = e24, e14 = -e23), no e34
    ("ricci (1,1) velocity", 1e-12, _SEEDS, _ricci_velocity),
)


def _maxima(entries, contexts, n):
    """A BatteryItem per entry: its largest residual over the contexts of its families.

    A nan residual makes the item's value nan, so the item fails.
    """
    values = [0.0] * len(entries)
    for family, context in contexts:
        for i, (_, _, families, residual) in enumerate(entries):
            if family in families:
                values[i] = _worst(values[i], residual(context))
    return [BatteryItem(name, value, bound(n) if callable(bound) else bound)
            for (name, bound, _, _), value in zip(entries, values)]


def identity_battery(n, samples, seed):
    """Every item of IDENTITIES at resolution n, as a list of BatteryItem."""
    grid = BaseGrid(n)
    stacks = ((family, _Stack(m)) for family, m in _battery_states(grid, samples, seed))
    return _maxima(IDENTITIES, itertools.chain(_calculus_contexts(grid, seed), stacks), n)


def _print_battery(items, stream):
    width = max(len(item.name) for item in items)
    for item in items:
        stream.write(f"{'PASS' if item.ok else 'FAIL'}  {item.name:<{width}}  max residual"
                     f" {item.value:10.3e}  (bound {item.bound:.2g})\n")
    failed = [item.name for item in items if not item.ok]
    stream.write(f"{len(items) - len(failed)}/{len(items)} identities pass\n")
    if failed:
        stream.write("failed: " + ", ".join(failed) + "\n")
