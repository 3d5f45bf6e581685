"""Taylor-Green anchors for the spectral flow solver.

The cellular field u = (sin x1 cos x2, -cos x1 sin x2) is a steady Euler
solution and decays as exp(-2 nu t) under viscosity, giving closed-form
checks of the integrator, the energy bookkeeping, and the velocity gap.
"""

import math

import numpy as np

from loglimit import GridSpec, SolverConfig, gap_l2, run, taylor_green_velocity
from loglimit.flow import energy_identity_terms

grid = GridSpec(64)
u0 = taylor_green_velocity(grid)
T = 1.0

print("== inviscid run: exact steady state ==")
res_e = run(u0, SolverConfig(grid=grid, nu=0.0, horizon=T, min_samples=50))
drift = abs(res_e.series.energy[-1] - res_e.series.energy[0]) / res_e.series.energy[0]
print(f"  energy drift over T = {T}: {drift:.2e}")

print("\n== viscous run: exact exponential decay ==")
nu = 1e-2
res_n = run(u0, SolverConfig(grid=grid, nu=nu, horizon=T, min_samples=50))
worst = 0.0
for s in res_n.states:
    expected = math.exp(-2 * nu * s.time)
    u = s.velocity
    measured = math.sqrt(2 * 0.5 * np.sum(u.u1.values**2 + u.u2.values**2)
                         * grid.cell_volume) / (math.pi * math.sqrt(2))
    worst = max(worst, abs(measured - expected))
print(f"  max deviation of ||u(t)|| / ||u0|| from exp(-2 nu t): {worst:.2e}")

print("\n== velocity gap against the closed form ==")
print("      t      measured gap   pi sqrt2 (1 - exp(-2 nu t))")
for s_n, s_e in zip(res_n.states[::10], res_e.states[::10]):
    gap = gap_l2(s_n, s_e)
    exact = math.pi * math.sqrt(2) * (1 - math.exp(-2 * nu * s_n.time))
    print(f"  {s_n.time:6.2f} {gap:14.9f} {exact:14.9f}")

print("\n== energy-difference identity, term by term ==")
terms = energy_identity_terms(res_n, res_e)
print(f"  max |d/dt half-gap^2| : {np.abs(terms.ddt_half_gap_sq).max():.3e}")
print(f"  max |advection term|  : {np.abs(terms.advection).max():.3e}  (zero for this pair)")
print(f"  max |viscous term|    : {np.abs(terms.viscous).max():.3e}")
print(f"  max |residual|        : {np.abs(terms.residual).max():.3e}")
