"""A small viscosity sweep end to end.

Pairs a zero-viscosity reference with runs at decreasing viscosity, measures
the sup-in-time L2 velocity gap, fits the empirical decay exponent, checks
the rate bound anchored at the largest viscosity, and couples the measured
coefficients into the majorant ODE.
"""

from loglimit import ExperimentConfig, run_sweep, sweep_majorization, verify_rate

cfg = ExperimentConfig(
    grid_points=32,
    horizon=0.5,
    nu_list=(1e-1, 1e-2, 1e-3),
    initial_condition_id="two_mode",
    min_samples=60,
)
print(f"initial condition: {cfg.initial_condition_id}, grid {cfg.grid_points}^2, T = {cfg.horizon}")
result = run_sweep(cfg, compute_norms=True)
s = result.series

print(f"\nmeasured regularity level M = sup_t (f0 + g0^2) = {s.M:.3f}")
print(f"theory exponent exp(-2MT) = {s.theory_exponent:.3e}")
print("\n   nu        sup gap")
for nu, sup in zip(s.nu, s.sup_gap):
    print(f"  {nu:8.0e} {sup:12.8f}")
print(f"\nfitted decay exponent rho = {s.fitted_exponent:.4f} (close to 1: the gap is linear in nu)")

rate = verify_rate(s)
print(f"rate bound with C anchored at nu = {s.nu.max():.0e}: "
      f"{'holds everywhere' if rate.passed else f'violated at {rate.violations}'}")

print("\nmajorant comparison (measured coefficients, 5 percent tolerance;")
print("max log excess = max_t log(x / (y (1 + tol))), at most 0 when majorized;")
print("the check integrates y only until no later sample can fail or raise it):")
for nu, rep in sweep_majorization(result, c_emp=5.58).items():
    verdict = "majorized" if rep.passed else f"violated at t = {rep.first_violation_time}"
    print(f"  nu = {nu:8.0e}: {verdict}, max log excess {rep.max_log_excess:.3f}, "
          f"checked until t = {rep.checked_until:.4g} "
          f"({rep.informative_samples} samples with x > 0)")
