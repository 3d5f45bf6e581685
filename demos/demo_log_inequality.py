"""The logarithmic duality inequality on the fixed corpus.

For pairs (f, g) of corpus fields the trial records

    |int f g|  vs  ||f||_BMO ||g||_L1 [ |ln ||g||_L1| + ln(1 + ||g||_inf) ],

and the empirical ratio of the two sides.  The scan refines the grid and
watches the largest ratio: boundedness under refinement is the whole claim,
no numeric constant is asserted.  The second half exercises the Riesz-L1
versus L ln L bound on the unit-mass indicator family.
"""

from loglimit import GridSpec, scan_corpus, zygmund_family_scan

print("== corpus scan (sizes 16, 32, 64) ==")
scan = scan_corpus(sizes=(16, 32, 64))
for n in scan.sizes:
    print(f"  size {n:3d}: max ratio {scan.max_ratio_by_size[n]:.6f}, "
          f"duality-layer constant {scan.duality_max_by_size[n]:.6f}")
print(f"  refinement log-slope of the max ratio: {scan.ratio_slope:+.2e}")
print("  ratio by family:")
for family, value in sorted(scan.max_ratio_by_family.items()):
    print(f"    {family:12s} {value:.4f}")

print("\n== Riesz L1 against the Zygmund functional ==")
fam = zygmund_family_scan(GridSpec(128))
print("  N_eff    llogl    ||R1 h||_L1   bound")
for t in fam["trials"]:
    n_eff = 1.0 / t.support
    print(f"  {n_eff:7.2f} {t.llogl:8.4f} {t.riesz_l1[0]:10.4f} {t.bound:10.4f}")
print(f"  corpus constant C0 = {fam['c0']:.4f}")
print(f"  growth slopes vs ln N: riesz {fam['riesz_slopes'][1]:.3f} "
      f"(about 1/pi from the kernel), llogl {fam['slope_llogl']:.3f}")
