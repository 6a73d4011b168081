"""The built-in parallelogram leg: equation accounting and tip stiffness.

One leg is a five-beam parallelogram linkage: two coaxial base cranks (one
driven through an elastic motor transmission, one on a passive pivot), a
coupler, and a distal bar split where the second crank pins on, extended to
the tip. Ten nodes give 120 unknowns; links, joints, boundary conditions
and the tip load rows close the 120-equation system.
"""
import numpy as np

import msakit

leg = msakit.build_navaro_leg()
system = leg.assemble()

print("unknowns:", system.shape[1], "equations:", system.shape[0])
print("row classes:", system.block_row_counts())
print("per component:")
for source, rows in system.rows_by_source().items():
    print(f"  {source:16s} {rows:3d} rows")

report = leg.check()
print("\ncheck:", report.summary())

result = leg.cartesian_stiffness()
# Internal block after holding the tip: square and regular.
print("internal block:", result.diagnostics.a_size, "rows, rank", result.diagnostics.a_rank)
print("\ntip stiffness rank:", result.diagnostics.kc_rank,
      "(one parallelogram freedom is only motor-sprung)")
print("free direction at the tip:",
      np.round(result.diagnostics.mechanism_directions[0], 3))
print("eigenvalues:", np.round(np.linalg.eigvalsh(result.kc), 1))

# Stiffer motor transmission stiffens the sprung direction.
for ke in (5e3, 1e4, 2e4):
    params = msakit.NavaroParams(motor_stiffness=ke)
    kc = msakit.build_navaro_leg(params).cartesian_stiffness().kc
    print(f"motor stiffness {ke:8.0f} N*m/rad -> tip torsion entry {kc[5, 5]:10.1f}")
