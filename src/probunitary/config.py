"""Numerical thresholds, one module constant each.

The construction is exact while rho(t) is continuous and differentiable;
these thresholds judge that assumption and the checks around it.  Every
computation, command and test uses one setting of each, so each is a
constant that the modules import, not a parameter.
"""

# structural checks on density matrices
HERMITICITY = 1e-10
TRACE = 1e-10
PSD = 1e-10
# channel reconstruction check
RECONSTRUCTION = 1e-8
# circulant solver: the system is singular when the minimum DFT-symbol
# magnitude is below this fraction of the maximum
SINGULAR_SYMBOL = 1e-10
# eigenvalue gap below which a cluster is treated as degenerate
DEGENERACY_GAP = 1e-8
# rates more negative than this raise the negativity flag
RATE_NEGATIVITY = 1e-9
# minimum admissible adjacent-frame eigenvector overlap
OVERLAP_FLOOR = 0.9
