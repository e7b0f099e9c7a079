"""Centralized numerical tolerances.

All modules pull their default thresholds from a single frozen record so
that a tolerance change propagates consistently.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # structural checks on density matrices
    hermiticity: float = 1e-10
    trace: float = 1e-10
    psd: float = 1e-10
    # channel reconstruction check
    reconstruction: float = 1e-8
    # circulant solver: P deemed singular when the minimum DFT-symbol
    # magnitude is below this fraction of the maximum
    singular_symbol: float = 1e-10
    # eigenvalue gap below which a cluster is treated as degenerate
    degeneracy_gap: float = 1e-8
    # rates more negative than this raise the negativity flag
    rate_negativity: float = 1e-9
    # minimum admissible adjacent-frame eigenvector overlap
    overlap_floor: float = 0.9


DEFAULT_TOLERANCES = Tolerances()
