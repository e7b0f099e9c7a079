"""Probabilistic-unitary description of open quantum system dynamics.

Decomposes density-matrix trajectories into a driving Hamiltonian plus
probabilistically applied unitaries, simulates the resulting stochastic
control scheme, and decomposes finite-time channels into a
mixed-unitary / Kraus-like form.
"""

from .channel import (
    ChannelDecomposition,
    KrausLikeForm,
    apply_decomposition,
    decompose_channel,
    to_kraus_like,
)
from .config import DEFAULT_TOLERANCES, Tolerances
from .decomposition import (
    DecompositionSeries,
    EigenframeSeries,
    TrajectorySample,
    align_eigenframes,
    build_hamiltonian,
    build_tilde_unitaries,
    compute_rates_at,
    decompose_trajectory,
    reconstruct_rhs,
)
from .errors import (
    NegativeRate,
    ProbUnitaryError,
    RefusesToSimulate,
    SingularChannel,
    StepTooLarge,
    TrajectoryTooCoarse,
    ValidationError,
)
from .linalg import (
    RateSolveResult,
    Spectrum,
    classify_circulant_singularity,
    hermitian_eigendecomposition,
    real_weyl,
    solve_circulant_rates,
    validate_density_matrix,
)
from .models import (
    MODEL_CATALOGUE,
    LindbladSpec,
    ModelParams,
    amplitude_damping_exact,
    amplitude_damping_spec,
    integrate,
    jc_rate,
    jc_reduced_state,
    lindblad_rhs,
    sample_model,
)
from .montecarlo import EnsembleResult, SimConfig, convergence_sweep, run_ensemble, step

__version__ = "0.1.0"
