"""Trajectory sources: closed-form qubit examples and a generic
Lindblad equation, propagated exactly on the grid by the exponential of
its Liouvillian.

The resonant vacuum Jaynes-Cummings reduced qubit and the spontaneously
decaying two-level atom have closed-form populations and closed-form
jump rates, which the decomposition pipeline is regressed against.  The
Jaynes-Cummings reduced state is not generated by any time-independent
Lindblad equation; it is produced directly from its closed form, never
through the integrator.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .config import HERMITICITY
from .decomposition import Trajectory, _checked_grid
from .errors import ValidationError
from .linalg import _finite_real, _named_eigh, _numeric_array, _shown, expm

__all__ = [
    "LindbladSpec",
    "ModelParams",
    "MODEL_CATALOGUE",
    "jc_reduced_state",
    "jc_rate",
    "amplitude_damping_exact",
    "amplitude_damping_spec",
    "lindblad_rhs",
    "integrate",
    "sample_model",
]

SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)


@dataclass(frozen=True)
class LindbladSpec:
    """Hamiltonian plus jump operators (L_i, gamma_i), hbar = 1, kept as complex
    arrays; any iterable of pairs is kept as a tuple, a bad entry named jump_ops[k]."""

    hamiltonian: np.ndarray
    jump_ops: tuple = ()

    def __post_init__(self):
        h = _numeric_array(self.hamiltonian, complex, "hamiltonian: not a numeric matrix")
        if not (h.ndim == 2 and 0 < h.shape[0] == h.shape[1] and np.isfinite(h).all()):
            raise ValidationError(
                f"Lindblad Hamiltonian must be a finite square matrix, got shape {h.shape}")
        if np.max(np.abs(h - h.conj().T)) > HERMITICITY:
            raise ValidationError("Lindblad Hamiltonian must be Hermitian")
        if not isinstance(self.jump_ops, Iterable):
            raise ValidationError(f"jump_ops must hold (operator, gamma) pairs, got {self.jump_ops!r}")
        pairs = []
        for k, entry in enumerate(self.jump_ops):
            where = f"jump_ops[{k}]"
            if not (isinstance(entry, (tuple, list)) and len(entry) == 2):
                raise ValidationError(f"{where}: entries must be (operator, gamma) pairs")
            op, gamma = entry
            op = _numeric_array(op, complex, f"{where}: not a numeric matrix")
            if op.shape != h.shape:
                raise ValidationError(f"{where}: jump operator dimension mismatch")
            if not np.isfinite(op).all():
                raise ValidationError(f"{where}: jump operators must be finite")
            if not (_finite_real(gamma) and gamma >= 0):
                raise ValidationError(f"{where}: jump rates must be finite nonnegative numbers, "
                                      f"got gamma {_shown(gamma)}")
            pairs.append((op, gamma))
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "jump_ops", tuple(pairs))


def _check_positive(what: str, *values) -> None:
    """ValidationError "<what> must be finite and positive" unless every
    value is a real number (not a bool) in (0, inf)."""
    if not all(_finite_real(v) and v > 0 for v in values):
        raise ValidationError(f"{what} must be finite and positive, got "
                              + ", ".join(map(_shown, values)))


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the built-in qubit models."""

    omega: float = 1.0           # Rabi / interaction strength
    gamma: float = 1.0           # vacuum decay rate

    def __post_init__(self):
        _check_positive("omega and gamma", self.omega, self.gamma)


MODEL_CATALOGUE = {
    "jc": {
        "description": "resonant vacuum Jaynes-Cummings reduced qubit, "
        "initially excited",
        "params": ["omega"],
    },
    "amplitude-damping": {
        "description": "two-level atom decaying into the vacuum, "
        "initially excited",
        "params": ["gamma"],
    },
    "lindblad": {
        "description": "generic Lindblad equation (spec supplied as JSON), "
        "propagated exactly on the grid by integrate, its Liouvillian exponential",
        "params": ["spec-file"],
    },
}


def _diagonal_qubit_states(upper, times) -> np.ndarray:
    """diag(upper(t), 1 - upper(t)) on every time, shape (n, 2, 2).  The
    population ``upper`` is evaluated on math scalars, one time at a
    time: numpy's exp and cos may differ from math's in the last ulp."""
    rule = "time must be finite and nonnegative"
    times = _numeric_array(times, float, rule)
    if not np.all((times >= 0) & (times < math.inf)):
        raise ValidationError(rule)
    top = np.array([upper(t) for t in times.tolist()], dtype=float)
    rhos = np.zeros((times.size, 2, 2), dtype=complex)
    rhos[:, 0, 0] = top
    rhos[:, 1, 1] = 1 - top
    return rhos


def _jc_angle(what: str, omega: float, t: float) -> float:
    """omega * t; ValidationError when the product overflows to inf."""
    angle = omega * t
    if angle == math.inf:
        raise ValidationError(f"{what} omega * t overflows: {omega!r} * {t!r}")
    return angle


def _jc_states(omega: float, times) -> np.ndarray:
    _check_positive("omega", omega)
    return _diagonal_qubit_states(lambda t: math.cos(_jc_angle("jc", omega, t) / 2) ** 2, times)


def _amplitude_damping_states(gamma: float, times) -> np.ndarray:
    _check_positive("gamma", gamma)
    return _diagonal_qubit_states(lambda t: math.exp(-gamma * t), times)


def jc_reduced_state(omega: float, t: float) -> np.ndarray:
    """Reduced atom state diag(cos^2(omega t / 2), sin^2(omega t / 2))."""
    return _jc_states(omega, [t])[0]


def jc_rate(omega: float, t: float) -> float:
    """Closed-form jump rate (omega/2) tan(omega t).

    Returns inf at the singular times omega*t = pi/2 mod pi, where the
    rate blows up but the dynamics stays finite.  ``omega`` must be
    finite and positive and ``t`` finite and nonnegative.
    """
    _check_positive("jc_rate omega", omega)
    if not (_finite_real(t) and t >= 0):
        raise ValidationError(f"jc_rate needs a finite time t >= 0, got {_shown(t)}")
    angle = _jc_angle("jc_rate", omega, t)
    if abs(math.cos(angle)) < 1e-12:
        return math.inf
    return 0.5 * omega * math.tan(angle)


def amplitude_damping_exact(gamma: float, t: float) -> np.ndarray:
    """Populations diag(e^{-gamma t}, 1 - e^{-gamma t}) of the decaying atom."""
    return _amplitude_damping_states(gamma, [t])[0]


def amplitude_damping_spec(gamma: float) -> LindbladSpec:
    """The decaying atom with unit level splitting, H = sigma_z / 2."""
    return LindbladSpec(hamiltonian=SIGMA_Z / 2, jump_ops=((SIGMA_MINUS, gamma),))


def lindblad_rhs(spec: LindbladSpec, rho) -> np.ndarray:
    """Right-hand side of the Lindblad equation (traceless, Hermitian)."""
    rho = _numeric_array(rho, complex, "state is not a numeric matrix")
    if rho.shape != spec.hamiltonian.shape:
        raise ValidationError("state and Hamiltonian dimensions differ")
    return (_liouvillian(spec) @ rho.reshape(-1)).reshape(rho.shape)


def _liouvillian(spec: LindbladSpec) -> np.ndarray:
    """The d^2 x d^2 generator acting on row-major vec(rho), using
    vec(A rho B) = (A kron B^T) vec(rho)."""
    h = spec.hamiltonian
    eye = np.eye(h.shape[0])
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for op, gamma in spec.jump_ops:
        anti = op.conj().T @ op
        gen += gamma * (
            np.kron(op, op.conj()) - 0.5 * np.kron(anti, eye) - 0.5 * np.kron(eye, anti.T)
        )
    return gen


def integrate(spec: LindbladSpec, rho0, grid) -> Trajectory:
    """Propagate the Lindblad equation exactly on a time grid.

    Each step applies exp(L dt) to the state before, from one exponential
    of the stacked distinct spacings L dt, L the Liouvillian; the states
    are then rehermitized and renormalized.  The first state is rho0 as
    given, which must be a density matrix of the Hamiltonian's shape
    (ValidationError otherwise, its message prefixed "rho0: ").
    """
    grid = _checked_grid(grid)
    rho0 = _named_eigh("rho0", rho0)[0]
    if rho0.shape != spec.hamiltonian.shape:
        raise ValidationError("rho0: state and Hamiltonian dimensions differ")
    spacings, step_of = np.unique(np.diff(grid), return_inverse=True)
    propagators = expm(_liouvillian(spec) * spacings[:, None, None])
    vec = np.empty((grid.size, rho0.size), dtype=complex)
    vec[0] = rho0.reshape(-1)
    for k, j in enumerate(step_of):
        vec[k + 1] = propagators[j] @ vec[k]
    rhos = vec.reshape(-1, *rho0.shape)
    rhos[1:] = (rhos[1:] + rhos[1:].conj().transpose(0, 2, 1)) / 2
    rhos[1:] /= np.einsum("kii->k", rhos[1:]).real[:, None, None]
    return Trajectory(times=grid, rhos=rhos)


def sample_model(name: str, grid, params: ModelParams | None = None) -> Trajectory:
    """The trajectory of a closed-form catalogue model, "jc" or
    "amplitude-damping", on a time grid.  A Lindblad spec runs through
    integrate(spec, rho0, grid) instead."""
    grid = _checked_grid(grid)
    params = params or ModelParams()
    if name == "jc":
        return Trajectory(times=grid, rhos=_jc_states(params.omega, grid))
    if name == "amplitude-damping":
        return Trajectory(times=grid, rhos=_amplitude_damping_states(params.gamma, grid))
    if name == "lindblad":
        raise ValidationError("the lindblad model has no closed form; run its spec "
                              "through integrate(spec, rho0, grid)")
    raise ValidationError(f"unknown model {name!r}")
