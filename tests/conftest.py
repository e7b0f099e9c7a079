import numpy as np
import pytest

from probunitary.models import LindbladSpec


def random_density_matrix(rng, d, min_gap=0.0):
    """Random full-rank density matrix; optionally enforce an eigenvalue gap."""
    while True:
        p = rng.dirichlet(np.ones(d))
        p = np.sort(p)[::-1]
        if min_gap == 0.0 or np.diff(p).max(initial=-np.inf) < -min_gap:
            break
    u = random_unitary(rng, d)
    return u @ np.diag(p) @ u.conj().T


def random_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r))).conj()


def random_hermitian(rng, d, scale=1.0):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * (z + z.conj().T) / 2


def random_lindblad_spec(rng, d, jump_scale=0.3, gamma=1.0, n_jumps=1):
    """Random Hamiltonian (scale 1) plus n_jumps random Hermitian jump
    operators, each with rate gamma, drawn from rng in that order."""
    hamiltonian = random_hermitian(rng, d)
    jumps = tuple((random_hermitian(rng, d, jump_scale), gamma) for _ in range(n_jumps))
    return LindbladSpec(hamiltonian=hamiltonian, jump_ops=jumps)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
