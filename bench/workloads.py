"""Benchmark workloads: deterministic input generators and the CLI calls
each workload makes.

Every workload is built from one integer seed.  The program under test
only ever sees the files written here and the argument lists returned by
``Workload.argv``; the generators never call into ``probunitary``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from checks import check_channel, check_decompose, check_ensemble, lindblad_reference

# ensemble-ad: 500 steps of the decaying atom, horizon below ln 2
AD_GAMMA = 1.0
AD_DT = 1e-3
AD_HORIZON = 0.5
AD_TRAJECTORIES = 5000
AD_WARMUP_TRAJECTORIES = 100

# decompose-unital6: d = 6 unital Lindblad spec on 2501 grid points
UNITAL_DIM = 6
UNITAL_DT = 1e-3
UNITAL_HORIZON = 2.5
UNITAL_WARMUP_HORIZON = 0.1

# channel-pairs: many small requests, d uniform in 2..6
CHANNEL_PAIRS = 1500
CHANNEL_MIN_GAP = 1e-2


def matrix_doc(m) -> list:
    """The CLI's [re, im] row-major matrix encoding (repr floats round-trip)."""
    return [[[float(e.real), float(e.imag)] for e in row] for row in np.asarray(m)]


def random_unitary(rng, d):
    """Haar-distributed unitary (QR of a complex Ginibre matrix, phase-fixed)."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r))).conj()


def random_hermitian(rng, d, scale=1.0):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * (z + z.conj().T) / 2


def random_gapped_state(rng, d, min_gap):
    """Full-rank density matrix whose sorted eigenvalues differ by > min_gap."""
    while True:
        p = np.sort(rng.dirichlet(np.ones(d)))[::-1]
        if np.diff(p).max() < -min_gap:
            break
    u = random_unitary(rng, d)
    return u @ np.diag(p) @ u.conj().T


def unital_spec(seed: int) -> dict:
    """Random H (scale 1), one Hermitian jump op (scale 0.3, gamma 1) and a
    full-rank rho0 with spectrum proportional to linspace(2, 0.2, d)."""
    rng = np.random.default_rng([seed, 6])
    d = UNITAL_DIM
    h = random_hermitian(rng, d, 1.0)
    jump = random_hermitian(rng, d, 0.3)
    p = np.linspace(2.0, 0.2, d)
    p /= p.sum()
    u = random_unitary(rng, d)
    rho0 = u @ np.diag(p) @ u.conj().T
    rho0 = (rho0 + rho0.conj().T) / 2
    return {"hamiltonian": h, "jump": jump, "gamma": 1.0, "rho0": rho0}


def channel_pairs(seed: int, n: int = CHANNEL_PAIRS) -> list:
    """Pairs (rho_in, rho_out) with rho_out a Dirichlet(1,1,1) mixture of
    three Haar conjugations of rho_in, so every pair is mixed-unitary."""
    rng = np.random.default_rng([seed, 2])
    pairs = []
    for _ in range(n):
        d = int(rng.integers(2, 7))
        rho_in = random_gapped_state(rng, d, CHANNEL_MIN_GAP)
        rho_out = np.zeros((d, d), dtype=complex)
        for w in rng.dirichlet(np.ones(3)):
            u = random_unitary(rng, d)
            rho_out += w * u @ rho_in @ u.conj().T
        pairs.append((rho_in, (rho_out + rho_out.conj().T) / 2))
    return pairs


def simulate_seed(seed: int, i: int) -> int:
    return int(np.random.default_rng([seed, 1, i]).integers(2**31))


class Workload:
    """One named workload: its inputs on disk, its calls and their checks.

    ``argv(i, out)`` is the i-th call (calls cycle through the distinct
    ones) and ``check(i, out)`` the correctness check of its outputs, which
    raises CheckFailed.  Every call does ``work_per_call`` units of work.
    ``warmup_argv(out)`` is a small call on the same code paths, made once
    before timing starts.
    """

    name = ""
    distinct_calls = 1
    work_per_call = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)

    def warmup_argv(self, out):
        return self.argv(0, out)


class EnsembleAD(Workload):
    name = "ensemble-ad"
    work_per_call = AD_TRAJECTORIES * round(AD_HORIZON / AD_DT)  # trajectory-steps

    def argv(self, i, out, trajectories=AD_TRAJECTORIES):
        return [
            "simulate", "--model", "amplitude-damping",
            "--gamma", repr(AD_GAMMA), "--dt", repr(AD_DT),
            "--horizon", repr(AD_HORIZON),
            "--trajectories", str(trajectories),
            "--seed", str(simulate_seed(self.seed, i)),
            "--out", out,
        ]

    def warmup_argv(self, out):
        return self.argv(0, out, AD_WARMUP_TRAJECTORIES)

    def check(self, i, out):
        return check_ensemble(f"{out}.ensemble.csv", AD_GAMMA, AD_DT, AD_HORIZON)


class DecomposeUnital6(Workload):
    name = "decompose-unital6"
    n_points = round(UNITAL_HORIZON / UNITAL_DT) + 1
    work_per_call = n_points  # grid points

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.spec = unital_spec(seed)
        self.spec_path = self.workdir / "spec.json"
        doc = {
            "hamiltonian": matrix_doc(self.spec["hamiltonian"]),
            "jump_ops": [
                {"operator": matrix_doc(self.spec["jump"]), "gamma": self.spec["gamma"]}
            ],
            "rho0": matrix_doc(self.spec["rho0"]),
        }
        self.spec_path.write_text(json.dumps(doc), encoding="utf-8")
        self.reference = None

    def argv(self, i, out, horizon=UNITAL_HORIZON):
        return [
            "decompose", "--model", "lindblad",
            "--lindblad-spec", str(self.spec_path),
            "--dt", repr(UNITAL_DT), "--horizon", repr(horizon),
            "--out", out,
        ]

    def warmup_argv(self, out):
        return self.argv(0, out, UNITAL_WARMUP_HORIZON)

    def check(self, i, out):
        if self.reference is None:
            self.reference = lindblad_reference(self.spec, UNITAL_DT, self.n_points)
        return check_decompose(out, self.reference, UNITAL_DT)


class ChannelPairs(Workload):
    name = "channel-pairs"
    distinct_calls = CHANNEL_PAIRS  # work_per_call is one pair

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.pairs = channel_pairs(seed)
        self.paths = []
        for j, (rho_in, rho_out) in enumerate(self.pairs):
            paths = []
            for tag, m in (("in", rho_in), ("out", rho_out)):
                path = self.workdir / f"pair{j}.{tag}.json"
                path.write_text(
                    json.dumps({"dim": m.shape[0], "matrix": matrix_doc(m)}),
                    encoding="utf-8",
                )
                paths.append(str(path))
            self.paths.append(paths)

    def argv(self, i, out):
        rho_in, rho_out = self.paths[i % CHANNEL_PAIRS]
        return ["channel", "--rho-in", rho_in, "--rho-out", rho_out, "--out", out]

    def check(self, i, out):
        rho_in, rho_out = self.pairs[i % CHANNEL_PAIRS]
        return check_channel(f"{out}.channel.json", rho_in, rho_out)


WORKLOADS = {w.name: w for w in (EnsembleAD, DecomposeUnital6, ChannelPairs)}
