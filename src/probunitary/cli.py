"""Command-line front end.

Subcommands write under the ``--out`` prefix: decompose writes
``<out>.rates.csv`` (time, q_0..q_{d-1}, negative and singular flags,
condition estimate) and ``<out>.hamiltonians.json`` (H on every grid
time); simulate writes ``<out>.ensemble.csv``; channel writes
``<out>.channel.json``; models prints the model catalogue.  ``--dt``
only spaces the grid of a ``--model`` trajectory: simulate steps along
the grid of the trajectory it decomposes, so an ``--input`` file is
simulated on its own times, uniform or not.  Exit codes:
0 success, 2 input/validation error (including a MemoryError from inputs
too large to allocate), 3 singular system, 4 refusal to simulate
unphysical (negative/singular) rates.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import io, models
from .channel import SINGULAR, decompose_channel, to_kraus_like
from .decomposition import decompose_trajectory
from .errors import (
    NegativeRate,
    RefusesToSimulate,
    SingularChannel,
    StepTooLarge,
    TrajectoryTooCoarse,
    ValidationError,
)
from .linalg import validate_density_matrix
from .models import MODEL_CATALOGUE, LindbladSpec, ModelParams
from .montecarlo import SimConfig, run_ensemble

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SINGULAR = 3
EXIT_UNPHYSICAL = 4


def _read_lindblad_spec(path):
    doc = io.read_json_object(path, ("hamiltonian",))
    h = io.matrix_from_json(doc["hamiltonian"], where=f"{path}: hamiltonian")
    items = doc.get("jump_ops", [])
    if not isinstance(items, list):
        raise ValidationError(f"{path}: jump_ops is not a list")
    jumps = []
    for k, item in enumerate(items):
        where = f"{path}: jump_ops[{k}]"
        if not isinstance(item, dict) or "operator" not in item:
            raise ValidationError(f"{where}: not an object with key 'operator'")
        op = io.matrix_from_json(item["operator"], where=where)
        gamma = item.get("gamma", 1.0)
        # float() would also take a numeric string or a bool
        try:
            gamma = float(gamma) if type(gamma) in (int, float) else math.nan
        except OverflowError:  # an integer beyond the float range
            gamma = math.nan
        if not math.isfinite(gamma):
            raise ValidationError(f"{where}: gamma is not a finite JSON number")
        jumps.append((op, gamma))
    try:
        spec = LindbladSpec(hamiltonian=h, jump_ops=tuple(jumps))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    rho0 = None
    if "rho0" in doc:
        where = f"{path}: rho0"
        rho0 = io.matrix_from_json(doc["rho0"], where=where)
        if rho0.shape != h.shape:
            raise ValidationError(f"{where}: shape {rho0.shape} differs from hamiltonian {h.shape}")
        try:
            validate_density_matrix(rho0)
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}") from exc
    return spec, rho0


def _load_samples(args):
    if not (math.isfinite(args.dt) and args.dt > 0 and math.isfinite(args.horizon)):
        raise ValidationError(
            f"--dt {args.dt} must be positive and --horizon {args.horizon} finite"
        )
    if args.input is not None:
        return io.read_trajectory(args.input)
    if args.model is None:
        raise ValidationError("either --model or --input is required")
    grid = np.arange(0.0, args.horizon + args.dt / 2, args.dt)
    params = ModelParams(omega=args.omega, gamma=args.gamma)
    if args.model == "lindblad":
        if args.lindblad_spec is None:
            raise ValidationError("--model lindblad requires --lindblad-spec")
        spec, rho0 = _read_lindblad_spec(args.lindblad_spec)
        if rho0 is None:
            raise ValidationError("lindblad spec file must carry an initial state rho0")
        return models.sample_model("lindblad", grid, params, spec=spec, rho0=rho0)
    return models.sample_model(args.model, grid, params)


def _build_decomposition(args):
    samples = _load_samples(args)
    return samples, decompose_trajectory(samples)


def cmd_decompose(args) -> int:
    samples, decomposition = _build_decomposition(args)
    if decomposition.singular_flags.all():
        print("decomposition singular at every grid point", file=sys.stderr)
        return EXIT_SINGULAR
    io.write_rate_report(f"{args.out}.rates.csv", decomposition)
    io.write_hamiltonians(
        f"{args.out}.hamiltonians.json", decomposition.times, decomposition.hamiltonians
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    samples, decomposition = _build_decomposition(args)
    config = SimConfig(n_traj=args.trajectories, seed=args.seed, horizon=args.horizon)
    result = run_ensemble(config, decomposition, exact=samples)
    io.write_ensemble_csv(f"{args.out}.ensemble.csv", result)
    return EXIT_OK


def cmd_channel(args) -> int:
    rho_in = io.read_matrix_file(args.rho_in)
    rho_out = io.read_matrix_file(args.rho_out)
    decomp = decompose_channel(rho_in, rho_out)
    kraus = None
    if decomp.classification != SINGULAR:
        kraus = to_kraus_like(decomp)
    io.write_channel_json(f"{args.out}.channel.json", decomp, kraus)
    return EXIT_OK


def cmd_models(args) -> int:
    if args.json:
        print(json.dumps(MODEL_CATALOGUE, indent=2))
    else:
        for name, info in MODEL_CATALOGUE.items():
            params = ", ".join(info["params"])
            print(f"{name}: {info['description']} (params: {params})")
    return EXIT_OK


def _add_model_options(parser):
    parser.add_argument("--model", choices=sorted(MODEL_CATALOGUE))
    parser.add_argument("--input", help="trajectory JSON file")
    parser.add_argument("--omega", type=float, default=1.0)
    parser.add_argument("--gamma", type=float, default=1.0)
    parser.add_argument("--lindblad-spec", help="Lindblad spec JSON file")
    parser.add_argument("--dt", type=float, default=1e-3)
    parser.add_argument("--horizon", type=float, default=1.0)
    parser.add_argument("--out", required=True, help="output file prefix")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="probunitary",
        description="Decompose open-system trajectories into a Hamiltonian "
        "plus probabilistically applied unitaries, simulate the scheme, and "
        "decompose finite-time channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose", help="decompose a trajectory into H(t), U~_i, q(t)")
    _add_model_options(p_dec)
    p_dec.set_defaults(func=cmd_decompose)

    p_sim = sub.add_parser("simulate", help="Monte Carlo simulation of the control scheme")
    _add_model_options(p_sim)
    p_sim.add_argument("--trajectories", type=int, default=1000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.set_defaults(func=cmd_simulate)

    p_ch = sub.add_parser("channel", help="finite-time channel decomposition")
    p_ch.add_argument("--rho-in", required=True)
    p_ch.add_argument("--rho-out", required=True)
    p_ch.add_argument("--out", required=True)
    p_ch.set_defaults(func=cmd_channel)

    p_mod = sub.add_parser("models", help="list the built-in models")
    p_mod.add_argument("--json", action="store_true")
    p_mod.set_defaults(func=cmd_models)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OSError, MemoryError, StepTooLarge, TrajectoryTooCoarse) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SingularChannel as exc:
        print(f"singular channel: {exc} ({exc.block_structure})", file=sys.stderr)
        return EXIT_SINGULAR
    except (RefusesToSimulate, NegativeRate) as exc:
        print(f"refusing to simulate: {exc}", file=sys.stderr)
        return EXIT_UNPHYSICAL


if __name__ == "__main__":
    sys.exit(main())
