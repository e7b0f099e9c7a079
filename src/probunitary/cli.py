"""Command-line front end.

Subcommands write under the ``--out`` prefix: decompose writes
``<out>.rates.csv`` (time, q_0..q_{d-1}, negative and singular flags,
condition estimate) and ``<out>.hamiltonians.json`` (H on every grid
time); simulate writes ``<out>.ensemble.csv``; channel writes
``<out>.channel.json``; models prints the model catalogue.  The CSV files
hold ``%.17g`` decimals; the JSON files hold each matrix entry as
``'%.16e'`` text and every other number as its shortest repr, and both
read back bit-exactly.  decompose and
simulate take one trajectory source per run, an ``--input`` file or a
``--model`` run, and refuse two.  ``--model lindblad``, and no other
source, reads a ``--lindblad-spec`` JSON file, keys ``hamiltonian``,
``rho0`` and optional ``jump_ops``, a list of ``{"operator", "gamma"}``
objects whose ``gamma`` is 1 when absent, and propagates it with
``models.integrate``; LindbladSpec and integrate check every entry.
``--dt`` and ``--horizon`` only space the grid of a ``--model`` run: an
``--input`` file is decomposed and simulated on all of its own times,
uniform or not, and a ValidationError in reading or decomposing it names
the file.  Exit codes:
0 success, 1 standard output closed early (nothing on stderr), 2 input or
validation error (including a MemoryError from inputs too large to
allocate), 3 all grid points singular (decompose) or a maximally mixed
channel input with a different output, 4 refusal to simulate unphysical
(negative/singular) rates.

``main`` parses with one parser per process, built by ``build_parser`` on
the first call and reused by every later one: parsing leaves the parser
as it was and returns a new namespace each time.  ``build_parser()``
itself returns a fresh parser on every call.  ``python -m probunitary``
runs ``main``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import io, models
from .channel import decompose_channel
from .decomposition import decompose_trajectory
from .errors import (
    NegativeRate,
    RefusesToSimulate,
    SingularChannel,
    StepTooLarge,
    TrajectoryTooCoarse,
    ValidationError,
)
from .models import MODEL_CATALOGUE, LindbladSpec, ModelParams
from .montecarlo import SimConfig, run_ensemble

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_VALIDATION = 2
EXIT_SINGULAR = 3
EXIT_UNPHYSICAL = 4


def _lindblad_trajectory(path, grid):
    """The spec file's run on ``grid``; its ValidationErrors name ``path``."""
    doc = io.read_json_object(path, ("hamiltonian", "rho0"))
    h = io.matrix_from_json(doc["hamiltonian"], where=f"{path}: hamiltonian")
    items = doc.get("jump_ops", [])
    if not isinstance(items, list):
        raise ValidationError(f"{path}: jump_ops is not a list")
    jumps = []
    for k, item in enumerate(items):
        where = f"{path}: jump_ops[{k}]"
        if not isinstance(item, dict) or "operator" not in item:
            raise ValidationError(f"{where}: not an object with key 'operator'")
        jumps.append((io.matrix_from_json(item["operator"], where=where), item.get("gamma", 1.0)))
    rho0 = io.matrix_from_json(doc["rho0"], where=f"{path}: rho0")
    try:
        return models.integrate(LindbladSpec(hamiltonian=h, jump_ops=jumps), rho0, grid)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _decompose(args):
    """The decomposition of the --input file or of the --model run, the
    run's one trajectory source; a ValidationError raised in decomposing
    an --input file names it."""
    if args.input is not None and (args.model, args.lindblad_spec) != (None, None):
        raise ValidationError("--input takes no --model or --lindblad-spec: one trajectory source")
    if (args.model == "lindblad") != (args.lindblad_spec is not None):
        raise ValidationError("--model lindblad requires --lindblad-spec, and only it takes one")
    if args.input is not None:
        trajectory = io.read_trajectory(args.input)
        try:
            return decompose_trajectory(trajectory)
        except ValidationError as exc:
            raise ValidationError(f"{args.input}: {exc}") from exc
    if args.model is None:
        raise ValidationError("either --model or --input is required")
    if not (math.isfinite(args.dt) and args.dt > 0 and math.isfinite(args.horizon)):
        raise ValidationError(
            f"--dt {args.dt} must be positive and --horizon {args.horizon} finite"
        )
    # np.arange raises a bare ValueError on a grid no array can hold
    points = (args.horizon + args.dt / 2) / args.dt
    if not points * np.dtype(float).itemsize < np.iinfo(np.intp).max:
        raise ValidationError(
            f"--horizon {args.horizon} / --dt {args.dt} is {points:.3g} grid points, "
            "more than an array can hold"
        )
    grid = np.arange(0.0, args.horizon + args.dt / 2, args.dt)
    if grid.size < 2:
        raise ValidationError(
            f"--horizon {args.horizon} / --dt {args.dt} gives {grid.size} grid "
            "point(s); need at least two"
        )
    if args.model == "lindblad":
        return decompose_trajectory(_lindblad_trajectory(args.lindblad_spec, grid))
    params = ModelParams(omega=args.omega, gamma=args.gamma)
    return decompose_trajectory(models.sample_model(args.model, grid, params))


def cmd_decompose(args) -> int:
    decomposition = _decompose(args)
    if decomposition.singular_flags.all():
        print("decomposition singular at every grid point", file=sys.stderr)
        return EXIT_SINGULAR
    io.write_rate_report(f"{args.out}.rates.csv", decomposition)
    io.write_hamiltonians(f"{args.out}.hamiltonians.json", decomposition)
    return EXIT_OK


def cmd_simulate(args) -> int:
    decomposition = _decompose(args)
    result = run_ensemble(SimConfig(n_traj=args.trajectories, seed=args.seed), decomposition)
    io.write_ensemble_csv(f"{args.out}.ensemble.csv", result)
    return EXIT_OK


def cmd_channel(args) -> int:
    rho_in = io.read_matrix_file(args.rho_in)
    rho_out = io.read_matrix_file(args.rho_out)
    decomp = decompose_channel(rho_in, rho_out)
    io.write_channel_json(f"{args.out}.channel.json", decomp)
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
    parser.add_argument("--input", help="trajectory JSON file: keys dim, times and rho, as "
                        "written by probunitary.io.write_trajectory")
    parser.add_argument("--omega", type=float, default=1.0)
    parser.add_argument("--gamma", type=float, default=1.0)
    parser.add_argument("--lindblad-spec", help="Lindblad spec JSON file: keys hamiltonian, "
                        "rho0 and optional jump_ops, a list of {\"operator\", \"gamma\"} "
                        "objects (gamma 1 when absent)")
    parser.add_argument("--dt", type=float, default=1e-3, help="--model grid spacing")
    parser.add_argument("--horizon", type=float, default=1.0,
                        help="--model grid end; an --input file runs on all its times")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, which main reuses on every call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # Python's recipe: later writes and the flush at exit go to devnull
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ValidationError, OSError, MemoryError, StepTooLarge, TrajectoryTooCoarse) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SingularChannel as exc:
        print(f"singular channel: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except (RefusesToSimulate, NegativeRate) as exc:
        print(f"refusing to simulate: {exc}", file=sys.stderr)
        return EXIT_UNPHYSICAL


if __name__ == "__main__":
    sys.exit(main())
