"""Every exported name resolves: each module's ``__all__`` and the package
namespace, so a deleted function cannot leave a dangling export.  The
numerical thresholds stay constants: no exported callable takes one as a
parameter.  Every exported entry point that takes an array refuses a
value that is not numeric, and one of the wrong rank or shape, with
ValidationError; each table of such values has a row for each of them."""

import dataclasses
import importlib
import inspect
import itertools
import pkgutil

import numpy as np
import pytest

import probunitary
from probunitary import (
    LindbladSpec,
    ModelParams,
    Trajectory,
    ValidationError,
    align_eigenframes,
    amplitude_damping_spec,
    apply_decomposition,
    build_hamiltonian,
    build_tilde_unitaries,
    compute_rates_at,
    decompose_channel,
    decompose_trajectory,
    integrate,
    lindblad_rhs,
    reconstruct_rhs,
    sample_model,
    solve_circulant_rates,
    step,
    validate_density_matrix,
)
from probunitary.io import (
    matrix_from_json,
    matrix_to_json,
    write_matrix_file,
    write_trajectory,
)
from probunitary.linalg import (
    conjugated_permutations,
    cyclic_shift_rows,
    expm,
    min_cost_assignment,
    rate_system_matrix,
)
from probunitary.montecarlo import SimConfig, run_ensemble

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(probunitary.__path__, "probunitary.")
    if not info.name.endswith("__main__")
)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)] == []


def test_package_names_resolve_in_their_modules():
    # each class and function the package re-exports is still the object
    # its defining module holds under that name
    for attr, value in vars(probunitary).items():
        owner = getattr(value, "__module__", None)
        if not attr.startswith("_") and owner and owner.startswith("probunitary."):
            assert getattr(importlib.import_module(owner), attr, None) is value, attr


def test_star_import():
    namespace = {}
    exec("from probunitary import *", namespace)
    assert "decompose_channel" in namespace


def exported_names():
    for name in MODULES:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            yield f"{name}.{attr}", getattr(module, attr)
    for attr, value in vars(probunitary).items():
        if not attr.startswith("_"):
            yield f"probunitary.{attr}", value


def test_no_exported_function_takes_a_tolerance():
    # functions, and the constructors of classes that define one in Python
    signatures = {
        name: inspect.signature(value) for name, value in exported_names()
        if inspect.isfunction(value)
        or inspect.isclass(value) and inspect.isfunction(value.__init__)
    }
    assert "probunitary.decompose_trajectory" in signatures
    assert [name for name, sig in signatures.items() if "tol" in sig.parameters] == []


def test_config_defines_only_float_constants():
    config = importlib.import_module("probunitary.config")
    names = {attr: type(value) for attr, value in vars(config).items() if not attr.startswith("__")}
    assert names and set(names.values()) == {float}
    assert all(attr.isupper() for attr in names)


# One row per refused value: (entry point, call, pattern its message must
# match).  Each raises exactly ValidationError, not a bare numpy error.
I2 = np.eye(2) / 2
SPEC = amplitude_damping_spec(1.0)
BAD_INPUT = [
    ("validate_density_matrix", lambda path: validate_density_matrix("abc"), "density matrix"),
    ("validate_density_matrix", lambda path: validate_density_matrix([[1, 0], [0]]), "density matrix"),
    ("solve_circulant_rates", lambda path: solve_circulant_rates(["a", "b"], [0, 0]), "^p "),
    ("rate_system_matrix", lambda path: rate_system_matrix("ab"), "^p "),
    ("conjugated_permutations", lambda path: conjugated_permutations([["a"]], np.eye(1), [[0]]), "v_out"),
    ("min_cost_assignment", lambda path: min_cost_assignment([["a"]]), "assignment cost"),
    ("expm", lambda path: expm([["a"]]), "expm"),
    ("build_tilde_unitaries", lambda path: build_tilde_unitaries([["a"]]), "frame"),
    ("reconstruct_rhs",
     lambda path: reconstruct_rhs("a", I2, build_tilde_unitaries(np.eye(2)), [0, 0]), "^rho "),
    ("build_hamiltonian", lambda path: build_hamiltonian(frames(), "a"), "grid time"),
    ("compute_rates_at", lambda path: compute_rates_at(frames(), "a"), "grid time"),
    ("apply_decomposition", lambda path: apply_decomposition(channel(), "ab"), "state"),
    ("decompose_channel", lambda path: decompose_channel("ab", I2), "^rho_in: "),
    ("LindbladSpec", lambda path: LindbladSpec("abc", ()), "hamiltonian"),
    ("lindblad_rhs", lambda path: lindblad_rhs(SPEC, "ab"), "state"),
    ("integrate", lambda path: integrate(SPEC, "ab", [0.0, 0.1]), "density matrix"),
    ("sample_model", lambda path: sample_model("jc", ["a", "b"]), "time grid"),
    ("decompose_trajectory",
     lambda path: decompose_trajectory(Trajectory([0.0, 0.1], [[[1, 0], [0, 0]], [[1, 0]]])),
     "trajectory states"),
    ("align_eigenframes",
     lambda path: align_eigenframes(Trajectory([0.0, 0.1], [[["a"]], [["b"]]])), "trajectory states"),
    ("matrix_to_json", lambda path: matrix_to_json([["a"]]), "matrix"),
    ("matrix_from_json", lambda path: matrix_from_json([[["a", 0]]]), "numbers"),
    ("write_matrix_file", lambda path: write_matrix_file(path, [["a"]]), "matrix"),
    ("write_trajectory", lambda path: write_trajectory(path, Trajectory([0.0], [[["a"]]])),
     "trajectory states"),
    ("ModelParams", lambda path: ModelParams(omega=10**5000), "beyond the float range"),
    ("step", lambda path: step(I2, I2, build_tilde_unitaries(np.eye(2)), [0, 0], "a", 0.5), "dt"),
    ("step", lambda path: step(I2, I2, build_tilde_unitaries(np.eye(2)), [0, 0], 0.1, "a"), "draw"),
    ("Trajectory", lambda path: Trajectory([0.0], [[["a"]]]), "trajectory states"),
    ("Trajectory", lambda path: Trajectory(["a"], [I2]), "trajectory times"),
    ("solve_circulant_rates", lambda path: solve_circulant_rates([np.nan, 1.0], [0.0, 0.0]),
     "^p contains NaN or Inf"),
    # a NaN edge sorts last, so a NaN rate would take every draw
    *[("step", lambda path, q=q: step(np.diag([1.0, 0.0]), np.zeros((2, 2)),
                                      build_tilde_unitaries(np.eye(2)), q, 0.1, 0.5),
       "^jump rates contain NaN or Inf") for q in ([0, np.nan], [0, np.inf])],
    *[("cyclic_shift_rows", lambda path, d=d: cyclic_shift_rows(d),
       rf"^d must be an integer .* {d!r}$") for d in ["a", None, 2.5, True, 0, -1]],
]

# One row per array of the wrong rank or shape, the same entry points as
# above: each raises exactly ValidationError naming the argument.
WRONG_RANK = [
    ("validate_density_matrix", lambda path: validate_density_matrix([1.0, 0.0]), "square matrix"),
    ("solve_circulant_rates",
     lambda path: solve_circulant_rates(np.ones((1, 1, 2)) / 2, np.zeros((1, 1, 2))),
     "dimensions: p "),
    ("rate_system_matrix", lambda path: rate_system_matrix(1.0), "^p must be a 1-D array"),
    ("rate_system_matrix", lambda path: rate_system_matrix([[0.5, 0.5]]), "^p must be a 1-D array"),
    ("conjugated_permutations", lambda path: conjugated_permutations([1.0, 0.0], I2, [[0, 1]]),
     "^v_out and v_in "),
    ("conjugated_permutations", lambda path: conjugated_permutations(I2, [1.0, 0.0], [[0, 1]]),
     "^v_out and v_in "),
    ("conjugated_permutations", lambda path: conjugated_permutations(I2, I2, [0, 1]),
     "^perms must be integer rows"),
    ("conjugated_permutations", lambda path: conjugated_permutations(I2, I2, [[0.5, 1]]),
     "^perms must be integer rows"),
    ("conjugated_permutations", lambda path: conjugated_permutations(I2, I2, [[0, 5]]),
     r"^perms entries .* \[0, 2\)"),
    ("conjugated_permutations", lambda path: conjugated_permutations(I2, I2, [[0, -1]]),
     r"^perms entries .* \[0, 2\)"),
    ("min_cost_assignment", lambda path: min_cost_assignment([1.0, 2.0]), "assignment cost"),
    ("expm", lambda path: expm([1.0, 2.0]), "expm"),
    ("build_tilde_unitaries", lambda path: build_tilde_unitaries([1.0, 0.0]), "frame"),
    ("reconstruct_rhs",
     lambda path: reconstruct_rhs([1.0, 0.0], I2, build_tilde_unitaries(np.eye(2)), [0, 0]),
     "dimension mismatch"),
    ("build_hamiltonian", lambda path: build_hamiltonian(frames(), [0.1, 0.2]), "grid time"),
    ("compute_rates_at", lambda path: compute_rates_at(frames(), [0.1, 0.2]), "grid time"),
    ("apply_decomposition", lambda path: apply_decomposition(channel(), [0.5, 0.5]), "state"),
    ("decompose_channel", lambda path: decompose_channel([0.5, 0.5], I2), "^rho_in: "),
    ("LindbladSpec", lambda path: LindbladSpec([1.0, 0.0], ()), "Hamiltonian"),
    ("lindblad_rhs", lambda path: lindblad_rhs(SPEC, [0.5, 0.5]), "state"),
    ("integrate", lambda path: integrate(SPEC, [0.5, 0.5], [0.0, 0.1]), "^rho0: "),
    ("sample_model", lambda path: sample_model("jc", [[0.0, 0.1]]), "time grid"),
    ("decompose_trajectory", lambda path: decompose_trajectory(Trajectory([0.0, 0.1], [1.0, 0.0])),
     "states of shape"),
    ("align_eigenframes", lambda path: align_eigenframes(Trajectory([[0.0, 0.1]], [I2, I2])),
     "^trajectory times"),
    ("Trajectory", lambda path: Trajectory(0.0, [I2]), "^trajectory times"),
    ("Trajectory", lambda path: Trajectory([0.0], I2), r"^1 times but states of shape \(2, 2\)"),
    ("Trajectory", lambda path: Trajectory([0.0], np.zeros((1, 0, 0))), "states of shape"),
    ("matrix_to_json", lambda path: matrix_to_json(1.0), "^matrix "),
    ("matrix_to_json", lambda path: matrix_to_json([1.0, 2.0]), "^matrix "),
    ("matrix_to_json", lambda path: matrix_to_json(np.ones((2, 3))), "^matrix "),
    ("matrix_from_json", lambda path: matrix_from_json([1.0, 0.0]), "^matrix: shape"),
    ("write_matrix_file", lambda path: write_matrix_file(path, 1.0), "^matrix "),
    ("write_matrix_file", lambda path: write_matrix_file(path, [1.0, 2.0]), "^matrix "),
    ("write_matrix_file", lambda path: write_matrix_file(path, np.ones((2, 3))), "^matrix "),
    ("write_matrix_file", lambda path: write_matrix_file(path, np.ones((2, 2, 2))), "^matrix "),
    ("write_trajectory", lambda path: write_trajectory(path, Trajectory([0.0], [1.0])),
     "states of shape"),
    ("ModelParams", lambda path: ModelParams(omega=[1.0, 2.0]), "omega"),
    ("step", lambda path: step([0.5, 0.5], I2, build_tilde_unitaries(np.eye(2)), [0, 0], 0.1, 0.5),
     "square state"),
    ("cyclic_shift_rows", lambda path: cyclic_shift_rows([2]), r"^d must be an integer .*\[2\]$"),
]

# Exported callables that take no array of their own, each with the reason
# it has no row above.  A new export must join one of the two lists.
SKIPPED = {
    **dict.fromkeys(
        ["EigenframeSeries", "DecompositionSeries", "ChannelDecomposition", "KrausLikeForm",
         "EnsembleResult"],
        "a record of results: the package builds it from arrays it has checked"),
    **dict.fromkeys(
        ["ProbUnitaryError", "ValidationError", "TrajectoryTooCoarse", "NegativeRate",
         "StepTooLarge", "RefusesToSimulate", "SingularChannel"],
        "an exception: takes a message"),
    **dict.fromkeys(
        ["to_kraus_like", "run_ensemble", "write_rate_report", "write_hamiltonians",
         "write_ensemble_csv", "write_channel_json"],
        "takes records made by the package"),
    **dict.fromkeys(["read_json_object", "read_matrix_file", "read_trajectory"],
                    "takes a path; the file's values pass matrix_from_json's rules"),
    **dict.fromkeys(["SimConfig", "amplitude_damping_spec", "jc_rate",
                     "jc_reduced_state", "amplitude_damping_exact"],
                    "takes scalars, each checked as a real number"),
    "convergence_sweep": "takes a problem factory; each dt reaches it as given",
}


def frames():
    return align_eigenframes(sample_model("jc", [0.0, 0.1, 0.2]))


def channel():
    return decompose_channel(np.diag([0.7, 0.3]), np.diag([0.6, 0.4]))


def row_ids(rows, retired):
    """Ids entry-number for the rows of a table, numbered in order but
    skipping the numbers of rows since removed, so that every row keeps
    its id."""
    numbers = (i for i in itertools.count() if i not in retired)
    return [f"{row[0]}-{next(numbers)}" for row in rows]


# the numbers of write_hamiltonians' rows: it takes a DecompositionSeries,
# a record made by the package
RETIRED_BAD_INPUT = {22}
RETIRED_WRONG_RANK = {35, 36, 37, 38}


def assert_refused(path, call, pattern):
    """call(path) raises exactly ValidationError, its message matching
    pattern, and leaves no file at path."""
    with pytest.raises(ValidationError, match=pattern) as info:
        call(path)
    assert type(info.value) is ValidationError
    assert not path.exists()


@pytest.mark.parametrize("entry, call, pattern", BAD_INPUT,
                         ids=row_ids(BAD_INPUT, RETIRED_BAD_INPUT))
def test_bad_input_raises_validation_error(tmp_path, entry, call, pattern):
    assert_refused(tmp_path / "out.json", call, pattern)


@pytest.mark.parametrize("entry, call, pattern", WRONG_RANK,
                         ids=row_ids(WRONG_RANK, RETIRED_WRONG_RANK))
def test_wrong_rank_raises_validation_error(tmp_path, entry, call, pattern):
    assert_refused(tmp_path / "out.json", call, pattern)


def test_every_array_entry_point_has_a_bad_input_row():
    exported = {name.rpartition(".")[2] for name, value in exported_names()
                if inspect.isfunction(value) or inspect.isclass(value)}
    rows = {entry for entry, _, _ in BAD_INPUT}
    assert rows & SKIPPED.keys() == set()
    assert exported - rows - SKIPPED.keys() == set()
    assert (rows | SKIPPED.keys()) - exported == set()
    # an entry point with a bad-input row has a wrong-rank row, and no other does
    assert {entry for entry, _, _ in WRONG_RANK} == rows


def test_run_ensemble_refuses_labels_past_intp():
    # d = 2 labels per trajectory: the (d, n_traj) label array is refused
    # by its size, before it is allocated
    decomposition = decompose_trajectory(sample_model("amplitude-damping", [0.0, 0.005, 0.01]))
    config = SimConfig(n_traj=np.iinfo(np.intp).max, seed=0)
    with pytest.raises(ValidationError, match=r"d = 2 .* n_traj = 9223372036854775807") as info:
        run_ensemble(config, decomposition)
    assert type(info.value) is ValidationError


def test_trajectory_is_frozen():
    trajectory = Trajectory([0.0], [I2])
    with pytest.raises(dataclasses.FrozenInstanceError):
        trajectory.times = np.array([1.0])
    assert trajectory.times.dtype == float and trajectory.rhos.dtype == complex
