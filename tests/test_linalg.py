import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as scipy_expm
from scipy.optimize import linear_sum_assignment

from probunitary.decomposition import Trajectory, align_eigenframes, build_tilde_unitaries
from probunitary.errors import ValidationError
from probunitary.linalg import (
    _phase_fix,
    _validated_eigh,
    expm,
    min_cost_assignment,
    rate_system_matrix,
    solve_circulant_rates,
    validate_density_matrix,
)

from conftest import random_density_matrix, random_hermitian, random_unitary


class TestValidation:
    def test_accepts_valid_state(self):
        validate_density_matrix(np.diag([0.6, 0.4]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError, match="Hermitian"):
            validate_density_matrix(np.array([[0.5, 0.1], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValidationError, match="trace"):
            validate_density_matrix(np.diag([0.7, 0.7]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError, match="positive"):
            validate_density_matrix(np.diag([1.2, -0.2]))

    def test_rejects_nan(self):
        with pytest.raises(ValidationError, match="NaN"):
            validate_density_matrix(np.array([[np.nan, 0], [0, 1.0]]))

    def test_stack_names_first_failing_index(self):
        stack = np.stack([np.diag([0.6, 0.4])] * 4).astype(complex)
        assert validate_density_matrix(stack).shape == (4, 2, 2)
        stack[3] = np.diag([0.7, 0.7])
        stack[2, 0, 1] = 0.1
        with pytest.raises(ValidationError, match="^entry 2: .*Hermitian"):
            validate_density_matrix(stack)
        stack[1, 1, 1] = np.inf
        with pytest.raises(ValidationError, match="^entry 1: .*NaN"):
            validate_density_matrix(stack)

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError, match="square"):
            validate_density_matrix(np.ones((2, 2, 3)) / 2)


def eigen(m):
    """The package's one eigen convention: _validated_eigh's descending
    order with _phase_fix's gauge."""
    _, vals, vecs = _validated_eigh(m)
    return vals, _phase_fix(vecs)


class TestEigendecomposition:
    def test_diagonal_input(self):
        vals, vecs = eigen(np.diag([0.7, 0.3]))
        np.testing.assert_allclose(vals, [0.7, 0.3])
        np.testing.assert_allclose(vecs, np.eye(2), atol=1e-14)

    def test_sigma_x_mixture(self):
        # oracle: direct 2x2 diagonalization of (1 + sigma_x)/2 gives
        # eigenpairs (1, (1,1)/sqrt(2)) and (0, (1,-1)/sqrt(2))
        m = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
        vals, vecs = eigen(m)
        np.testing.assert_allclose(vals, [1.0, 0.0], atol=1e-14)
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(vecs[:, 0], [s, s], atol=1e-12)
        np.testing.assert_allclose(vecs[:, 1], [s, -s], atol=1e-12)

    def test_maximally_mixed_tie_break(self):
        # no tie-break of its own: equal eigenvalues keep eigh's order
        # reversed, and align_eigenframes' frame 0 keeps that basis
        vals, vecs = eigen(np.eye(2) / 2)
        np.testing.assert_allclose(vals, [0.5, 0.5])
        np.testing.assert_allclose(vecs, np.eye(2)[:, ::-1], atol=1e-14)
        frames = align_eigenframes(Trajectory(np.array([0.0, 0.1]), np.array([np.eye(2) / 2] * 2)))
        np.testing.assert_allclose(frames.eigenvalues[0], vals)
        np.testing.assert_allclose(frames.eigenvectors[0], vecs, atol=1e-14)

    def test_reconstruction_and_unitarity(self, rng):
        for d in (2, 3, 5):
            m = random_density_matrix(rng, d)
            vals, u = eigen(m)
            assert np.max(np.abs(u.conj().T @ u - np.eye(d))) <= 1e-9
            rec = u @ np.diag(vals) @ u.conj().T
            assert np.max(np.abs(rec - m)) <= 1e-9
            assert np.all(np.diff(vals) <= 0)
            lead = u[np.argmax(np.abs(u) > 1e-12, axis=0), np.arange(d)]
            assert np.all(lead.real > 0) and np.abs(lead.imag).max() <= 1e-15

    def test_frame0_values_descend_on_degenerate_cluster(self):
        # rank-2 d=5 states: the three zero eigenvalues form one cluster,
        # whose rounding-level values frame 0 must keep in descending order
        for seed in range(50):
            u = random_unitary(np.random.default_rng(seed), 5)
            rho = u @ np.diag([0.63, 0.37, 0.0, 0.0, 0.0]) @ u.conj().T
            frames = align_eigenframes(Trajectory(np.array([0.0, 0.1]), np.array([rho, rho])))
            vals = frames.eigenvalues[0]
            np.testing.assert_allclose(vals, [0.63, 0.37, 0, 0, 0], atol=1e-12)
            assert np.all(np.diff(vals) <= 0), (seed, vals)


def phase_fix_loop(vecs, tol=1e-12):
    """The per-column phase fix that _phase_fix batches, kept as its reference."""
    vecs = vecs.copy()
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        nz = np.flatnonzero(np.abs(col) > tol)
        if nz.size:
            col *= np.exp(-1j * np.angle(col[nz[0]]))
    return vecs


# what becomes of one entry of a random unitary: kept, scaled below the
# 1e-12 significance threshold, or replaced by a signed zero
ENTRY_EDITS = {
    "keep": lambda z: z,
    "tiny": lambda z: z * 1e-13,
    "tinier": lambda z: z * 1e-16,
    "zero": lambda z: 0j,
    "negzero": lambda z: complex(-0.0, -0.0),
    "negzero_re": lambda z: complex(-0.0, z.imag),
    "negzero_im": lambda z: complex(z.real, -0.0),
}


class TestPhaseFix:
    @given(
        d=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**31),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_column_loop(self, d, seed, data):
        vecs = random_unitary(np.random.default_rng(seed), d)
        edits = data.draw(st.lists(
            st.sampled_from(sorted(ENTRY_EDITS)), min_size=d * d, max_size=d * d))
        for (i, j), edit in zip(np.ndindex(d, d), edits):
            vecs[i, j] = ENTRY_EDITS[edit](vecs[i, j])
        zero_cols = data.draw(st.lists(st.booleans(), min_size=d, max_size=d))
        vecs[:, np.array(zero_cols, dtype=bool)] = data.draw(
            st.sampled_from([0j, complex(-0.0, -0.0)]))
        # the callers pass eigh's columns reversed, a negative-stride view
        if data.draw(st.booleans()):
            vecs = vecs[:, ::-1]

        fixed = _phase_fix(vecs)
        assert np.array_equal(fixed.view(float), phase_fix_loop(vecs).view(float))
        assert not np.shares_memory(fixed, vecs)


def real_weyl_family(d):
    """The cyclic shifts W_i = sum_k |k><(k+i) mod d|, i = 0..d-1: the
    shift unitaries conjugated into the identity frame."""
    return build_tilde_unitaries(np.eye(d, dtype=complex))


class TestRealWeyl:
    def test_identity_shift(self):
        np.testing.assert_array_equal(real_weyl_family(2)[0], np.eye(2))

    def test_d2_shift_is_sigma_x(self):
        np.testing.assert_array_equal(real_weyl_family(2)[1], [[0, 1], [1, 0]])

    def test_d3_shift_one(self):
        # direct evaluation of sum_k |k><(k+1) mod 3|
        expected = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        np.testing.assert_array_equal(real_weyl_family(3)[1], expected)

    @pytest.mark.parametrize("d", range(2, 17))
    def test_orthogonality(self, d):
        fam = real_weyl_family(d)
        for i in range(d):
            for j in range(d):
                tr = np.trace(fam[i].conj().T @ fam[j]).real
                assert tr == (d if i == j else 0)

    @given(
        d=st.integers(min_value=2, max_value=16),
        i=st.data(),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_cyclic_action(self, d, i, seed):
        shift = i.draw(st.integers(min_value=0, max_value=d - 1))
        p = np.random.default_rng(seed).dirichlet(np.ones(d))
        u = real_weyl_family(d)[shift]
        rotated = np.diagonal(u @ np.diag(p) @ u.conj().T).real
        np.testing.assert_allclose(rotated, np.roll(p, -shift), atol=1e-14)


class TestCirculantSolver:
    def test_stationary_spectrum(self):
        q, condition = solve_circulant_rates([0.7, 0.3], [0.0, 0.0])
        np.testing.assert_allclose(q, [0.0, 0.0], atol=1e-14)
        assert condition < np.inf

    def test_two_level_example(self):
        # oracle: dense 2x2 solve of [[p1, p2], [p2, p1]] v = f
        q, _ = solve_circulant_rates([0.7, 0.3], [-0.1, 0.1])
        np.testing.assert_allclose(q, [0.25, 0.25], atol=1e-12)

    def test_singular_inconsistent_is_reported(self):
        _, condition = solve_circulant_rates([0.5, 0.5], [-0.1, 0.2])
        assert condition == np.inf

    def test_jc_channel_instance(self):
        # mixed-unitary channel of the vacuum Rabi qubit
        for s in (0.3, 0.9, 1.4):
            c, sn = np.cos(s / 2) ** 2, np.sin(s / 2) ** 2
            # stay probability 1 + v0 = 1 - q0
            q, _ = solve_circulant_rates([1.0, 0.0], [c - 1.0, sn])
            np.testing.assert_allclose([1.0 - q[0], q[1]], [c, sn], atol=1e-12)

    def test_residual_invariant(self, rng):
        for _ in range(200):
            d = rng.integers(2, 9)
            p = rng.dirichlet(np.ones(d))
            f = rng.normal(size=d)
            q, condition = solve_circulant_rates(p, f)
            if condition == np.inf:
                continue
            v = q.copy()
            v[0] = -v[0]
            resid = np.abs(rate_system_matrix(p) @ v - f).max()
            assert resid <= 1e-8 * max(np.abs(f).max(), 1e-300)

    def test_matches_dense_solver(self, rng):
        # independent oracle: generic dense linear solve
        count = 0
        while count < 1000:
            d = int(rng.integers(2, 9))
            p = rng.dirichlet(np.ones(d))
            f = rng.normal(size=d)
            q, condition = solve_circulant_rates(p, f)
            if condition == np.inf:
                continue
            dense = np.linalg.solve(rate_system_matrix(p), f)
            v = q.copy()
            v[0] = -v[0]
            np.testing.assert_allclose(v, dense, atol=1e-9)
            count += 1

    def test_conservation_duality(self, rng):
        for _ in range(300):
            d = int(rng.integers(2, 9))
            p = rng.dirichlet(np.ones(d) * 3)
            f = rng.normal(size=d)
            f -= f.mean()  # trace-conserving
            q, condition = solve_circulant_rates(p, f)
            if condition == np.inf:
                continue
            assert abs(-q[0] + q[1:].sum()) <= 1e-9

    @pytest.mark.parametrize("d", range(1, 17))
    def test_grid_equals_rows(self, rng, d):
        # a grid solve is its rows' solves bit for bit, singular rows included
        p = rng.dirichlet(np.ones(d), size=12)
        p[:3] = np.ones(d) / d                 # flat: every nonzero mode vanishes
        p[3] = np.roll(np.eye(d)[0], 1)        # a point mass: never singular
        if d % 2 == 0:
            p[4] = np.tile([2 / d, 0.0], d // 2)  # period 2: modes but 0 and d/2 vanish
        f = rng.normal(size=(12, d))
        q, condition = solve_circulant_rates(p, f)
        assert q.shape == (12, d) and condition.shape == (12,)
        if d > 1:
            assert (condition[:3] == np.inf).all() and (condition[3:] < np.inf).any()
        for k in range(12):
            q_k, condition_k = solve_circulant_rates(p[k], f[k])
            assert np.array_equal(q_k, q[k]) and condition_k == condition[k]
            assert np.shape(condition_k) == ()

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            solve_circulant_rates([0.5, 0.5], [0.0, 0.0, 0.0])

    def test_bad_probability_vector(self):
        with pytest.raises(ValidationError):
            solve_circulant_rates([0.9, 0.3], [0.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_f(self, bad):
        with pytest.raises(ValidationError, match="f contains NaN or Inf"):
            solve_circulant_rates([0.5, 0.5], [bad, 0.0])


def assignment_costs(rng, count):
    """count costs at d = 1..16 in turn: real Gaussian, then -|U|^2 of a Haar
    unitary U, the overlap cost the channel pairing and the alignment solve."""
    for k in range(count):
        d = 1 + (k // 2) % 16
        yield rng.normal(size=(d, d)) if k % 2 else -np.abs(random_unitary(rng, d)) ** 2


class TestMinCostAssignment:
    """The in-package kernel against scipy's solver, used here as the oracle."""

    def test_random_costs_match_scipy(self, rng):
        # continuous random costs have a unique optimum, so the columns agree
        for cost in assignment_costs(rng, 1200):
            rows, cols = min_cost_assignment(cost)
            ref_rows, ref_cols = linear_sum_assignment(cost)
            np.testing.assert_array_equal(rows, ref_rows)
            np.testing.assert_array_equal(cols, ref_cols)

    @pytest.mark.parametrize("cost", [
        np.full((5, 5), 0.3),                                   # constant
        np.ones((4, 4)) * [1.0, 2.0, 0.5, 3.0],                 # equal rows
        np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [0.0, 5.0, 1.0]]),  # one row duplicated
        -np.eye(6)[[2, 0, 1, 5, 4, 3]],                         # negated permutation
        np.eye(4)[[3, 1, 0, 2]],                                # many zero-cost matchings
        np.zeros((1, 1)),
    ])
    def test_ties_reach_the_optimal_cost(self, cost):
        rows, cols = min_cost_assignment(cost)
        assert sorted(cols.tolist()) == list(range(len(cost)))
        ref = linear_sum_assignment(cost)
        assert cost[rows, cols].sum() == pytest.approx(cost[ref].sum(), abs=1e-12)

    def test_tie_goes_to_first_column(self):
        np.testing.assert_array_equal(min_cost_assignment(np.ones((4, 4)))[1], np.arange(4))

    def test_empty_cost(self):
        rows, cols = min_cost_assignment(np.zeros((0, 0)))
        assert rows.size == cols.size == 0

    @pytest.mark.parametrize("cost, message", [
        (np.ones((2, 3)), "square"),
        (np.ones(3), "square"),
        (np.ones((2, 2, 2)), "square"),
        (np.array([[0.0, np.nan], [1.0, 0.0]]), "NaN or Inf"),
        (np.array([[0.0, np.inf], [1.0, 0.0]]), "NaN or Inf"),
        (np.array([[0.0, -np.inf], [1.0, 0.0]]), "NaN or Inf"),
    ])
    def test_rejects_bad_cost(self, cost, message):
        with pytest.raises(ValidationError, match=message):
            min_cost_assignment(cost)


def relative_error(a, ref):
    """Largest absolute error over the largest absolute entry of ref."""
    return np.abs(a - ref).max() / np.abs(ref).max()


class TestExpm:
    """The Padé-13 exponential against scipy's, used here as the oracle."""

    NORMS = (1e-3, 1e-2, 1e-1, 1.0, 10.0, 1e2)

    def test_random_matrices_match_scipy(self, rng):
        for n in range(1, 37):
            stack = np.stack([rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                              for _ in self.NORMS])
            stack *= (self.NORMS / np.abs(stack).sum(axis=1).max(axis=1))[:, None, None]
            together = expm(stack)  # one stack, each matrix scaled for its own norm
            for a, joint in zip(stack, together):
                ref = scipy_expm(a)
                assert relative_error(expm(a), ref) <= 1e-13, (n, a)
                assert relative_error(joint, ref) <= 1e-13, (n, a)

    def test_real_matrix_stays_real(self, rng):
        a = rng.normal(size=(5, 5))
        out = expm(a)
        assert out.dtype == np.float64
        assert relative_error(out, scipy_expm(a)) <= 1e-13

    @pytest.mark.parametrize("shape", [(1, 1), (4, 4), (3, 6, 6), (2, 2, 3, 3)])
    def test_zero_is_identity_exactly(self, shape):
        out = expm(np.zeros(shape, dtype=complex))
        assert out.shape == shape
        assert np.array_equal(out, np.broadcast_to(np.eye(shape[-1]), shape))

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 30.0, 300.0])
    def test_hamiltonian_evolution_is_unitary(self, rng, scale):
        h = random_hermitian(rng, 6)
        u = expm(-1j * h * (scale / np.abs(h).sum(axis=0).max()))
        assert np.abs(u.conj().T @ u - np.eye(6)).max() <= 1e-12

    def test_empty_stack(self):
        assert expm(np.zeros((0, 4, 4))).shape == (0, 4, 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_norm(self, bad):
        with pytest.raises(ValidationError, match="finite 1-norm"):
            expm(np.full((2, 2), bad))

    @pytest.mark.parametrize("shape", [(2, 3), (4, 2, 3), (3,), ()])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValidationError, match="square matrix"):
            expm(np.ones(shape))
