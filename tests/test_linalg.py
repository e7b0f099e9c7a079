import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probunitary.errors import ValidationError
from probunitary.linalg import (
    rate_system_matrix,
    classify_circulant_singularity,
    hermitian_eigendecomposition,
    real_weyl,
    solve_circulant_rates,
    validate_density_matrix,
    weyl_family,
)

from conftest import random_hermitian, random_unitary


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


class TestEigendecomposition:
    def test_diagonal_input(self):
        spec = hermitian_eigendecomposition(np.diag([0.7, 0.3]))
        np.testing.assert_allclose(spec.eigenvalues, [0.7, 0.3])
        np.testing.assert_allclose(spec.eigenvectors, np.eye(2), atol=1e-14)

    def test_sigma_x_mixture(self):
        # oracle: direct 2x2 diagonalization of (1 + sigma_x)/2 gives
        # eigenpairs (1, (1,1)/sqrt(2)) and (0, (1,-1)/sqrt(2))
        m = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
        spec = hermitian_eigendecomposition(m)
        np.testing.assert_allclose(spec.eigenvalues, [1.0, 0.0], atol=1e-14)
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(spec.eigenvectors[:, 0], [s, s], atol=1e-12)
        np.testing.assert_allclose(np.abs(spec.eigenvectors[:, 1]), [s, s], atol=1e-12)

    def test_maximally_mixed_tie_break(self):
        spec = hermitian_eigendecomposition(np.eye(2) / 2)
        np.testing.assert_allclose(spec.eigenvalues, [0.5, 0.5])
        np.testing.assert_allclose(spec.eigenvectors, np.eye(2), atol=1e-14)

    def test_reconstruction_and_unitarity(self, rng):
        for d in (2, 3, 5):
            m = random_hermitian(rng, d)
            spec = hermitian_eigendecomposition(m)
            u = spec.eigenvectors
            assert np.max(np.abs(u.conj().T @ u - np.eye(d))) <= 1e-9
            rec = u @ np.diag(spec.eigenvalues) @ u.conj().T
            assert np.max(np.abs(rec - m)) <= 1e-9
            assert np.all(np.diff(spec.eigenvalues) <= 1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            hermitian_eigendecomposition(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_degenerate_cluster_ordered_by_key(self, rng):
        # rank-2 d=5 state: the three zero eigenvalues form one cluster, which
        # is ordered by eigenvector key, not by (rounding-level) eigenvalue
        u = random_unitary(rng, 5)
        m = u @ np.diag([0.63, 0.37, 0.0, 0.0, 0.0]) @ u.conj().T
        spec = hermitian_eigendecomposition(m)
        vals, vecs = spec.eigenvalues, spec.eigenvectors
        np.testing.assert_allclose(vals, [0.63, 0.37, 0, 0, 0], atol=1e-12)
        assert np.max(np.abs(m @ vecs - vecs * vals)) <= 1e-12
        keys = [
            tuple(x for z in vecs[:, j] for x in (z.real, z.imag)) for j in (2, 3, 4)
        ]
        assert keys == sorted(keys, reverse=True)


class TestRealWeyl:
    def test_identity_shift(self):
        np.testing.assert_array_equal(real_weyl(2, 0), np.eye(2))

    def test_d2_shift_is_sigma_x(self):
        np.testing.assert_array_equal(real_weyl(2, 1).real, [[0, 1], [1, 0]])

    def test_d3_shift_one(self):
        # direct evaluation of sum_k |k><(k+1) mod 3|
        expected = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        np.testing.assert_array_equal(real_weyl(3, 1).real, expected)

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            real_weyl(3, 3)

    @pytest.mark.parametrize("d", range(2, 17))
    def test_orthogonality(self, d):
        fam = weyl_family(d)
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
        u = real_weyl(d, shift)
        rotated = np.diagonal(u @ np.diag(p) @ u.conj().T).real
        np.testing.assert_allclose(rotated, np.roll(p, -shift), atol=1e-14)


class TestCirculantSolver:
    def test_stationary_spectrum(self):
        res = solve_circulant_rates([0.7, 0.3], [0.0, 0.0])
        np.testing.assert_allclose(res.q, [0.0, 0.0], atol=1e-14)
        assert not res.singular

    def test_two_level_example(self):
        # oracle: dense 2x2 solve of [[p1, p2], [p2, p1]] v = f
        res = solve_circulant_rates([0.7, 0.3], [-0.1, 0.1])
        np.testing.assert_allclose(res.q, [0.25, 0.25], atol=1e-12)

    def test_singular_inconsistent_is_reported(self):
        res = solve_circulant_rates([0.5, 0.5], [-0.1, 0.2])
        assert res.singular and res.inconsistent
        assert "length 2" in res.block_structure
        consistent = solve_circulant_rates([0.5, 0.5], [0.1, 0.1])
        assert consistent.singular and not consistent.inconsistent

    def test_jc_channel_instance(self):
        # mixed-unitary channel of the vacuum Rabi qubit
        for s in (0.3, 0.9, 1.4):
            c, sn = np.cos(s / 2) ** 2, np.sin(s / 2) ** 2
            res = solve_circulant_rates(
                [1.0, 0.0], [c - 1.0, sn], mode="channel"
            )
            np.testing.assert_allclose(res.q, [c, sn], atol=1e-12)

    def test_residual_invariant(self, rng):
        for _ in range(200):
            d = rng.integers(2, 9)
            p = rng.dirichlet(np.ones(d))
            f = rng.normal(size=d)
            res = solve_circulant_rates(p, f)
            if res.singular:
                continue
            v = res.q.copy()
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
            res = solve_circulant_rates(p, f)
            if res.singular:
                continue
            dense = np.linalg.solve(rate_system_matrix(p), f)
            v = res.q.copy()
            v[0] = -v[0]
            np.testing.assert_allclose(v, dense, atol=1e-9)
            count += 1

    def test_conservation_duality(self, rng):
        for _ in range(300):
            d = int(rng.integers(2, 9))
            p = rng.dirichlet(np.ones(d) * 3)
            f = rng.normal(size=d)
            f -= f.mean()  # trace-conserving
            res = solve_circulant_rates(p, f)
            if res.singular:
                continue
            assert abs(-res.q[0] + res.q[1:].sum()) <= 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            solve_circulant_rates([0.5, 0.5], [0.0, 0.0, 0.0])

    def test_bad_probability_vector(self):
        with pytest.raises(ValidationError):
            solve_circulant_rates([0.9, 0.3], [0.0, 0.0])


class TestSingularityClassifier:
    def test_paper_block_example(self):
        singular, b, _ = classify_circulant_singularity(
            np.repeat([0.3, 0.15, 0.05], 2)
        )
        assert singular and b == 2

    def test_distinct_values(self):
        singular, b, _ = classify_circulant_singularity([0.5, 0.3, 0.2])
        assert not singular and b is None

    def test_maximally_mixed_qubit(self):
        # DFT symbol of circ(0.5, 0.5) vanishes at frequency 1
        singular, b, _ = classify_circulant_singularity([0.5, 0.5])
        assert singular and b == 2
        assert abs(np.fft.fft([0.5, 0.5])[1]) < 1e-15

    @pytest.mark.parametrize("d", range(2, 13))
    def test_agrees_with_rank_oracle(self, d, rng):
        for _ in range(60):
            if rng.random() < 0.5 and d % 2 == 0:
                # block-patterned spectrum
                b = int(rng.choice([b for b in range(2, d + 1) if d % b == 0]))
                base = rng.dirichlet(np.ones(d // b))
                p = np.repeat(np.sort(base)[::-1] / b, b)
            else:
                p = np.sort(rng.dirichlet(np.ones(d)))[::-1]
            singular, _, _ = classify_circulant_singularity(p, tol=1e-12)
            rank = np.linalg.matrix_rank(rate_system_matrix(p), tol=1e-10)
            assert singular == (rank < d)
