import math

import numpy as np
import pytest
from scipy.linalg import expm

from probunitary.errors import ValidationError
from probunitary.models import (
    LindbladSpec,
    ModelParams,
    SIGMA_MINUS,
    SIGMA_Z,
    amplitude_damping_exact,
    amplitude_damping_spec,
    integrate,
    jc_rate,
    jc_reduced_state,
    lindblad_rhs,
    sample_model,
)

from conftest import random_density_matrix, random_hermitian


class TestClosedForms:
    def test_jc_initial_state(self):
        np.testing.assert_allclose(jc_reduced_state(1.0, 0.0), np.diag([1, 0]))

    def test_jc_full_flip(self):
        np.testing.assert_allclose(
            jc_reduced_state(1.0, math.pi), np.diag([0, 1]), atol=1e-15
        )

    def test_jc_maximally_mixed_crossing(self):
        np.testing.assert_allclose(
            jc_reduced_state(1.0, math.pi / 2), np.eye(2) / 2, atol=1e-15
        )

    def test_jc_rate_values(self):
        assert jc_rate(1.0, math.pi / 4) == pytest.approx(0.5)
        assert jc_rate(1.0, 3 * math.pi / 4) == pytest.approx(-0.5)
        assert math.isinf(jc_rate(1.0, math.pi / 2))

    def test_amplitude_damping_values(self):
        np.testing.assert_allclose(
            amplitude_damping_exact(1.0, 0.0), np.diag([1, 0])
        )
        np.testing.assert_allclose(
            amplitude_damping_exact(1.0, math.log(2)), np.eye(2) / 2, atol=1e-15
        )
        np.testing.assert_allclose(
            amplitude_damping_exact(1.0, math.log(4 / 3)),
            np.diag([0.75, 0.25]),
            atol=1e-15,
        )

    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            jc_reduced_state(1.0, -0.1)

    @pytest.mark.parametrize("omega, t", [
        (1.0, math.nan), (1.0, math.inf), (1.0, -1.0), (-1.0, 1.0), (0.0, 1.0),
        (math.nan, 1.0), (math.inf, 1.0), (1e308, 2.0), ("a", 1.0), (1.0, "a"),
        pytest.param(10**5000, 1.0, id="huge-omega"), pytest.param(1.0, 10**5000, id="huge-t"),
    ])
    def test_jc_rate_rejects_bad_arguments(self, omega, t):
        with pytest.raises(ValidationError, match="jc_rate"):
            jc_rate(omega, t)

    def test_params_validation(self):
        for params in ({"omega": -1.0}, {"gamma": None}, {"omega": True}, {"omega": 10**5000}):
            with pytest.raises(ValidationError, match="omega and gamma must be finite and positive"):
                ModelParams(**params)

    @pytest.mark.parametrize("closed_form", [jc_reduced_state, amplitude_damping_exact])
    def test_closed_form_rejects_non_numeric_time(self, closed_form):
        with pytest.raises(ValidationError, match="time must be finite and nonnegative"):
            closed_form(1.0, "a")

    @pytest.mark.parametrize("rate", [-1.0, 0.0, math.nan, math.inf, None, True, "a"])
    @pytest.mark.parametrize("closed_form, name", [
        (jc_reduced_state, "omega"), (amplitude_damping_exact, "gamma"),
    ])
    def test_closed_form_rejects_bad_rate(self, closed_form, name, rate):
        with pytest.raises(ValidationError, match=f"{name} must be finite and positive"):
            closed_form(rate, 1.0)


class TestLindbladRhs:
    def test_commuting_hamiltonian_gives_zero(self):
        spec = LindbladSpec(hamiltonian=SIGMA_Z / 2)
        out = lindblad_rhs(spec, np.diag([1.0, 0.0]))
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_amplitude_damping_initial_slope(self):
        # hand evaluation: L = sigma^-, gamma = 1, rho = |e><e| gives
        # diag(-1, 1)
        spec = amplitude_damping_spec(1.0)
        out = lindblad_rhs(spec, np.diag([1.0, 0.0]))
        np.testing.assert_allclose(out, np.diag([-1.0, 1.0]), atol=1e-15)

    def test_generator_of_jump_ops_is_kept(self):
        spec = LindbladSpec(hamiltonian=np.zeros((2, 2)),
                            jump_ops=((SIGMA_MINUS, 1.0) for _ in range(1)))
        out = lindblad_rhs(spec, np.diag([0.5, 0.5]))
        np.testing.assert_allclose(out, np.diag([-0.5, 0.5]), atol=1e-15)
        assert np.array_equal(out, lindblad_rhs(
            LindbladSpec(hamiltonian=np.zeros((2, 2)), jump_ops=((SIGMA_MINUS, 1.0),)),
            np.diag([0.5, 0.5])))

    def test_traceless_and_hermitian(self, rng):
        for d in (2, 3, 4):
            spec = LindbladSpec(
                hamiltonian=random_hermitian(rng, d),
                jump_ops=((rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)), 0.7),),
            )
            rho = random_density_matrix(rng, d)
            out = lindblad_rhs(spec, rho)
            assert abs(np.trace(out)) <= 1e-10
            assert np.abs(out - out.conj().T).max() <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            lindblad_rhs(LindbladSpec(hamiltonian=np.eye(3)), np.eye(2) / 2)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValidationError):
            LindbladSpec(hamiltonian=np.eye(2), jump_ops=((SIGMA_MINUS, -0.5),))

    @pytest.mark.parametrize("hamiltonian, jump_ops, expected", [
        (np.diag([math.nan, 0.0]), (), "finite square"),
        (np.diag([math.inf, 0.0]), (), "finite square"),
        (np.ones((2, 3)), (), r"shape \(2, 3\)"),
        (np.ones(2), (), r"shape \(2,\)"),
        (np.eye(2), ((SIGMA_MINUS, math.nan),), "jump rates"),
        (np.eye(2), ((SIGMA_MINUS, math.inf),), "jump rates"),
        (np.eye(2), ((SIGMA_MINUS, "1"),), "jump rates"),
        (np.eye(2), ((SIGMA_MINUS, 1j),), "jump rates"),
        (np.eye(2), ((SIGMA_MINUS, True),), "jump rates"),
        (np.eye(2), ((SIGMA_MINUS * math.nan, 1.0),), "jump operators must be finite"),
        (np.eye(2), ((np.eye(3), 1.0),), "dimension mismatch"),
        (np.eye(3), (np.eye(3),), r"\(operator, gamma\) pairs"),
        (np.eye(2), ((np.eye(2),),), r"\(operator, gamma\) pairs"),
        (np.eye(2), (np.eye(2),), r"\(operator, gamma\) pairs"),
        (np.eye(2), None, r"\(operator, gamma\) pairs"),
        (np.eye(2), ((SIGMA_MINUS, 10**400),), r"jump_ops\[0\]: jump rates"),
        ("abc", (), "hamiltonian: not a numeric matrix"),
        ([[1, 2], [3]], (), "hamiltonian: not a numeric matrix"),
        (np.eye(2), (([[1, 2], [3]], 1.0),), r"jump_ops\[0\]: not a numeric matrix"),
        pytest.param(np.eye(2), ((SIGMA_MINUS, 10**5000),), "gamma beyond the float range$",
                     id="gamma-past-repr-limit"),
    ])
    def test_malformed_spec_rejected(self, hamiltonian, jump_ops, expected):
        with pytest.raises(ValidationError, match=expected):
            LindbladSpec(hamiltonian=hamiltonian, jump_ops=jump_ops)

    def test_numpy_scalar_gamma_accepted(self):
        spec = LindbladSpec(hamiltonian=np.eye(2),
                            jump_ops=((SIGMA_MINUS, np.float64(0.5)), (SIGMA_MINUS, np.int64(1))))
        assert len(spec.jump_ops) == 2


class TestIntegrator:
    def test_unitary_limit_conserves_purity(self, rng):
        spec = LindbladSpec(hamiltonian=random_hermitian(rng, 2))
        rho0 = random_density_matrix(rng, 2)
        grid = np.arange(0, 1.0, 1e-3)
        rhos = integrate(spec, rho0, grid).rhos
        purities = np.einsum("kab,kba->k", rhos, rhos).real
        assert purities.max() - purities.min() <= 1e-10

    def test_amplitude_damping_against_exact(self):
        spec = amplitude_damping_spec(1.0)
        grid = np.arange(0, 1.0 + 5e-4, 1e-3)
        final = integrate(spec, np.diag([1.0, 0.0]).astype(complex), grid).rhos[-1]
        assert final[0, 0].real == pytest.approx(math.exp(-1.0), abs=1e-8)

    def test_trace_and_hermiticity_every_step(self):
        spec = amplitude_damping_spec(2.0)
        grid = np.arange(0, 0.5, 1e-3)
        rhos = integrate(spec, np.diag([1.0, 0.0]).astype(complex), grid).rhos
        assert np.abs(np.einsum("kii->k", rhos) - 1).max() <= 1e-12
        assert np.abs(rhos - rhos.conj().swapaxes(1, 2)).max() <= 1e-12

    def test_exact_against_closed_form(self):
        spec = amplitude_damping_spec(1.0)
        grid = np.arange(0, 1.0 + 5e-3, 1e-2)
        rhos = integrate(spec, np.diag([1.0, 0.0]).astype(complex), grid).rhos
        assert np.abs(rhos - np.stack([amplitude_damping_exact(1.0, t) for t in grid])).max() <= 1e-12

    def test_bad_grid_rejected(self):
        spec = amplitude_damping_spec(1.0)
        with pytest.raises(ValidationError):
            integrate(spec, np.eye(2) / 2, [0.0, 0.0, 0.1])

    def test_large_steps_stay_positive(self):
        # one grid step is fifty decay times
        spec = amplitude_damping_spec(50.0)
        grid = [0.0, 1.0, 2.0]
        rhos = integrate(spec, np.diag([1.0, 0.0]).astype(complex), grid).rhos
        assert np.linalg.eigvalsh(rhos).min() >= -1e-15
        assert np.abs(rhos - np.stack([amplitude_damping_exact(50.0, t) for t in grid])).max() <= 1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="state and Hamiltonian dimensions differ"):
            integrate(LindbladSpec(hamiltonian=np.eye(3)), np.eye(2) / 2, [0.0, 0.1])

    def test_non_positive_rho0_rejected(self):
        # the propagator preserves positivity, so rho0 is checked once
        spec = LindbladSpec(hamiltonian=np.zeros((2, 2)))
        with pytest.raises(ValidationError, match="positive semidefinite"):
            integrate(spec, np.diag([1.2, -0.2]).astype(complex), [0.0, 0.5, 1.0])

    def test_non_uniform_grid_is_exact(self, rng):
        d = 3
        h = random_hermitian(rng, d)
        jumps = ((rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)), 0.7),
                 (random_hermitian(rng, d, 0.5), 1.3))
        rho0 = random_density_matrix(rng, d)
        grid = np.cumsum(np.concatenate([[0.0], rng.uniform(1e-3, 0.2, 40)]))
        rhos = integrate(LindbladSpec(hamiltonian=h, jump_ops=jumps), rho0, grid).rhos

        def rhs(rho):
            out = -1j * (h @ rho - rho @ h)
            for op, gamma in jumps:
                anti = op.conj().T @ op
                out += gamma * (op @ rho @ op.conj().T - 0.5 * (anti @ rho + rho @ anti))
            return out

        # the generator's columns are its action on the matrix units
        gen = np.column_stack([rhs(e.reshape(d, d)).reshape(-1) for e in np.eye(d * d)])
        for t, rho in zip(grid, rhos):
            exact = (expm(gen * t) @ rho0.reshape(-1)).reshape(d, d)
            assert np.abs(rho - exact).max() <= 1e-12


class TestCatalogue:
    def test_length_is_the_grid_size(self):
        grid = np.linspace(0.0, 0.5, 11)
        assert len(integrate(amplitude_damping_spec(1.0), np.diag([1.0, 0.0]), grid)) == grid.size
        assert len(sample_model("jc", grid)) == grid.size

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    @pytest.mark.parametrize("closed_form", [jc_reduced_state, amplitude_damping_exact])
    def test_non_finite_time_rejected(self, closed_form, t):
        with pytest.raises(ValidationError, match="finite and nonnegative"):
            closed_form(1.0, t)

    def test_jc_samples(self):
        samples = sample_model("jc", [0.0, 0.1, 0.2])
        assert len(samples) == 3
        np.testing.assert_allclose(samples.rhos[0], np.diag([1, 0]))

    @pytest.mark.parametrize(
        "name, closed_form, params",
        [
            ("jc", jc_reduced_state, ModelParams(omega=1.3)),
            ("amplitude-damping", amplitude_damping_exact, ModelParams(gamma=0.7)),
        ],
    )
    def test_grid_samples_equal_per_time_closed_forms(self, name, closed_form, params):
        grid = np.arange(0, 3.0 + 5e-4, 1e-3)
        samples = sample_model(name, grid, params)
        arg = params.omega if name == "jc" else params.gamma
        assert np.array_equal(samples.times, grid)
        assert np.array_equal(samples.rhos, np.stack([closed_form(arg, t) for t in grid]))

    @pytest.mark.parametrize("name", ["jc", "amplitude-damping"])
    def test_negative_grid_time_rejected(self, name):
        with pytest.raises(ValidationError, match="nonnegative"):
            sample_model(name, [-0.1, 0.0])

    @pytest.mark.parametrize("grid", [["a", "b"], [[0.0, 0.1], [0.2]], [0.0, 1j]])
    def test_non_numeric_grid_rejected(self, grid):
        with pytest.raises(ValidationError, match="a time grid needs"):
            sample_model("jc", grid)

    def test_unknown_model(self):
        with pytest.raises(ValidationError):
            sample_model("nope", [0.0, 0.1])

    def test_lindblad_requires_spec(self):
        with pytest.raises(ValidationError, match="integrate"):
            sample_model("lindblad", [0.0, 0.1])
