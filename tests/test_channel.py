import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probunitary.channel import (
    MIXED_UNITARY,
    QUASI_PROBABILITY,
    SINGULAR,
    apply_decomposition,
    decompose_channel,
    to_kraus_like,
)
from probunitary.errors import SingularChannel, ValidationError

from conftest import random_density_matrix, random_unitary


def mixed_unitary_pair(rng, d):
    """rho_in and a Dirichlet(1, 1, 1) mixture of three random
    conjugations of it, so spec(rho_out) is majorized by spec(rho_in)."""
    rho_in = random_density_matrix(rng, d, min_gap=1e-2)
    rho_out = np.zeros((d, d), dtype=complex)
    for wi in rng.dirichlet(np.ones(3)):
        u = random_unitary(rng, d)
        rho_out += wi * u @ rho_in @ u.conj().T
    return rho_in, (rho_out + rho_out.conj().T) / 2


class TestDecomposeChannel:
    def test_identity_channel(self, rng):
        rho = random_density_matrix(rng, 3, min_gap=0.05)
        dec = decompose_channel(rho, rho)
        np.testing.assert_allclose(dec.probabilities, [1, 0, 0], atol=1e-9)
        assert dec.classification == MIXED_UNITARY
        np.testing.assert_allclose(apply_decomposition(dec, rho), rho, atol=1e-10)

    def test_jc_channel(self):
        # oracle: dense 2x2 channel-mode solve for diag(1,0) -> diag(c,s)
        for s in (0.4, 1.0, 1.5):
            c2, s2 = np.cos(s / 2) ** 2, np.sin(s / 2) ** 2
            dec = decompose_channel(
                np.diag([1.0, 0.0]).astype(complex),
                np.diag([c2, s2]).astype(complex),
            )
            dense = np.linalg.solve(np.array([[1.0, 0.0], [0.0, 1.0]]), [c2 - 1, s2])
            np.testing.assert_allclose(
                dec.probabilities, [dense[0] + 1, dense[1]], atol=1e-12
            )
            np.testing.assert_allclose(dec.probabilities, [c2, s2], atol=1e-12)
            assert dec.classification == MIXED_UNITARY

    def test_quasi_probability_instance(self):
        dec = decompose_channel(
            np.diag([0.7, 0.3]).astype(complex), np.diag([0.8, 0.2]).astype(complex)
        )
        np.testing.assert_allclose(dec.probabilities, [1.25, -0.25], atol=1e-12)
        assert dec.classification == QUASI_PROBABILITY
        assert dec.reconstruction_residual <= 1e-10

    def test_maximally_mixed_escape(self):
        with pytest.raises(SingularChannel) as exc:
            decompose_channel(
                np.eye(2, dtype=complex) / 2, np.diag([0.8, 0.2]).astype(complex)
            )
        assert "length 2" in exc.value.block_structure

    def test_consistent_singular_pair_is_returned(self):
        # block-constant input spectrum with an eigenvalue change in the
        # cyclic system's range; the leading eigenvalue grows, so no
        # majorization split exists and the minimum-norm q is returned
        dec = decompose_channel(
            np.diag([0.3, 0.3, 0.2, 0.2]), np.diag([0.45, 0.45, 0.05, 0.05])
        )
        assert dec.classification == SINGULAR
        np.testing.assert_allclose(dec.probabilities, [2.5, 0, -1.5, 0], atol=1e-12)
        with pytest.raises(ValidationError):
            to_kraus_like(dec)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValidationError):
            decompose_channel(np.eye(2) / 2, np.eye(3) / 3)

    def test_random_pairs_reconstruct(self, rng):
        for _ in range(200):
            d = int(rng.integers(2, 7))
            rho_in = random_density_matrix(rng, d, min_gap=1e-3)
            rho_out = random_density_matrix(rng, d)
            try:
                dec = decompose_channel(rho_in, rho_out)
            except SingularChannel:
                continue
            out = apply_decomposition(dec, rho_in)
            assert np.abs(out - rho_out).max() <= 1e-8

    def test_mixed_unitary_generated_channels(self, rng):
        # channels built by explicitly mixing unitaries must classify as
        # mixed unitary and reconstruct their own pair (the recovered q
        # need not match the generating mixture)
        for _ in range(40):
            d = int(rng.integers(2, 5))
            rho_in = random_density_matrix(rng, d, min_gap=1e-2)
            rho_out = np.zeros((d, d), dtype=complex)
            for wi in rng.dirichlet(np.ones(3)):
                u = random_unitary(rng, d)
                rho_out += wi * u @ rho_in @ u.conj().T
            rho_out = (rho_out + rho_out.conj().T) / 2
            dec = decompose_channel(rho_in, rho_out)
            out = apply_decomposition(dec, rho_in)
            assert np.abs(out - rho_out).max() <= 1e-8
            assert dec.classification == MIXED_UNITARY

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 6))
    def test_mixed_unitary_label_for_any_seed(self, seed, d):
        rho_in, rho_out = mixed_unitary_pair(np.random.default_rng(seed), d)
        dec = decompose_channel(rho_in, rho_out)
        assert dec.classification == MIXED_UNITARY
        assert np.abs(apply_decomposition(dec, rho_in) - rho_out).max() <= 1e-8
        q = dec.probabilities
        assert q.shape == (d,) and dec.unitaries.shape == (d, d, d)
        # the mixed_unitary label admits the cyclic construction's q within 1e-9
        assert np.all((q >= -1e-9) & (q <= 1 + 1e-9))
        assert abs(q.sum() - 1) <= 1e-12

    def test_non_majorized_pair_stays_quasi_probability(self, rng):
        # leading eigenvalue grows 0.5 -> 0.6: no mixed-unitary split exists
        u_in, u_out = random_unitary(rng, 3), random_unitary(rng, 3)
        rho_in = u_in @ np.diag([0.5, 0.3, 0.2]) @ u_in.conj().T
        rho_out = u_out @ np.diag([0.6, 0.3, 0.1]) @ u_out.conj().T
        dec = decompose_channel(rho_in, rho_out)
        assert dec.classification == QUASI_PROBABILITY
        assert dec.probabilities.min() < 0
        assert np.abs(apply_decomposition(dec, rho_in) - rho_out).max() <= 1e-8

    def test_state_dependence(self, rng):
        # fixed generating channel, two inputs: decompositions differ but
        # each reconstructs its own pair
        d = 2
        u = random_unitary(rng, d)
        w = 0.7

        def channel(rho):
            mixed = w * rho + (1 - w) * u @ rho @ u.conj().T
            return (mixed + mixed.conj().T) / 2

        rho_a = random_density_matrix(rng, d, min_gap=0.1)
        rho_b = random_density_matrix(rng, d, min_gap=0.1)
        dec_a = decompose_channel(rho_a, channel(rho_a))
        dec_b = decompose_channel(rho_b, channel(rho_b))
        assert np.abs(apply_decomposition(dec_a, rho_a) - channel(rho_a)).max() <= 1e-8
        assert np.abs(apply_decomposition(dec_b, rho_b) - channel(rho_b)).max() <= 1e-8
        assert not np.allclose(dec_a.probabilities, dec_b.probabilities, atol=1e-6)


class TestKrausLike:
    def test_identity_channel(self, rng):
        rho = random_density_matrix(rng, 2, min_gap=0.1)
        kraus = to_kraus_like(decompose_channel(rho, rho))
        k0, kbar0 = kraus.operators[0]
        np.testing.assert_allclose(k0 @ kbar0, np.eye(2), atol=1e-9)
        assert kraus.signs[0] == 1

    def test_jc_channel_operators(self):
        s = 0.8
        c2, s2 = np.cos(s / 2) ** 2, np.sin(s / 2) ** 2
        dec = decompose_channel(
            np.diag([1.0, 0.0]).astype(complex), np.diag([c2, s2]).astype(complex)
        )
        kraus = to_kraus_like(dec)
        np.testing.assert_allclose(
            kraus.operators[0][0], np.cos(s / 2) * dec.unitaries[0], atol=1e-12
        )
        np.testing.assert_allclose(
            np.abs(kraus.operators[1][0]), np.sin(s / 2) * np.abs(dec.unitaries[1]),
            atol=1e-12,
        )
        total = sum(k @ kbar for k, kbar in kraus.operators)
        assert np.abs(total - np.eye(2)).max() <= 1e-12

    def test_quasi_probability_signs_and_completeness(self):
        dec = decompose_channel(
            np.diag([0.7, 0.3]).astype(complex), np.diag([0.8, 0.2]).astype(complex)
        )
        kraus = to_kraus_like(dec)
        np.testing.assert_array_equal(kraus.signs, [1.0, -1.0])
        total = sum(k @ kbar for k, kbar in kraus.operators)
        assert np.abs(total - np.eye(2)).max() <= 1e-9

    def test_zero_weight_slots_keep_completeness(self):
        # a T-transform on the leading pair: the cyclic q has a negative entry,
        # the majorization split needs two of the four slots
        y = np.array([0.4, 0.3, 0.2, 0.1])
        x = np.array([0.36, 0.34, 0.2, 0.1])
        dec = decompose_channel(np.diag(y).astype(complex), np.diag(x).astype(complex))
        assert dec.classification == MIXED_UNITARY
        np.testing.assert_allclose(dec.probabilities, [0.6, 0.4, 0, 0], atol=1e-12)
        kraus = to_kraus_like(dec)
        assert kraus.operators.shape == (4, 2, 4, 4)
        np.testing.assert_array_equal(kraus.signs, [1.0, 1.0, 1.0, 1.0])
        for k, kbar in kraus.operators[2:]:
            assert not k.any() and not kbar.any()
        total = sum(k @ kbar for k, kbar in kraus.operators)
        assert np.abs(total - np.eye(4)).max() <= 1e-12

    def test_completeness_random(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 6))
            rho_in = random_density_matrix(rng, d, min_gap=1e-3)
            rho_out = random_density_matrix(rng, d)
            try:
                kraus = to_kraus_like(decompose_channel(rho_in, rho_out))
            except SingularChannel:
                continue
            total = sum(k @ kbar for k, kbar in kraus.operators)
            assert np.abs(total - np.eye(d)).max() <= 1e-9


class TestApply:
    def test_trace_preserved_on_arbitrary_states(self, rng):
        dec = decompose_channel(
            np.diag([0.7, 0.3]).astype(complex), np.diag([0.8, 0.2]).astype(complex)
        )
        for _ in range(100):
            rho = random_density_matrix(rng, 2)
            out = apply_decomposition(dec, rho)
            assert abs(np.trace(out) - 1) <= 1e-10

    def test_dimension_mismatch(self, rng):
        dec = decompose_channel(
            np.diag([0.7, 0.3]).astype(complex), np.diag([0.8, 0.2]).astype(complex)
        )
        with pytest.raises(ValidationError):
            apply_decomposition(dec, np.eye(3) / 3)
