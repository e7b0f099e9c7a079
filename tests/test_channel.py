import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from probunitary.channel import (
    MIXED_UNITARY,
    QUASI_PROBABILITY,
    _sorted_split,
    apply_decomposition,
    decompose_channel,
    to_kraus_like,
)
from probunitary.config import RATE_NEGATIVITY, RECONSTRUCTION
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


def is_majorized(x, y):
    """spec x majorized by spec y, leading partial sums with 1e-9 slack."""
    x, y = np.sort(x)[::-1], np.sort(y)[::-1]
    return bool(np.all(np.cumsum(x)[:-1] <= np.cumsum(y)[:-1] + 1e-9))


def kraus_sum(dec):
    return sum(k @ kbar for k, kbar in to_kraus_like(dec).operators)


def rotated(u, spectrum):
    return u @ np.diag(spectrum) @ u.conj().T


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

    def test_classification_follows_the_probabilities(self, rng):
        # the label is read off the stored q on the mixed and quasi pairs above
        pairs = [mixed_unitary_pair(rng, d) for d in (2, 3, 6)] + [
            (np.diag([0.7, 0.3]), np.diag([0.8, 0.2])),
            (np.diag([0.3, 0.3, 0.2, 0.2]), np.diag([0.45, 0.45, 0.05, 0.05])),
        ]
        labels = []
        for rho_in, rho_out in pairs:
            dec = decompose_channel(rho_in, rho_out)
            q = dec.probabilities
            inside = np.all((q >= -RATE_NEGATIVITY) & (q <= 1 + RATE_NEGATIVITY))
            assert dec.classification == (MIXED_UNITARY if inside else QUASI_PROBABILITY)
            labels.append(dec.classification)
        assert labels == [MIXED_UNITARY] * 3 + [QUASI_PROBABILITY] * 2
        assert [f.name for f in dataclasses.fields(dec)] == [
            "probabilities", "unitaries", "reconstruction_residual"]

    def test_maximally_mixed_escape(self):
        with pytest.raises(SingularChannel, match="maximally mixed input"):
            decompose_channel(
                np.eye(2, dtype=complex) / 2, np.diag([0.8, 0.2]).astype(complex)
            )

    def test_maximally_mixed_to_itself(self):
        dec = decompose_channel(np.eye(3) / 3, np.eye(3) / 3)
        assert dec.classification == MIXED_UNITARY
        np.testing.assert_allclose(dec.probabilities, [1, 0, 0], atol=1e-12)

    def test_consistent_singular_pair_is_returned(self):
        # block-constant input spectrum with an eigenvalue change in the
        # cyclic system's range; the leading eigenvalue grows, so no
        # majorization split exists and the minimum-norm q, whose sum |q_i|
        # (4) is below the transposition tree's (7), is returned
        dec = decompose_channel(
            np.diag([0.3, 0.3, 0.2, 0.2]), np.diag([0.45, 0.45, 0.05, 0.05])
        )
        assert dec.classification == QUASI_PROBABILITY
        np.testing.assert_allclose(dec.probabilities, [2.5, 0, -1.5, 0], atol=1e-12)
        assert dec.reconstruction_residual <= RECONSTRUCTION
        assert np.abs(kraus_sum(dec) - np.eye(4)).max() <= 1e-12

    def test_nearly_singular_cyclic_system(self):
        # the cyclic system is nonsingular (a 2e-10 gap) but reconstructs
        # rho_out only to about 1e-8; the transposition tree splits the pair
        rho_in = np.diag([0.3 + 1e-10, 0.3 - 1e-10, 0.2, 0.2])
        rho_out = np.diag([0.6, 0.2, 0.15, 0.05])
        dec = decompose_channel(rho_in, rho_out)
        assert dec.classification == QUASI_PROBABILITY
        assert dec.reconstruction_residual <= RECONSTRUCTION
        assert np.abs(apply_decomposition(dec, rho_in) - rho_out).max() <= 1e-12

    @pytest.mark.parametrize("delta", [1e-9, 1e-8, 1e-7])
    def test_ill_conditioned_cyclic_split_gives_way(self, delta):
        # the overlap pairing puts the output's two halves on input branches
        # 0 and 2 of the cyclic order, so the cyclic q reconstructs rho_out
        # with sum |q_i| near 0.5 / delta; the tree's edges span at least half
        # the spread, so its sum |q_i| is 9
        dec = decompose_channel(np.diag([0.3 + delta, 0.2, 0.3 - delta, 0.2]),
                                np.diag([0.5, 0.5, 0, 0]))
        assert dec.classification == QUASI_PROBABILITY
        assert np.abs(dec.probabilities).sum() <= 9 + 1e-5
        assert np.abs(kraus_sum(dec) - np.eye(4)).max() <= 1e-12

    def test_degenerate_input_label_is_one_per_pair(self):
        # the input cluster's basis is arbitrary, so the overlap pairing
        # inside it is too; the label must not depend on it
        rng = np.random.default_rng(1)
        labels = set()
        for _ in range(200):
            u, w = random_unitary(rng, 4), random_unitary(rng, 4)
            dec = decompose_channel(rotated(u, [0.3, 0.3, 0.2, 0.2]), rotated(w, [0.5, 0.5, 0, 0]))
            assert dec.reconstruction_residual <= RECONSTRUCTION
            labels.add(dec.classification)
        assert labels == {QUASI_PROBABILITY}

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        pattern=st.sampled_from([
            [0.3, 0.3, 0.2, 0.2], [0.4, 0.2, 0.2, 0.2], [0.25, 0.25, 0.25, 0.125, 0.125],
            [0.5, 0.5, 0, 0], [0.3, 0.3, 0.3, 0.1, 0, 0], [0.5, 0.25, 0.25],
        ]),
        delta=st.sampled_from([0.0, 1e-12, 1e-10, 1e-8]),
        dirichlet=st.booleans(),
    )
    def test_label_is_majorization_on_degenerate_inputs(self, seed, pattern, delta, dirichlet):
        # the leading cluster split by delta; outputs Dirichlet or [.5, .5, 0, ...]
        rng = np.random.default_rng(seed)
        d = len(pattern)
        y = np.array(pattern)
        y[:2] += [delta, -delta]
        x = rng.dirichlet(np.ones(d)) if dirichlet else np.array([0.5, 0.5] + [0.0] * (d - 2))
        rho_in = rotated(random_unitary(rng, d), y)
        dec = decompose_channel(rho_in, rotated(random_unitary(rng, d), x))
        assert (dec.classification == MIXED_UNITARY) == is_majorized(x, y)
        assert dec.reconstruction_residual <= RECONSTRUCTION
        assert np.abs(kraus_sum(dec) - np.eye(d)).max() <= 1e-9

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValidationError):
            decompose_channel(np.eye(2) / 2, np.eye(3) / 3)

    def test_random_pairs_reconstruct(self, rng):
        for _ in range(200):
            d = int(rng.integers(2, 7))
            rho_in = random_density_matrix(rng, d, min_gap=1e-3)
            rho_out = random_density_matrix(rng, d)
            dec = decompose_channel(rho_in, rho_out)
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

    @pytest.mark.parametrize("majorized", [True, False])
    def test_unitaries_are_conjugated_permutations(self, rng, majorized):
        # in the eigenbases of the pair every unitary, cyclic or not, is a
        # 0/1 permutation matrix, whatever the eigenvector phases
        labels = set()
        for _ in range(100):
            d = int(rng.integers(2, 7))
            if majorized:
                rho_in, rho_out = mixed_unitary_pair(rng, d)
            else:
                rho_in = random_density_matrix(rng, d, min_gap=1e-2)
                rho_out = random_density_matrix(rng, d, min_gap=1e-2)
            dec = decompose_channel(rho_in, rho_out)
            v_in, v_out = np.linalg.eigh(rho_in)[1], np.linalg.eigh(rho_out)[1]
            perms = np.abs(v_out.conj().T @ dec.unitaries @ v_in)
            np.testing.assert_allclose(perms, np.round(perms), atol=1e-8)
            ones = np.round(perms)
            assert np.all(ones.sum(axis=1) == 1) and np.all(ones.sum(axis=2) == 1)
            assert abs(dec.probabilities.sum() - 1) <= 1e-12
            labels.add(dec.classification)
        assert labels == {MIXED_UNITARY} if majorized else QUASI_PROBABILITY in labels

    @pytest.mark.parametrize("d, worst, p90", [(3, 1.50, 1.14), (4, 1.80, 1.45), (5, 2.00, 1.46)])
    def test_quasi_probability_overhead_is_bounded(self, d, worst, p90):
        # sum |q_i| is a signed split's sampling cost; against the linprog
        # minimum over all d! permutations of the input spectrum it stays
        # within the ratios measured on these 100 non-majorized pairs
        perms = np.array(list(itertools.permutations(range(d))))
        rng = np.random.default_rng(7)
        ratios = []
        while len(ratios) < 100:
            rho_in = random_density_matrix(rng, d, min_gap=1e-2)
            rho_out = random_density_matrix(rng, d, min_gap=1e-2)
            y = np.linalg.eigvalsh(rho_in)[::-1]
            x = np.linalg.eigvalsh(rho_out)[::-1]
            if is_majorized(x, y):
                continue
            # w = u - v with u, v >= 0: minimize sum(u + v) subject to
            # sum_n w_n y[perms[n]] = x and sum_n w_n = 1
            a = np.vstack([y[perms].T, np.ones(len(perms))])
            best = linprog(np.ones(2 * len(perms)), A_eq=np.hstack([a, -a]),
                           b_eq=np.append(x, 1.0), bounds=(0, None), method="highs")
            assert best.status == 0
            q = decompose_channel(rho_in, rho_out).probabilities
            ratios.append(np.abs(q).sum() / best.fun)
        assert min(ratios) >= 1 - 1e-9
        assert max(ratios) <= worst and np.percentile(ratios, 90) <= p90

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


class TestPermutationMixture:
    """The Hardy-Littlewood-Polya chain called directly: decompose_channel
    takes the cyclic split on both pairs, so it never reaches these branches."""

    @pytest.mark.parametrize("y, x", [
        # the shift is used up before the last row that orders j above k
        (np.array([2, 1, 1, 0]) / 4, np.array([1.5, 1.5, 0.5, 0.5]) / 4),
        # a row that does not order j above k is skipped
        (np.array([2, 1, 1, 0, 0, 0]) / 4, np.array([3, 2, 2, 2, 2, 1]) / 12),
    ], ids=["shift-used-up", "row-skipped"])
    def test_chain_reaches_x(self, y, x):
        w, rows = _sorted_split(y, x)
        d = len(y)
        assert np.abs(w @ y[rows] - x).max() <= 1e-15
        assert ((w >= 0) & (w <= 1)).all() and w.sum() == pytest.approx(1.0, abs=1e-15)
        assert all(sorted(row) == list(range(d)) for row in rows.tolist())
        assert np.count_nonzero(w) <= d


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
            total = kraus_sum(decompose_channel(rho_in, rho_out))
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
