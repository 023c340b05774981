"""Tests for eventually periodic sequences, their product states, and
measure extensions.

Expected values come from independent routes: raw inner-product series
for the period, letterwise products for product-state values, direct
tail products for coefficients, and Fourier coefficients of the measure
for moment recovery.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SEED
from helpers import random_sequence, random_unit_vector, random_word

from fockstate.density import Rank1Block, StateHandle, classify
from fockstate.errors import HorizonError, SchemaError
from fockstate.measures import CircleMeasure, fourier
from fockstate.product_states import (
    UnitVectorSequence,
    elementary_tensors,
    extend,
    extension_coefficients,
    gauge_transform,
    is_rephased,
    parse_extension_request,
    period,
    product_state,
    recover_measure_moments,
    rephase,
)


def constant_sequence(n, letter=1):
    e = np.zeros(n, dtype=complex)
    e[letter - 1] = 1.0
    return UnitVectorSequence(n, [], [e])


def raw_overlap(seq, a, b):
    """<e_a, e_b> by raw arithmetic, no stored-slot shortcuts."""
    return complex(np.vdot(seq.vector(b), seq.vector(a)))


def convexify(m1: CircleMeasure, m2: CircleMeasure, t: float) -> CircleMeasure:
    atoms = [(a, t * w) for a, w in m1.atoms if t > 0]
    atoms += [(a, (1 - t) * w) for a, w in m2.atoms if t < 1]
    return CircleMeasure.from_atoms(
        atoms, haar_weight=t * m1.haar_weight + (1 - t) * m2.haar_weight
    )


BAD_INPUT = {
    "rephase period 0": (lambda: rephase(constant_sequence(2), 0),
                         "period must be a positive integer"),
    "recover p 0": (lambda: recover_measure_moments(product_state(constant_sequence(2), 2),
                                                    constant_sequence(2), 0, 1),
                    "need p >= 1"),
    "vector 0": (lambda: constant_sequence(2).vector(0), "indices start at 1"),
}


@pytest.mark.parametrize("call, message", BAD_INPUT.values(), ids=BAD_INPUT)
def test_rejects_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestSequence:
    def test_vector_lookup(self):
        rng = np.random.default_rng(SEED)
        pre = [random_unit_vector(rng, 2) for _ in range(2)]
        cyc = [random_unit_vector(rng, 2) for _ in range(3)]
        seq = UnitVectorSequence(2, pre, cyc)
        assert seq.vector(1) is seq.prefix[0]
        assert seq.vector(2) is seq.prefix[1]
        assert seq.vector(3) is seq.cycle[0]
        assert seq.vector(5) is seq.cycle[2]
        assert seq.vector(6) is seq.cycle[0]
        assert seq.vector(11) is seq.cycle[2]

    def test_overlap_matches_raw_inner(self):
        rng = np.random.default_rng(SEED + 1)
        seq = random_sequence(rng, 3, 2, 2)
        for a, b in [(1, 2), (2, 3), (1, 4), (3, 4)]:
            assert seq.overlap(a, b) == pytest.approx(raw_overlap(seq, a, b))
            assert seq.overlap(a, b) == np.conj(seq.overlap(b, a))

    def test_overlap_linear_in_first_argument(self):
        e1 = np.array([1.0, 0.0], dtype=complex)
        e2 = np.array([1j, 0.0], dtype=complex)
        seq = UnitVectorSequence(2, [e1], [e2])
        # <i*e, e> = i under linearity in the first slot
        assert seq.overlap(2, 1) == pytest.approx(1j)

    def test_same_slot_overlap_is_exactly_one(self):
        rng = np.random.default_rng(SEED + 2)
        seq = random_sequence(rng, 2, 1, 2)
        assert seq.overlap(2, 4) == 1.0 + 0j
        assert seq.overlap(3, 7) == 1.0 + 0j
        assert seq.overlap(1, 1) == 1.0 + 0j

    def test_rejects_bad_input(self):
        e = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(ValueError):
            UnitVectorSequence(2, [], [])
        with pytest.raises(ValueError):
            UnitVectorSequence(2, [], [2 * e])
        with pytest.raises(ValueError):
            UnitVectorSequence(2, [], [np.array([1.0, 0.0, 0.0])])
        with pytest.raises(ValueError):
            UnitVectorSequence(0, [], [np.ones(0)])

    def test_payload_round_trip(self):
        rng = np.random.default_rng(SEED + 3)
        seq = random_sequence(rng, 3, 2, 2)
        back = UnitVectorSequence.from_payload(seq.to_payload())
        assert back.n == 3
        for k in range(1, 6):
            assert np.allclose(back.vector(k), seq.vector(k))

    def test_payload_rejects_malformed(self):
        good = constant_sequence(2).to_payload()
        with pytest.raises(SchemaError):
            UnitVectorSequence.from_payload({**good, "junk": 1})
        with pytest.raises(SchemaError):
            UnitVectorSequence.from_payload({"n": 2, "prefix": []})
        with pytest.raises(SchemaError):
            UnitVectorSequence.from_payload(
                {"n": 2, "prefix": [], "cycle": [[[1.0, 0.0]]]}
            )
        with pytest.raises(SchemaError):
            UnitVectorSequence.from_payload(
                {"n": 2, "prefix": [], "cycle": [[[0.5, 0.0], [0.0, 0.0]]]}
            )
        with pytest.raises(SchemaError):
            UnitVectorSequence.from_payload(
                {"n": 2, "prefix": [], "cycle": [[[1.0, "x"], [0.0, 0.0]]]}
            )


class TestPeriod:
    def test_constant_sequence(self):
        assert period(constant_sequence(2)) == 1

    def test_orthogonal_pair(self):
        e1 = np.array([1.0, 0.0], dtype=complex)
        e2 = np.array([0.0, 1.0], dtype=complex)
        seq = UnitVectorSequence(2, [], [e1, e2])
        assert period(seq) == 2

    def test_phase_multiple_cycle_collapses(self):
        rng = np.random.default_rng(SEED + 10)
        f = random_unit_vector(rng, 2)
        seq = UnitVectorSequence(2, [], [f, 1j * f])
        assert period(seq) == 1

    def test_prefix_is_ignored(self):
        rng = np.random.default_rng(SEED + 11)
        pre = [random_unit_vector(rng, 2) for _ in range(3)]
        seq = UnitVectorSequence(2, pre, constant_sequence(2).cycle)
        assert period(seq) == 1

    def test_random_cycle_has_full_period(self):
        rng = np.random.default_rng(SEED + 12)
        seq = random_sequence(rng, 2, 1, 3)
        assert period(seq) == 3

    def test_defect_series_oracle(self):
        # p is a period exactly when the series of overlap defects
        # 1 - |<e_i, e_{i+p}>| has vanishing tail.
        rng = np.random.default_rng(SEED + 13)
        seq = random_sequence(rng, 2, 2, 2)

        def partial(p, terms):
            return sum(
                1.0 - abs(raw_overlap(seq, i, i + p))
                for i in range(1, terms + 1)
            )

        p = period(seq)
        assert p == 2
        assert partial(p, 200) - partial(p, 20) <= 1e-10
        assert partial(1, 200) - partial(1, 20) > 0.5


class TestRephase:
    def test_overlaps_become_nonnegative(self):
        rng = np.random.default_rng(SEED + 20)
        seq = random_sequence(rng, 2, 2, 3)
        out = rephase(seq)
        assert is_rephased(out, 3)
        for i in range(1, 9):
            c = raw_overlap(out, i, i + 3)
            assert abs(c.imag) <= 1e-12
            assert c.real >= -1e-12

    def test_cycle_shrinks_to_period(self):
        rng = np.random.default_rng(SEED + 21)
        f = random_unit_vector(rng, 3)
        seq = UnitVectorSequence(3, [], [f, np.exp(0.4j) * f])
        out = rephase(seq)
        assert out.cycle_len == 1
        assert out.prefix_len == 0

    def test_matches_continued_phase_chain(self):
        # Continuing the phase recursion past the stored range gives the
        # same vectors the cyclic representation returns.
        rng = np.random.default_rng(SEED + 22)
        seq = random_sequence(rng, 2, 2, 2)
        p = period(seq)
        out = rephase(seq, p)
        top = seq.prefix_len + 3 * p
        phases = [1.0 + 0j] * (top + p + 1)
        for k in range(1, top - p + 1):
            c = raw_overlap(seq, k, k + p)
            if abs(c) != 0.0:
                phases[k + p] = phases[k] * (c / abs(c))
            else:
                phases[k + p] = phases[k]
        for k in range(1, top + 1):
            assert np.allclose(
                out.vector(k), phases[k] * seq.vector(k), atol=1e-12
            )

    def test_product_state_unchanged(self):
        rng = np.random.default_rng(SEED + 23)
        seq = random_sequence(rng, 2, 1, 2)
        a = product_state(seq, 4).matrix
        b = product_state(rephase(seq), 4).matrix
        assert a.max_abs_diff(b) <= 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(SEED + 24)
        seq = random_sequence(rng, 2, 2, 2)
        once = rephase(seq)
        twice = rephase(once)
        for k in range(1, 7):
            assert np.allclose(twice.vector(k), once.vector(k), atol=1e-12)


class TestProductState:
    def test_values_are_letterwise_products(self):
        rng = np.random.default_rng(SEED + 30)
        seq = random_sequence(rng, 2, 1, 2)
        state = product_state(seq, 4).matrix
        for _ in range(20):
            mu = random_word(rng, 2, 4)
            nu = random_word(rng, 2, len(mu), min_len=len(mu))
            expected = 1.0 + 0j
            for pos, letter in enumerate(nu, start=1):
                expected *= seq.vector(pos)[letter - 1]
            for pos, letter in enumerate(mu, start=1):
                expected *= np.conj(seq.vector(pos)[letter - 1])
            assert state.monomial_value(mu, nu) == pytest.approx(
                expected, abs=1e-13
            )

    def test_mixed_lengths_vanish(self):
        rng = np.random.default_rng(SEED + 31)
        seq = random_sequence(rng, 2, 0, 2)
        state = product_state(seq, 3).matrix
        assert state.monomial_value((1, 2), (1,)) == 0j
        assert state.monomial_value((), (2, 2, 1)) == 0j

    def test_unit_mass_at_every_level(self):
        rng = np.random.default_rng(SEED + 32)
        seq = random_sequence(rng, 3, 2, 2)
        state = product_state(seq, 4).matrix
        assert state.trace() == pytest.approx(1.0, abs=1e-12)
        for mass in state.trace_profile():
            assert mass == pytest.approx(1.0, abs=1e-10)

    def test_positive_decreasing_essential(self):
        rng = np.random.default_rng(SEED + 33)
        seq = random_sequence(rng, 2, 1, 3)
        state = product_state(seq, 4).matrix
        assert state.is_positive().ok
        assert state.is_decreasing().ok
        assert classify(state).label == "essential"

    def test_slice_invariant(self):
        rng = np.random.default_rng(SEED + 34)
        seq = random_sequence(rng, 2, 2, 2)
        state = product_state(seq, 4).matrix
        assert state.max_abs_diff(state.sliced()) <= 1e-12


class TestCoefficients:
    @staticmethod
    def rephased_sequence(rng, n, prefix_len, cycle_len):
        return rephase(random_sequence(rng, n, prefix_len, cycle_len))

    def test_requires_rephased(self):
        rng = np.random.default_rng(SEED + 40)
        seq = self.rephased_sequence(rng, 2, 1, 2)
        # skew the cycle entry that pairs with the prefix vector
        skewed = UnitVectorSequence(
            2, seq.prefix, [seq.cycle[0], np.exp(0.3j) * seq.cycle[1]]
        )
        measure = CircleMeasure.point_mass(0.5)
        with pytest.raises(ValueError):
            extension_coefficients(skewed, 2, measure, 5)

    def test_recursion_holds_exactly(self):
        rng = np.random.default_rng(SEED + 41)
        seq = self.rephased_sequence(rng, 2, 1, 2)
        measure = CircleMeasure.from_atoms([(0.7, 0.4), (2.1, 0.6)])
        coeffs = extension_coefficients(seq, 2, measure, 6)
        for k in range(6):
            for l in range(6):
                if (k - l) % 2:
                    continue
                lhs = coeffs.get((k, l), 0j)
                rhs = coeffs.get((k + 1, l + 1), 0j) * seq.overlap(l + 1, k + 1)
                assert lhs == rhs

    def test_conjugate_mirror_exact(self):
        rng = np.random.default_rng(SEED + 42)
        seq = self.rephased_sequence(rng, 2, 2, 1)
        measure = CircleMeasure.from_atoms([(1.0, 0.5)], haar_weight=0.5)
        coeffs = extension_coefficients(seq, 1, measure, 5)
        for k in range(6):
            for l in range(6):
                assert coeffs.get((l, k), 0j) == np.conj(coeffs.get((k, l), 0j))

    def test_diagonal_is_zeroth_moment(self):
        rng = np.random.default_rng(SEED + 43)
        seq = self.rephased_sequence(rng, 3, 1, 2)
        measure = CircleMeasure.from_atoms([(0.3, 0.7), (4.0, 0.3)])
        coeffs = extension_coefficients(seq, 2, measure, 5)
        for k in range(6):
            assert coeffs.get((k, k), 0j) == fourier(measure, 0)
            assert coeffs.get((k, k), 0j) == pytest.approx(1.0, abs=1e-12)

    def test_off_lattice_exactly_zero(self):
        rng = np.random.default_rng(SEED + 44)
        seq = self.rephased_sequence(rng, 2, 0, 2)
        coeffs = extension_coefficients(
            seq, 2, CircleMeasure.point_mass(1.1), 6
        )
        for k in range(7):
            for l in range(7):
                if (k - l) % 2:
                    assert coeffs.get((k, l), 0j) == 0j

    def test_exactly_periodic_reduces_to_fourier(self):
        rng = np.random.default_rng(SEED + 45)
        seq = self.rephased_sequence(rng, 2, 0, 3)
        measure = CircleMeasure.from_atoms([(0.9, 0.25), (5.0, 0.75)])
        coeffs = extension_coefficients(seq, 3, measure, 7)
        for k in range(8):
            for l in range(k % 3, k + 1, 3):
                m = (k - l) // 3
                assert coeffs.get((k, l), 0j) == fourier(measure, m)
                assert coeffs.get((l, k), 0j) == np.conj(fourier(measure, m))

    def test_prefix_tail_oracle(self):
        rng = np.random.default_rng(SEED + 46)
        seq = self.rephased_sequence(rng, 2, 2, 2)
        measure = CircleMeasure.from_atoms([(2.5, 1.0)])
        coeffs = extension_coefficients(seq, 2, measure, 6)
        P = seq.prefix_len
        for k in range(7):
            for l in range(k % 2, k + 1, 2):
                tail = 1.0 + 0j
                for i in range(1, max(0, P - l) + 1):
                    tail *= raw_overlap(seq, l + i, k + i)
                expected = fourier(measure, (k - l) // 2) * tail
                assert coeffs.get((k, l), 0j) == pytest.approx(expected, abs=1e-12)


    def test_stores_only_nonzero_lattice_pairs(self):
        rng = np.random.default_rng(SEED + 47)
        seq = self.rephased_sequence(rng, 2, 2, 3)
        measure = CircleMeasure.from_atoms([(0.4, 0.5)], haar_weight=0.5)
        coeffs = extension_coefficients(seq, 3, measure, 8)
        assert all((k - l) % 3 == 0 and c != 0 for (k, l), c in coeffs.items())
        assert len(coeffs) == sum(1 for k in range(9) for l in range(9)
                                  if (k - l) % 3 == 0)

    def test_haar_keeps_only_the_main_diagonal(self):
        rng = np.random.default_rng(SEED + 48)
        seq = self.rephased_sequence(rng, 3, 2, 2)
        coeffs = extension_coefficients(seq, 2, CircleMeasure.haar(), 6)
        assert sorted(coeffs) == [(k, k) for k in range(7)]

    def test_n1_haar_stores_one_coefficient_per_level(self):
        depth = 5000
        seq = constant_sequence(1)
        coeffs = extension_coefficients(seq, 1, CircleMeasure.haar(), depth)
        assert len(coeffs) == depth + 1
        assert len(extend(seq, CircleMeasure.haar(), depth).matrix.blocks) == depth + 1


class TestExtend:
    def test_requires_rephased(self):
        rng = np.random.default_rng(SEED + 50)
        seq = random_sequence(rng, 2, 1, 2)
        with pytest.raises(ValueError):
            extend(seq, CircleMeasure.point_mass(0.4), 4)

    def test_diagonal_restriction_is_product_state(self):
        rng = np.random.default_rng(SEED + 51)
        seq = rephase(random_sequence(rng, 2, 1, 2))
        ext = extend(seq, CircleMeasure.from_atoms([(0.8, 1.0)]), 5).matrix
        prod = product_state(seq, 5).matrix
        for k in range(6):
            assert np.max(np.abs(ext.block(k, k) - prod.block(k, k))) <= 1e-14

    def test_constant_sequence_point_mass_powers(self):
        angle = 0.9
        z = np.exp(1j * angle)
        seq = constant_sequence(2)
        ext = extend(seq, CircleMeasure.point_mass(angle), 6).matrix
        for k in range(7):
            value = ext.monomial_value((1,) * k, ())
            assert value == pytest.approx(z**k, abs=1e-12)

    def test_slice_invariant(self):
        rng = np.random.default_rng(SEED + 52)
        seq = rephase(random_sequence(rng, 2, 2, 2))
        measure = CircleMeasure.from_atoms([(1.4, 0.3), (3.9, 0.7)])
        ext = extend(seq, measure, 5).matrix
        assert ext.max_abs_diff(ext.sliced()) <= 1e-12

    def test_positive_decreasing_essential(self):
        rng = np.random.default_rng(SEED + 53)
        seq = rephase(random_sequence(rng, 3, 1, 2))
        measure = CircleMeasure.from_atoms([(0.2, 0.5)], haar_weight=0.5)
        handle = extend(seq, measure, 4)
        assert handle.classification == "essential"
        state = handle.matrix
        assert state.is_positive().ok
        assert state.is_decreasing().ok
        assert classify(state).label == "essential"

    def test_haar_extension_is_product_state(self):
        rng = np.random.default_rng(SEED + 54)
        seq = rephase(random_sequence(rng, 2, 1, 3))
        ext = extend(seq, CircleMeasure.haar(), 5).matrix
        prod = product_state(seq, 5).matrix
        assert set(ext.blocks) == set(prod.blocks)
        assert ext.max_abs_diff(prod) <= 1e-15

    def test_affine_in_measure(self):
        rng = np.random.default_rng(SEED + 55)
        seq = rephase(random_sequence(rng, 2, 1, 2))
        m1 = CircleMeasure.point_mass(0.6)
        m2 = CircleMeasure.from_atoms([(2.0, 0.4)], haar_weight=0.6)
        for t in (0.25, 0.5):
            mixed = extend(seq, convexify(m1, m2, t), 4).matrix
            combo = t * extend(seq, m1, 4).matrix + (1 - t) * extend(
                seq, m2, 4
            ).matrix
            assert mixed.max_abs_diff(combo) <= 1e-12

    def test_rank_one_blocks_survive_payload_round_trip(self):
        rng = np.random.default_rng(SEED + 56)
        seq = rephase(random_sequence(rng, 2, 1, 1))
        handle = extend(seq, CircleMeasure.point_mass(2.2), 4)
        back = StateHandle.from_payload(handle.to_payload())
        assert back.classification == "essential"
        assert back.matrix.max_abs_diff(handle.matrix) <= 1e-12


class TestGauge:
    def test_identity_at_one(self):
        rng = np.random.default_rng(SEED + 60)
        seq = rephase(random_sequence(rng, 2, 0, 2))
        ext = extend(seq, CircleMeasure.point_mass(0.3), 4)
        moved = gauge_transform(ext, 1.0)
        assert moved.matrix.max_abs_diff(ext.matrix) == 0.0

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_orbit_shifts_point_mass(self, p):
        rng = np.random.default_rng(SEED + 61 + p)
        seq = rephase(random_sequence(rng, 2, 1, p))
        angle = 0.8
        lam_angle = 0.45
        ext = extend(seq, CircleMeasure.point_mass(angle), 5)
        moved = gauge_transform(ext, np.exp(1j * lam_angle))
        target = extend(
            seq, CircleMeasure.point_mass(angle + p * lam_angle), 5
        )
        assert moved.matrix.max_abs_diff(target.matrix) <= 1e-12

    def test_p_to_one_on_orbit(self):
        rng = np.random.default_rng(SEED + 65)
        p = 2
        seq = rephase(random_sequence(rng, 2, 0, p))
        ext = extend(seq, CircleMeasure.point_mass(1.7), 5)
        lam = np.exp(0.3j)
        lam2 = lam * np.exp(2j * np.pi / p)
        a = gauge_transform(ext, lam).matrix
        b = gauge_transform(ext, lam2).matrix
        assert a.max_abs_diff(b) <= 1e-12

    def test_rejects_non_unimodular(self):
        seq = constant_sequence(2)
        ext = extend(seq, CircleMeasure.point_mass(0.0), 3)
        with pytest.raises(ValueError):
            gauge_transform(ext, 1.2)

    def test_preserves_rank_one_storage(self):
        seq = constant_sequence(2)
        ext = extend(seq, CircleMeasure.point_mass(0.5), 4)
        moved = gauge_transform(ext, np.exp(0.25j))
        assert all(
            isinstance(blk, Rank1Block) for blk in moved.matrix.blocks.values()
        )


class TestRecover:
    def test_point_mass_round_trip(self):
        rng = np.random.default_rng(SEED + 70)
        seq = rephase(random_sequence(rng, 2, 1, 2))
        measure = CircleMeasure.point_mass(2.6)
        ext = extend(seq, measure, 8)
        moments = recover_measure_moments(ext, seq, 2, 3)
        for a in range(-3, 4):
            assert moments.value(a) == pytest.approx(
                fourier(measure, a), abs=1e-10
            )

    def test_two_atom_round_trip(self):
        rng = np.random.default_rng(SEED + 71)
        seq = rephase(random_sequence(rng, 3, 2, 1))
        measure = CircleMeasure.from_atoms([(0.4, 0.35), (3.3, 0.65)])
        ext = extend(seq, measure, 6)
        moments = recover_measure_moments(ext, seq, 1, 4)
        for a in range(5):
            assert moments.value(a) == pytest.approx(
                fourier(measure, a), abs=1e-10
            )

    def test_haar_peaks_at_zero(self):
        rng = np.random.default_rng(SEED + 72)
        seq = rephase(random_sequence(rng, 2, 0, 2))
        ext = extend(seq, CircleMeasure.haar(), 6)
        moments = recover_measure_moments(ext, seq, 2, 3)
        assert moments.value(0) == pytest.approx(1.0, abs=1e-12)
        for a in range(1, 4):
            assert moments.value(a) == 0j

    def test_horizon_error(self):
        seq = constant_sequence(2)
        ext = extend(seq, CircleMeasure.point_mass(0.1), 3)
        with pytest.raises(HorizonError):
            recover_measure_moments(ext, seq, 1, 4)

    def test_after_payload_round_trip(self):
        rng = np.random.default_rng(SEED + 73)
        seq = rephase(random_sequence(rng, 2, 1, 1))
        measure = CircleMeasure.from_atoms([(1.2, 0.5), (4.4, 0.5)])
        handle = StateHandle.from_payload(extend(seq, measure, 5).to_payload())
        moments = recover_measure_moments(handle, seq, 1, 3)
        for a in range(4):
            assert moments.value(a) == pytest.approx(
                fourier(measure, a), abs=1e-10
            )

    def test_gauge_rotates_moments(self):
        rng = np.random.default_rng(SEED + 74)
        p = 2
        seq = rephase(random_sequence(rng, 2, 0, p))
        measure = CircleMeasure.point_mass(0.9)
        ext = extend(seq, measure, 8)
        lam = np.exp(0.35j)
        moved = gauge_transform(ext, lam)
        moments = recover_measure_moments(moved, seq, p, 3)
        rotated = measure.rotated(p * 0.35)
        for a in range(4):
            assert moments.value(a) == pytest.approx(
                fourier(rotated, a), abs=1e-10
            )


class TestRankSignature:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_point_mass_corner_ranks(self, p):
        rng = np.random.default_rng(SEED + 80 + p)
        seq = rephase(random_sequence(rng, 2, 0, p))
        ext = extend(seq, CircleMeasure.point_mass(1.3), 5).matrix
        for k in range(6):
            eigs = np.linalg.eigvalsh(ext.corner(k))
            rank = int(np.sum(eigs > 1e-8 * max(1.0, eigs.max())))
            assert rank == min(k + 1, p)


class TestRequestParsing:
    def payload(self):
        return {
            "sequence": constant_sequence(2).to_payload(),
            "measure": CircleMeasure.point_mass(0.7).to_payload(),
            "depth": 4,
        }

    def test_round_trip(self):
        seq, measure, depth = parse_extension_request(self.payload())
        assert seq.n == 2 and depth == 4
        assert measure.atoms[0][0] == pytest.approx(0.7)

    def test_rejects_malformed(self):
        good = self.payload()
        with pytest.raises(SchemaError):
            parse_extension_request({**good, "junk": 0})
        with pytest.raises(SchemaError):
            parse_extension_request({"sequence": good["sequence"]})
        with pytest.raises(SchemaError):
            parse_extension_request({**good, "depth": "four"})
        with pytest.raises(SchemaError):
            parse_extension_request({**good, "depth": -1})


class TestElementaryTensors:
    def test_matches_kron_products(self):
        rng = np.random.default_rng(SEED + 90)
        seq = random_sequence(rng, 2, 1, 2)
        tensors = elementary_tensors(seq, 3)
        assert np.allclose(tensors[0], [1.0])
        assert np.allclose(tensors[1], seq.vector(1))
        expected = np.kron(np.kron(seq.vector(1), seq.vector(2)), seq.vector(3))
        assert np.allclose(tensors[3], expected)

    def test_word_index_order(self):
        # the first letter is the most significant index digit
        e1 = np.array([1.0, 0.0], dtype=complex)
        e2 = np.array([0.0, 1.0], dtype=complex)
        seq = UnitVectorSequence(2, [e1], [e2])
        t2 = elementary_tensors(seq, 2)[2]
        # e_1 x e_2 sits at word (1, 2), index (1-1)*2 + (2-1) = 1
        assert t2[1] == 1.0
        assert np.count_nonzero(t2) == 1


# -- the circle of extensions as properties ---------------------------------

MAX_DEPTH = {1: 10, 2: 6, 3: 4}


def random_measure(rng):
    """Up to three atoms, with a Haar part half of the time."""
    count = int(rng.integers(1, 4))
    haar_weight = float(rng.uniform(0.0, 0.8)) if rng.random() < 0.5 else 0.0
    weights = rng.uniform(0.2, 1.0, size=count)
    weights *= (1.0 - haar_weight) / weights.sum()
    angles = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return CircleMeasure.from_atoms(
        list(zip(angles.tolist(), weights.tolist())), haar_weight=haar_weight)


@st.composite
def rephased_sequences(draw):
    """(rephased sequence, its period, a depth) over n = 1, 2, 3."""
    n = draw(st.sampled_from([1, 2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    seq = random_sequence(rng, n, draw(st.integers(0, 3)), draw(st.integers(1, 3)))
    p = period(seq)
    return rephase(seq, p), p, draw(st.integers(0, MAX_DEPTH[n]))


@settings(max_examples=40, deadline=None)
@given(rephased_sequences(), st.integers(0, 2**32 - 1),
       st.floats(0.05, 0.95) | st.sampled_from([0.0, 1.0]))
def test_extension_is_affine_in_the_measure(sequence, seed, t):
    seq, _, depth = sequence
    rng = np.random.default_rng(seed)
    m1, m2 = random_measure(rng), random_measure(rng)
    mixed = extend(seq, convexify(m1, m2, t), depth).matrix
    combo = t * extend(seq, m1, depth).matrix + (1 - t) * extend(seq, m2, depth).matrix
    assert mixed.max_abs_diff(combo) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(rephased_sequences(), st.floats(0.0, 2 * np.pi), st.floats(0.0, 2 * np.pi))
def test_gauge_moves_point_mass_extensions_around_the_circle(sequence, theta, phi):
    seq, p, depth = sequence
    moved = gauge_transform(extend(seq, CircleMeasure.point_mass(theta), depth),
                            np.exp(1j * phi))
    target = extend(seq, CircleMeasure.point_mass(theta + p * phi), depth)
    assert moved.matrix.max_abs_diff(target.matrix) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(rephased_sequences(), st.integers(0, 2**32 - 1), st.floats(0.0, 2 * np.pi),
       st.floats(0.0, 1.0))
def test_slice_commutes_with_the_gauge(sequence, seed, phi, t):
    seq, _, depth = sequence
    rng = np.random.default_rng(seed)
    other = rephase(random_sequence(rng, seq.n, int(rng.integers(0, 3)),
                                    int(rng.integers(1, 4))))
    first = extend(seq, random_measure(rng), depth).matrix
    second = extend(other, random_measure(rng), depth).matrix
    lam = np.exp(1j * phi)
    for state in (first, t * first + (1 - t) * second):
        moved = gauge_transform(state, lam).sliced()
        assert moved.max_abs_diff(gauge_transform(state.sliced(), lam)) <= 1e-12
