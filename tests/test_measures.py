"""Circle measures, Fourier windows, Herglotz checks, atomic inversion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SEED
from fockstate.errors import InsufficientMomentsError, SchemaError
from fockstate.measures import (
    CircleMeasure,
    MomentSequence,
    atomic_from_moments,
    fourier,
    herglotz_check,
    moment_window,
)


def random_atomic(rng, n_atoms):
    angles = rng.uniform(0, 2 * np.pi, size=n_atoms)
    weights = rng.uniform(0.2, 1.0, size=n_atoms)
    weights = weights / weights.sum()
    return CircleMeasure.from_atoms(zip(angles.tolist(), weights.tolist()))


BAD_INPUT = {
    "haar weight -0.5": (lambda: CircleMeasure(haar_weight=-0.5), r"outside \[0, 1\]"),
    "haar weight 1.5": (lambda: CircleMeasure(haar_weight=1.5), r"outside \[0, 1\]"),
    "nan angle": (lambda: CircleMeasure(atoms=((float("nan"), 1.0),)), "must be finite"),
    "no moments": (lambda: MomentSequence([]), "at least the zeroth moment"),
    "window -1": (lambda: moment_window(CircleMeasure.haar(), -1), "window must be >= 0"),
}


@pytest.mark.parametrize("call, message", BAD_INPUT.values(), ids=BAD_INPUT)
def test_rejects_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestCircleMeasure:
    def test_mass_invariant(self):
        with pytest.raises(ValueError):
            CircleMeasure(haar_weight=0.5, atoms=((0.0, 0.6),))
        with pytest.raises(ValueError):
            CircleMeasure(haar_weight=0.0, atoms=((0.0, 0.5),))

    def test_angle_canonicalized(self):
        m = CircleMeasure.point_mass(-np.pi / 2)
        assert m.atoms[0][0] == pytest.approx(3 * np.pi / 2)

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            CircleMeasure(haar_weight=1.0, atoms=((0.0, 0.0),))

    def test_haar(self):
        assert CircleMeasure.haar().is_haar
        assert not CircleMeasure.point_mass(0.0).is_haar

    def test_rotation(self):
        m = CircleMeasure.point_mass(0.5).rotated(1.0)
        assert m.atoms[0][0] == pytest.approx(1.5)
        assert CircleMeasure.haar().rotated(2.0).is_haar

    def test_approx_eq_wraps_angle(self):
        a = CircleMeasure.point_mass(0.0)
        b = CircleMeasure.point_mass(2 * np.pi - 1e-12)
        assert a.approx_eq(b)

    def test_payload_roundtrip(self):
        m = CircleMeasure(haar_weight=0.25,
                          atoms=((0.3, 0.5), (2.0, 0.25)))
        back = CircleMeasure.from_payload(m.to_payload())
        assert back.approx_eq(m)

    def test_payload_rejects_unknown(self):
        with pytest.raises(SchemaError):
            CircleMeasure.from_payload({"haar_weight": 1.0, "atoms": [], "x": 1})
        with pytest.raises(SchemaError):
            CircleMeasure.from_payload(
                {"haar_weight": 0.0,
                 "atoms": [{"angle": 0.0, "weight": 1.0, "tag": "a"}]})

    def test_payload_rejects_bad_mass(self):
        with pytest.raises(SchemaError):
            CircleMeasure.from_payload({"haar_weight": 0.5, "atoms": []})


class TestFourier:
    def test_haar(self):
        haar = CircleMeasure.haar()
        assert fourier(haar, 0) == 1.0
        assert fourier(haar, 3) == 0.0
        assert fourier(haar, -2) == 0.0

    def test_point_mass_at_one(self):
        m = CircleMeasure.point_mass(0.0)
        for a in range(-3, 4):
            assert fourier(m, a) == pytest.approx(1.0)

    def test_two_symmetric_atoms(self):
        m = CircleMeasure.from_atoms([(0.0, 0.5), (np.pi, 0.5)])
        assert fourier(m, 1) == pytest.approx(0.0, abs=1e-15)
        assert fourier(m, 2) == pytest.approx(1.0)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(SEED + 40)
        m = random_atomic(rng, 3)
        for a in range(5):
            assert fourier(m, -a) == pytest.approx(np.conj(fourier(m, a)))


class TestMomentSequence:
    def test_symmetry_by_construction(self):
        tau = MomentSequence([1.0, 0.5 + 0.5j, -0.25j])
        assert tau.value(-1) == np.conj(tau.value(1))
        assert tau.value(-2) == np.conj(tau.value(2))
        assert tau.window == 2

    def test_rejects_complex_zeroth(self):
        with pytest.raises(ValueError):
            MomentSequence([1.0 + 0.5j])

    def test_out_of_window(self):
        tau = MomentSequence([1.0, 0.5])
        with pytest.raises(ValueError):
            tau.value(2)

    def test_toeplitz_structure(self):
        tau = MomentSequence([1.0, 0.25 + 0.25j, 0.1])
        t = tau.toeplitz()
        assert t[0, 0] == 1.0
        assert t[1, 0] == tau.value(1)
        assert t[0, 1] == tau.value(-1)
        assert np.abs(t - t.conj().T).max() == 0.0

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-1e6, 1e6),
           st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False),
                    max_size=8))
    def test_toeplitz_is_exactly_hermitian(self, zeroth, rest):
        # herglotz_check and atomic_from_moments hand this matrix to
        # eigvalsh as it is.
        t = MomentSequence([zeroth, *rest]).toeplitz()
        assert np.array_equal(t, t.conj().T)


class TestHerglotz:
    def test_point_mass_window(self):
        tau = MomentSequence([1.0, 1.0, 1.0, 1.0])
        result = herglotz_check(tau)
        assert result.ok
        assert result.min_eigenvalue == pytest.approx(0.0, abs=1e-12)

    def test_violating_window(self):
        tau = MomentSequence([1.0, 2.0])
        result = herglotz_check(tau)
        assert not result.ok
        assert result.min_eigenvalue < -0.5

    def test_every_measure_window_passes(self):
        rng = np.random.default_rng(SEED + 41)
        candidates = [CircleMeasure.haar(),
                      CircleMeasure.point_mass(1.2),
                      random_atomic(rng, 2),
                      random_atomic(rng, 4),
                      CircleMeasure(haar_weight=0.3,
                                    atoms=((0.8, 0.3), (4.0, 0.4)))]
        for measure in candidates:
            for window in (1, 4, 8):
                assert herglotz_check(moment_window(measure, window)).ok

    def test_window_too_small(self):
        with pytest.raises(ValueError):
            herglotz_check(MomentSequence([1.0]))


class TestAtomicInversion:
    def test_single_atom(self):
        angle = 0.75
        tau = moment_window(CircleMeasure.point_mass(angle), 2)
        recovered = atomic_from_moments(tau)
        assert len(recovered.atoms) == 1
        assert recovered.atoms[0][0] == pytest.approx(angle, abs=1e-9)
        assert recovered.atoms[0][1] == pytest.approx(1.0, abs=1e-9)

    def test_two_atoms(self):
        measure = CircleMeasure.from_atoms([(0.5, 0.5), (2.5, 0.5)])
        tau = moment_window(measure, 3)
        recovered = atomic_from_moments(tau)
        assert recovered.approx_eq(measure, angle_tol=1e-8, weight_tol=1e-8)

    def test_random_roundtrip_matches_moments(self):
        rng = np.random.default_rng(SEED + 42)
        for n_atoms in (1, 2, 3):
            for _ in range(5):
                measure = random_atomic(rng, n_atoms)
                tau = moment_window(measure, n_atoms + 1)
                recovered = atomic_from_moments(tau)
                back = moment_window(recovered, n_atoms + 1)
                assert back.max_abs_diff(tau) <= 1e-8

    def test_haar_window_rejected(self):
        tau = moment_window(CircleMeasure.haar(), 2)
        with pytest.raises(InsufficientMomentsError):
            atomic_from_moments(tau)

    def test_haar_mixture_rejected(self):
        measure = CircleMeasure(haar_weight=0.5, atoms=((1.0, 0.5),))
        tau = moment_window(measure, 3)
        with pytest.raises(InsufficientMomentsError):
            atomic_from_moments(tau)

    def test_window_of_size_zero_rejected(self):
        with pytest.raises(InsufficientMomentsError):
            atomic_from_moments(MomentSequence([1.0]))
