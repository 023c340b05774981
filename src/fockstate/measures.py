"""Probability measures on the circle and their finite moment windows.

The measures used by the extension family are convex combinations of
normalized Haar measure and finitely many atoms, so every Fourier
coefficient is a finite sum.  Moment windows are finite Hermitian
sequences; positive definiteness of their Toeplitz matrix is what makes a
window extendable to an actual measure, and a rank-deficient window of an
atomic measure can be inverted back into its atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientMomentsError, SchemaError
from .fock import _fields, _finite_number

MEASURE_SUM_TOL = 1e-12
HERGLOTZ_TOL = 1e-10
MOMENT_MATCH_TOL = 1e-8
ANGLE_MATCH_TOL = 1e-9
TWO_PI = 2.0 * np.pi

__all__ = [
    "MEASURE_SUM_TOL",
    "HERGLOTZ_TOL",
    "MOMENT_MATCH_TOL",
    "ANGLE_MATCH_TOL",
    "CircleMeasure",
    "MomentSequence",
    "HerglotzResult",
    "fourier",
    "moment_window",
    "herglotz_check",
    "atomic_from_moments",
]


def _canonical_angle(angle: float) -> float:
    angle = float(angle) % TWO_PI
    if angle < 0:
        angle += TWO_PI
    if angle >= TWO_PI:
        angle -= TWO_PI
    return angle


@dataclass(frozen=True)
class CircleMeasure:
    """Haar measure plus finitely many atoms, total mass one.

    Atoms are (angle, weight) pairs with angles in [0, 2*pi) and positive
    weights; ``haar_weight`` plus the atom weights must sum to 1.
    """

    haar_weight: float = 0.0
    atoms: tuple[tuple[float, float], ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not 0.0 <= self.haar_weight <= 1.0 + MEASURE_SUM_TOL:
            raise ValueError(f"haar weight {self.haar_weight} outside [0, 1]")
        cleaned = []
        for angle, weight in self.atoms:
            weight = float(weight)
            if not weight > 0:
                raise ValueError(f"atom weight {weight} must be positive")
            if not math.isfinite(angle):
                raise ValueError(f"atom angle {angle} must be finite")
            cleaned.append((_canonical_angle(angle), weight))
        cleaned.sort()
        object.__setattr__(self, "atoms", tuple(cleaned))
        total = self.haar_weight + sum(w for _, w in self.atoms)
        if not abs(total - 1.0) <= MEASURE_SUM_TOL:
            raise ValueError(f"total mass {total} is not 1")

    # -- constructors ---------------------------------------------------

    @classmethod
    def haar(cls) -> "CircleMeasure":
        return cls(haar_weight=1.0)

    @classmethod
    def point_mass(cls, angle: float) -> "CircleMeasure":
        return cls(atoms=((angle, 1.0),))

    @classmethod
    def from_atoms(cls, atoms, haar_weight: float = 0.0) -> "CircleMeasure":
        return cls(haar_weight=haar_weight, atoms=tuple(atoms))

    # -- structure ------------------------------------------------------

    @property
    def is_haar(self) -> bool:
        return not self.atoms and abs(self.haar_weight - 1.0) <= MEASURE_SUM_TOL

    def rotated(self, delta_angle: float) -> "CircleMeasure":
        """Push forward under rotation by ``delta_angle``; Haar is invariant."""
        return CircleMeasure(
            haar_weight=self.haar_weight,
            atoms=tuple((angle + delta_angle, w) for angle, w in self.atoms),
        )

    def approx_eq(self, other: "CircleMeasure",
                  angle_tol: float = ANGLE_MATCH_TOL,
                  weight_tol: float = 1e-9) -> bool:
        if abs(self.haar_weight - other.haar_weight) > weight_tol:
            return False
        if len(self.atoms) != len(other.atoms):
            return False
        for (a1, w1), (a2, w2) in zip(self.atoms, other.atoms):
            gap = abs(a1 - a2)
            gap = min(gap, TWO_PI - gap)
            if gap > angle_tol or abs(w1 - w2) > weight_tol:
                return False
        return True

    # -- serialization ----------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "haar_weight": float(self.haar_weight),
            "atoms": [{"angle": float(a), "weight": float(w)}
                      for a, w in self.atoms],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CircleMeasure":
        haar_weight, records = _fields(payload, ("haar_weight", "atoms"), "measure payload",
                                       lists=("atoms",))
        haar_weight = _finite_number(haar_weight, "'haar_weight'")
        atoms = []
        for rec in records:
            angle, weight = _fields(rec, ("angle", "weight"), "atom")
            atoms.append((_finite_number(angle, "atom angle"),
                          _finite_number(weight, "atom weight")))
        try:
            return cls(haar_weight=haar_weight, atoms=tuple(atoms))
        except ValueError as exc:
            raise SchemaError(str(exc)) from None


def fourier(measure: CircleMeasure, m: int) -> complex:
    """Fourier coefficient: integral of z^m against the measure."""
    value = complex(measure.haar_weight) if m == 0 else 0j
    for angle, weight in measure.atoms:
        value += weight * np.exp(1j * m * angle)
    return complex(value)


class MomentSequence:
    """Hermitian moment window: values on -A..A with value(-a) = conj(value(a)).

    Construction mirrors the nonnegative side, so the symmetry is exact by
    construction rather than within a tolerance.
    """

    __slots__ = ("_values",)

    def __init__(self, one_sided):
        one_sided = [complex(v) for v in one_sided]
        if not one_sided:
            raise ValueError("need at least the zeroth moment")
        if abs(one_sided[0].imag) > 0:
            raise ValueError("zeroth moment must be real")
        self._values = tuple(one_sided)

    @property
    def window(self) -> int:
        return len(self._values) - 1

    def value(self, a: int) -> complex:
        if abs(a) > self.window:
            raise ValueError(f"moment {a} outside window -{self.window}..{self.window}")
        if a >= 0:
            return self._values[a]
        return np.conj(self._values[-a])

    def toeplitz(self) -> np.ndarray:
        size = self.window + 1
        out = np.empty((size, size), dtype=complex)
        for a in range(size):
            for b in range(size):
                out[a, b] = self.value(a - b)
        return out

    def max_abs_diff(self, other: "MomentSequence") -> float:
        window = min(self.window, other.window)
        return max(abs(self.value(a) - other.value(a)) for a in range(window + 1))

    def __repr__(self):
        return f"MomentSequence(window={self.window})"


def moment_window(measure: CircleMeasure, window: int) -> MomentSequence:
    """First ``window`` + 1 Fourier coefficients of a measure."""
    if window < 0:
        raise ValueError("window must be >= 0")
    return MomentSequence([fourier(measure, m) for m in range(window + 1)])


@dataclass(frozen=True)
class HerglotzResult:
    ok: bool
    min_eigenvalue: float


def herglotz_check(moments: MomentSequence,
                   tol: float = HERGLOTZ_TOL) -> HerglotzResult:
    """Positive definiteness of the moment window's Toeplitz matrix.

    A window extends to a positive measure exactly when every such matrix
    is positive semidefinite; numerically we allow eigenvalues down to
    ``-tol``.
    """
    if moments.window < 1:
        raise ValueError("need a window of size at least 1")
    eigs = np.linalg.eigvalsh(moments.toeplitz())
    return HerglotzResult(bool(eigs[0] >= -tol), float(eigs[0]))


def atomic_from_moments(moments: MomentSequence) -> CircleMeasure:
    """Invert a finite moment window of a purely atomic measure.

    The number of atoms is the numerical rank of the Toeplitz matrix; a
    full-rank window cannot certify finitely many atoms (Haar windows land
    here), which raises :class:`InsufficientMomentsError`.  Atom positions
    come from the roots of the annihilating polynomial of the moment
    recursion, weights from the best-fit Vandermonde solve, and the result
    is only returned if it reproduces the window.
    """
    window = moments.window
    if window < 1:
        raise InsufficientMomentsError("insufficient moments: window too small")
    eigs = np.linalg.eigvalsh(moments.toeplitz())
    threshold = MOMENT_MATCH_TOL * max(1.0, float(eigs[-1]))
    rank = int(np.sum(eigs > threshold))
    if rank == 0:
        raise InsufficientMomentsError("insufficient moments: empty window")
    if rank > window:
        raise InsufficientMomentsError(
            "insufficient moments: window does not certify finitely many atoms"
        )
    # Monic annihilator q of degree `rank`: for every a in range,
    # sum_s q_s tau(a+s) = -tau(a+rank).
    rows = []
    rhs = []
    for a in range(-window, window - rank + 1):
        rows.append([moments.value(a + s) for s in range(rank)])
        rhs.append(-moments.value(a + rank))
    q, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    roots = np.roots(np.concatenate(([1.0], q[::-1])))
    mods = np.abs(roots)
    if np.any(mods < 1e-6):
        raise InsufficientMomentsError("insufficient moments: degenerate root")
    roots = roots / mods
    # Weights from the Vandermonde system over the full window.
    powers = np.arange(-window, window + 1)
    vander = roots[None, :] ** powers[:, None]
    target = np.array([moments.value(a) for a in powers])
    weights, *_ = np.linalg.lstsq(vander, target, rcond=None)
    if np.abs(weights.imag).max() > MOMENT_MATCH_TOL:
        raise InsufficientMomentsError("insufficient moments: weights not real")
    weights = weights.real
    if weights.min() < -MOMENT_MATCH_TOL:
        raise InsufficientMomentsError("insufficient moments: negative weight")
    residual = np.abs(vander @ weights - target).max()
    if residual > MOMENT_MATCH_TOL:
        raise InsufficientMomentsError(
            f"insufficient moments: residual {residual:.3g} too large"
        )
    keep = weights > MOMENT_MATCH_TOL
    roots, weights = roots[keep], weights[keep]
    if roots.size == 0:
        raise InsufficientMomentsError("insufficient moments: no positive weights")
    weights = weights / weights.sum()
    angles = np.angle(roots) % TWO_PI
    atoms = sorted(zip(angles.tolist(), weights.tolist()))
    return CircleMeasure(atoms=tuple(atoms))
