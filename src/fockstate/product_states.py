"""Eventually periodic unit-vector sequences and their state extensions.

A sequence e_1, e_2, ... of unit vectors in C^n is stored as a finite
prefix followed by a cycle that repeats forever.  Each such sequence
carries a product state on the truncated Fock space, and every
probability measure on the circle induces an extension of that product
state whose blocks are rank one with scalar coefficients indexed by a
pair of levels.  This module detects the sequence period, normalizes
phases, walks the nonzero lattice coefficients and builds the extensions,
moves states along the gauge orbit, and reads the measure's moments back
out of an extension.
"""

from __future__ import annotations

import numpy as np

from .density import BlockOperatorMatrix, StateHandle
from .errors import HorizonError, SchemaError
from .fock import FockContext, Rank1Block, _fields, _integer, _pairs, _scaled, _sized_entries
from .measures import CircleMeasure, MomentSequence, fourier

__all__ = [
    "UNIT_NORM_TOL",
    "PERIOD_TOL",
    "REPHASE_TOL",
    "UnitVectorSequence",
    "period",
    "rephase",
    "is_rephased",
    "elementary_tensors",
    "product_state",
    "extension_coefficients",
    "extend",
    "gauge_transform",
    "recover_measure_moments",
    "parse_extension_request",
]

UNIT_NORM_TOL = 1e-12
PERIOD_TOL = 1e-12
REPHASE_TOL = 1e-12


class UnitVectorSequence:
    """Eventually periodic sequence of unit vectors in C^n, 1-indexed.

    ``vector(k)`` returns e_k: the k-th prefix vector while k is at most
    the prefix length, after that the cycle entries in order, repeating.
    Two indices that resolve to the same stored slot are treated as the
    same vector, so their overlap is exactly one.
    """

    __slots__ = ("n", "prefix", "cycle")

    def __init__(self, n: int, prefix, cycle):
        self.n = int(n)
        if self.n < 1:
            raise ValueError("alphabet size must be at least 1")
        pref = tuple(np.asarray(v, dtype=complex) for v in prefix)
        cyc = tuple(np.asarray(v, dtype=complex) for v in cycle)
        if not cyc:
            raise ValueError("cycle must contain at least one vector")
        for v in pref + cyc:
            if v.shape != (self.n,):
                raise ValueError(f"sequence vectors must have shape ({self.n},)")
            if not abs(np.linalg.norm(v) - 1.0) <= UNIT_NORM_TOL:
                raise ValueError("sequence vectors must have unit norm")
        self.prefix = pref
        self.cycle = cyc

    @property
    def prefix_len(self) -> int:
        return len(self.prefix)

    @property
    def cycle_len(self) -> int:
        return len(self.cycle)

    def _slot(self, k: int):
        if k < 1:
            raise ValueError("sequence indices start at 1")
        if k <= len(self.prefix):
            return ("prefix", k - 1)
        return ("cycle", (k - len(self.prefix) - 1) % len(self.cycle))

    def vector(self, k: int) -> np.ndarray:
        kind, idx = self._slot(k)
        return self.prefix[idx] if kind == "prefix" else self.cycle[idx]

    def overlap(self, a: int, b: int) -> complex:
        """<e_a, e_b>, linear in the first index.

        Indices resolving to the same stored slot give exactly 1, which
        keeps tail products over repeated cycle entries exact.
        """
        if self._slot(a) == self._slot(b):
            return 1.0 + 0j
        return complex(np.vdot(self.vector(b), self.vector(a)))

    def to_payload(self) -> dict:
        return {
            "n": self.n,
            "prefix": [_pairs(v) for v in self.prefix],
            "cycle": [_pairs(v) for v in self.cycle],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "UnitVectorSequence":
        n, prefix, cycle = _fields(payload, ("n", "prefix", "cycle"), "sequence payload",
                                   lists=("prefix", "cycle"))
        n = _integer(n, 1, "'n'")
        prefix = [_sized_entries(v, n, "prefix vector") for v in prefix]
        cycle = [_sized_entries(v, n, "cycle vector") for v in cycle]
        try:
            return cls(n, prefix, cycle)
        except ValueError as exc:
            raise SchemaError(str(exc)) from None


def period(seq: UnitVectorSequence) -> int:
    """Smallest p with |<e_i, e_{i+p}>| = 1 for every i beyond the prefix.

    Candidates run up to the cycle length; the pattern of slot pairs
    repeats with that length, so checking one full cycle of indices past
    the prefix decides each candidate.  The cycle length itself always
    qualifies, because the pairs are then the same stored vector, so it is
    the last candidate and every sequence has a period.
    """
    start = seq.prefix_len + 1
    for p in range(1, seq.cycle_len):
        if all(
            abs(abs(seq.overlap(i, i + p)) - 1.0) <= PERIOD_TOL
            for i in range(start, start + seq.cycle_len)
        ):
            return p
    return seq.cycle_len


def rephase(seq: UnitVectorSequence, p: int | None = None) -> "UnitVectorSequence":
    """Multiply each e_k by a unimodular so all <e_k, e_{k+p}> are >= 0.

    The first p phases are one and each later phase absorbs the argument
    of the overlap one period back; vanishing overlaps leave the phase
    unchanged.  Beyond the prefix the rescaled vectors repeat with
    period exactly p, so the result stores a cycle of length p and the
    lattice tail products become exactly one.
    """
    if p is None:
        p = period(seq)
    p = int(p)
    if p < 1:
        raise ValueError("period must be a positive integer")
    count = seq.prefix_len + p
    phases = [1.0 + 0j] * (count + 1)
    for k in range(1, count + 1 - p):
        c = seq.overlap(k, k + p)
        phases[k + p] = phases[k] * (c / abs(c)) if abs(c) != 0.0 else phases[k]
    vectors = [phases[k] * seq.vector(k) for k in range(1, count + 1)]
    return UnitVectorSequence(
        seq.n, vectors[: seq.prefix_len], vectors[seq.prefix_len:]
    )


def is_rephased(seq: UnitVectorSequence, p: int) -> bool:
    """True when the cycle length is p and every <e_i, e_{i+p}> is
    real and nonnegative within REPHASE_TOL."""
    if seq.cycle_len != int(p):
        return False
    for i in range(1, seq.prefix_len + seq.cycle_len + 1):
        c = seq.overlap(i, i + int(p))
        if abs(c.imag) > REPHASE_TOL or c.real < -REPHASE_TOL:
            return False
    return True


def elementary_tensors(seq: UnitVectorSequence, depth: int) -> list[np.ndarray]:
    """Coordinate vectors of e_1 x ... x e_k for k = 0..depth.

    Index order matches the word indexing: the first factor is the most
    significant digit.
    """
    out = [np.ones(1, dtype=complex)]
    for k in range(1, depth + 1):
        out.append(np.kron(out[-1], seq.vector(k)))
    return out


def product_state(seq: UnitVectorSequence, depth: int) -> StateHandle:
    """State evaluating each word pair against the elementary tensors.

    All blocks are diagonal rank-one projections onto the elementary
    tensor of the level, which makes the state positive, of unit level
    mass at every level, and invariant under slicing.
    """
    ctx = FockContext(seq.n, depth)
    tensors = elementary_tensors(seq, depth)
    blocks = {
        (k, k): Rank1Block(1.0 + 0j, tensors[k], tensors[k])
        for k in range(depth + 1)
    }
    matrix = BlockOperatorMatrix(ctx, blocks)
    return StateHandle(matrix, classification="essential")


def _tail_product(seq: UnitVectorSequence, k: int, l: int) -> complex:
    """Product of <e_{l+i}, e_{k+i}> over i >= 1 for lattice pairs.

    Once both indices pass the prefix they resolve to the same slot
    (the cycle length divides k - l after rephasing), so only factors
    with l + i inside the prefix contribute.
    """
    prod = 1.0 + 0j
    for i in range(1, max(0, seq.prefix_len - min(k, l)) + 1):
        prod *= seq.overlap(l + i, k + i)
    return prod


def extension_coefficients(
    seq: UnitVectorSequence, p: int, measure: CircleMeasure, depth: int
) -> dict:
    """Nonzero block coefficients ``{(k, l): c}`` of the extension by
    ``measure``, c coupling levels k and l, stored diagonal by diagonal as
    they are walked.

    They lie on the lattice diagonals (p divides k - l) whose Fourier
    coefficient is not zero.  Each such diagonal is seeded at its top with
    the Fourier coefficient times a finite tail product and walked downward
    through c[k, l] = c[k + 1, l + 1] * <e_{l+1}, e_{k+1}> until the first
    zero, with the mirror pair (l, k) taking the conjugate, so that
    recursion and the Hermitian symmetry hold exactly on the stored values.
    Requires a rephased sequence (cycle length equal to the period and
    nonnegative overlaps one period apart); that is what makes the tail
    products finite and the lattice structure exact.
    """
    p = int(p)
    if not is_rephased(seq, p):
        raise ValueError(
            "sequence must be rephased with cycle length equal to the period; "
            "apply rephase() first"
        )
    K = int(depth)
    coeffs = {}
    for m in range(K // p + 1):
        moment = complex(fourier(measure, m))
        if moment == 0:
            continue
        d = m * p
        c = moment * _tail_product(seq, K, K - d)
        for k in range(K, d - 1, -1):
            if k < K:
                c = c * seq.overlap(k - d + 1, k + 1)
            if c == 0:
                break
            coeffs[(k, k - d)] = c
            if d:
                coeffs[(k - d, k)] = c.conjugate()
    return coeffs


def extend(seq: UnitVectorSequence, measure: CircleMeasure, depth: int) -> StateHandle:
    """Extension of the product state of ``seq`` by ``measure``.

    The block coupling column level i to row level j is the coefficient
    at (j, i) times the outer product of the elementary tensors, so the
    state restricts to the product state on the diagonal and is
    invariant under slicing by the coefficient recursion.
    """
    ctx = FockContext(seq.n, depth)
    coeffs = extension_coefficients(seq, period(seq), measure, depth)
    tensors = elementary_tensors(seq, depth)
    blocks = {(i, j): Rank1Block(c, tensors[i], tensors[j])
              for (j, i), c in coeffs.items()}
    return StateHandle(BlockOperatorMatrix(ctx, blocks), classification="essential")


def gauge_transform(state, lam: complex):
    """Compose a state with the gauge automorphism at a unimodular lam.

    Each generator picks up the factor lam, so the block at row level i
    and column level j scales by lam**(j - i).  Accepts a handle or a
    bare matrix and returns the same kind.
    """
    lam = complex(lam)
    if abs(abs(lam) - 1.0) > 1e-12:
        raise ValueError("gauge parameter must be unimodular")
    is_handle = isinstance(state, StateHandle)
    matrix = state.matrix if is_handle else state
    blocks = {
        (i, j): _scaled(blk, lam ** (j - i))
        for (i, j), blk in matrix.blocks.items()
    }
    out = BlockOperatorMatrix(matrix.ctx, blocks, matrix.horizon)
    if is_handle:
        return StateHandle(out, classification=state.classification)
    return out


def recover_measure_moments(
    state, seq: UnitVectorSequence, p: int, a_max: int
) -> MomentSequence:
    """Read the extending measure's moments back out of a state.

    The moment of order a is the state's value on the rank-one element
    pairing the elementary tensors at levels P + a*p and P, with P the
    prefix length: past the prefix the tail corrections are exactly one,
    so no division is needed.  The zeroth value is real for any
    Hermitian state; roundoff in its imaginary part is discarded.
    """
    matrix = state.matrix if isinstance(state, StateHandle) else state
    p, a_max = int(p), int(a_max)
    if p < 1 or a_max < 0:
        raise ValueError("need p >= 1 and a_max >= 0")
    P = seq.prefix_len
    need = P + a_max * p
    if need > matrix.horizon:
        raise HorizonError(
            f"moments up to order {a_max} need level {need}, "
            f"horizon is {matrix.horizon}"
        )
    tensors = elementary_tensors(seq, need)
    one_sided = []
    for a in range(a_max + 1):
        k = P + a * p
        value = matrix.vector_pair_value(tensors[k], k, tensors[P], P)
        if a == 0:
            value = complex(value.real, 0.0)
        one_sided.append(value)
    return MomentSequence(one_sided)


def parse_extension_request(payload: dict):
    """Decode an extension request {sequence, measure, depth}."""
    sequence, measure, depth = _fields(
        payload, ("sequence", "measure", "depth"), "extension request")
    seq = UnitVectorSequence.from_payload(sequence)
    measure = CircleMeasure.from_payload(measure)
    depth = _integer(depth, 0, "'depth'")
    FockContext(seq.n, depth)  # rejects a depth whose top level is not addressable
    return seq, measure, depth
