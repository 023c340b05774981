"""Density matrices of states, the slice map, and the essential/singular split.

A state of the isometry algebra is determined by its values on monomials,
and those values assemble into a block matrix indexed by (row level, column
level): block (i, j) has shape (n^i, n^j) and its [a, b] entry is the state
applied to v_mu v_nu^*, where nu is word a of level i and mu is word b of
level j.  Equivalently it is the matrix of a positive operator Omega with
inner products taken linear in the first argument.

Because entries are plain state values, truncation at depth K is a
restriction rather than an approximation: every stored block is exact.
What does degrade is the *slice* map, which computes block (i, j) from
block (i+1, j+1) by a partial trace over the last tensor factor; each
application loses the top level, so a matrix carries a ``horizon`` marking
the highest level still trustworthy.

The slice of a state is again a state-like functional, dominated by the
original in the positive-decreasing cone.  Iterating it separates the part
that lives "at infinity" (slice-invariant, the essential part) from the
part supported on finitely many levels (slice-nilpotent, the singular
part); :func:`decompose` performs that split and :func:`classify` names
the outcome.  Essential states are the slice-invariant ones, so
:func:`decompose` walks each diagonal down once from the horizon's top.

:class:`BlockOperatorMatrix` is the state side of the block core in
:mod:`fockstate.fock`, which it shares with the Fock operators: block
validation, dense views, comparison, sums, scaling and the JSON layout live
there, as do :class:`Rank1Block` and its per-block helpers
(``fockstate.density.Rank1Block`` is the same class).  This module adds the
horizon of meaningful levels and the state algebra.

Blocks may be stored dense or as :class:`Rank1Block`; the rank-one form
keeps deep truncations affordable when a state's blocks are outer products,
as they are for the product-state extensions.  The form survives the slice
map when both factors are tensor products in their last letter, as the
elementary tensors of an extension are, so :meth:`BlockOperatorMatrix.sliced`,
:func:`classify` and :func:`decompose` keep extension states factored; it
also survives the JSON codec, which writes a rank-one block as its
coefficient and factors.  ``+`` and ``-`` keep a block
as it is when only one operand holds it, so a mixture keeps the rank-one
blocks of its extension part, and sum two rank-one blocks with parallel
factors to one rank-one block on the first operand's factors.  Block (i, j)
of an extension and of its slice are multiples of the same outer product, so
``restricted() - sliced()`` in :meth:`BlockOperatorMatrix.is_decreasing` and
the singular part of :func:`decompose` stay rank-one, and the comparisons
behind :func:`classify` and :func:`decompose` measure such a difference from
its factors; any other pair of blocks held by both operands is summed dense.
The corner positivity checks diagonalize each corner on the span of its
stored blocks: a level without blocks adds no rows, a level holding only
rank-one blocks adds at most one row per distinct factor, and any other
level adds all of its n^k rows.  Their cost therefore follows the stored levels and
the rank of their blocks; :meth:`BlockOperatorMatrix.corner` is still the
dense view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (AlphabetMismatchError, CoefficientRangeError, HorizonError,
                     SchemaError, UndeterminedError)
from .fock import (
    BlockMatrix,
    FockContext,
    Rank1Block,
    _block_trace,
    _blocks_from_payload,
    _conj_transpose,
    _entry,
    _fields,
    _integer,
    _ptrace_last,
)
from .word_algebra import AlgebraElement

EQUALITY_TOL = 1e-10
PSD_TOL_SCALE = 1e-9
HERMITIAN_TOL = 1e-12

__all__ = [
    "EQUALITY_TOL",
    "PSD_TOL_SCALE",
    "HERMITIAN_TOL",
    "Rank1Block",
    "BlockOperatorMatrix",
    "CheckResult",
    "ClassifyResult",
    "DecomposeResult",
    "StateHandle",
    "fock_vector_state",
    "state_eval",
    "classify",
    "decompose",
    "gram_matrix",
    "gram_positivity_check",
    "trace_profile_csv",
]


def _min_eigenvalue(hermitian: np.ndarray) -> float:
    """Smallest eigenvalue, or NaN when an entry is not finite (the
    eigensolver may drop a NaN and return finite eigenvalues)."""
    if not np.isfinite(hermitian).all():
        return float("nan")
    return float(np.linalg.eigvalsh(hermitian)[0])


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a corner-wise eigenvalue check."""

    ok: bool
    min_eigenvalues: tuple[float, ...]
    tolerances: tuple[float, ...]


def _psd_verdict(checked, tol_scale: float) -> CheckResult:
    """Verdict on (smallest eigenvalue, Hermitian matrix) pairs: each
    smallest eigenvalue may reach down to -tol_scale * max(1, |trace|), and
    NaN fails."""
    mins, tols = [], []
    for lowest, mat in checked:
        mins.append(lowest)
        tols.append(tol_scale * max(1.0, abs(float(np.trace(mat).real))))
    ok = all(low >= -tol for low, tol in zip(mins, tols))
    return CheckResult(ok, tuple(mins), tuple(tols))


@dataclass(frozen=True)
class ClassifyResult:
    label: str
    trace_profile: tuple[float, ...]


@dataclass(frozen=True)
class DecomposeResult:
    essential: "BlockOperatorMatrix"
    singular: "BlockOperatorMatrix"
    stabilization_step: int


class BlockOperatorMatrix(BlockMatrix):
    """Hermitian block matrix of state values on the truncated levels.

    ``blocks`` maps (row level, column level) to a dense array or a
    :class:`Rank1Block`; absent blocks are zero.  ``horizon`` is the
    highest level whose blocks are meaningful (slicing lowers it).
    """

    __slots__ = ("horizon",)

    def __init__(self, ctx: FockContext, blocks: dict, horizon: int | None = None):
        super().__init__(ctx, blocks)
        self.horizon = ctx.depth if horizon is None else max(-1, min(horizon, ctx.depth))

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_blocks(cls, ctx: FockContext, blocks: dict,
                    horizon: int | None = None) -> "BlockOperatorMatrix":
        """Build from possibly one-sided data, completing and checking the
        Hermitian mirror blocks."""
        full = dict(blocks)
        for (i, j), block in blocks.items():
            mirror = (j, i)
            if mirror not in full:
                full[mirror] = _conj_transpose(block)
        mat = cls(ctx, full, horizon)
        if not mat.is_hermitian():
            raise ValueError("blocks are not Hermitian-consistent")
        return mat

    @classmethod
    def vacuum(cls, ctx: FockContext) -> "BlockOperatorMatrix":
        """The vacuum state: 1 at the empty word, 0 elsewhere."""
        return cls(ctx, {(0, 0): np.array([[1.0 + 0j]])})

    @classmethod
    def from_functional(cls, ctx: FockContext, fn,
                        horizon: int | None = None) -> "BlockOperatorMatrix":
        """Tabulate ``fn(mu, nu)`` (the state on v_mu v_nu^*) over all kept
        levels.  Row words run over nu, column words over mu."""
        blocks = {}
        for i in range(ctx.depth + 1):
            for j in range(ctx.depth + 1):
                arr = np.empty((ctx.dim(i), ctx.dim(j)), dtype=complex)
                for a in range(ctx.dim(i)):
                    nu = ctx.word_at(i, a)
                    for b in range(ctx.dim(j)):
                        arr[a, b] = fn(ctx.word_at(j, b), nu)
                blocks[(i, j)] = arr
        return cls(ctx, blocks, horizon)

    # -- element access ---------------------------------------------------

    def entry(self, i: int, j: int, a: int, b: int) -> complex:
        blk = self.blocks.get((i, j))
        return 0j if blk is None else _entry(blk, a, b)

    def monomial_value(self, mu, nu) -> complex:
        """Value on v_mu v_nu^* for explicit words."""
        mu, nu = tuple(mu), tuple(nu)
        i, j = len(nu), len(mu)
        if i > self.horizon or j > self.horizon:
            raise HorizonError(
                f"monomial needs level {max(i, j)}, horizon is {self.horizon}"
            )
        return self.entry(i, j, self.ctx.word_index(nu), self.ctx.word_index(mu))

    def vector_pair_value(self, x: np.ndarray, k: int,
                          y: np.ndarray, l: int) -> complex:
        """Value on the rank-one element x y^* with x at level k, y at level l."""
        limit = self.horizon
        if k > limit or l > limit:
            raise HorizonError(f"levels ({k},{l}) beyond horizon {limit}")
        blk = self.blocks.get((l, k))
        if blk is None:
            return 0j
        if isinstance(blk, Rank1Block):
            return complex(blk.coeff * np.vdot(y, blk.left) * np.vdot(blk.right, x))
        return complex(np.vdot(y, blk @ x))

    # -- traces and corners ----------------------------------------------

    def trace(self) -> float:
        return float(self.entry(0, 0, 0, 0).real)

    def level_trace(self, k: int) -> float:
        blk = self.blocks.get((k, k))
        return 0.0 if blk is None else float(_block_trace(blk).real)

    def trace_profile(self, limit: int | None = None) -> tuple[float, ...]:
        if limit is None:
            limit = self.horizon
        return tuple(self.level_trace(k) for k in range(limit + 1))

    def _require_horizon(self, message: str) -> int:
        """The horizon; below 1 raises UndeterminedError with the profile."""
        if self.horizon < 1:
            raise UndeterminedError(message, self.trace_profile(max(self.horizon, 0)))
        return self.horizon

    # -- slicing -----------------------------------------------------------

    def sliced(self) -> "BlockOperatorMatrix":
        """Partial trace over the last letter of each block one level up.

        The result's block (i, j) comes from block (i+1, j+1), so the top
        level is lost and the horizon drops by one.
        """
        n = self.ctx.n
        blocks, splits = {}, {}
        for (i, j), blk in self.blocks.items():
            if i == 0 or j == 0:
                continue
            blocks[(i - 1, j - 1)] = _ptrace_last(blk, n, splits)
        return BlockOperatorMatrix(self.ctx, blocks, self.horizon - 1)

    def restricted(self, level_limit: int) -> "BlockOperatorMatrix":
        """Keep only blocks with both levels <= level_limit."""
        blocks = {key: blk for key, blk in self.blocks.items()
                  if max(key) <= level_limit}
        return BlockOperatorMatrix(self.ctx, blocks, min(self.horizon, level_limit))

    # -- comparison ---------------------------------------------------------

    def max_abs_diff(self, other: "BlockOperatorMatrix",
                     level_limit: int | None = None) -> float:
        """Largest entry difference over blocks with both levels <= limit.

        The limit defaults to the smaller horizon, which is the region
        where both matrices are meaningful.
        """
        if level_limit is None:
            level_limit = min(self.horizon, other.horizon)
        return self._max_diff(other, lambda i, j: max(i, j) <= level_limit)

    def is_hermitian(self) -> bool:
        """Every block within HERMITIAN_TOL of the conjugate transpose of its
        mirror; mirrored rank-one blocks are compared from their factors."""
        mirrored = BlockMatrix(self.ctx, {(j, i): _conj_transpose(blk)
                                          for (i, j), blk in self.blocks.items()})
        return self._max_diff(mirrored, lambda i, j: True) <= HERMITIAN_TOL

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "BlockOperatorMatrix") -> "BlockOperatorMatrix":
        return BlockOperatorMatrix(self.ctx, self._sum_blocks(other),
                                   min(self.horizon, other.horizon))

    def __rmul__(self, scalar) -> "BlockOperatorMatrix":
        return BlockOperatorMatrix(self.ctx, self._scaled_blocks(scalar), self.horizon)

    # -- positivity ------------------------------------------------------------

    def _compressed(self) -> tuple[np.ndarray, list[int]]:
        """The matrix on levels 0..horizon as M = Q^H Omega Q.

        Q is block diagonal with one block of orthonormal columns per level:
        none for a level without stored blocks, a basis of the distinct
        factors for a level whose blocks are all rank-one, and the identity
        otherwise.  Every corner of Omega is Q M Q^H on the leading rows of
        M, so it has the eigenvalues of that part of M plus zeros.  Returns
        M and the offsets of the levels' rows in it.  When every level gets
        the identity, M is exactly ``corner(horizon)``.
        """
        inside = {key: blk for key, blk in self.blocks.items()
                  if max(key) <= self.horizon}
        factors = {}
        dense_levels = set()
        for (i, j), blk in inside.items():
            if isinstance(blk, Rank1Block):
                factors.setdefault(i, {})[id(blk.left)] = blk.left
                factors.setdefault(j, {})[id(blk.right)] = blk.right
            else:
                dense_levels.update((i, j))
        bases, offsets = {}, [0]
        for level in range(self.horizon + 1):
            dim = self.ctx.dim(level)
            vectors = factors.get(level, {})
            if level in dense_levels or len(vectors) >= dim:
                size = dim
            elif vectors:
                bases[level] = np.linalg.qr(np.column_stack(list(vectors.values())))[0]
                size = bases[level].shape[1]
            else:
                size = 0
            offsets.append(offsets[-1] + size)
        out = np.zeros((offsets[-1], offsets[-1]), dtype=complex)
        for (i, j), blk in inside.items():
            rows = slice(offsets[i], offsets[i + 1])
            cols = slice(offsets[j], offsets[j + 1])
            if isinstance(blk, Rank1Block):
                left = blk.left if i not in bases else bases[i].conj().T @ blk.left
                right = blk.right if j not in bases else bases[j].conj().T @ blk.right
                out[rows, cols] = blk.coeff * np.outer(left, right.conj())
            else:
                out[rows, cols] = blk
        return out, offsets

    def is_positive(self, tol_scale: float = PSD_TOL_SCALE) -> CheckResult:
        """Check every corner up to the horizon for positive semidefiniteness.

        Each corner is allowed eigenvalues down to -tol_scale * max(1, trace).
        The eigenvalues come from the compressed matrix of :meth:`_compressed`,
        so the cost follows the stored levels and the rank of their blocks
        rather than the corner's n^k rows.
        """
        compressed, offsets = self._compressed()
        compressed = 0.5 * compressed + 0.5 * compressed.conj().T
        checked = []
        for k in range(self.horizon + 1):
            rank = offsets[k + 1]
            corner = compressed[:rank, :rank]
            lowest = _min_eigenvalue(corner) if rank else 0.0
            if rank < self.ctx.level_offsets[k + 1] and lowest > 0:
                lowest = 0.0
            checked.append((lowest, corner))
        return _psd_verdict(checked, tol_scale)

    def is_decreasing(self, tol_scale: float = PSD_TOL_SCALE) -> CheckResult:
        """Check that the slice is dominated by the matrix itself: all
        corners of (self - sliced) up to horizon - 1 stay positive.  Raises
        :class:`UndeterminedError` below horizon 1, where no corner is left."""
        self._require_horizon("horizon too short to compare the state with its slice")
        diff = self.restricted(self.horizon - 1) - self.sliced()
        return diff.is_positive(tol_scale)


def fock_vector_state(ctx: FockContext, phi) -> BlockOperatorMatrix:
    """Density matrix of the vector state attached to a finitely supported
    Fock vector.

    ``phi`` is a list of per-level coefficient arrays.  The vector is
    normalized; all its blocks are sums of outer products of reshaped level
    slices, which makes the state positive and decreasing by construction,
    and singular because the vector is finitely supported.
    """
    levels = []
    for k, arr in enumerate(phi):
        arr = np.asarray(arr, dtype=complex).ravel()
        if k > ctx.depth:
            raise ValueError("vector extends beyond the truncation depth")
        if arr.shape != (ctx.dim(k),):
            raise ValueError(
                f"level {k} has {arr.size} coefficients, expected {ctx.dim(k)}"
            )
        levels.append(arr)
    norm2 = sum(float(np.vdot(a, a).real) for a in levels)
    if norm2 <= 0:
        raise ValueError("cannot normalize the zero vector")
    levels = [a / np.sqrt(norm2) for a in levels]
    top = len(levels) - 1
    n = ctx.n
    blocks = {}
    for i in range(top + 1):
        for j in range(top + 1):
            acc = np.zeros((ctx.dim(i), ctx.dim(j)), dtype=complex)
            for g in range(0, top + 1 - max(i, j)):
                a = levels[i + g].reshape(ctx.dim(i), n**g)
                b = levels[j + g].reshape(ctx.dim(j), n**g)
                acc += a @ b.conj().T
            blocks[(i, j)] = acc
    return BlockOperatorMatrix(ctx, blocks, ctx.depth)


def state_eval(matrix: BlockOperatorMatrix, element: AlgebraElement) -> complex:
    """Apply the stored functional to an algebra element.

    Each term c * v_mu v_nu^* reads one entry of block (|nu|, |mu|).
    Raises :class:`HorizonError` when a term needs levels beyond the
    matrix horizon, and :class:`CoefficientRangeError` when finite entries
    sum to a value that is not finite.
    """
    if element.n != matrix.ctx.n:
        raise AlphabetMismatchError(
            f"element over alphabet of size {element.n}, state has {matrix.ctx.n}"
        )
    total = 0j
    for (mu, nu), coeff in element.terms.items():
        total += coeff * matrix.monomial_value(mu, nu)
    if not np.isfinite(total) and np.isfinite(
            [matrix.monomial_value(mu, nu) for mu, nu in element.terms]).all():
        raise CoefficientRangeError(f"the value overflows to {total}")
    return total


def classify(matrix: BlockOperatorMatrix, tol: float = EQUALITY_TOL) -> ClassifyResult:
    """Name the state's behavior under slicing.

    essential: level traces constant and the slice reproduces the matrix.
    singular: level traces decay to zero within the horizon.
    mixed: level traces stabilize at a value strictly between.
    undetermined: the horizon is too short to tell.
    """
    h = matrix.horizon
    if h < 1:
        return ClassifyResult("undetermined", matrix.trace_profile(max(h, 0)))
    profile = matrix.trace_profile(h)
    total = profile[0]
    scale_tol = tol * max(1.0, abs(total))
    if max(abs(p - total) for p in profile) <= scale_tol:
        slice_diff = matrix.sliced().max_abs_diff(matrix)
        if slice_diff <= tol:
            return ClassifyResult("essential", profile)
    if profile[-1] <= scale_tol:
        return ClassifyResult("singular", profile)
    stabilized = abs(profile[-1] - profile[-2]) <= scale_tol
    if h >= 2:
        stabilized = stabilized and abs(profile[-2] - profile[-3]) <= scale_tol
    if stabilized and scale_tol < profile[-1] < total - scale_tol:
        return ClassifyResult("mixed", profile)
    return ClassifyResult("undetermined", profile)


def decompose(matrix: BlockOperatorMatrix,
              tol: float = EQUALITY_TOL) -> DecomposeResult:
    """Split into a slice-invariant part plus a finitely supported rest.

    Iterated slices must stabilize within the horizon.  The essential part
    is then fixed by its top ring, the blocks with max(i, j) = h: block
    (i, j) is the top block of its diagonal sliced h - max(i, j) times, so
    the ring is sliced until it is empty, which walks each diagonal once.
    Raises :class:`UndeterminedError` when no stabilization is visible.
    """
    h = matrix._require_horizon("horizon too short to decompose")
    current = matrix.restricted(h)
    for m in range(h):
        following = current.sliced()
        if following.max_abs_diff(current) <= tol:
            break
        current = following
    else:
        raise UndeterminedError(
            "iterated slices do not stabilize within the horizon",
            trace_profile=list(matrix.trace_profile(h)),
        )
    ring = BlockOperatorMatrix(matrix.ctx, {key: blk for key, blk in matrix.blocks.items()
                                            if max(key) == h})
    blocks = {}
    while ring.blocks:
        blocks.update(ring.blocks)
        ring = ring.sliced()
    essential = BlockOperatorMatrix(matrix.ctx, dict(sorted(blocks.items())), h)
    return DecomposeResult(essential, matrix.restricted(h) - essential, m)


def gram_matrix(matrix: BlockOperatorMatrix,
                elements: list[AlgebraElement]) -> np.ndarray:
    """Gram matrix G[a, b] = state(x_a^* x_b) for the given elements."""
    size = len(elements)
    out = np.empty((size, size), dtype=complex)
    adjoints = [x.adjoint() for x in elements]
    for a in range(size):
        for b in range(size):
            out[a, b] = state_eval(matrix, adjoints[a] * elements[b])
    return out


def gram_positivity_check(matrix: BlockOperatorMatrix,
                          element_sets: list[list[AlgebraElement]]) -> CheckResult:
    """Positive semidefiniteness of the Gram matrix of each element set."""
    checked = []
    for elements in element_sets:
        g = gram_matrix(matrix, elements)
        g = 0.5 * g + 0.5 * g.conj().T
        checked.append((_min_eigenvalue(g), g))
    return _psd_verdict(checked, PSD_TOL_SCALE)


def trace_profile_csv(matrix: BlockOperatorMatrix) -> str:
    """Level traces as CSV with header ``k,omega_Ek``."""
    lines = ["k,omega_Ek"]
    for k, value in enumerate(matrix.trace_profile()):
        lines.append(f"{k},{value!r}")
    return "\n".join(lines)


@dataclass
class StateHandle:
    """A density matrix together with optional classification metadata."""

    matrix: BlockOperatorMatrix
    classification: str | None = None

    def to_payload(self) -> dict:
        """JSON-ready state file.  Raises ValueError for a horizon below 0
        (such as the slice of a K=0 state): no level of it is meaningful,
        and ``exact_horizon`` must lie in 0..K to load again."""
        if self.matrix.horizon < 0:
            raise ValueError(
                f"horizon {self.matrix.horizon} is below 0: no level is meaningful"
            )
        payload = self.matrix.to_payload()
        payload["metadata"] = {
            "exact_horizon": self.matrix.horizon,
            "classification": self.classification,
            "trace_profile": [float(x) for x in self.matrix.trace_profile()],
        }
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "StateHandle":
        if not isinstance(payload, dict):
            raise SchemaError("state payload must be an object")
        core = {k: v for k, v in payload.items() if k != "metadata"}
        ctx, blocks = _blocks_from_payload(core, rank_one=True)
        horizon = ctx.depth
        metadata = payload.get("metadata")
        if metadata is None:
            metadata = {}
        _fields(metadata, (), "metadata",
                optional=("exact_horizon", "classification", "trace_profile"))
        if "exact_horizon" in metadata:
            horizon = _integer(metadata["exact_horizon"], 0, "'exact_horizon'")
            if horizon > ctx.depth:
                raise SchemaError(f"'exact_horizon' {horizon} exceeds K = {ctx.depth}")
        classification = metadata.get("classification")
        if classification is not None and not isinstance(classification, str):
            raise SchemaError("'classification' must be a string")
        try:
            matrix = BlockOperatorMatrix.from_blocks(ctx, blocks, horizon)
        except ValueError as exc:
            raise SchemaError(str(exc)) from None
        return cls(matrix, classification)
