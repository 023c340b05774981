"""Truncated Fock space representation of the isometry algebra.

The full Fock space over an n-letter alphabet has one basis vector per word;
level k collects the words of length k.  We keep levels 0..K and store
operators as block matrices indexed by (row level, column level), with the
basis of level k ordered by word index

    index(i_1 ... i_k) = sum_j (i_j - 1) * n^(k - j),

so the first letter is most significant.

Operators and states are the same kind of object: a dict of level blocks.
:class:`BlockMatrix` is the block core they share: block validation, dense
views, comparison, and block sums and scaling.  A block is a dense array or
a :class:`Rank1Block` (``coeff * |left><right|``), which lives here together
with its per-block helpers; :class:`FockOperator` keeps dense blocks only,
and two operators multiply with ``@`` (``*`` takes a scalar), while the
states of :mod:`fockstate.density` keep rank-one blocks rank-one and hold
the state-file layout in ``StateHandle``, as only states are files.  The
codec section below holds the JSON primitives every decoder of the package
shares: objects and their keys, integers, finite numbers, and [re, im]
entry lists.

Truncation loses whatever an operator sends above level K.  Every
:class:`FockOperator` therefore has an exact column horizon ``h``: the
stored matrix agrees with the untruncated operator on all columns from
levels 0..h, and those columns produce nothing above level K.  An operator
stores bounds on how many levels it raises and drops a word, and ``exact``:
the stored matrix *is* the whole operator (nothing was cut).  Then h = K
for an exact operator and h = max(-1, K - raise_bound) for any other.

Every operator that is not exact is built by ``+``, scalars, ``@``,
``shift`` and ``adjoint`` from exact operators and compressions P_K X P_K
(``represent``, ``right_create``).  By induction over these operations its
column j is exact when j + raise_bound <= K and its row i when
i + drop_bound <= K; the adjoint swaps the two bounds.  Compressions are
closed under the shift, which is what makes the shift-series identities
hold on every stored block rather than only below the horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import (AlphabetMismatchError, CoefficientRangeError, LetterRangeError,
                     SchemaError)
from .word_algebra import AlgebraElement

# A factor splits as a tensor product when the outer product of the split
# reproduces it within this many ulps of its largest entry.
SPLIT_ULPS = 8

# The largest array index numpy can address.
_MAX_INDEX = int(np.iinfo(np.intp).max)

__all__ = [
    "FockContext",
    "Rank1Block",
    "BlockMatrix",
    "FockOperator",
    "left_create",
    "right_create",
    "represent",
    "shift",
    "shift_defect",
    "shift_series",
    "zero_vector",
    "basis_vector",
    "apply_operator",
    "inner_product",
    "vector_norm",
]


class FockContext:
    """Alphabet size and truncation depth, with basis index helpers."""

    __slots__ = ("n", "depth", "level_dims", "level_offsets", "total_dim")

    def __init__(self, n: int, depth: int):
        if n < 1:
            raise ValueError(f"alphabet size must be >= 1, got {n}")
        if depth < 0:
            raise ValueError(f"truncation depth must be >= 0, got {depth}")
        # Level K needs n**K addressable rows.  n**K >= 2**K for n >= 2, so a
        # depth of 64 or more is rejected before any power is taken.
        if n >= 2 and (depth >= 64 or n**depth > _MAX_INDEX):
            raise SchemaError(
                f"depth K = {depth} is too large for n = {n}: level K would "
                f"have n**K > {_MAX_INDEX} rows"
            )
        self.n = n
        self.depth = depth
        self.level_dims = tuple(n**k for k in range(depth + 1))
        offsets = [0]
        for d in self.level_dims:
            offsets.append(offsets[-1] + d)
        self.level_offsets = tuple(offsets)
        self.total_dim = offsets[-1]

    def dim(self, level: int) -> int:
        return self.level_dims[level]

    def word_index(self, letters) -> int:
        """Index of a word within its level block."""
        idx = 0
        for letter in letters:
            if not 1 <= letter <= self.n:
                raise LetterRangeError(f"letter {letter} outside 1..{self.n}")
            idx = idx * self.n + (letter - 1)
        return idx

    def word_at(self, level: int, index: int) -> tuple[int, ...]:
        """Word of length ``level`` at position ``index``."""
        if not 0 <= index < self.dim(level):
            raise IndexError(f"index {index} outside level {level}")
        letters = []
        for _ in range(level):
            letters.append(index % self.n + 1)
            index //= self.n
        return tuple(reversed(letters))

    def words(self, level: int):
        """All words of one level, in index order."""
        for idx in range(self.dim(level)):
            yield self.word_at(level, idx)

    def compatible(self, other: "FockContext") -> bool:
        return self.n == other.n and self.depth == other.depth

    def __repr__(self):
        return f"FockContext(n={self.n}, depth={self.depth})"


# ---------------------------------------------------------------------------
# The block core: dense or rank-one blocks on levels 0..K
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Rank1Block:
    """Block stored as coeff * |left><right| without materializing it."""

    coeff: complex
    left: np.ndarray
    right: np.ndarray

    def dense(self) -> np.ndarray:
        return self.coeff * np.outer(self.left, self.right.conj())

    def ptrace_last(self, n: int, splits: dict | None = None):
        """Partial trace over the last tensor factor.

        When left = a (x) b and right = c (x) d up to a few ulps of their
        largest entries, the result is the rank-one block
        coeff * <d, b> * |a><c|; otherwise it is the dense product of the
        reshaped factors.  ``splits`` memoizes the split of each factor
        array by identity, so blocks that share a factor still share it
        after the slice.
        """
        if splits is None:
            splits = {}
        for vec in (self.left, self.right):
            if id(vec) not in splits:
                splits[id(vec)] = _split_last(vec, n)
        left, right = splits[id(self.left)], splits[id(self.right)]
        if left is None or right is None:
            f = self.left.reshape(-1, n)
            g = self.right.reshape(-1, n)
            return self.coeff * (f @ g.conj().T)
        (a, b), (c, d) = left, right
        return Rank1Block(self.coeff * complex(np.vdot(d, b)), a, c)


def _split_last(vec: np.ndarray, n: int):
    """(a, b) with vec = a (x) b up to SPLIT_ULPS ulps of its largest entry,
    or None.  b is scaled to 1 at the largest entry's column."""
    mat = vec.reshape(-1, n)
    r, c = divmod(int(np.argmax(np.abs(mat))), n)
    pivot = mat[r, c]
    if pivot == 0:
        return None
    a, b = mat[:, c], mat[r] / pivot
    gap = np.abs(mat - np.outer(a, b)).max()
    if not gap <= SPLIT_ULPS * np.finfo(float).eps * abs(pivot):
        return None
    return a, b


def _ratio(u: np.ndarray, v: np.ndarray):
    """alpha with v = alpha * u within SPLIT_ULPS ulps of v's largest entry,
    or None.  alpha is read at u's largest entry, as exactly 1 when v holds
    the same number there (x / x need not be 1), so equal arrays give 1."""
    if u is v:
        return 1.0
    k = int(np.argmax(np.abs(u)))
    if u[k] == 0:
        return None
    alpha = 1.0 if v[k] == u[k] else v[k] / u[k]
    gap = np.abs(v - alpha * u).max()
    if not gap <= SPLIT_ULPS * np.finfo(float).eps * np.abs(v).max():
        return None
    return alpha


def _block_sum(a, b):
    """a + b.  Two rank-one blocks with parallel factors (see :func:`_ratio`)
    sum to one :class:`Rank1Block` on a's factors, so factors shared by a's
    blocks stay shared; every other pair sums dense."""
    if isinstance(a, Rank1Block) and isinstance(b, Rank1Block):
        alpha = _ratio(a.left, b.left)
        beta = None if alpha is None else _ratio(a.right, b.right)
        if beta is not None:
            return Rank1Block(a.coeff + b.coeff * alpha * np.conj(beta),
                              a.left, a.right)
    return _dense(a) + _dense(b)


def _block_max(block, key) -> float:
    """Largest entry modulus; |coeff| max|left| max|right| for a rank-one
    block, whose overflow raises CoefficientRangeError naming block ``key``."""
    if not isinstance(block, Rank1Block):
        return float(np.abs(block).max())
    try:
        bound = float(abs(block.coeff) * np.abs(block.left).max()
                      * np.abs(block.right).max())
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise CoefficientRangeError(f"the entries of block {key} overflow")
    return bound


def _dense(block) -> np.ndarray:
    return block.dense() if isinstance(block, Rank1Block) else block


def _entry(block, a: int, b: int) -> complex:
    if isinstance(block, Rank1Block):
        return complex(block.coeff * block.left[a] * np.conj(block.right[b]))
    return complex(block[a, b])


def _scaled(block, c: complex):
    if isinstance(block, Rank1Block):
        return Rank1Block(block.coeff * c, block.left, block.right)
    return c * block


def _conj_transpose(block):
    if isinstance(block, Rank1Block):
        return Rank1Block(np.conj(block.coeff), block.right, block.left)
    return block.conj().T


def _block_trace(block) -> complex:
    if isinstance(block, Rank1Block):
        return complex(block.coeff * complex(np.vdot(block.right, block.left)))
    return complex(np.trace(block))


def _ptrace_last(block, n: int, splits: dict):
    if isinstance(block, Rank1Block):
        return block.ptrace_last(n, splits)
    return np.trace(block.reshape(block.shape[0] // n, n, -1, n), axis1=1, axis2=3)


class BlockMatrix:
    """Blocks on the truncated levels, keyed by (row level, column level).

    Block (i, j) is a complex array of shape (n^i, n^j) or a
    :class:`Rank1Block` with factors of sizes n^i and n^j.  Absent blocks
    are zero, and zero blocks are not stored.  Subclasses add their horizon
    bookkeeping and their algebra.
    """

    __slots__ = ("ctx", "blocks")

    def __init__(self, ctx: FockContext, blocks: dict):
        self.ctx = ctx
        self.blocks = {}
        depth, dims = ctx.depth, ctx.level_dims
        for (i, j), block in blocks.items():
            if not (0 <= i <= depth and 0 <= j <= depth):
                raise ValueError(f"block ({i},{j}) outside levels 0..{depth}")
            shape = (dims[i], dims[j])
            if isinstance(block, Rank1Block):
                if block.left.shape != shape[:1] or block.right.shape != shape[1:]:
                    raise ValueError(f"rank-one block ({i},{j}) has wrong factor sizes")
                if block.coeff == 0:
                    continue
            else:
                block = np.asarray(block, dtype=complex)
                if block.shape != shape:
                    raise ValueError(
                        f"block ({i},{j}) has shape {block.shape}, expected {shape}"
                    )
                if not np.any(block):
                    continue
            self.blocks[(i, j)] = block

    def _require_same_context(self, other: "BlockMatrix") -> None:
        if not self.ctx.compatible(other.ctx):
            raise AlphabetMismatchError(
                f"operands live on different spaces: {self.ctx!r} vs {other.ctx!r}"
            )

    def block(self, i: int, j: int) -> np.ndarray:
        """Dense block (zeros when absent)."""
        blk = self.blocks.get((i, j))
        if blk is None:
            return np.zeros((self.ctx.dim(i), self.ctx.dim(j)), dtype=complex)
        return _dense(blk)

    def corner(self, k: int) -> np.ndarray:
        """Dense matrix over levels 0..k."""
        if k > self.ctx.depth:
            raise ValueError(f"corner {k} outside depth {self.ctx.depth}")
        off = self.ctx.level_offsets
        size = off[k + 1]
        out = np.zeros((size, size), dtype=complex)
        for (i, j), blk in self.blocks.items():
            if i <= k and j <= k:
                out[off[i]:off[i + 1], off[j]:off[j + 1]] = _dense(blk)
        return out

    def to_dense(self) -> np.ndarray:
        """Assemble the full matrix over all kept levels."""
        return self.corner(self.ctx.depth)

    def max_abs(self, level_limit: int | None = None) -> float:
        """Largest entry over the blocks with both levels <= level_limit."""
        worst = 0.0
        for (i, j), blk in self.blocks.items():
            if level_limit is None or max(i, j) <= level_limit:
                worst = max(worst, _block_max(blk, (i, j)))
        return worst

    def _max_diff(self, other: "BlockMatrix", keep) -> float:
        """Largest entry of self - other over the blocks (i, j) with keep(i, j).

        Two dense blocks are compared by one subtraction; a block only one
        operand holds, or a difference of parallel rank-one blocks, is
        measured without densifying it."""
        self._require_same_context(other)
        worst = 0.0
        for key in set(self.blocks) | set(other.blocks):
            if not keep(*key):
                continue
            mine, theirs = self.blocks.get(key), other.blocks.get(key)
            if mine is None or theirs is None:
                d = _block_max(theirs if mine is None else mine, key)
            elif isinstance(mine, np.ndarray) and isinstance(theirs, np.ndarray):
                d = float(np.abs(mine - theirs).max())
            else:
                d = _block_max(_block_sum(mine, _scaled(theirs, -1.0)), key)
            worst = max(worst, d)
        return worst

    def _sum_blocks(self, other: "BlockMatrix") -> dict:
        """Blocks of self + other.  A block only one operand holds is kept
        as it is, and two rank-one blocks with parallel factors sum to one
        rank-one block (:func:`_block_sum`), so the rank-one blocks of an
        extension stay rank-one through sums and differences; every other
        pair sums dense."""
        self._require_same_context(other)
        acc = dict(self.blocks)
        for key, blk in other.blocks.items():
            mine = acc.get(key)
            acc[key] = blk if mine is None else _block_sum(mine, blk)
        return acc

    def _scaled_blocks(self, scalar) -> dict:
        scalar = complex(scalar)
        return {key: _scaled(blk, scalar) for key, blk in self.blocks.items()}

    def __sub__(self, other):
        return self + (-1.0) * other


class FockOperator(BlockMatrix):
    """Block matrix on the truncated Fock space with its exact horizon.

    ``blocks`` maps (row level, column level) to a dense complex array of
    shape (n^i, n^j); a :class:`Rank1Block` given to the constructor is
    stored dense.  ``raise_bound`` and ``drop_bound`` bound how many levels
    the operator moves a word up and down; ``exact`` means the stored matrix
    is the whole operator.  :attr:`horizon` follows from these (see the
    module docstring).
    """

    __slots__ = ("raise_bound", "drop_bound", "exact")

    def __init__(self, ctx: FockContext, blocks: dict,
                 raise_bound: int, drop_bound: int, exact: bool = False):
        super().__init__(ctx, {key: _dense(blk) for key, blk in blocks.items()})
        self.raise_bound = max(0, raise_bound)
        self.drop_bound = max(0, drop_bound)
        self.exact = exact

    @property
    def horizon(self) -> int:
        """Last column level on which the stored matrix is the operator."""
        if self.exact:
            return self.ctx.depth
        return max(-1, self.ctx.depth - self.raise_bound)

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, ctx: FockContext) -> "FockOperator":
        return cls.from_blocks(ctx, {})

    @classmethod
    def identity(cls, ctx: FockContext) -> "FockOperator":
        return cls.corner_projection(ctx, ctx.depth)

    @classmethod
    def level_projection(cls, ctx: FockContext, k: int) -> "FockOperator":
        """Orthogonal projection onto the words of length k."""
        if not 0 <= k <= ctx.depth:
            raise ValueError(f"level {k} outside 0..{ctx.depth}")
        return cls.from_blocks(ctx, {(k, k): np.eye(ctx.dim(k), dtype=complex)})

    @classmethod
    def corner_projection(cls, ctx: FockContext, k: int) -> "FockOperator":
        """Orthogonal projection onto all words of length <= k."""
        if not 0 <= k <= ctx.depth:
            raise ValueError(f"level {k} outside 0..{ctx.depth}")
        blocks = {(m, m): np.eye(ctx.dim(m), dtype=complex) for m in range(k + 1)}
        return cls.from_blocks(ctx, blocks)

    @classmethod
    def from_blocks(cls, ctx: FockContext, blocks: dict) -> "FockOperator":
        """Wrap explicit blocks as a finitely supported operator."""
        rb = max((i - j for (i, j) in blocks), default=0)
        db = max((j - i for (i, j) in blocks), default=0)
        return cls(ctx, blocks, rb, db, exact=True)

    # -- inspection ----------------------------------------------------

    def diff(self, other: "FockOperator", col_limit: int | None = None) -> float:
        """Largest entry of self - other over columns from levels <= col_limit.

        With no limit, compares every stored block.
        """
        return self._max_diff(other, lambda i, j: col_limit is None or j <= col_limit)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "FockOperator") -> "FockOperator":
        return FockOperator(self.ctx, self._sum_blocks(other),
                            max(self.raise_bound, other.raise_bound),
                            max(self.drop_bound, other.drop_bound),
                            self.exact and other.exact)

    def __rmul__(self, scalar) -> "FockOperator":
        if isinstance(scalar, FockOperator):
            return NotImplemented
        return FockOperator(self.ctx, self._scaled_blocks(scalar),
                            self.raise_bound, self.drop_bound, self.exact)

    __mul__ = __rmul__

    def __matmul__(self, other: "FockOperator") -> "FockOperator":
        self._require_same_context(other)
        acc: dict = {}
        for (i, m), a in self.blocks.items():
            for (m2, j), b in other.blocks.items():
                if m != m2:
                    continue
                prod = a @ b
                key = (i, j)
                acc[key] = acc[key] + prod if key in acc else prod
        return FockOperator(self.ctx, acc,
                            self.raise_bound + other.raise_bound,
                            self.drop_bound + other.drop_bound,
                            self.exact and other.exact)

    def adjoint(self) -> "FockOperator":
        blocks = {(j, i): arr.conj().T for (i, j), arr in self.blocks.items()}
        return FockOperator(self.ctx, blocks, self.drop_bound, self.raise_bound,
                            self.exact)


# ---------------------------------------------------------------------------
# The JSON codec: the primitives shared by every encoder and decoder
# ---------------------------------------------------------------------------


def _fields(payload, required, what: str, optional=(), lists=()) -> list:
    """Values of the ``required`` keys of a JSON object, after checking that
    it is an object with no unknown or missing key and lists at ``lists``."""
    if not isinstance(payload, dict):
        raise SchemaError(f"{what} must be an object")
    extra = set(payload) - set(required) - set(optional)
    if extra:
        raise SchemaError(f"unknown keys in {what}: {sorted(extra)}")
    for key in required:
        if key not in payload:
            raise SchemaError(f"{what} missing key {key!r}")
        if key in lists and not isinstance(payload[key], list):
            raise SchemaError(f"'{key}' must be a list")
    return [payload[key] for key in required]


def _integer(value, low: int, what: str) -> int:
    """A JSON integer (not a boolean) of at least ``low``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < low:
        raise SchemaError(f"{what} must be an integer >= {low}")
    return value


def _finite_number(value, what: str) -> float:
    """A finite JSON number (not a boolean) as a float."""
    if type(value) not in (int, float):
        raise SchemaError(f"{what} must be a number")
    try:
        value = float(value)
    except OverflowError:
        raise SchemaError(f"{what} is beyond the float range") from None
    if not math.isfinite(value):
        raise SchemaError(f"{what} must be a finite number")
    return value


def _is_number_pair(pair) -> bool:
    return (isinstance(pair, list) and len(pair) == 2
            and all(type(x) in (int, float) for x in pair))


def _pairs(arr: np.ndarray) -> list:
    """Row-major list of [re, im] pairs of Python floats."""
    return np.stack([arr.real, arr.imag], -1).reshape(-1, 2).tolist()


def _entries_array(entries: list, what: str) -> np.ndarray:
    """Decode a list of [re, im] pairs of finite JSON numbers (not booleans).

    The checks run over the whole list at once; only a rejected list is
    searched for the first bad entry, which the error names within ``what``.
    """
    values = None
    if set(map(type, entries)) <= {list} and set(map(len, entries)) <= {2}:
        values = list(chain.from_iterable(entries))
    if values is None or not set(map(type, values)) <= {int, float}:
        t = next(t for t, pair in enumerate(entries) if not _is_number_pair(pair))
        raise SchemaError(f"entry {t} of {what} must be [re, im]")
    try:
        pairs = np.array(values, dtype=float)
    except OverflowError:
        raise SchemaError(f"{what} has an entry beyond the float range") from None
    finite = np.isfinite(pairs)
    if not finite.all():
        t = int(np.argmin(finite)) // 2
        raise SchemaError(f"entry {t} of {what} is not a finite number")
    return pairs.view(complex)


def _sized_entries(data, size: int, what: str) -> np.ndarray:
    """:func:`_entries_array` of a list that must hold ``size`` pairs."""
    if not isinstance(data, list) or len(data) != size:
        raise SchemaError(f"{what} needs {size} entries")
    return _entries_array(data, what)


# ---------------------------------------------------------------------------
# Creation operators and the representation of algebra elements
# ---------------------------------------------------------------------------


def left_create(ctx: FockContext, i: int) -> FockOperator:
    """Prepend letter i: sends the word w to (i)w.  Kills level K."""
    return represent(ctx, AlgebraElement.generator(ctx.n, i))


def right_create(ctx: FockContext, i: int) -> FockOperator:
    """Append letter i: sends the word w to w(i).  Kills level K."""
    if not 1 <= i <= ctx.n:
        raise LetterRangeError(f"letter {i} outside 1..{ctx.n}")
    blocks = {}
    for k in range(ctx.depth):
        cols = np.arange(ctx.dim(k))
        arr = np.zeros((ctx.dim(k + 1), cols.size), dtype=complex)
        arr[cols * ctx.n + (i - 1), cols] = 1.0
        blocks[(k + 1, k)] = arr
    return FockOperator(ctx, blocks, 1, 0)


def represent(ctx: FockContext, element: AlgebraElement) -> FockOperator:
    """Compression to levels <= K of the left action of an element.

    The monomial v_mu v_nu^* sends nu.tau to mu.tau and kills everything
    else, so each term contributes identity sub-blocks indexed by the tail
    word tau.  Columns up to K minus the largest level raise are exact.
    """
    if element.n != ctx.n:
        raise AlphabetMismatchError(
            f"element over alphabet of size {element.n}, space has {ctx.n}"
        )
    blocks: dict = {}
    raise_bound = 0
    drop_bound = 0
    for (left, right), coeff in element.terms.items():
        a, b = len(left), len(right)
        raise_bound = max(raise_bound, a - b)
        drop_bound = max(drop_bound, b - a)
        il = ctx.word_index(left)
        ir = ctx.word_index(right)
        for j in range(b, ctx.depth + 1):
            i = j - b + a
            if i > ctx.depth:
                continue
            nt = ctx.dim(j - b)
            key = (i, j)
            if key not in blocks:
                blocks[key] = np.zeros((ctx.dim(i), ctx.dim(j)), dtype=complex)
            rows = il * nt + np.arange(nt)
            cols = ir * nt + np.arange(nt)
            blocks[key][rows, cols] += coeff
    return FockOperator(ctx, blocks, raise_bound, drop_bound)


# ---------------------------------------------------------------------------
# The shift endomorphism and its inverse series
# ---------------------------------------------------------------------------


def shift(op: FockOperator) -> FockOperator:
    """Conjugate by the right creations and sum over letters.

    Block (i, j) moves to (i+1, j+1) as its Kronecker product with the
    n-by-n identity; blocks touching level K fall off the edge, which is
    the compression of the untruncated shift.
    """
    ctx = op.ctx
    n = ctx.n
    eye = np.eye(n, dtype=complex)
    blocks = {}
    top_support = False
    for (i, j), arr in op.blocks.items():
        if i >= ctx.depth or j >= ctx.depth:
            top_support = True
            continue
        blocks[(i + 1, j + 1)] = np.kron(arr, eye)
    return FockOperator(ctx, blocks, op.raise_bound, op.drop_bound,
                        op.exact and not top_support)


def shift_defect(op: FockOperator) -> FockOperator:
    """Difference between an operator and its shift."""
    return op - shift(op)


def shift_series(op: FockOperator) -> FockOperator:
    """Sum of all iterated shifts that fit in the truncation.

    For finitely supported input this inverts the defect map: the series of
    the defect, and the defect of the series, both reproduce the input on
    every stored block.
    """
    acc = op
    cur = op
    for _ in range(op.ctx.depth):
        cur = shift(cur)
        # Added even when empty: blocks that fell off level K leave it inexact.
        acc = acc + cur
        if not cur.blocks:
            break
    return acc


# ---------------------------------------------------------------------------
# Vectors: plain lists of per-level coefficient arrays
# ---------------------------------------------------------------------------


def zero_vector(ctx: FockContext) -> list[np.ndarray]:
    return [np.zeros(ctx.dim(k), dtype=complex) for k in range(ctx.depth + 1)]


def basis_vector(ctx: FockContext, letters) -> list[np.ndarray]:
    letters = tuple(letters)
    if len(letters) > ctx.depth:
        raise ValueError("word longer than the truncation depth")
    vec = zero_vector(ctx)
    vec[len(letters)][ctx.word_index(letters)] = 1.0
    return vec


def apply_operator(op: FockOperator, vec: list[np.ndarray]) -> list[np.ndarray]:
    out = zero_vector(op.ctx)
    for (i, j), arr in op.blocks.items():
        out[i] += arr @ vec[j]
    return out


def inner_product(u: list[np.ndarray], v: list[np.ndarray]) -> complex:
    """Inner product, linear in the first argument."""
    return complex(sum(np.vdot(b, a) for a, b in zip(u, v)))


def vector_norm(vec: list[np.ndarray]) -> float:
    return float(np.sqrt(sum(float(np.vdot(a, a).real) for a in vec)))
