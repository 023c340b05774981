"""Truncated Fock space representation of the isometry algebra.

The full Fock space over an n-letter alphabet has one basis vector per word;
level k collects the words of length k.  We keep levels 0..K and store
operators as block matrices indexed by (row level, column level), with the
basis of level k ordered by word index

    index(i_1 ... i_k) = sum_j (i_j - 1) * n^(k - j),

so the first letter is most significant.

Truncation loses whatever an operator sends above level K.  Every
:class:`FockOperator` therefore carries an exact column horizon ``h``: the
stored matrix agrees with the untruncated operator on all columns from
levels 0..h, and those columns produce nothing above level K.  Arithmetic
propagates the horizon soundly (never overstating exactness), using band
bounds on the untruncated operator that each constructor knows.

Two extra flags refine the bookkeeping.  ``exact`` means the stored matrix
*is* the whole operator (nothing was cut); ``compression`` means the stored
matrix equals the untruncated operator compressed to levels <= K on both
sides.  Compressions are closed under the shift and its relatives, which is
what makes the shift-series identities hold on every stored block rather
than only below the horizon.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .errors import AlphabetMismatchError, LetterRangeError, SchemaError
from .word_algebra import AlgebraElement

__all__ = [
    "FockContext",
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


def _require_same_context(a: "FockOperator", b: "FockOperator") -> None:
    if not a.ctx.compatible(b.ctx):
        raise AlphabetMismatchError(
            f"operators live on different spaces: {a.ctx!r} vs {b.ctx!r}"
        )


class FockOperator:
    """Block matrix on the truncated Fock space with horizon bookkeeping.

    ``blocks`` maps (row level, column level) to a dense complex array of
    shape (n^i, n^j).  Absent blocks are zero.  See the module docstring
    for the meaning of ``horizon``, ``exact`` and ``compression``.
    """

    __slots__ = ("ctx", "blocks", "horizon", "raise_bound", "drop_bound",
                 "exact", "compression")

    def __init__(self, ctx: FockContext, blocks: dict, horizon: int,
                 raise_bound: int, drop_bound: int,
                 exact: bool = False, compression: bool = False):
        self.ctx = ctx
        self.blocks = {}
        for (i, j), arr in blocks.items():
            if not (0 <= i <= ctx.depth and 0 <= j <= ctx.depth):
                raise ValueError(f"block ({i},{j}) outside levels 0..{ctx.depth}")
            arr = np.asarray(arr, dtype=complex)
            if arr.shape != (ctx.dim(i), ctx.dim(j)):
                raise ValueError(
                    f"block ({i},{j}) has shape {arr.shape}, "
                    f"expected {(ctx.dim(i), ctx.dim(j))}"
                )
            if np.any(arr):
                self.blocks[(i, j)] = arr
        self.horizon = max(-1, min(horizon, ctx.depth))
        self.raise_bound = max(0, raise_bound)
        self.drop_bound = max(0, drop_bound)
        self.exact = exact
        self.compression = compression or exact

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, ctx: FockContext) -> "FockOperator":
        return cls(ctx, {}, ctx.depth, 0, 0, exact=True)

    @classmethod
    def identity(cls, ctx: FockContext) -> "FockOperator":
        blocks = {(k, k): np.eye(ctx.dim(k), dtype=complex)
                  for k in range(ctx.depth + 1)}
        return cls(ctx, blocks, ctx.depth, 0, 0, exact=True)

    @classmethod
    def level_projection(cls, ctx: FockContext, k: int) -> "FockOperator":
        """Orthogonal projection onto the words of length k."""
        if not 0 <= k <= ctx.depth:
            raise ValueError(f"level {k} outside 0..{ctx.depth}")
        return cls(ctx, {(k, k): np.eye(ctx.dim(k), dtype=complex)},
                   ctx.depth, 0, 0, exact=True)

    @classmethod
    def corner_projection(cls, ctx: FockContext, k: int) -> "FockOperator":
        """Orthogonal projection onto all words of length <= k."""
        if not 0 <= k <= ctx.depth:
            raise ValueError(f"level {k} outside 0..{ctx.depth}")
        blocks = {(m, m): np.eye(ctx.dim(m), dtype=complex) for m in range(k + 1)}
        return cls(ctx, blocks, ctx.depth, 0, 0, exact=True)

    @classmethod
    def basis_rank_one(cls, ctx: FockContext, row_word, col_word) -> "FockOperator":
        """Rank-one operator sending the basis vector of ``col_word`` to
        the basis vector of ``row_word``."""
        row_word, col_word = tuple(row_word), tuple(col_word)
        i, j = len(row_word), len(col_word)
        if i > ctx.depth or j > ctx.depth:
            raise ValueError("word longer than the truncation depth")
        arr = np.zeros((ctx.dim(i), ctx.dim(j)), dtype=complex)
        arr[ctx.word_index(row_word), ctx.word_index(col_word)] = 1.0
        return cls(ctx, {(i, j): arr}, ctx.depth,
                   max(0, i - j), max(0, j - i), exact=True)

    @classmethod
    def from_blocks(cls, ctx: FockContext, blocks: dict) -> "FockOperator":
        """Wrap explicit blocks as a finitely supported operator."""
        rb = max((i - j for (i, j) in blocks), default=0)
        db = max((j - i for (i, j) in blocks), default=0)
        return cls(ctx, blocks, ctx.depth, max(0, rb), max(0, db), exact=True)

    # -- inspection ----------------------------------------------------

    def block(self, i: int, j: int) -> np.ndarray:
        """Dense block (zeros when absent)."""
        arr = self.blocks.get((i, j))
        if arr is None:
            return np.zeros((self.ctx.dim(i), self.ctx.dim(j)), dtype=complex)
        return arr

    def support_level(self) -> int:
        """Largest level carrying a nonzero block; -1 for the zero operator."""
        if not self.blocks:
            return -1
        return max(max(i, j) for i, j in self.blocks)

    def max_abs(self) -> float:
        if not self.blocks:
            return 0.0
        return max(np.abs(arr).max() for arr in self.blocks.values())

    def diff(self, other: "FockOperator", col_limit: int | None = None) -> float:
        """Largest entry of self - other over columns from levels <= col_limit.

        With no limit, compares every stored block.
        """
        _require_same_context(self, other)
        keys = set(self.blocks) | set(other.blocks)
        worst = 0.0
        for (i, j) in keys:
            if col_limit is not None and j > col_limit:
                continue
            d = np.abs(self.block(i, j) - other.block(i, j)).max()
            worst = max(worst, float(d))
        return worst

    def to_dense(self) -> np.ndarray:
        """Assemble the full matrix over all kept levels."""
        ctx = self.ctx
        out = np.zeros((ctx.total_dim, ctx.total_dim), dtype=complex)
        for (i, j), arr in self.blocks.items():
            r0, c0 = ctx.level_offsets[i], ctx.level_offsets[j]
            out[r0:r0 + ctx.dim(i), c0:c0 + ctx.dim(j)] = arr
        return out

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "FockOperator") -> "FockOperator":
        _require_same_context(self, other)
        acc = dict(self.blocks)
        for key, arr in other.blocks.items():
            acc[key] = acc[key] + arr if key in acc else arr
        return FockOperator(
            self.ctx, acc, min(self.horizon, other.horizon),
            max(self.raise_bound, other.raise_bound),
            max(self.drop_bound, other.drop_bound),
            exact=self.exact and other.exact,
            compression=self.compression and other.compression,
        )

    def __sub__(self, other: "FockOperator") -> "FockOperator":
        return self + (-1.0) * other

    def __neg__(self) -> "FockOperator":
        return (-1.0) * self

    def __rmul__(self, scalar) -> "FockOperator":
        if isinstance(scalar, FockOperator):
            return NotImplemented
        scalar = complex(scalar)
        return FockOperator(
            self.ctx, {k: scalar * v for k, v in self.blocks.items()},
            self.horizon, self.raise_bound, self.drop_bound,
            exact=self.exact, compression=self.compression,
        )

    def __mul__(self, scalar) -> "FockOperator":
        if isinstance(scalar, FockOperator):
            return self.__matmul__(scalar)
        return self.__rmul__(scalar)

    def __matmul__(self, other: "FockOperator") -> "FockOperator":
        _require_same_context(self, other)
        acc: dict = {}
        for (i, m), a in self.blocks.items():
            for (m2, j), b in other.blocks.items():
                if m != m2:
                    continue
                prod = a @ b
                key = (i, j)
                acc[key] = acc[key] + prod if key in acc else prod
        if self.exact and other.exact:
            horizon = self.ctx.depth
        elif self.exact:
            horizon = other.horizon
        elif other.exact:
            horizon = self.horizon - other.raise_bound
        else:
            horizon = min(other.horizon, self.horizon - other.raise_bound)
        return FockOperator(
            self.ctx, acc, horizon,
            self.raise_bound + other.raise_bound,
            self.drop_bound + other.drop_bound,
            exact=self.exact and other.exact,
            compression=self.exact and other.exact,
        )

    def adjoint(self) -> "FockOperator":
        blocks = {(j, i): arr.conj().T for (i, j), arr in self.blocks.items()}
        if self.exact:
            horizon = self.ctx.depth
        elif self.compression:
            # Adjoint of a two-sided compression is the compression of the
            # adjoint, which is column-exact until its own raising hits K.
            horizon = self.ctx.depth - self.drop_bound
        else:
            horizon = self.horizon - self.drop_bound
        return FockOperator(
            self.ctx, blocks, horizon, self.drop_bound, self.raise_bound,
            exact=self.exact, compression=self.compression,
        )

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return self.diff(self.adjoint()) <= tol

    # -- serialization ---------------------------------------------------

    def to_payload(self) -> dict:
        """JSON-ready dict: {n, K, blocks: [{i, j, entries}]} with entries
        as a row-major list of [re, im] pairs."""
        blocks = [{"i": i, "j": j, "entries": _pairs(self.blocks[(i, j)])}
                  for (i, j) in sorted(self.blocks)]
        return {"n": self.ctx.n, "K": self.ctx.depth, "blocks": blocks}

    @classmethod
    def from_payload(cls, payload: dict) -> "FockOperator":
        blocks = _blocks_from_payload(payload)
        ctx = FockContext(int(payload["n"]), int(payload["K"]))
        return cls.from_blocks(ctx, blocks)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


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


_DENSE_KEYS = ("i", "j", "entries")
_FACTORED_KEYS = ("i", "j", "coeff", "left", "right")


def _blocks_from_payload(payload: dict, rank_one=None) -> dict:
    """Validate and decode the shared {n, K, blocks} layout.

    A block record holds its ``entries`` densely, as row-major [re, im]
    pairs.  When ``rank_one`` is given, a record may instead hold a
    ``coeff`` pair and ``left``/``right`` factors as lists of pairs; it is
    decoded to ``rank_one(coeff, left, right)``, and bit-identical factors
    are decoded to one shared array.  A record never mixes the two kinds.
    """
    if not isinstance(payload, dict):
        raise SchemaError("operator payload must be an object")
    extra = set(payload) - {"n", "K", "blocks"}
    if extra:
        raise SchemaError(f"unknown keys in operator payload: {sorted(extra)}")
    for key in ("n", "K", "blocks"):
        if key not in payload:
            raise SchemaError(f"operator payload missing key {key!r}")
    n, depth = payload["n"], payload["K"]
    if not _is_int(n) or not _is_int(depth):
        raise SchemaError("'n' and 'K' must be integers")
    if n < 1 or depth < 0:
        raise SchemaError(f"invalid sizes n={n}, K={depth}")
    if not isinstance(payload["blocks"], list):
        raise SchemaError("'blocks' must be a list")
    blocks = {}
    factors = {}
    for rec in payload["blocks"]:
        if not isinstance(rec, dict):
            raise SchemaError("each block must be an object")
        factored = rank_one is not None and "coeff" in rec
        keys = _FACTORED_KEYS if factored else _DENSE_KEYS
        extra = set(rec) - set(keys)
        if extra:
            raise SchemaError(f"unknown keys in block: {sorted(extra)}")
        for key in keys:
            if key not in rec:
                raise SchemaError(f"block missing key {key!r}")
        i, j = rec["i"], rec["j"]
        if not _is_int(i) or not _is_int(j):
            raise SchemaError("block indices must be integers")
        if not 0 <= i <= depth or not 0 <= j <= depth:
            raise SchemaError(f"block ({i},{j}) outside levels 0..{depth}")
        if (i, j) in blocks:
            raise SchemaError(f"duplicate block ({i},{j})")
        rows, cols = n**i, n**j
        if not factored:
            entries = _sized_entries(rec["entries"], rows * cols, f"block ({i},{j})")
            blocks[(i, j)] = entries.reshape(rows, cols)
            continue
        coeff = _sized_entries([rec["coeff"]], 1, f"the coefficient of block ({i},{j})")
        left = _sized_entries(rec["left"], rows, f"the left factor of block ({i},{j})")
        right = _sized_entries(rec["right"], cols, f"the right factor of block ({i},{j})")
        left = factors.setdefault(left.tobytes(), left)
        right = factors.setdefault(right.tobytes(), right)
        blocks[(i, j)] = rank_one(complex(coeff[0]), left, right)
    return blocks


# ---------------------------------------------------------------------------
# Creation operators and the representation of algebra elements
# ---------------------------------------------------------------------------


def left_create(ctx: FockContext, i: int) -> FockOperator:
    """Prepend letter i: sends the word w to (i)w.  Kills level K."""
    if not 1 <= i <= ctx.n:
        raise LetterRangeError(f"letter {i} outside 1..{ctx.n}")
    blocks = {}
    for k in range(ctx.depth):
        dk = ctx.dim(k)
        arr = np.zeros((ctx.dim(k + 1), dk), dtype=complex)
        base = (i - 1) * dk
        arr[base + np.arange(dk), np.arange(dk)] = 1.0
        blocks[(k + 1, k)] = arr
    return FockOperator(ctx, blocks, ctx.depth - 1, 1, 0, compression=True)


def right_create(ctx: FockContext, i: int) -> FockOperator:
    """Append letter i: sends the word w to w(i).  Kills level K."""
    if not 1 <= i <= ctx.n:
        raise LetterRangeError(f"letter {i} outside 1..{ctx.n}")
    blocks = {}
    for k in range(ctx.depth):
        dk = ctx.dim(k)
        arr = np.zeros((ctx.dim(k + 1), dk), dtype=complex)
        arr[np.arange(dk) * ctx.n + (i - 1), np.arange(dk)] = 1.0
        blocks[(k + 1, k)] = arr
    return FockOperator(ctx, blocks, ctx.depth - 1, 1, 0, compression=True)


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
    raise_bound = max(0, raise_bound)
    drop_bound = max(0, drop_bound)
    return FockOperator(ctx, blocks, ctx.depth - raise_bound,
                        raise_bound, drop_bound, compression=True)


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
    horizon = min(op.horizon + 1, ctx.depth - op.raise_bound)
    return FockOperator(
        ctx, blocks, horizon, op.raise_bound, op.drop_bound,
        exact=op.exact and not top_support,
        compression=op.compression,
    )


def shift_defect(op: FockOperator) -> FockOperator:
    """Difference between an operator and its shift."""
    return op - shift(op)


def shift_series(op: FockOperator, terms: int | None = None) -> FockOperator:
    """Sum of all iterated shifts that fit in the truncation.

    For finitely supported input this inverts the defect map: the series of
    the defect, and the defect of the series, both reproduce the input on
    every stored block.
    """
    if terms is None:
        terms = op.ctx.depth + 1
    if terms < 1:
        raise ValueError(f"need at least one term, got {terms}")
    acc = op
    cur = op
    for _ in range(terms - 1):
        cur = shift(cur)
        if not cur.blocks:
            break
        acc = acc + cur
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
