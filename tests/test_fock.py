"""Truncated representation: indexing, creations, shift calculus, horizons."""

import operator

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import SEED
from fockstate.errors import AlphabetMismatchError, LetterRangeError
from fockstate.fock import (
    FockContext,
    FockOperator,
    apply_operator,
    basis_vector,
    inner_product,
    left_create,
    represent,
    right_create,
    shift,
    shift_defect,
    shift_series,
    vector_norm,
    zero_vector,
)
from fockstate.word_algebra import AlgebraElement, parse_expression
from helpers import random_element


def random_supported_operator(rng, ctx, k):
    """Random operator with blocks only on levels <= k, as exact data."""
    blocks = {}
    for i in range(k + 1):
        for j in range(k + 1):
            blocks[(i, j)] = rng.standard_normal((ctx.dim(i), ctx.dim(j))) \
                + 1j * rng.standard_normal((ctx.dim(i), ctx.dim(j)))
    return FockOperator.from_blocks(ctx, blocks)


class TestIndexing:
    def test_word_index_first_letter_most_significant(self):
        ctx = FockContext(2, 4)
        assert ctx.word_index(()) == 0
        assert ctx.word_index((1, 1)) == 0
        assert ctx.word_index((1, 2)) == 1
        assert ctx.word_index((2, 1)) == 2
        assert ctx.word_index((2, 2)) == 3

    def test_word_at_roundtrip(self):
        ctx = FockContext(3, 3)
        for k in range(4):
            for idx in range(ctx.dim(k)):
                assert ctx.word_index(ctx.word_at(k, idx)) == idx

    def test_words_enumeration(self):
        ctx = FockContext(2, 2)
        assert list(ctx.words(2)) == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_dims_and_offsets(self):
        ctx = FockContext(2, 3)
        assert ctx.level_dims == (1, 2, 4, 8)
        assert ctx.level_offsets == (0, 1, 3, 7, 15)
        assert ctx.total_dim == 15

    def test_letter_range(self):
        ctx = FockContext(2, 2)
        with pytest.raises(LetterRangeError):
            ctx.word_index((3,))


CTX = FockContext(2, 2)
BAD_INPUT = {
    "alphabet 0": (lambda: FockContext(0, 1), ValueError, "alphabet size"),
    "depth -1": (lambda: FockContext(2, -1), ValueError, "truncation depth"),
    "letter 3": (lambda: right_create(CTX, 3), LetterRangeError, "outside 1..2"),
    "alphabet mismatch": (lambda: represent(CTX, AlgebraElement.one(3)),
                          AlphabetMismatchError, "alphabet of size 3"),
    "level K+1": (lambda: FockOperator.level_projection(CTX, 3), ValueError,
                  "outside 0..2"),
    "corner -1": (lambda: FockOperator.corner_projection(CTX, -1), ValueError,
                  "outside 0..2"),
    "corner K+1": (lambda: FockOperator.identity(CTX).corner(3), ValueError,
                   "outside depth"),
}


@pytest.mark.parametrize("call, error, message", BAD_INPUT.values(), ids=BAD_INPUT)
def test_rejects_bad_input(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestCreations:
    def test_left_create_prepends(self):
        ctx = FockContext(2, 3)
        l2 = left_create(ctx, 2)
        vec = apply_operator(l2, basis_vector(ctx, (1, 2)))
        expected = basis_vector(ctx, (2, 1, 2))
        assert all(np.allclose(a, b) for a, b in zip(vec, expected))

    def test_right_create_appends(self):
        ctx = FockContext(2, 3)
        r2 = right_create(ctx, 2)
        vec = apply_operator(r2, basis_vector(ctx, (1, 2)))
        expected = basis_vector(ctx, (1, 2, 2))
        assert all(np.allclose(a, b) for a, b in zip(vec, expected))

    def test_top_level_killed(self):
        ctx = FockContext(2, 2)
        top = basis_vector(ctx, (1, 2))
        for op in (left_create(ctx, 1), right_create(ctx, 1)):
            assert vector_norm(apply_operator(op, top)) == 0.0

    def test_isometry_within_horizon(self):
        ctx = FockContext(2, 4)
        eye = FockOperator.identity(ctx)
        for make in (left_create, right_create):
            for i in (1, 2):
                op = make(ctx, i)
                prod = op.adjoint() @ op
                assert prod.horizon >= ctx.depth - 1
                assert prod.diff(eye, col_limit=prod.horizon) <= 1e-14

    def test_orthogonal_ranges(self):
        ctx = FockContext(3, 3)
        for make in (left_create, right_create):
            a = make(ctx, 1)
            b = make(ctx, 2)
            assert (a.adjoint() @ b).max_abs() == 0.0

    def test_left_right_commute(self):
        ctx = FockContext(2, 4)
        for i in (1, 2):
            for j in (1, 2):
                li, rj = left_create(ctx, i), right_create(ctx, j)
                d = (li @ rj) - (rj @ li)
                assert d.diff(FockOperator.zero(ctx), col_limit=d.horizon) <= 1e-14

    def test_range_sum_defect_is_vacuum(self):
        ctx = FockContext(2, 3)
        acc = FockOperator.identity(ctx)
        for i in (1, 2):
            li = left_create(ctx, i)
            acc = acc - li @ li.adjoint()
        vac = FockOperator.level_projection(ctx, 0)
        assert acc.diff(vac, col_limit=acc.horizon) <= 1e-14


class TestRepresent:
    def test_monomial_action(self):
        ctx = FockContext(2, 4)
        op = represent(ctx, parse_expression("v[1,2] v2*", 2))
        out = apply_operator(op, basis_vector(ctx, (2, 1)))
        expected = basis_vector(ctx, (1, 2, 1))
        assert all(np.allclose(a, b) for a, b in zip(out, expected))
        # Mismatched prefix dies.
        out = apply_operator(op, basis_vector(ctx, (1, 1)))
        assert vector_norm(out) == 0.0

    def test_matches_creation_products(self):
        ctx = FockContext(2, 4)
        via_element = represent(ctx, parse_expression("v[2,1]", 2))
        via_product = left_create(ctx, 2) @ left_create(ctx, 1)
        assert via_product.diff(via_element, col_limit=via_product.horizon) <= 1e-14

    def test_identity(self):
        ctx = FockContext(2, 3)
        assert represent(ctx, AlgebraElement.one(2)).diff(
            FockOperator.identity(ctx)) == 0.0

    def test_homomorphism_randomized(self):
        rng = np.random.default_rng(SEED + 10)
        ctx = FockContext(2, 6)
        for _ in range(25):
            x = random_element(rng, 2, 3, n_terms=3)
            y = random_element(rng, 2, 3, n_terms=3)
            lhs = represent(ctx, x) @ represent(ctx, y)
            rhs = represent(ctx, x * y)
            limit = min(lhs.horizon, rhs.horizon)
            assert lhs.diff(rhs, col_limit=limit) <= 1e-12

    def test_adjoint_matches_on_all_blocks(self):
        rng = np.random.default_rng(SEED + 11)
        ctx = FockContext(2, 5)
        for _ in range(10):
            x = random_element(rng, 2, 3, n_terms=4)
            assert represent(ctx, x.adjoint()).diff(
                represent(ctx, x).adjoint()) <= 1e-14

    def test_horizon_reflects_raising(self):
        ctx = FockContext(2, 5)
        assert represent(ctx, parse_expression("v[1,2]", 2)).horizon == 3
        assert represent(ctx, parse_expression("v1*", 2)).horizon == 5
        assert represent(ctx, parse_expression("v1 v2*", 2)).horizon == 5

    def test_stored_matmul_matches_dense(self):
        rng = np.random.default_rng(SEED + 12)
        ctx = FockContext(2, 4)
        x = represent(ctx, random_element(rng, 2, 2, n_terms=3))
        y = represent(ctx, random_element(rng, 2, 2, n_terms=3))
        assert np.abs((x @ y).to_dense() - x.to_dense() @ y.to_dense()).max() <= 1e-12


class TestShift:
    def test_shift_matches_sandwich(self):
        rng = np.random.default_rng(SEED + 13)
        ctx = FockContext(2, 5)
        for k in (0, 1, 2, 5):
            a = random_supported_operator(rng, ctx, k)
            via_kron = shift(a)
            acc = FockOperator.zero(ctx)
            for i in (1, 2):
                ri = right_create(ctx, i)
                acc = acc + ri @ a @ ri.adjoint()
            assert via_kron.diff(acc) <= 1e-13

    def test_shift_of_identity(self):
        ctx = FockContext(2, 3)
        shifted = shift(FockOperator.identity(ctx))
        expected = FockOperator.identity(ctx) - FockOperator.level_projection(ctx, 0)
        assert shifted.diff(expected) == 0.0

    def test_shift_moves_levels(self):
        ctx = FockContext(2, 3)
        e0 = FockOperator.level_projection(ctx, 0)
        cur = e0
        for k in range(1, 4):
            cur = shift(cur)
            assert cur.diff(FockOperator.level_projection(ctx, k)) == 0.0

    def test_defect_inverts_series(self):
        rng = np.random.default_rng(SEED + 14)
        ctx = FockContext(2, 6)
        for k in (0, 1, 2, 3):
            a = random_supported_operator(rng, ctx, k)
            assert shift_defect(shift_series(a)).diff(a) <= 1e-12
            assert shift_series(shift_defect(a)).diff(a) <= 1e-12

    def test_series_of_vacuum_is_identity(self):
        ctx = FockContext(3, 4)
        lam = shift_series(FockOperator.level_projection(ctx, 0))
        assert lam.diff(FockOperator.identity(ctx)) <= 1e-14

    def test_corner_series_witness(self):
        # Compressing the series of the corner projection to level k
        # multiplies that level by k+1.
        ctx = FockContext(2, 5)
        for k in range(ctx.depth + 1):
            pk = FockOperator.corner_projection(ctx, k)
            ek = FockOperator.level_projection(ctx, k)
            lhs = ek @ shift_series(pk) @ ek
            assert lhs.diff((k + 1.0) * ek) <= 1e-13

    def test_disjoint_supports_annihilate(self):
        rng = np.random.default_rng(SEED + 15)
        ctx = FockContext(2, 6)
        k = 1
        a = random_supported_operator(rng, ctx, k)
        b = random_supported_operator(rng, ctx, k)
        shifts_a = [a]
        shifts_b = [b]
        for _ in range(ctx.depth):
            shifts_a.append(shift(shifts_a[-1]))
            shifts_b.append(shift(shifts_b[-1]))
        for i in range(4):
            for j in range(4):
                if abs(i - j) >= k + 1:
                    prod = shifts_a[i] @ shifts_b[j]
                    assert prod.max_abs() <= 1e-13

    def test_series_is_inexact_once_a_shift_empties(self):
        """The last shift pushes every block off level K; the series must
        give up the top column, which the untruncated series fills."""
        x = np.arange(8, dtype=complex).reshape(4, 2) + 1
        series = shift_series(FockOperator.from_blocks(FockContext(2, 4), {(2, 1): x}))
        deep = shift_series(FockOperator.from_blocks(FockContext(2, 7), {(2, 1): x}))
        assert not series.exact
        assert series.horizon == 3
        assert np.any(deep.block(5, 4))
        for j in range(series.horizon + 1):
            for i in range(8):
                expected = series.block(i, j) if i <= 4 else np.zeros_like(deep.block(i, j))
                assert np.array_equal(deep.block(i, j), expected), (i, j)

    def test_shift_is_multiplicative_on_products(self):
        rng = np.random.default_rng(SEED + 16)
        ctx = FockContext(2, 5)
        a = random_supported_operator(rng, ctx, 2)
        b = random_supported_operator(rng, ctx, 2)
        lhs = shift(a @ b)
        rhs = shift(a) @ shift(b)
        assert lhs.diff(rhs, col_limit=min(lhs.horizon, rhs.horizon)) <= 1e-11


class TestArithmetic:
    def test_star_scales_and_refuses_operators(self):
        ctx = FockContext(2, 3)
        op = left_create(ctx, 1)
        for scaled in (2 * op, op * 2):
            assert scaled.diff(op + op) == 0.0
            assert scaled.horizon == op.horizon
        with pytest.raises(TypeError):
            op * op
        with pytest.raises(TypeError):
            -op


class TestHorizons:
    def test_creation_horizons(self):
        ctx = FockContext(2, 4)
        assert left_create(ctx, 1).horizon == 3
        assert left_create(ctx, 1).adjoint().horizon == 4
        assert right_create(ctx, 2).horizon == 3

    def test_product_horizon_drops_with_raise(self):
        ctx = FockContext(2, 4)
        l1 = left_create(ctx, 1)
        assert (l1 @ l1).horizon == 2
        assert (l1 @ l1 @ l1).horizon == 1
        # l1 @ l1 drops by no level, so its adjoint is exact on every column.
        assert (l1 @ l1).adjoint().horizon == 4

    def test_add_takes_min(self):
        ctx = FockContext(2, 4)
        l1 = left_create(ctx, 1)
        assert (l1 + FockOperator.identity(ctx)).horizon == 3

    def test_exact_operators_keep_full_horizon(self):
        ctx = FockContext(2, 4)
        p = FockOperator.corner_projection(ctx, 2)
        e = FockOperator.level_projection(ctx, 1)
        assert (p @ e).horizon == 4
        assert (p @ e).exact

    def test_adjoint_of_compression(self):
        ctx = FockContext(2, 4)
        op = represent(ctx, parse_expression("v[1,1,2]", 2))
        assert op.horizon == 1
        assert op.adjoint().horizon == 4
        assert op.adjoint().adjoint().horizon == 1

    def test_shift_of_exact_operator(self):
        # The shift of an exact raising operator stays exact while nothing
        # reaches level K; a block that falls off the edge leaves a
        # compression, exact on the columns below K - raise_bound.
        ctx = FockContext(2, 4)
        low = FockOperator.from_blocks(ctx, {(1, 0): np.ones((2, 1))})
        assert shift(low).exact
        assert shift(low).horizon == 4
        top = FockOperator.from_blocks(ctx, {(1, 0): np.ones((2, 1)),
                                             (4, 3): np.ones((16, 8))})
        assert not shift(top).exact
        assert shift(top).horizon == 3

    def test_exact_raising_factor_on_the_left(self):
        # e @ l1 agrees with the untruncated product on every column, since
        # e is the whole operator and kills level K.  The rule reads only
        # the summed raise bound, so it states the looser horizon K - 2.
        ctx = FockContext(2, 4)
        e = FockOperator.from_blocks(ctx, {(2, 1): np.ones((4, 2))})
        assert (e @ left_create(ctx, 1)).horizon == 2


# Small exact numbers, so that both depths compute bit-identical entries.
EXACT_COEFFS = st.sampled_from([1.0, -1.0, 2.0, -0.5, 1j, -1j, 1 + 1j])

_BINARY = {"+": operator.add, "@": operator.matmul}
_UNARY = {"adjoint": FockOperator.adjoint, "shift": shift, "series": shift_series}


@st.composite
def fock_expressions(draw, n, depth, height=3):
    """Recipe of an operator expression: a leaf (``represent``,
    ``right_create``, ``level_projection``, ``from_blocks`` on levels
    0..depth), or ``+``, ``@``, ``adjoint``, ``shift``, ``series``
    (``shift_series``) or a scalar multiple of smaller recipes."""
    kinds = ["leaf"] + (["+", "@", "scale", *_UNARY] if height else [])
    kind = draw(st.sampled_from(kinds))
    sub = fock_expressions(n, depth, height - 1)
    if kind in _BINARY:
        return (kind, draw(sub), draw(sub))
    if kind in _UNARY:
        return (kind, draw(sub))
    if kind == "scale":
        return (kind, draw(EXACT_COEFFS), draw(sub))
    leaf = draw(st.sampled_from(["represent", "right_create", "level_projection",
                                 "from_blocks"]))
    if leaf == "represent":
        word = st.lists(st.integers(1, n), max_size=2).map(tuple)
        terms = draw(st.dictionaries(st.tuples(word, word), EXACT_COEFFS,
                                     min_size=1, max_size=3))
        return (leaf, terms)
    if leaf == "right_create":
        return (leaf, draw(st.integers(1, n)))
    if leaf == "level_projection":
        return (leaf, draw(st.integers(0, depth)))
    keys = st.tuples(st.integers(0, depth), st.integers(0, depth))
    return (leaf, draw(st.lists(keys, min_size=1, max_size=2, unique=True)),
            draw(st.integers(0, 2**32 - 1)))


def realize(recipe, ctx):
    """The operator of a recipe on the truncation ``ctx``."""
    kind, *args = recipe
    if kind in _BINARY:
        return _BINARY[kind](realize(args[0], ctx), realize(args[1], ctx))
    if kind in _UNARY:
        return _UNARY[kind](realize(args[0], ctx))
    if kind == "scale":
        return args[0] * realize(args[1], ctx)
    if kind == "represent":
        return represent(ctx, AlgebraElement(ctx.n, args[0]))
    if kind == "right_create":
        return right_create(ctx, args[0])
    if kind == "level_projection":
        return FockOperator.level_projection(ctx, args[0])
    rng = np.random.default_rng(args[1])
    return FockOperator.from_blocks(ctx, {
        (i, j): rng.integers(-2, 3, (ctx.dim(i), ctx.dim(j)))
        + 1j * rng.integers(-2, 3, (ctx.dim(i), ctx.dim(j)))
        for i, j in args[0]})


def excursion(recipe) -> int:
    """Levels by which the truncated leaves of a recipe can move a word in
    total.  Intermediate words from levels <= K stay below K + excursion,
    so a truncation that deep agrees with the untruncated operator there."""
    kind, *args = recipe
    if kind in _BINARY:
        return excursion(args[0]) + excursion(args[1])
    if kind == "series":
        return excursion(args[0]) + 3
    if kind in _UNARY or kind == "scale":
        return excursion(args[-1])
    if kind == "represent":
        return max(abs(len(mu) - len(nu)) for mu, nu in args[0])
    return 1 if kind == "right_create" else 0


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_horizon_columns_match_a_deeper_truncation(data):
    """Every column up to the horizon is the untruncated operator's column,
    read off a truncation deep enough to hold every intermediate word."""
    n = data.draw(st.sampled_from([1, 2]))
    depth = data.draw(st.integers(0, 3))
    recipe = data.draw(fock_expressions(n, depth))
    deep = depth + excursion(recipe)
    assume(n ** deep <= 128)
    small = realize(recipe, FockContext(n, depth))
    big = realize(recipe, FockContext(n, deep))
    for j in range(small.horizon + 1):
        for i in range(deep + 1):
            column = big.block(i, j)
            expected = small.block(i, j) if i <= depth else np.zeros_like(column)
            assert np.array_equal(column, expected), (i, j)


class TestVectors:
    def test_inner_linear_in_first(self):
        ctx = FockContext(2, 2)
        u = basis_vector(ctx, (1,))
        u[1] = u[1] * (2 + 1j)
        v = basis_vector(ctx, (1,))
        assert inner_product(u, v) == pytest.approx(2 + 1j)
        assert inner_product(v, u) == pytest.approx(2 - 1j)

    def test_norm(self):
        ctx = FockContext(2, 2)
        vec = zero_vector(ctx)
        vec[0][0] = 3.0
        vec[2][1] = 4.0j
        assert vector_norm(vec) == pytest.approx(5.0)

    def test_adjoint_moves_across_inner_product(self):
        rng = np.random.default_rng(SEED + 17)
        ctx = FockContext(2, 3)
        a = random_supported_operator(rng, ctx, 3)
        u = [rng.standard_normal(ctx.dim(k)) + 1j * rng.standard_normal(ctx.dim(k))
             for k in range(4)]
        v = [rng.standard_normal(ctx.dim(k)) + 1j * rng.standard_normal(ctx.dim(k))
             for k in range(4)]
        lhs = inner_product(apply_operator(a, u), v)
        rhs = inner_product(u, apply_operator(a.adjoint(), v))
        assert lhs == pytest.approx(rhs, abs=1e-10)
