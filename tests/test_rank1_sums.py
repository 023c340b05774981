"""Sums and comparisons of rank-one blocks.

Two rank-one blocks whose factors are parallel sum to one rank-one block,
and the size of a rank-one block or of such a difference is read off its
factors; every other pair still goes through the dense block.  These tests
pin both routes against dense copies, and check that the checks and the
split of an extension state never densify a block.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SEED
from helpers import random_sequence

from fockstate.density import (
    BlockOperatorMatrix,
    Rank1Block,
    classify,
    decompose,
    fock_vector_state,
)
from fockstate.fock import FockContext
from fockstate.measures import CircleMeasure
from fockstate.product_states import extend, rephase

CTX = FockContext(2, 3)


def cvec(rng, size):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def cnum(rng):
    return complex(rng.standard_normal(), rng.standard_normal())


def densified(mat):
    """Copy of a state with every block stored dense."""
    return BlockOperatorMatrix(
        mat.ctx, {key: mat.block(*key) for key in mat.blocks}, mat.horizon)


def one_block(blk):
    return BlockOperatorMatrix(CTX, {(3, 2): blk})


def extension(rng, n, depth, prefix=1, cycle=2):
    seq = rephase(random_sequence(rng, n, prefix, cycle))
    measure = CircleMeasure.from_atoms([(0.7, 0.3), (2.1, 0.2)], haar_weight=0.5)
    return extend(seq, measure, depth).matrix


def mixture(rng, n, depth, weight, top=2):
    ctx = FockContext(n, depth)
    phi = [cvec(rng, ctx.dim(k)) for k in range(top + 1)]
    return weight * extension(rng, n, depth) + (1.0 - weight) * fock_vector_state(ctx, phi)


def parallel_pairs(rng):
    """(a, b) pairs of rank-one blocks with parallel factors."""
    u, w = cvec(rng, 8), cvec(rng, 4)
    a = Rank1Block(cnum(rng), u, w)
    yield a, Rank1Block(cnum(rng), u, w)
    yield a, Rank1Block(cnum(rng), u.copy(), w.copy())
    yield a, Rank1Block(cnum(rng), cnum(rng) * u, cnum(rng) * w)


class TestParallelSum:
    @pytest.mark.parametrize("index", range(3),
                             ids=["shared arrays", "equal copies", "scaled copies"])
    def test_sum_stays_rank_one(self, index):
        rng = np.random.default_rng(SEED + 500)
        a, b = list(parallel_pairs(rng))[index]
        blk = (one_block(a) + one_block(b)).blocks[(3, 2)]
        dense = a.dense() + b.dense()
        assert isinstance(blk, Rank1Block)
        assert blk.left is a.left and blk.right is a.right
        assert np.abs(blk.dense() - dense).max() <= 1e-14 * np.abs(dense).max()

    def test_opposite_blocks_cancel(self):
        rng = np.random.default_rng(SEED + 504)
        a = Rank1Block(cnum(rng), cvec(rng, 8), cvec(rng, 4))
        assert not (one_block(a) - one_block(a)).blocks

    def test_difference_of_slice_keeps_the_factors(self):
        rng = np.random.default_rng(SEED + 501)
        mat = extension(rng, 2, 6)
        restricted, sliced = mat.restricted(mat.horizon - 1), mat.sliced()
        diff = restricted - sliced
        reference = densified(restricted) - densified(sliced)
        assert set(diff.blocks) <= set(reference.blocks)
        for key, blk in diff.blocks.items():
            assert isinstance(blk, Rank1Block), key
            assert blk.left is restricted.blocks[key].left
            assert blk.right is restricted.blocks[key].right
        scale = max(restricted.max_abs(), sliced.max_abs())
        assert densified(diff).max_abs_diff(reference) <= 1e-14 * scale

    def test_non_parallel_factors_sum_dense(self):
        rng = np.random.default_rng(SEED + 502)
        for _ in range(20):
            a = Rank1Block(cnum(rng), cvec(rng, 8), cvec(rng, 4))
            b = Rank1Block(cnum(rng), cvec(rng, 8), a.right)
            c = Rank1Block(cnum(rng), a.left, cvec(rng, 4))
            for other in (b, c):
                blk = (one_block(a) + one_block(other)).blocks[(3, 2)]
                assert isinstance(blk, np.ndarray)
                assert np.array_equal(blk, a.dense() + other.dense())

    def test_rank_one_and_dense_sum_dense(self):
        rng = np.random.default_rng(SEED + 503)
        a = Rank1Block(cnum(rng), cvec(rng, 8), cvec(rng, 4))
        d = cvec(rng, 32).reshape(8, 4)
        for x, y in ((a, d), (d, a)):
            blk = (one_block(x) + one_block(y)).blocks[(3, 2)]
            assert np.array_equal(blk, a.dense() + d)


class TestRankOneSizes:
    def test_max_abs_matches_dense(self):
        rng = np.random.default_rng(SEED + 510)
        for _ in range(20):
            a = Rank1Block(cnum(rng), cvec(rng, 8), cvec(rng, 4))
            dense = np.abs(a.dense()).max()
            assert abs(one_block(a).max_abs() - dense) <= 1e-14 * dense

    def test_max_abs_diff_matches_dense(self):
        rng = np.random.default_rng(SEED + 511)
        for a, b in parallel_pairs(rng):
            x, y = one_block(a), one_block(b)
            expected = np.abs(a.dense() - b.dense()).max()
            scale = max(np.abs(a.dense()).max(), np.abs(b.dense()).max())
            assert abs(x.max_abs_diff(y) - expected) <= 1e-14 * scale
        a = Rank1Block(cnum(rng), cvec(rng, 8), cvec(rng, 4))
        b = Rank1Block(cnum(rng), cvec(rng, 8), cvec(rng, 4))
        expected = np.abs(a.dense() - b.dense()).max()
        assert abs(one_block(a).max_abs_diff(one_block(b)) - expected) <= 1e-14 * expected

    @pytest.mark.parametrize("n, depth", [(2, 6), (3, 4)])
    def test_slice_comparison_matches_dense(self, n, depth):
        rng = np.random.default_rng(SEED + 512 + n)
        mat = extension(rng, n, depth)
        dense = densified(mat)
        got = mat.sliced().max_abs_diff(mat)
        expected = dense.sliced().max_abs_diff(dense)
        assert abs(got - expected) <= 1e-14 * dense.max_abs()


class TestDecreasingAgainstDense:
    @pytest.mark.parametrize("make", [
        lambda rng: extension(rng, 2, 7),
        lambda rng: extension(rng, 3, 4),
        lambda rng: mixture(rng, 2, 6, 0.4),
    ], ids=["n2-extension", "n3-extension", "mixture"])
    def test_verdict_and_eigenvalues_agree(self, make):
        rng = np.random.default_rng(SEED + 520)
        mat = make(rng)
        got, expected = mat.is_decreasing(), densified(mat).is_decreasing()
        assert got.ok == expected.ok
        assert got.tolerances == expected.tolerances
        for low, ref, tol in zip(got.min_eigenvalues, expected.min_eigenvalues,
                                 got.tolerances):
            assert abs(low - ref) <= tol

    def test_failing_verdict_agrees(self):
        # Twice the slice exceeds the state: the difference is negative.
        rng = np.random.default_rng(SEED + 521)
        mat = extension(rng, 2, 6)
        bad = mat + (-2.0) * mat.sliced()
        bad = BlockOperatorMatrix(bad.ctx, bad.blocks, mat.horizon)
        got, expected = bad.is_decreasing(), densified(bad).is_decreasing()
        assert not got.ok and not expected.ok
        for low, ref in zip(got.min_eigenvalues, expected.min_eigenvalues):
            assert abs(low - ref) <= 1e-12 * max(1.0, abs(ref))


def test_deep_extension_never_densifies(monkeypatch):
    """n=2, K=14: one dense (14, 14) block alone would take 4 GB."""
    rng = np.random.default_rng(SEED + 530)
    mat = extension(rng, 2, 14)

    def refuse(self):
        raise AssertionError("a rank-one block was densified")

    monkeypatch.setattr(Rank1Block, "dense", refuse)
    assert mat.is_decreasing().ok
    assert classify(mat).label == "essential"
    parts = decompose(mat)
    assert parts.stabilization_step == 0
    assert all(isinstance(b, Rank1Block) for b in parts.singular.blocks.values())
    assert abs(parts.singular.trace()) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3]),
       weight=st.floats(0.0, 1.0))
def test_decompose_parts_sum_to_the_state(seed, n, weight):
    rng = np.random.default_rng(seed)
    depth = 6 if n == 2 else 5
    mat = mixture(rng, n, depth, weight)
    parts = decompose(mat)
    total = parts.essential + parts.singular
    assert total.max_abs_diff(mat) <= 1e-12 * mat.max_abs()
