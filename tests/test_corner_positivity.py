"""Corner positivity on the compressed basis against the dense corners.

``is_positive`` diagonalizes each corner on the span of its stored blocks.
Every case here is compared with ``eigvalsh`` of the dense ``corner(k)``:
same verdict, and minimum eigenvalues within 1e-12 * max(1, trace).
"""

import numpy as np
import pytest

from conftest import SEED
from helpers import random_sequence, random_unit_vector
from fockstate.density import (
    PSD_TOL_SCALE,
    BlockOperatorMatrix,
    Rank1Block,
    fock_vector_state,
)
from fockstate.fock import FockContext, _conj_transpose
from fockstate.measures import CircleMeasure
from fockstate.product_states import extend, rephase

AGREEMENT = 1e-12


def dense_check(mat, level_limit):
    """The reference: eigenvalues of every dense corner."""
    mins, traces = [], []
    for k in range(level_limit + 1):
        corner = mat.corner(k)
        corner = 0.5 * (corner + corner.conj().T)
        mins.append(float(np.linalg.eigvalsh(corner)[0]))
        traces.append(float(np.trace(corner).real))
    ok = all(m >= -PSD_TOL_SCALE * max(1.0, abs(t)) for m, t in zip(mins, traces))
    return ok, mins, traces


def assert_matches_dense(mat, level_limit=None):
    if level_limit is None:
        level_limit = mat.horizon
    result = mat.is_positive()
    ok, mins, traces = dense_check(mat, level_limit)
    assert result.ok == ok
    assert len(result.min_eigenvalues) == level_limit + 1
    for got, want, trace, tol in zip(result.min_eigenvalues, mins, traces,
                                     result.tolerances):
        assert abs(got - want) <= AGREEMENT * max(1.0, abs(trace))
        assert tol == pytest.approx(PSD_TOL_SCALE * max(1.0, abs(trace)), rel=1e-12)
    return result


def assert_decreasing_matches_dense(mat):
    result = mat.is_decreasing()
    diff = mat.restricted(mat.horizon - 1) - mat.sliced()
    ok, mins, traces = dense_check(diff, mat.horizon - 1)
    assert result.ok == ok
    for got, want, trace in zip(result.min_eigenvalues, mins, traces):
        assert abs(got - want) <= AGREEMENT * max(1.0, abs(trace))
    return result


def extension_state(rng, n=2, depth=6):
    seq = rephase(random_sequence(rng, n, 1, 2))
    measure = CircleMeasure.from_atoms([(0.7, 0.4), (2.9, 0.3)], haar_weight=0.3)
    return extend(seq, measure, depth).matrix


def vector_state(rng, ctx, top=3):
    phi = [rng.standard_normal(ctx.dim(k)) + 1j * rng.standard_normal(ctx.dim(k))
           for k in range(top + 1)]
    return fock_vector_state(ctx, phi)


def densified(mat):
    return BlockOperatorMatrix(
        mat.ctx, {key: mat.block(*key) for key in mat.blocks}, mat.horizon
    )


class TestMatchesDenseCorners:
    def test_vector_state(self):
        rng = np.random.default_rng(SEED + 400)
        mat = vector_state(rng, FockContext(2, 6))
        result = assert_matches_dense(mat)
        assert result.ok
        assert_decreasing_matches_dense(mat)

    def test_extension_state(self):
        rng = np.random.default_rng(SEED + 401)
        mat = extension_state(rng)
        assert all(isinstance(b, Rank1Block) for b in mat.blocks.values())
        result = assert_matches_dense(mat)
        assert result.ok
        assert_decreasing_matches_dense(mat)

    def test_mixture(self):
        rng = np.random.default_rng(SEED + 402)
        ext = extension_state(rng, n=3, depth=4)
        vec = vector_state(rng, ext.ctx, top=2)
        mix = 0.6 * ext + 0.4 * vec
        assert assert_matches_dense(mix).ok
        assert_decreasing_matches_dense(mix)

    def test_dense_state_gives_the_dense_corners_exactly(self):
        rng = np.random.default_rng(SEED + 403)
        mat = densified(extension_state(rng, depth=5))
        assert not any(isinstance(b, Rank1Block) for b in mat.blocks.values())
        result = mat.is_positive()
        ok, mins, _ = dense_check(mat, mat.horizon)
        assert result.ok == ok
        assert list(result.min_eigenvalues) == mins

    def test_rank_one_factors_in_distinct_arrays(self):
        # A pure vector state |x><x| stored with a fresh copy of each
        # factor, so every level sees several equal but distinct arrays.
        rng = np.random.default_rng(SEED + 404)
        ctx = FockContext(3, 4)
        x = [rng.standard_normal(ctx.dim(k)) + 1j * rng.standard_normal(ctx.dim(k))
             for k in range(ctx.depth + 1)]
        blocks = {(i, j): Rank1Block(1.0 + 0j, x[i].copy(), x[j].copy())
                  for i in range(ctx.depth + 1) for j in range(ctx.depth + 1)}
        mat = BlockOperatorMatrix(ctx, blocks)
        assert assert_matches_dense(mat).ok

    def test_random_hermitian_rank_one_blocks(self):
        # Independent factors per level pair: a level holds as many factors
        # as it has partners, fewer than its dimension from level 2 on.
        rng = np.random.default_rng(SEED + 405)
        ctx = FockContext(3, 4)
        blocks = {}
        for i in range(ctx.depth + 1):
            for j in range(i, ctx.depth + 1):
                left = rng.standard_normal(ctx.dim(i)) + 1j * rng.standard_normal(ctx.dim(i))
                right = rng.standard_normal(ctx.dim(j)) + 1j * rng.standard_normal(ctx.dim(j))
                coeff = abs(rng.standard_normal()) if i == j else complex(*rng.standard_normal(2))
                blk = Rank1Block(coeff, left, left if i == j else right)
                blocks[(i, j)] = blk
                blocks[(j, i)] = _conj_transpose(blk)
        mat = BlockOperatorMatrix(ctx, blocks)
        assert_matches_dense(mat)

    def test_block_stored_without_its_mirror(self):
        # The check symmetrizes, so the column level's basis must come from
        # the right factor alone.
        rng = np.random.default_rng(SEED + 409)
        ctx = FockContext(2, 3)
        left = random_unit_vector(rng, ctx.dim(1))
        right = random_unit_vector(rng, ctx.dim(3))
        mat = BlockOperatorMatrix(ctx, {
            (0, 0): np.array([[1.0 + 0j]]),
            (1, 3): Rank1Block(0.3 + 0.1j, left, right),
        })
        assert not assert_matches_dense(mat).ok

    def test_indefinite_perturbation_on_rank_one_level_fails(self):
        rng = np.random.default_rng(SEED + 406)
        ext = extension_state(rng)
        level = 3
        w = random_unit_vector(rng, ext.ctx.dim(level))
        top = ext.blocks[(level + 1, level + 1)].left
        # Period 2 leaves (level, level + 1) empty: the coupling keeps both
        # levels rank-one and gives a 2x2 minor with negative determinant.
        coupling = Rank1Block(0.2 + 0j, w, top)
        bump = BlockOperatorMatrix(ext.ctx, {
            (level, level + 1): coupling,
            (level + 1, level): _conj_transpose(coupling),
        })
        mat = ext + bump
        assert isinstance(mat.blocks[(level, level + 1)], Rank1Block)
        result = assert_matches_dense(mat)
        assert not result.ok
        assert min(result.min_eigenvalues) < -0.01


class TestSupportAware:
    def test_deep_vacuum(self):
        ctx = FockContext(2, 40)
        mat = BlockOperatorMatrix.vacuum(ctx)
        result = mat.is_positive()
        assert result.ok
        assert result.min_eigenvalues == (1.0,) + (0.0,) * 40
        assert result.tolerances == (PSD_TOL_SCALE,) * 41
        assert mat.is_decreasing().ok

    def test_shallow_vacuum_matches_dense(self):
        mat = BlockOperatorMatrix.vacuum(FockContext(2, 6))
        result = assert_matches_dense(mat)
        assert result.min_eigenvalues == (1.0,) + (0.0,) * 6

    def test_zero_matrix(self):
        mat = BlockOperatorMatrix(FockContext(2, 3), {})
        result = assert_matches_dense(mat)
        assert result.min_eigenvalues == (0.0,) * 4


class TestArithmeticKeepsRankOne:
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_one_sided_blocks_stay_rank_one(self, sign):
        rng = np.random.default_rng(SEED + 407)
        ext = extension_state(rng)
        vec = vector_state(rng, ext.ctx, top=2)
        combined = ext + vec if sign > 0 else ext - vec
        reference = densified(ext) + densified(vec) if sign > 0 \
            else densified(ext) - densified(vec)
        assert set(combined.blocks) == set(reference.blocks)
        for key, blk in combined.blocks.items():
            if key not in vec.blocks:
                assert isinstance(blk, Rank1Block)
            assert np.array_equal(combined.block(*key), reference.block(*key))

    def test_subtracting_a_rank_one_state(self):
        rng = np.random.default_rng(SEED + 408)
        ext = extension_state(rng)
        vec = vector_state(rng, ext.ctx, top=2)
        diff = vec - ext
        for key, blk in diff.blocks.items():
            if key not in vec.blocks:
                assert isinstance(blk, Rank1Block)
                assert np.array_equal(diff.block(*key), -ext.block(*key))
