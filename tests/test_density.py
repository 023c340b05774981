"""Density matrices: entry conventions, slicing, positivity, decomposition."""

import json

import numpy as np
import pytest

from conftest import SEED
from fockstate.density import (
    BlockOperatorMatrix,
    Rank1Block,
    StateHandle,
    classify,
    decompose,
    fock_vector_state,
    gram_matrix,
    gram_positivity_check,
    state_eval,
    trace_profile_csv,
)
from fockstate.errors import (CoefficientRangeError, HorizonError, SchemaError,
                              UndeterminedError)
from fockstate.fock import (
    FockContext,
    FockOperator,
    _conj_transpose,
    _entry,
    _pairs,
    apply_operator,
    inner_product,
    represent,
    right_create,
    zero_vector,
)
from fockstate.measures import CircleMeasure
from fockstate.product_states import UnitVectorSequence, extend, rephase
from fockstate.word_algebra import AlgebraElement, parse_expression
from helpers import random_element, random_sequence, random_unit_vector


def random_fock_vector(rng, ctx, top):
    """Random unit-normalized vector supported on levels 0..top."""
    return [rng.standard_normal(ctx.dim(k)) + 1j * rng.standard_normal(ctx.dim(k))
            for k in range(top + 1)]


def haar_like_state(ctx):
    """Slice-invariant diagonal state: weight n^-k spread over level k."""
    blocks = {(k, k): ctx.n ** (-k) * np.eye(ctx.dim(k), dtype=complex)
              for k in range(ctx.depth + 1)}
    return BlockOperatorMatrix(ctx, blocks)


def extension_matrix(rng, depth=5):
    seq = rephase(random_sequence(rng, 2, 1, 2))
    measure = CircleMeasure.from_atoms([(0.7, 0.5)], haar_weight=0.5)
    return extend(seq, measure, depth).matrix


def vector_state_value(ctx, phi_levels, element):
    """Reference route: evaluate <l(x) phi, phi> with normalized phi."""
    vec = zero_vector(ctx)
    for k, arr in enumerate(phi_levels):
        vec[k] = np.asarray(arr, dtype=complex)
    norm = np.sqrt(sum(float(np.vdot(a, a).real) for a in vec))
    vec = [a / norm for a in vec]
    op = represent(ctx, element)
    return inner_product(apply_operator(op, vec), vec)


class TestRank1Block:
    def test_dense_entry_agree(self):
        rng = np.random.default_rng(SEED + 20)
        left = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        right = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        blk = Rank1Block(1.5 - 0.5j, left, right)
        dense = blk.dense()
        for a in range(4):
            for b in range(2):
                assert _entry(blk, a, b) == pytest.approx(dense[a, b])

    def test_ptrace_matches_dense(self):
        rng = np.random.default_rng(SEED + 21)
        left = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        right = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        blk = Rank1Block(0.7 + 0.2j, left, right)
        dense = blk.dense().reshape(4, 2, 2, 2)
        expected = np.trace(dense, axis1=1, axis2=3)
        assert np.abs(blk.ptrace_last(2) - expected).max() <= 1e-13

    @pytest.mark.parametrize("left_product, right_product",
                             [(True, True), (True, False), (False, True)])
    def test_ptrace_of_tensor_products(self, left_product, right_product):
        # Only a block whose factors are both tensor products stays rank one.
        rng = np.random.default_rng(SEED + 24)

        def factor(size, product):
            if product:
                return np.kron(random_unit_vector(rng, size // 2),
                               random_unit_vector(rng, 2))
            return rng.standard_normal(size) + 1j * rng.standard_normal(size)

        blk = Rank1Block(0.7 + 0.2j, factor(8, left_product), factor(4, right_product))
        dense = blk.dense().reshape(4, 2, 2, 2)
        expected = np.trace(dense, axis1=1, axis2=3)
        traced = blk.ptrace_last(2)
        if left_product and right_product:
            assert isinstance(traced, Rank1Block)
            traced = traced.dense()
        else:
            assert isinstance(traced, np.ndarray)
        assert np.abs(traced - expected).max() <= 1e-13

    def test_sliced_extension_stays_rank_one(self):
        rng = np.random.default_rng(SEED + 22)
        mat = extension_matrix(rng, depth=6)
        dense = BlockOperatorMatrix(
            mat.ctx, {key: mat.block(*key) for key in mat.blocks}, mat.horizon)
        for _ in range(3):
            mat, dense = mat.sliced(), dense.sliced()
            assert set(mat.blocks) == set(dense.blocks)
            assert all(isinstance(b, Rank1Block) for b in mat.blocks.values())
            assert mat.max_abs_diff(dense) <= 1e-14 * dense.max_abs()

    def test_decompose_keeps_extension_factored(self):
        rng = np.random.default_rng(SEED + 23)
        mat = extension_matrix(rng)
        assert classify(mat).label == "essential"
        essential = decompose(mat).essential
        assert set(essential.blocks) == set(mat.blocks)
        assert all(isinstance(b, Rank1Block) for b in essential.blocks.values())
        assert essential.max_abs_diff(mat) <= 1e-12

    def test_conj_transpose(self):
        blk = Rank1Block(2j, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert np.abs(_conj_transpose(blk).dense() - blk.dense().conj().T).max() == 0


class TestEntryConvention:
    def test_fock_vector_state_matches_operator_route(self):
        rng = np.random.default_rng(SEED + 22)
        ctx = FockContext(2, 4)
        phi = random_fock_vector(rng, ctx, 2)
        mat = fock_vector_state(ctx, phi)
        for _ in range(20):
            x = random_element(rng, 2, 2, n_terms=3)
            lhs = state_eval(mat, x)
            rhs = vector_state_value(ctx, phi, x)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_monomial_value_reads_expected_block(self):
        rng = np.random.default_rng(SEED + 23)
        ctx = FockContext(2, 3)
        phi = random_fock_vector(rng, ctx, 1)
        mat = fock_vector_state(ctx, phi)
        mu, nu = (1, 2), (2,)
        elem = AlgebraElement(2, {(mu, nu): 1.0})
        direct = mat.entry(len(nu), len(mu), ctx.word_index(nu), ctx.word_index(mu))
        assert state_eval(mat, elem) == pytest.approx(direct)

    def test_vector_pair_value(self):
        rng = np.random.default_rng(SEED + 24)
        ctx = FockContext(2, 3)
        phi = random_fock_vector(rng, ctx, 2)
        mat = fock_vector_state(ctx, phi)
        k, l = 2, 1
        x = rng.standard_normal(ctx.dim(k)) + 1j * rng.standard_normal(ctx.dim(k))
        y = rng.standard_normal(ctx.dim(l)) + 1j * rng.standard_normal(ctx.dim(l))
        expanded = AlgebraElement.zero(2)
        for b in range(ctx.dim(k)):
            for a in range(ctx.dim(l)):
                mu = ctx.word_at(k, b)
                nu = ctx.word_at(l, a)
                expanded = expanded + AlgebraElement(
                    2, {(mu, nu): x[b] * np.conj(y[a])})
        assert mat.vector_pair_value(x, k, y, l) == pytest.approx(
            state_eval(mat, expanded), abs=1e-11)

    def test_from_functional_agrees_with_fock_vector_state(self):
        rng = np.random.default_rng(SEED + 25)
        ctx = FockContext(2, 3)
        phi = random_fock_vector(rng, ctx, 1)
        mat = fock_vector_state(ctx, phi)

        def fn(mu, nu):
            elem = AlgebraElement(2, {(tuple(mu), tuple(nu)): 1.0})
            return vector_state_value(ctx, phi, elem)

        ref = BlockOperatorMatrix.from_functional(ctx, fn)
        assert mat.max_abs_diff(ref, level_limit=3) <= 1e-12


class TestVacuum:
    def test_trace_and_profile(self):
        ctx = FockContext(2, 3)
        vac = BlockOperatorMatrix.vacuum(ctx)
        assert vac.trace() == 1.0
        assert vac.trace_profile() == (1.0, 0.0, 0.0, 0.0)

    def test_slice_is_zero_functional(self):
        ctx = FockContext(2, 3)
        sliced = BlockOperatorMatrix.vacuum(ctx).sliced()
        assert sliced.max_abs(level_limit=2) == 0.0
        assert sliced.trace() == 0.0

    def test_classify_singular(self):
        ctx = FockContext(2, 3)
        assert classify(BlockOperatorMatrix.vacuum(ctx)).label == "singular"


class TestFockVectorState:
    def test_positive_and_decreasing(self):
        rng = np.random.default_rng(SEED + 26)
        ctx = FockContext(2, 5)
        for top in (0, 1, 3):
            mat = fock_vector_state(ctx, random_fock_vector(rng, ctx, top))
            assert mat.trace() == pytest.approx(1.0)
            assert mat.is_positive().ok
            assert mat.is_decreasing().ok

    def test_slice_subtracts_outer_product(self):
        rng = np.random.default_rng(SEED + 27)
        ctx = FockContext(2, 4)
        phi = random_fock_vector(rng, ctx, 2)
        mat = fock_vector_state(ctx, phi)
        norm = np.sqrt(sum(float(np.vdot(a, a).real) for a in phi))
        unit = [np.asarray(a) / norm for a in phi]
        outer = {}
        for i in range(3):
            for j in range(3):
                outer[(i, j)] = np.outer(unit[i], unit[j].conj())
        outer_mat = BlockOperatorMatrix(ctx, outer)
        expected = mat - outer_mat
        assert mat.sliced().max_abs_diff(expected, level_limit=3) <= 1e-12

    def test_classify_singular(self):
        rng = np.random.default_rng(SEED + 28)
        ctx = FockContext(2, 5)
        mat = fock_vector_state(ctx, random_fock_vector(rng, ctx, 2))
        result = classify(mat)
        assert result.label == "singular"
        assert result.trace_profile[-1] <= 1e-12

    def test_rejects_zero_vector(self):
        ctx = FockContext(2, 2)
        with pytest.raises(ValueError):
            fock_vector_state(ctx, [np.zeros(1)])


class TestSlice:
    def test_matches_sandwich_by_right_creations(self):
        rng = np.random.default_rng(SEED + 29)
        ctx = FockContext(2, 4)
        phi = random_fock_vector(rng, ctx, 2)
        mat = fock_vector_state(ctx, phi)
        as_op = FockOperator.from_blocks(
            ctx, {key: mat.block(*key) for key in mat.blocks})
        acc = FockOperator.zero(ctx)
        for i in (1, 2):
            ri = right_create(ctx, i)
            acc = acc + ri.adjoint() @ as_op @ ri
        sliced = mat.sliced()
        for i in range(4):
            for j in range(4):
                assert np.abs(acc.block(i, j) - sliced.block(i, j)).max() <= 1e-12

    def test_horizon_drops(self):
        ctx = FockContext(2, 3)
        mat = haar_like_state(ctx)
        assert mat.horizon == 3
        assert mat.sliced().horizon == 2
        assert mat.sliced().sliced().horizon == 1

    def test_slice_mass_is_next_profile_entry(self):
        # The sliced functional's value at the identity is the original
        # state's level-1 tail mass.
        rng = np.random.default_rng(SEED + 30)
        ctx = FockContext(2, 4)
        mat = fock_vector_state(ctx, random_fock_vector(rng, ctx, 2))
        assert mat.sliced().trace() == pytest.approx(
            mat.trace_profile()[1], abs=1e-12)
        assert mat.sliced().sliced().trace() == pytest.approx(
            mat.trace_profile()[2], abs=1e-12)

    def test_horizon_error_after_slicing_out(self):
        ctx = FockContext(2, 2)
        mat = haar_like_state(ctx).sliced().sliced()
        assert mat.horizon == 0
        with pytest.raises(HorizonError):
            state_eval(mat, parse_expression("v1", 2))


class TestPositivity:
    def test_detects_negative_corner(self):
        ctx = FockContext(2, 2)
        blocks = {(0, 0): np.array([[1.0 + 0j]]),
                  (1, 1): np.eye(2, dtype=complex),
                  (0, 1): np.array([[2.0, 0.0 + 0j]]),
                  (1, 0): np.array([[2.0], [0.0 + 0j]])}
        mat = BlockOperatorMatrix(ctx, blocks)
        result = mat.is_positive()
        assert not result.ok
        assert min(result.min_eigenvalues) < -0.5

    def test_positive_but_not_decreasing(self):
        ctx = FockContext(2, 2)
        blocks = {(0, 0): np.array([[1.0 + 0j]]),
                  (1, 1): np.eye(2, dtype=complex)}
        mat = BlockOperatorMatrix(ctx, blocks)
        assert mat.is_positive().ok
        result = mat.is_decreasing()
        assert not result.ok
        assert min(result.min_eigenvalues) == pytest.approx(-1.0, abs=1e-9)

    def test_haar_like_is_positive_and_decreasing(self):
        ctx = FockContext(2, 4)
        mat = haar_like_state(ctx)
        assert mat.is_positive().ok
        assert mat.is_decreasing().ok

    def test_nan_block_fails(self):
        # The eigensolver returns finite eigenvalues for diag(nan, 1).
        ctx = FockContext(2, 1)
        blocks = {(0, 0): np.array([[1.0 + 0j]]),
                  (1, 1): np.diag([np.nan + 0j, 1.0 + 0j])}
        result = BlockOperatorMatrix(ctx, blocks).is_positive()
        assert not result.ok
        assert result.min_eigenvalues[0] == 1.0
        assert np.isnan(result.min_eigenvalues[1])

    def test_largest_entries_do_not_overflow(self):
        # Symmetrizing as 0.5 * (m + m^H) overflowed 1e308 + 1e308 to inf.
        mat = BlockOperatorMatrix(FockContext(1, 1), {(0, 0): np.array([[1e308 + 0j]])})
        result = mat.is_positive()
        assert result.ok
        assert result.min_eigenvalues == (1e308, 0.0)
        assert gram_positivity_check(mat, [[AlgebraElement.one(1)]]).ok

    def test_decreasing_needs_horizon_one(self):
        # At horizon 0 no corner of (self - sliced) is left to check.
        mat = BlockOperatorMatrix.vacuum(FockContext(2, 0))
        with pytest.raises(UndeterminedError) as exc:
            mat.is_decreasing()
        assert exc.value.trace_profile == [1.0]


class TestClassify:
    def test_essential(self):
        ctx = FockContext(2, 4)
        result = classify(haar_like_state(ctx))
        assert result.label == "essential"
        assert max(abs(p - 1.0) for p in result.trace_profile) <= 1e-12

    def test_mixed(self):
        ctx = FockContext(2, 5)
        mix = 0.5 * haar_like_state(ctx) + 0.5 * BlockOperatorMatrix.vacuum(ctx)
        result = classify(mix)
        assert result.label == "mixed"

    def test_undetermined_when_horizon_too_short(self):
        ctx = FockContext(2, 3)
        mat = haar_like_state(ctx)
        for _ in range(3):
            mat = mat.sliced()
        assert classify(mat).label == "undetermined"

    def test_undetermined_when_still_falling(self):
        # Geometric decay never stabilizes inside the window.
        ctx = FockContext(2, 4)
        blocks = {(k, k): 0.5 ** k / ctx.dim(k) * np.eye(ctx.dim(k), dtype=complex)
                  for k in range(5)}
        mat = BlockOperatorMatrix(ctx, blocks)
        assert classify(mat).label == "undetermined"


class TestDecompose:
    def test_recovers_convex_mixture(self):
        rng = np.random.default_rng(SEED + 31)
        ctx = FockContext(2, 6)
        ess = haar_like_state(ctx)
        sing = fock_vector_state(ctx, random_fock_vector(rng, ctx, 2))
        t = 0.3
        mix = t * ess + (1 - t) * sing
        result = decompose(mix)
        h = mix.horizon
        assert result.essential.max_abs_diff(
            t * ess, level_limit=h) <= 1e-9
        assert result.singular.max_abs_diff(
            (1 - t) * sing, level_limit=h) <= 1e-9

    def test_essential_part_is_slice_invariant(self):
        rng = np.random.default_rng(SEED + 32)
        ctx = FockContext(2, 6)
        mix = 0.6 * haar_like_state(ctx) + 0.4 * fock_vector_state(
            ctx, random_fock_vector(rng, ctx, 1))
        ess = decompose(mix).essential
        assert ess.sliced().max_abs_diff(ess, level_limit=ess.horizon - 1) <= 1e-12

    def test_telescoping_sum_reproduces_singular_part(self):
        rng = np.random.default_rng(SEED + 33)
        ctx = FockContext(2, 6)
        mix = 0.7 * haar_like_state(ctx) + 0.3 * fock_vector_state(
            ctx, random_fock_vector(rng, ctx, 2))
        result = decompose(mix)
        h = mix.horizon
        diff = (mix - mix.sliced()).restricted(h - 1)
        acc = diff
        term = diff
        for _ in range(h - 1):
            term = term.sliced()
            acc = acc + term
        assert acc.max_abs_diff(result.singular, level_limit=h - 1) <= 1e-10

    def test_pure_singular_decomposes_to_zero_essential(self):
        rng = np.random.default_rng(SEED + 34)
        ctx = FockContext(2, 5)
        sing = fock_vector_state(ctx, random_fock_vector(rng, ctx, 1))
        result = decompose(sing)
        assert result.essential.max_abs(level_limit=5) <= 1e-12
        assert result.singular.max_abs_diff(sing, level_limit=5) <= 1e-12

    def test_walks_each_diagonal_once(self, monkeypatch):
        # The n=1 point mass stores all (K+1)^2 rank-one blocks; building
        # every sliced iterate of it took 22 140 partial traces at K=40.
        seq = UnitVectorSequence(1, [], [np.ones(1)])
        mat = extend(seq, CircleMeasure.point_mass(0.7), 40).matrix
        calls = []
        ptrace_last = Rank1Block.ptrace_last

        def counting(block, n, splits=None):
            calls.append(block)
            return ptrace_last(block, n, splits)

        monkeypatch.setattr(Rank1Block, "ptrace_last", counting)
        decompose(mat)
        assert len(calls) <= 2 * len(mat.blocks)

    def test_essential_part_of_mixtures_is_essential(self):
        rng = np.random.default_rng(SEED + 35)
        for trial in range(12):
            n = 1 + trial % 3
            ctx = FockContext(n, (8, 5, 3)[n - 1])
            seqs = [rephase(random_sequence(rng, n, trial % 2, 1 + k % 3))
                    for k in (trial, trial + 1)]
            first = extend(seqs[0], CircleMeasure.point_mass(rng.uniform(0, 6)), ctx.depth)
            second = extend(seqs[1], CircleMeasure.haar(), ctx.depth)
            vec = fock_vector_state(ctx, random_fock_vector(rng, ctx, ctx.depth - 2))
            w = rng.dirichlet(np.ones(3))
            ess = decompose(w[0] * first.matrix + w[1] * second.matrix + w[2] * vec).essential
            assert ess.trace() == pytest.approx(w[0] + w[1], abs=1e-12)
            assert classify(ess).label == "essential"
            # Bit for bit: each block below the top is the slice of the one above.
            assert ess.sliced().to_payload() == ess.restricted(ctx.depth - 1).to_payload()

    def test_undetermined_raises_with_profile(self):
        ctx = FockContext(2, 4)
        blocks = {(k, k): 0.5 ** k / ctx.dim(k) * np.eye(ctx.dim(k), dtype=complex)
                  for k in range(5)}
        mat = BlockOperatorMatrix(ctx, blocks)
        with pytest.raises(UndeterminedError) as exc:
            decompose(mat)
        assert exc.value.trace_profile is not None
        assert len(exc.value.trace_profile) == 5


class TestGram:
    def test_gram_psd_for_state(self):
        rng = np.random.default_rng(SEED + 35)
        ctx = FockContext(2, 6)
        mat = fock_vector_state(ctx, random_fock_vector(rng, ctx, 2))
        sets = []
        for _ in range(5):
            sets.append([random_element(rng, 2, 2, n_terms=2) for _ in range(4)])
        result = gram_positivity_check(mat, sets)
        assert result.ok

    def test_gram_matrix_hermitian(self):
        rng = np.random.default_rng(SEED + 36)
        ctx = FockContext(2, 6)
        mat = fock_vector_state(ctx, random_fock_vector(rng, ctx, 2))
        elements = [random_element(rng, 2, 2, n_terms=2) for _ in range(3)]
        g = gram_matrix(mat, elements)
        assert np.abs(g - g.conj().T).max() <= 1e-10

    def test_certificate_element_exposes_non_decreasing(self):
        # A positive matrix whose slice is not dominated: the negative
        # eigenvector of the difference corner converts into an element x
        # with state(x* x) < 0.
        ctx = FockContext(2, 3)
        blocks = {(0, 0): np.array([[1.0 + 0j]]),
                  (1, 1): np.eye(2, dtype=complex)}
        mat = BlockOperatorMatrix(ctx, blocks)
        diff = mat.restricted(mat.horizon - 1) - mat.sliced()
        k = 0
        corner = diff.corner(k)
        eigs, vecs = np.linalg.eigh(0.5 * (corner + corner.conj().T))
        assert eigs[0] < 0
        zeta = vecs[:, 0]
        z = AlgebraElement.zero(2)
        off = ctx.level_offsets
        for level in range(k + 1):
            for idx in range(ctx.dim(level)):
                c = zeta[off[level] + idx]
                if c != 0:
                    z = z + AlgebraElement(2, {(ctx.word_at(level, idx), ()): c})
        defect = AlgebraElement.one(2)
        for i in (1, 2):
            defect = defect - AlgebraElement(2, {((i,), (i,)): 1.0})
        x = defect * z.adjoint()
        value = state_eval(mat, x.adjoint() * x)
        assert value.real == pytest.approx(eigs[0], abs=1e-10)
        result = gram_positivity_check(mat, [[x]])
        assert not result.ok


class TestStateEvalOverflow:
    BIG = {(0, 0): np.array([[1e308 + 0j]]), (1, 1): np.array([[1e308 + 0j]])}

    @pytest.mark.parametrize("expression", ["10", "10 - 10 v1 v1*"])
    def test_overflowing_value_raises(self, expression):
        mat = BlockOperatorMatrix(FockContext(1, 1), self.BIG)
        assert state_eval(mat, AlgebraElement.one(1)) == 1e308
        with pytest.raises(CoefficientRangeError):
            state_eval(mat, parse_expression(expression, 1))

    def test_non_finite_state_gives_nan(self):
        mat = BlockOperatorMatrix(FockContext(2, 1), {(0, 0): np.array([[np.nan + 0j]])})
        assert np.isnan(state_eval(mat, AlgebraElement.one(2)))


class TestGramNaN:
    def test_nan_state_fails_gram_check(self):
        ctx = FockContext(2, 1)
        mat = BlockOperatorMatrix(ctx, {(0, 0): np.array([[np.nan + 0j]])})
        result = gram_positivity_check(mat, [[AlgebraElement.one(2)]])
        assert not result.ok
        assert np.isnan(result.min_eigenvalues[0])


class TestPayload:
    def test_roundtrip_with_metadata(self):
        rng = np.random.default_rng(SEED + 37)
        ctx = FockContext(2, 3)
        mat = fock_vector_state(ctx, random_fock_vector(rng, ctx, 1))
        handle = StateHandle(mat, classification="singular")
        back = StateHandle.from_payload(handle.to_payload())
        assert back.matrix.max_abs_diff(mat, level_limit=3) <= 1e-15
        assert back.classification == "singular"
        assert back.matrix.horizon == mat.horizon

    def test_metadata_optional(self):
        ctx = FockContext(2, 2)
        payload = BlockOperatorMatrix.vacuum(ctx).to_payload()
        handle = StateHandle.from_payload(payload)
        assert handle.matrix.horizon == 2
        assert handle.classification is None

    def test_rejects_unknown_metadata(self):
        ctx = FockContext(2, 2)
        payload = StateHandle(BlockOperatorMatrix.vacuum(ctx)).to_payload()
        payload["metadata"]["surprise"] = 1
        with pytest.raises(SchemaError):
            StateHandle.from_payload(payload)

    def test_rejects_non_hermitian(self):
        payload = {"n": 2, "K": 1,
                   "blocks": [{"i": 0, "j": 1, "entries": [[1.0, 0.0], [0.0, 0.0]]},
                              {"i": 1, "j": 0, "entries": [[0.0, 0.0], [5.0, 0.0]]}]}
        with pytest.raises(SchemaError):
            StateHandle.from_payload(payload)

    @pytest.mark.parametrize("blocks", [
        # Mirrored factors whose coefficients are not conjugate.
        [{"i": 0, "j": 1, "coeff": [1.0, 1.0], "left": [[1.0, 0.0]],
          "right": [[0.6, 0.0], [0.0, 0.8]]},
         {"i": 1, "j": 0, "coeff": [1.0, 1.0], "left": [[0.6, 0.0], [0.0, 0.8]],
          "right": [[1.0, 0.0]]}],
        # A factored block whose mirror is dense and different.
        [{"i": 0, "j": 1, "coeff": [1.0, 0.0], "left": [[1.0, 0.0]],
          "right": [[0.6, 0.0], [0.0, 0.8]]},
         {"i": 1, "j": 0, "entries": [[0.8, 0.0], [0.6, 0.0]]}],
    ])
    def test_rejects_non_hermitian_factored_blocks(self, blocks):
        payload = {"n": 2, "K": 1, "blocks": blocks}
        with pytest.raises(SchemaError):
            StateHandle.from_payload(payload)

    @pytest.mark.parametrize("entry", [
        [float("nan"), 0.0], [0.0, float("inf")], [-float("inf"), 0.0],
        [True, 0.0], [1.0, False], [10**400, 0.0], ["1", 0.0], [1.0],
    ])
    def test_rejects_bad_entries(self, entry):
        payload = {"n": 2, "K": 1,
                   "blocks": [{"i": 0, "j": 0, "entries": [entry]}]}
        with pytest.raises(SchemaError):
            StateHandle.from_payload(payload)

    def test_names_the_first_bad_entry(self):
        payload = {"n": 2, "K": 1,
                   "blocks": [{"i": 1, "j": 1, "entries": [
                       [1.0, 0.0], [0.0, 0.0], [0.0, float("nan")], [1.0, 0.0]]}]}
        with pytest.raises(SchemaError, match=r"entry 2 of block \(1,1\)"):
            StateHandle.from_payload(payload)

    @pytest.mark.parametrize("key", ["n", "K"])
    def test_rejects_boolean_sizes(self, key):
        payload = {"n": 2, "K": 1,
                   "blocks": [{"i": 0, "j": 0, "entries": [[1.0, 0.0]]}]}
        payload[key] = True
        with pytest.raises(SchemaError):
            StateHandle.from_payload(payload)

    def test_rejects_boolean_block_index(self):
        payload = {"n": 2, "K": 1,
                   "blocks": [{"i": False, "j": 0, "entries": [[1.0, 0.0]]}]}
        with pytest.raises(SchemaError):
            StateHandle.from_payload(payload)

    def test_decodes_entries_exactly(self):
        entries = [[-0.0, -0.0], [3, -2], [3, 2], [1e-300, 0.0]]
        payload = {"n": 2, "K": 1,
                   "blocks": [{"i": 1, "j": 1, "entries": entries}]}
        block = StateHandle.from_payload(payload).matrix.blocks[(1, 1)]
        for z, (re, im) in zip(block.ravel(), entries):
            assert z == complex(re, im)
            assert np.copysign(1.0, z.real) == np.copysign(1.0, re)
            assert np.copysign(1.0, z.imag) == np.copysign(1.0, im)

    def test_factored_roundtrip_is_bit_identical(self):
        rng = np.random.default_rng(SEED + 38)
        handle = StateHandle(extension_matrix(rng), "essential")
        text = json.dumps(handle.to_payload(), indent=2, sort_keys=True)
        back = StateHandle.from_payload(json.loads(text)).matrix
        assert set(back.blocks) == set(handle.matrix.blocks)
        for key, blk in handle.matrix.blocks.items():
            got = back.blocks[key]
            assert isinstance(got, Rank1Block)
            assert got.coeff == blk.coeff
            assert np.array_equal(got.left, blk.left)
            assert np.array_equal(got.right, blk.right)
        # Equal factors decode to one array, as extend shares them.
        lefts = {id(back.blocks[(i, j)].left) for (i, j) in back.blocks if i == 3}
        assert len(lefts) == 1
        assert json.dumps(StateHandle(back, "essential").to_payload(),
                          indent=2, sort_keys=True) == text

    FACTORED = {"i": 1, "j": 1, "coeff": [0.5, 0.0],
                "left": [[1.0, 0.0], [0.0, 0.0]], "right": [[1.0, 0.0], [0.0, 0.0]]}

    @pytest.mark.parametrize("change", [
        {"left": [[1.0, 0.0]]},
        {"right": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
        {"left": [[float("nan"), 0.0], [0.0, 0.0]]},
        {"right": [[1.0, 0.0], [0.0, float("inf")]]},
        {"coeff": [float("nan"), 0.0]},
        {"coeff": [True, 0.0]},
        {"coeff": 0.5},
        {"coeff": [10**400, 0.0]},
        {"left": [[1.0, False], [0.0, 0.0]]},
        {"extra": 1},
        {"entries": [[1.0, 0.0]] * 4},
        {"right": None},
    ])
    def test_rejects_malformed_factored_blocks(self, change):
        rec = {**self.FACTORED, **change}
        if rec["right"] is None:
            del rec["right"]
        payload = {"n": 2, "K": 1, "blocks": [rec]}
        with pytest.raises(SchemaError):
            StateHandle.from_payload(payload)

    def test_rejects_duplicate_factored_block(self):
        dense = {"i": 1, "j": 1, "entries": [[1.0, 0.0]] * 4}
        payload = {"n": 2, "K": 1, "blocks": [self.FACTORED, dense]}
        with pytest.raises(SchemaError, match="duplicate"):
            StateHandle.from_payload(payload)

    def test_operator_payload_stays_dense(self):
        payload = {"n": 2, "K": 1, "blocks": [self.FACTORED]}
        assert StateHandle.from_payload(payload).matrix.entry(1, 1, 0, 0) == 0.5
        with pytest.raises(SchemaError, match="unknown keys"):
            FockOperator.from_payload(payload)

    def test_vectorized_encoding_matches_per_entry_encoding(self):
        rng = np.random.default_rng(SEED + 39)
        values = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300,
                  0.1, 1 / 3, 2.0**52 + 1]
        arr = (rng.choice(values, (3, 5)) + 1j * rng.choice(values, (3, 5))).T

        def per_entry(a):
            return [[float(z.real), float(z.imag)] for z in a.ravel()]

        for a in (arr, arr[1], np.ascontiguousarray(arr)):
            assert json.dumps(_pairs(a), indent=2) == json.dumps(per_entry(a), indent=2)

    def test_mirror_blocks_completed(self):
        payload = {"n": 2, "K": 1,
                   "blocks": [{"i": 0, "j": 0, "entries": [[1.0, 0.0]]},
                              {"i": 0, "j": 1, "entries": [[0.25, 0.5], [0.0, 0.0]]}]}
        handle = StateHandle.from_payload(payload)
        assert handle.matrix.entry(1, 0, 0, 0) == pytest.approx(0.25 - 0.5j)


class TestProfileCsv:
    def test_format(self):
        ctx = FockContext(2, 2)
        text = trace_profile_csv(BlockOperatorMatrix.vacuum(ctx))
        lines = text.splitlines()
        assert lines[0] == "k,omega_Ek"
        assert lines[1].startswith("0,")
        assert len(lines) == 4
