"""Acceptance gate: eleven end-to-end guarantees, one verdict line each.

Every test computes its pass flag and worst measured deviation, records a
summary line through ``conftest.record_criterion``, and only then asserts.
The collected lines are echoed in an "acceptance criteria" section after
the pytest summary, so a red criterion still leaves a readable verdict.
"""

import numpy as np

from conftest import SEED, record_criterion
from helpers import (
    random_element,
    random_monomial_element,
    random_sequence,
)

from fockstate import (
    AlgebraElement,
    BlockOperatorMatrix,
    CircleMeasure,
    FockContext,
    FockOperator,
    classify,
    decompose,
    extend,
    extension_coefficients,
    fock_vector_state,
    fourier,
    gauge_transform,
    gram_positivity_check,
    herglotz_check,
    product_state,
    recover_measure_moments,
    rephase,
    represent,
    shift,
    shift_defect,
    shift_series,
)


def _verdict(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    record_criterion(f"criterion {number:2d} ({name}): {status} -- {detail}")


def random_banded_operator(rng, ctx, k):
    """Random operator with blocks only on levels <= k, stored as exact data."""
    blocks = {}
    for i in range(k + 1):
        for j in range(k + 1):
            blocks[(i, j)] = rng.standard_normal((ctx.dim(i), ctx.dim(j))) \
                + 1j * rng.standard_normal((ctx.dim(i), ctx.dim(j)))
    return FockOperator.from_blocks(ctx, blocks)


def random_atomic_measure(rng, count, haar_weight=0.0):
    angles = rng.uniform(0.0, 2.0 * np.pi, size=count)
    weights = rng.uniform(0.2, 1.0, size=count)
    weights *= (1.0 - haar_weight) / weights.sum()
    return CircleMeasure.from_atoms(
        list(zip(angles.tolist(), weights.tolist())), haar_weight=haar_weight
    )


def rephased_sequence(rng, n, prefix_len, cycle_len):
    return rephase(random_sequence(rng, n, prefix_len, cycle_len))


# -- criterion 1 ------------------------------------------------------------


def test_criterion_01_word_products_represent_multiplicatively():
    rng = np.random.default_rng(SEED + 900)
    ctx = FockContext(2, 8)
    worst = 0.0
    for _ in range(200):
        x = random_monomial_element(rng, 2, 3)
        y = random_monomial_element(rng, 2, 3)
        lhs = represent(ctx, x) @ represent(ctx, y)
        rhs = represent(ctx, x * y)
        limit = min(lhs.horizon, rhs.horizon)
        worst = max(worst, lhs.diff(rhs, col_limit=limit))
    ok = worst <= 1e-12
    _verdict(1, "word operator products represent multiplicatively", ok,
             f"max deviation {worst:.3e} over 200 monomial pairs, tol 1e-12")
    assert ok


# -- criterion 2 ------------------------------------------------------------


def test_criterion_02_defect_inverts_the_shift_series():
    rng = np.random.default_rng(SEED + 910)
    ctx = FockContext(2, 8)
    worst = 0.0
    for trial in range(50):
        k = trial % 4
        band = random_banded_operator(rng, ctx, k)
        worst = max(worst, shift_defect(shift_series(band)).diff(band))
        worst = max(worst, shift_series(shift_defect(band)).diff(band))
    ok = worst <= 1e-12
    _verdict(2, "defect map inverts the shift series", ok,
             f"max deviation {worst:.3e} over 50 banded operators, tol 1e-12")
    assert ok


# -- criterion 3 ------------------------------------------------------------


def test_criterion_03_series_of_vacuum_projection_is_identity():
    ctx = FockContext(2, 8)
    series = shift_series(FockOperator.level_projection(ctx, 0))
    worst = series.diff(FockOperator.identity(ctx))
    ok = worst <= 1e-14
    _verdict(3, "shift series of the vacuum projection is the identity", ok,
             f"max deviation {worst:.3e}, tol 1e-14")
    assert ok


# -- criterion 4 ------------------------------------------------------------


def _corner_vector_element(ctx, zeta, limit):
    """Left-word combination z = sum_w zeta_w v_w over levels 0..limit."""
    terms = {}
    pos = 0
    for level in range(limit + 1):
        for idx in range(ctx.dim(level)):
            if zeta[pos] != 0:
                terms[(ctx.word_at(level, idx), ())] = zeta[pos]
            pos += 1
    return AlgebraElement(ctx.n, terms)


def _first_violation(result):
    for k, (low, tol) in enumerate(zip(result.min_eigenvalues,
                                       result.tolerances)):
        if low < -tol:
            return k
    return None


def _witness_element(ctx, mat, positive, decreasing):
    """Element whose singleton Gram matrix exposes a failed check."""
    if not positive.ok:
        k = _first_violation(positive)
        corner = mat.corner(k)
        corner = 0.5 * (corner + corner.conj().T)
        _, vecs = np.linalg.eigh(corner)
        z = _corner_vector_element(ctx, vecs[:, 0], k)
        return z.adjoint()
    k = _first_violation(decreasing)
    diff = mat.restricted(mat.horizon - 1) - mat.sliced()
    corner = diff.corner(k)
    corner = 0.5 * (corner + corner.conj().T)
    _, vecs = np.linalg.eigh(corner)
    z = _corner_vector_element(ctx, vecs[:, 0], k)
    defect = AlgebraElement.one(ctx.n)
    for i in range(1, ctx.n + 1):
        defect = defect - AlgebraElement(ctx.n, {((i,), (i,)): 1.0})
    return defect * z.adjoint()


def _mixed_check_population(rng, ctx):
    """Hermitian block matrices from four families, two honest, two broken."""
    states = []
    for i in range(100):
        family = i % 4
        if family == 0:
            top = 1 + int(rng.integers(0, 3))
            phi = [rng.standard_normal(ctx.dim(k))
                   + 1j * rng.standard_normal(ctx.dim(k))
                   for k in range(top + 1)]
            states.append(fock_vector_state(ctx, phi))
        elif family == 1:
            r = 1 + int(rng.integers(0, 8))
            root = rng.standard_normal((ctx.total_dim, r)) \
                + 1j * rng.standard_normal((ctx.total_dim, r))
            gram = root @ root.conj().T
            gram /= np.trace(gram).real
            blocks = {}
            for a in range(ctx.depth + 1):
                for b in range(ctx.depth + 1):
                    r0, c0 = ctx.level_offsets[a], ctx.level_offsets[b]
                    blocks[(a, b)] = gram[r0:r0 + ctx.dim(a),
                                          c0:c0 + ctx.dim(b)]
            states.append(BlockOperatorMatrix(ctx, blocks))
        elif family == 2:
            raw = rng.standard_normal((ctx.total_dim, ctx.total_dim)) \
                + 1j * rng.standard_normal((ctx.total_dim, ctx.total_dim))
            herm = 0.5 * (raw + raw.conj().T)
            blocks = {}
            for a in range(ctx.depth + 1):
                for b in range(ctx.depth + 1):
                    r0, c0 = ctx.level_offsets[a], ctx.level_offsets[b]
                    blocks[(a, b)] = herm[r0:r0 + ctx.dim(a),
                                          c0:c0 + ctx.dim(b)]
            states.append(BlockOperatorMatrix(ctx, blocks))
        else:
            profile = np.sort(rng.uniform(0.2, 1.0, size=ctx.depth + 1))
            blocks = {(k, k): profile[k] / ctx.dim(k) * np.eye(ctx.dim(k))
                      for k in range(ctx.depth + 1)}
            states.append(BlockOperatorMatrix(ctx, blocks))
    return states


def test_criterion_04_corner_checks_match_gram_positivity():
    rng = np.random.default_rng(SEED + 920)
    ctx = FockContext(2, 5)
    mismatches = 0
    passing = 0
    for mat in _mixed_check_population(rng, ctx):
        positive = mat.is_positive()
        decreasing = mat.is_decreasing()
        expected = positive.ok and decreasing.ok
        sets = [[random_element(rng, 2, 2, n_terms=2)
                 for _ in range(1 + int(rng.integers(0, 3)))]
                for _ in range(19)]
        if expected:
            sets.append([random_element(rng, 2, 2, n_terms=2)])
        else:
            sets.append([_witness_element(ctx, mat, positive, decreasing)])
        observed = gram_positivity_check(mat, sets).ok
        mismatches += observed != expected
        passing += expected
    ok = mismatches == 0
    _verdict(4, "corner checks match Gram positivity", ok,
             f"{mismatches} mismatches over 100 states "
             f"({passing} accepted), 20 element families each")
    assert ok


# -- criterion 5 ------------------------------------------------------------


def _density_pairing(mat, op):
    total = 0j
    for (i, j) in mat.blocks:
        blk = op.block(j, i)
        if np.any(blk):
            total += complex(np.sum(mat.block(i, j) * blk.T))
    return total


def test_criterion_05_trace_profile_separates_essential_from_singular():
    rng = np.random.default_rng(SEED + 930)
    measures = [
        CircleMeasure.point_mass(0.9),
        CircleMeasure.from_atoms([(0.5, 0.4), (2.4, 0.6)]),
        CircleMeasure.from_atoms([(0.3, 0.2), (1.9, 0.5), (4.4, 0.3)]),
        CircleMeasure.haar(),
        CircleMeasure.from_atoms([(2.8, 0.35)], haar_weight=0.65),
    ]
    worst = 0.0
    labels_ok = True
    for trial in range(20):
        n = 2 + trial % 2
        ctx = FockContext(n, 5)
        seq = rephased_sequence(rng, n, trial % 2, 1 + trial % 3)
        mat = extend(seq, measures[trial % 5], 5).matrix
        profile = mat.trace_profile()
        worst = max(worst, max(abs(v - profile[0]) for v in profile))
        worst = max(worst, mat.max_abs_diff(mat.sliced()))
        for _ in range(3):
            op = random_banded_operator(rng, ctx, 4)
            worst = max(worst, abs(_density_pairing(mat, shift(op))
                                   - _density_pairing(mat, op)))
        labels_ok = labels_ok and classify(mat).label == "essential"
    ctx = FockContext(2, 5)
    vector_states = [BlockOperatorMatrix.vacuum(ctx)]
    for trial in range(10):
        top = 1 + trial % 3
        phi = [rng.standard_normal(ctx.dim(k))
               + 1j * rng.standard_normal(ctx.dim(k))
               for k in range(top + 1)]
        vector_states.append(fock_vector_state(ctx, phi))
    for mat in vector_states:
        worst = max(worst, abs(mat.trace_profile()[-1]))
        nil = mat
        for _ in range(4):
            nil = nil.sliced()
        worst = max(worst, nil.max_abs())
        labels_ok = labels_ok and classify(mat).label == "singular"
    ok = worst <= 1e-10 and labels_ok
    _verdict(5, "trace profile separates essential from singular states", ok,
             f"max deviation {worst:.3e} over 31 states, labels "
             f"{'all correct' if labels_ok else 'WRONG'}, tol 1e-10")
    assert ok


# -- criterion 6 ------------------------------------------------------------


def test_criterion_06_decompose_splits_convex_mixtures():
    rng = np.random.default_rng(SEED + 940)
    ctx = FockContext(2, 6)
    measures = [
        CircleMeasure.point_mass(1.3),
        CircleMeasure.from_atoms([(0.4, 0.5), (3.1, 0.5)]),
        CircleMeasure.from_atoms([(2.0, 0.45)], haar_weight=0.55),
    ]
    worst_parts = 0.0
    worst_telescope = 0.0
    for trial in range(20):
        seq = rephased_sequence(rng, 2, trial % 2, 1 + trial % 2)
        essential = extend(seq, measures[trial % 3], 6).matrix
        if trial % 4 == 0:
            singular = BlockOperatorMatrix.vacuum(ctx)
        else:
            top = 1 + trial % 2
            phi = [rng.standard_normal(ctx.dim(k))
                   + 1j * rng.standard_normal(ctx.dim(k))
                   for k in range(top + 1)]
            singular = fock_vector_state(ctx, phi)
        t = float(rng.uniform(0.15, 0.85))
        mix = t * essential + (1.0 - t) * singular
        parts = decompose(mix)
        worst_parts = max(worst_parts,
                          parts.essential.max_abs_diff(t * essential),
                          parts.singular.max_abs_diff((1.0 - t) * singular))
        step = (mix - mix.sliced()).restricted(mix.horizon - 1)
        acc = step
        for _ in range(mix.horizon - 1):
            step = step.sliced()
            acc = acc + step
        worst_telescope = max(
            worst_telescope,
            acc.max_abs_diff(parts.singular, level_limit=mix.horizon - 1))
    ok = worst_parts <= 1e-9 and worst_telescope <= 1e-10
    _verdict(6, "decompose splits convex mixtures", ok,
             f"max part deviation {worst_parts:.3e} (tol 1e-9), telescoping "
             f"residual {worst_telescope:.3e} (tol 1e-10), 20 mixtures")
    assert ok


# -- criterion 7 ------------------------------------------------------------


def test_criterion_07_moment_recovery_inverts_extension():
    rng = np.random.default_rng(SEED + 950)
    worst = 0.0
    recursion_breaks = 0
    off_lattice = 0
    for trial in range(20):
        seq = rephased_sequence(rng, 2, trial % 3, 1 + trial % 3)
        p = seq.cycle_len
        depth = seq.prefix_len + 4 * p
        haar_w = 0.3 if trial % 5 == 0 else 0.0
        measure = random_atomic_measure(rng, 1 + trial % 3, haar_w)
        handle = extend(seq, measure, depth)
        moments = recover_measure_moments(handle, seq, p, 4)
        for a in range(-4, 5):
            worst = max(worst, abs(moments.value(a) - fourier(measure, a)))
        coeffs = extension_coefficients(seq, p, measure, depth)
        for k in range(depth):
            for l in range(depth):
                if (k - l) % p:
                    continue
                lhs = coeffs.get((k, l), 0j)
                rhs = coeffs.get((k + 1, l + 1), 0j) * seq.overlap(l + 1, k + 1)
                recursion_breaks += lhs != rhs
        off_lattice += sum((i - j) % p != 0
                           for (i, j) in handle.matrix.blocks)
    ok = worst <= 1e-10 and recursion_breaks == 0 and off_lattice == 0
    _verdict(7, "moment recovery inverts extension on the period lattice", ok,
             f"max moment deviation {worst:.3e} (tol 1e-10), "
             f"{recursion_breaks} recursion breaks, "
             f"{off_lattice} stray off-lattice blocks, 20 sequences")
    assert ok


# -- criterion 8 ------------------------------------------------------------


def test_criterion_08_flat_measure_reproduces_the_product_state():
    rng = np.random.default_rng(SEED + 960)
    worst = 0.0
    keys_match = True
    for trial in range(10):
        n = 2 + trial % 2
        seq = rephased_sequence(rng, n, trial % 3, 1 + trial % 3)
        flat = extend(seq, CircleMeasure.haar(), 6).matrix
        plain = product_state(seq, 6).matrix
        keys_match = keys_match and set(flat.blocks) == set(plain.blocks)
        worst = max(worst, flat.max_abs_diff(plain))
    ok = worst <= 1e-12 and keys_match
    _verdict(8, "flat measure extension reproduces the product state", ok,
             f"max deviation {worst:.3e} over 10 sequences, "
             f"stored blocks {'identical' if keys_match else 'DIFFER'}, "
             f"tol 1e-12")
    assert ok


# -- criterion 9 ------------------------------------------------------------


def test_criterion_09_gauge_orbit_tracks_measure_rotation():
    rng = np.random.default_rng(SEED + 970)
    worst = 0.0
    for p in (1, 2, 3):
        seq = rephased_sequence(rng, 2, 1, p)
        p = seq.cycle_len
        measure = random_atomic_measure(rng, 2)
        base = extend(seq, measure, 5)
        angles = rng.uniform(0.0, 2.0 * np.pi, size=8)
        for theta in angles:
            lam = complex(np.exp(1j * theta))
            moved = gauge_transform(base, lam).matrix
            target = extend(seq, measure.rotated(p * theta), 5).matrix
            worst = max(worst, moved.max_abs_diff(target))
            twin = lam * complex(np.exp(2j * np.pi / p))
            worst = max(worst,
                        moved.max_abs_diff(gauge_transform(base, twin).matrix))
    ok = worst <= 1e-12
    _verdict(9, "gauge orbit tracks measure rotation", ok,
             f"max deviation {worst:.3e} over 24 gauge moves, tol 1e-12")
    assert ok


# -- criterion 10 -----------------------------------------------------------


def _embedded_tensor(ctx, seq, level):
    vec = np.zeros(ctx.total_dim, dtype=complex)
    block = np.array([1.0 + 0.0j])
    for k in range(1, level + 1):
        block = np.kron(block, seq.vector(k))
    vec[ctx.level_offsets[level]:ctx.level_offsets[level] + ctx.dim(level)] \
        = block
    return vec


def _hand_moment(measure, m):
    total = measure.haar_weight if m == 0 else 0.0
    for angle, weight in measure.atoms:
        total = total + weight * np.exp(1j * m * angle)
    return complex(total)


def _brute_tail(seq, k, l, span=200):
    total = 1.0 + 0.0j
    for s in range(1, span + 1):
        total *= np.vdot(seq.vector(k + s), seq.vector(l + s))
    return total


def test_criterion_10_quadratic_pairing_agrees_with_gram_sums():
    rng = np.random.default_rng(SEED + 980)
    ctx = FockContext(2, 4)
    worst = 0.0
    for trial in range(6):
        p = 1 + trial % 2
        seq = rephased_sequence(rng, 2, trial % 2, p)
        p = seq.cycle_len
        haar_w = 0.4 if trial % 3 == 0 else 0.0
        measure = random_atomic_measure(rng, 1 + trial % 2, haar_w)
        omega = extend(seq, measure, 4).matrix.corner(4)
        images = [None] * 5
        for trial_b in range(5):
            band = random_banded_operator(rng, ctx, 4)
            dense = band.to_dense()
            via_density = complex(
                np.trace(omega @ dense.conj().T @ dense))
            for level in range(5):
                images[level] = dense @ _embedded_tensor(ctx, seq, level)
            via_gram = 0j
            for i in range(5):
                for j in range(5):
                    if (i - j) % p:
                        continue
                    via_gram += (_hand_moment(measure, (j - i) // p)
                                 * _brute_tail(seq, j, i)
                                 * np.vdot(images[j], images[i]))
            worst = max(worst, abs(via_density - via_gram))
    ok = worst <= 1e-9
    _verdict(10, "quadratic pairing agrees with Gram sums", ok,
             f"max deviation {worst:.3e} over 30 operator/state pairs, "
             f"tol 1e-9")
    assert ok


# -- criterion 11 -----------------------------------------------------------


def test_criterion_11_recovered_moments_pass_the_herglotz_screen():
    rng = np.random.default_rng(SEED + 990)
    measures = [
        CircleMeasure.point_mass(0.8),
        CircleMeasure.from_atoms([(0.5, 0.3), (2.2, 0.7)]),
        CircleMeasure.from_atoms([(1.0, 0.2), (2.6, 0.3), (5.1, 0.5)]),
        CircleMeasure.from_atoms([(1.1, 0.35)], haar_weight=0.65),
        CircleMeasure.haar(),
    ]
    lowest = 0.0
    all_ok = True
    for trial, measure in enumerate(measures):
        prefix = trial % 2
        p = 1 + trial % 2
        seq = rephased_sequence(rng, 2, prefix, p)
        p = seq.cycle_len
        depth = prefix + 6 * p
        handle = extend(seq, measure, depth)
        moments = recover_measure_moments(handle, seq, p, 6)
        screen = herglotz_check(moments)
        all_ok = all_ok and screen.ok
        lowest = min(lowest, screen.min_eigenvalue)
    ok = all_ok and lowest >= -1e-10
    _verdict(11, "recovered moments pass the Herglotz screen", ok,
             f"min Toeplitz eigenvalue {lowest:.3e} over 5 measures, "
             f"floor -1e-10")
    assert ok
