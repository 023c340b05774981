"""SHA-256 pin of the extension pipeline on a seeded corpus.

Each of 330 extensions built the way ``fockstate extend`` builds them
(``extend(rephase(seq, period(seq)), measure, depth)``) feeds one running
digest with its state payload, its positivity and decreasing certificates,
the payloads of both parts of ``decompose`` and its ``classify`` label.  The
corpus spans n = 1..3, prefixes of 0..3 vectors, cycles of 1..3 vectors and
Haar, atomic and mixed measures, and six sequences whose second prefix
vector is orthogonal to its partner one period later, so that a lattice
diagonal of coefficients reaches zero partway down.

The digest was recorded while the coefficients were still filled into a
dense (K+1)x(K+1) table, so any change in how they are built that moves a
single bit of these outputs shows up here.  The corpus uses its own seed,
not the session seed, so the pin holds under ``FOCKSTATE_SEED``.
"""

import hashlib
import itertools
import json

import numpy as np
from helpers import random_sequence, random_unit_vector

from fockstate.density import StateHandle, classify, decompose
from fockstate.errors import UndeterminedError
from fockstate.measures import CircleMeasure
from fockstate.product_states import UnitVectorSequence, extend, period, rephase

CORPUS_SEED = 7301
MAX_DEPTH = {1: 14, 2: 7, 3: 4}

EXPECTED = "271bbdf05cf7e1a3ef8fae42ca00da568ead9c3c2a4893444bd80d7567f69883"


def random_measure(rng, kind):
    if kind == "haar":
        return CircleMeasure.haar()
    haar_weight = float(rng.uniform(0.1, 0.9)) if kind == "mixed" else 0.0
    count = int(rng.integers(1, 4))
    weights = rng.uniform(0.2, 1.0, size=count)
    weights *= (1.0 - haar_weight) / weights.sum()
    angles = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return CircleMeasure.from_atoms(
        list(zip(angles.tolist(), weights.tolist())), haar_weight=haar_weight)


def orthogonal_prefix_sequence(rng, n):
    """Prefix (a, b) and cycle (c, d) with <b, d> exactly 0: e_2 is
    orthogonal to e_4, its partner one period (p = 2) later.  b and d are
    unimodular multiples of the first two basis vectors, so every term of
    their inner product is an exact zero."""
    a, c = random_unit_vector(rng, n), random_unit_vector(rng, n)
    b, d = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=2))[:, None] * np.eye(n)[:2]
    return UnitVectorSequence(n, [a, b], [c, d])


def corpus():
    rng = np.random.default_rng(CORPUS_SEED)
    shapes = itertools.product((1, 2, 3), range(4), (1, 2, 3),
                               ("haar", "atomic", "mixed"))
    for n, prefix_len, cycle_len, kind in list(shapes) * 3:
        seq = random_sequence(rng, n, prefix_len, cycle_len)
        depth = int(rng.integers(1, MAX_DEPTH[n] + 1))
        yield seq, random_measure(rng, kind), depth
    for n, kind in itertools.product((2, 3), ("haar", "atomic", "mixed")):
        seq = orthogonal_prefix_sequence(rng, n)
        yield seq, random_measure(rng, kind), MAX_DEPTH[n]


def outputs(seq, measure, depth):
    """The texts one extension contributes to the digest."""
    handle = extend(rephase(seq, period(seq)), measure, depth)
    matrix = handle.matrix
    texts = [handle.to_payload()]
    for check in (matrix.is_positive(), matrix.is_decreasing()):
        texts.append([check.ok, list(check.min_eigenvalues), list(check.tolerances)])
    try:
        parts = decompose(matrix)
    except UndeterminedError:
        texts.append("undetermined")
    else:
        texts += [StateHandle(parts.essential, "essential").to_payload(),
                  StateHandle(parts.singular, "singular").to_payload(),
                  parts.stabilization_step]
    texts.append(classify(matrix).label)
    return [json.dumps(text, sort_keys=True) for text in texts]


def test_orthogonal_prefix_cuts_a_diagonal_partway_down():
    rng = np.random.default_rng(CORPUS_SEED)
    seq = rephase(orthogonal_prefix_sequence(rng, 2), 2)
    matrix = extend(seq, CircleMeasure.point_mass(0.4), 5).matrix
    # The diagonal l = k - 2 holds (5, 3) and (4, 2) but not (3, 1).
    assert {(3, 5), (2, 4)} <= set(matrix.blocks)
    assert (1, 3) not in matrix.blocks and (0, 2) not in matrix.blocks


def test_extension_corpus_digest_is_unchanged():
    digest = hashlib.sha256()
    count = 0
    for seq, measure, depth in corpus():
        for text in outputs(seq, measure, depth):
            digest.update(text.encode())
        count += 1
    assert count == 330
    assert digest.hexdigest() == EXPECTED
