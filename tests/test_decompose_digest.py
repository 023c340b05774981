"""SHA-256 pin of ``decompose`` on a seeded corpus of states.

Each of 210 draws at n = 1..3 builds five states on one truncation: an
extension (built the way ``fockstate extend`` builds it), a vector state of
a random finitely supported Fock vector, a mixture of those two, a mixture
of two extensions of different sequences, and a three-way mixture.  Every
state feeds one running digest with the payloads of both parts of
``decompose`` (or ``undetermined``), the positivity and decreasing
certificates of both parts, the stabilization step and the ``classify``
labels of the state and its parts.

Only written outputs enter the digest: payloads list their blocks sorted, so
the order in which a builder stores blocks in memory is not pinned.  The
digest was recorded while ``decompose`` still built every sliced iterate of
the whole state, and re-recorded when equal factor arrays began to compare
as exactly parallel, which moved only the essential parts' decreasing
certificates (minimum eigenvalues of at most 4.4e-16 became 0).  The
corpus uses its own seed, not the session seed, so
the pin holds under ``FOCKSTATE_SEED``.
"""

import hashlib
import json

import numpy as np
from helpers import random_sequence

from fockstate.density import StateHandle, classify, decompose, fock_vector_state
from fockstate.errors import UndeterminedError
from fockstate.fock import FockContext
from fockstate.measures import CircleMeasure
from fockstate.product_states import extend, period, rephase

CORPUS_SEED = 4817
DRAWS = 210
MAX_DEPTH = {1: 9, 2: 5, 3: 3}

EXPECTED = "c024eb7a8af9aacd043336fc2ceca8f57117152def2036297fe92c6051450d02"


def random_extension(rng, n, depth):
    """Extension of a random sequence by up to two atoms, with a Haar part
    a third of the time."""
    seq = random_sequence(rng, n, int(rng.integers(0, 3)), int(rng.integers(1, 4)))
    count = int(rng.integers(1, 3))
    haar_weight = float(rng.uniform(0.1, 0.9)) if rng.random() < 1 / 3 else 0.0
    weights = rng.uniform(0.2, 1.0, size=count)
    weights *= (1.0 - haar_weight) / weights.sum()
    angles = rng.uniform(0.0, 2.0 * np.pi, size=count)
    measure = CircleMeasure.from_atoms(
        list(zip(angles.tolist(), weights.tolist())), haar_weight=haar_weight)
    return extend(rephase(seq, period(seq)), measure, depth).matrix


def random_vector_state(rng, ctx):
    top = int(rng.integers(0, ctx.depth))
    phi = [rng.standard_normal(ctx.dim(k)) + 1j * rng.standard_normal(ctx.dim(k))
           for k in range(top + 1)]
    return fock_vector_state(ctx, phi)


def corpus():
    rng = np.random.default_rng(CORPUS_SEED)
    for draw in range(DRAWS):
        n = 1 + draw % 3
        depth = int(rng.integers(1, MAX_DEPTH[n] + 1))
        first = random_extension(rng, n, depth)
        second = random_extension(rng, n, depth)
        vector = random_vector_state(rng, FockContext(n, depth))
        lam = float(rng.uniform(0.1, 0.9))
        w = rng.dirichlet(np.ones(3)).tolist()
        yield first
        yield vector
        yield lam * first + (1 - lam) * vector
        yield lam * first + (1 - lam) * second
        yield w[0] * first + w[1] * second + w[2] * vector


def certificate(check):
    return [check.ok, list(check.min_eigenvalues), list(check.tolerances)]


def outputs(matrix):
    """The texts one decomposition contributes to the digest."""
    texts = [classify(matrix).label]
    try:
        parts = decompose(matrix)
    except UndeterminedError:
        texts.append("undetermined")
    else:
        texts.append(parts.stabilization_step)
        for name, part in (("essential", parts.essential), ("singular", parts.singular)):
            texts += [StateHandle(part, name).to_payload(),
                      certificate(part.is_positive()),
                      certificate(part.is_decreasing()),
                      classify(part).label]
    return [json.dumps(text, sort_keys=True) for text in texts]


def test_decomposition_corpus_digest_is_unchanged():
    digest = hashlib.sha256()
    count = 0
    for matrix in corpus():
        for text in outputs(matrix):
            digest.update(text.encode())
        count += 1
    assert count == 5 * DRAWS
    assert digest.hexdigest() == EXPECTED
