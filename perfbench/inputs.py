"""Seeded inputs: sequence and measure payloads, expression texts, vectors.

Everything here is plain data built from a ``numpy.random.Generator``; the
package only ever sees these generated inputs.

Expression costs in the Fock layer depend on the word lengths of their terms
and on which products of words vanish (v_i^* v_j = 0 for i != j), not on the
coefficients.  The term shapes (left length, right length) are therefore
fixed lists, and the words come from a template that depends only on the
input's size.  The seed draws a relabelling of the generators v_1..v_n,
which keeps the same products vanishing, the coefficients and the order of
the terms.  Every unit of one size then does the same amount of work, so a
run's figures do not depend on which inputs a seed happened to draw.
"""

from __future__ import annotations

import math

import numpy as np

# Term shapes (left word length, right word length), degree at most 3.
X_SHAPES = ((3, 0), (2, 1), (1, 1), (0, 2))
Y_SHAPES = ((0, 3), (1, 2), (1, 0), (2, 1))
# Shapes of the two-term elements of a Gram family, degree at most 2.
FAMILY_SHAPES = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def unit_vector_pairs(rng, n: int) -> list:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    return [[float(z.real), float(z.imag)] for z in v]


def sequence_payload(rng, n: int, prefix_len: int, cycle_len: int) -> dict:
    """Eventually periodic unit-vector sequence.  Distinct random vectors are
    almost surely not unimodular multiples of each other, so the period is
    the full cycle length."""
    return {
        "n": n,
        "prefix": [unit_vector_pairs(rng, n) for _ in range(prefix_len)],
        "cycle": [unit_vector_pairs(rng, n) for _ in range(cycle_len)],
    }


def measure_payload(rng, atoms: int, haar_weight: float) -> dict:
    """Haar weight plus ``atoms`` atoms, at least 0.5 rad apart, each with
    weight at least 0.2 of the atomic mass."""
    base = float(rng.uniform(0.0, 2.0 * math.pi))
    gaps = rng.uniform(0.5, 2.0 * math.pi / atoms, size=atoms - 1)
    angles = [(base + float(gaps[:k].sum())) % (2.0 * math.pi)
              for k in range(atoms)]
    weights = rng.uniform(0.2, 1.0, size=atoms)
    weights *= (1.0 - haar_weight) / weights.sum()
    return {
        "haar_weight": haar_weight,
        "atoms": [{"angle": a, "weight": float(w)}
                  for a, w in zip(angles, weights)],
    }


def relabelled_letters(rng, n: int, template_key):
    """Letter source for the words of one input.

    Letters are drawn from a generator seeded with ``template_key`` alone,
    then relabelled by a permutation of 1..n drawn from ``rng``.  Inputs
    built with one key have the same words up to that relabelling.
    """
    template = np.random.default_rng(template_key)
    relabel = rng.permutation(n) + 1

    def letters(length: int) -> list[int]:
        return [int(relabel[x]) for x in template.integers(0, n, size=length)]

    return letters


def _word(letters, length: int) -> str:
    if length == 0:
        return ""
    word = letters(length)
    if length == 1:
        return f"v{word[0]}"
    return "v[" + ",".join(str(x) for x in word) + "]"


def expression_text(rng, shapes, letters) -> str:
    """Sum of terms c v_mu v_nu^* with the given (|mu|, |nu|) shapes.  The
    words are drawn in shape order, so they do not depend on the term order
    that ``rng`` draws."""
    words = [(_word(letters, left), _word(letters, right))
             for left, right in shapes]
    terms = []
    for k in rng.permutation(len(shapes)):
        left, right = words[k]
        re, im = rng.uniform(-1.0, 1.0, size=2)
        factors = [left] if left else []
        if right:
            factors.append(right + "*")
        terms.append(f"({re:.6f}{im:+.6f}i) " + (" ".join(factors) or "1"))
    return " + ".join(terms)


def family_texts(rng, size: int, letters) -> list[str]:
    """``size`` two-term elements cycling through the family shapes."""
    count = len(FAMILY_SHAPES)
    return [expression_text(rng, (FAMILY_SHAPES[k % count],
                                  FAMILY_SHAPES[(k + 1) % count]), letters)
            for k in range(size)]


def fock_vector(rng, dims) -> list:
    """Complex Gaussian coefficients on the levels with the given sizes."""
    return [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in dims]
