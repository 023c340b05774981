"""The two in-process workloads: ``dense-states`` and ``algebra-fock``.

Each unit is one pipeline on one seeded input, run by calling the package's
public functions with the tracer around each call.  Units alternate between
the sizes in ``SIZES``.  Every output is checked; a failed check raises
:class:`CheckFailed` and the unit counts as failed.
"""

from __future__ import annotations

import operator
import resource
import traceback
from time import perf_counter

import numpy as np

from fockstate import (
    CircleMeasure,
    FockContext,
    atomic_from_moments,
    classify,
    decompose,
    extend,
    fock_vector_state,
    fourier,
    gram_positivity_check,
    herglotz_check,
    parse_expression,
    recover_measure_moments,
    rephase,
    represent,
    shift_defect,
    shift_series,
)
from fockstate.measures import MOMENT_MATCH_TOL
from fockstate.product_states import UnitVectorSequence

import inputs
from spans import Tracer

# (n, K) pairs the units alternate between: total dimensions 1023 and 1093.
SIZES = ((2, 9), (3, 6))
# Inputs generated at set-up; units cycle through them.
POOL = 128
# Deviation limits of criteria 1, 2 (multiplicativity, series inversion) and
# 6 (parts of a decomposed mixture) in tests/test_acceptance.py.
OPERATOR_TOL = 1e-12
MASS_TOL = 1e-9
# Levels carrying the vector state; its blocks are dense.
VECTOR_LEVELS = 4
FAMILY_SIZE = 30


class CheckFailed(Exception):
    """An output did not pass its correctness check."""


def expect(tracer, module: str, ok: bool, what: str) -> None:
    if not ok:
        tracer.note_error(module)
        raise CheckFailed(what)


UNTRACED = Tracer(False)


class InProcess:
    """A workload whose units call the package in this process.

    Subclasses set ``inputs`` and ``warm_input`` and define ``pipeline``.
    """

    def warm_up(self) -> None:
        """One untimed unit: first calls pay for lazy set-up.  A failure
        here is left for the timed units to count."""
        try:
            self.pipeline(self.warm_input, UNTRACED)
        except Exception:
            traceback.print_exc()

    def unit(self, index: int, tr) -> dict:
        inp = self.inputs[index % POOL]
        record = {"size": inp["size"]}
        if not tr.enabled:
            start = perf_counter()
            self.pipeline(inp, tr)
            record["seconds"] = perf_counter() - start
            return record
        # Traced run: the same input untraced and traced, in alternating
        # order, so the difference is the tracing overhead.
        tr.unit = index
        for traced in ((False, True) if (index // 2) % 2 == 0 else (True, False)):
            start = perf_counter()
            if traced:
                tr.call("unit", self.pipeline, inp, tr)
                record["traced_seconds"] = perf_counter() - start
            else:
                self.pipeline(inp, UNTRACED)
                record["untraced_seconds"] = perf_counter() - start
        record["seconds"] = record["untraced_seconds"]
        return record

    def finish(self) -> list[int]:
        return []

    @property
    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class DenseStates(InProcess):
    """Vector state, extension state and their mixture, through the density
    layer's checks, the split, and moment recovery."""

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        self.inputs = [self._input(rng, SIZES[i % 2]) for i in range(POOL)]
        self.warm_input = self._input(rng, SIZES[0])

    @staticmethod
    def _input(rng, size) -> dict:
        n, depth = size
        return {
            "size": f"n{n}K{depth}",
            "n": n,
            "depth": depth,
            "phi": inputs.fock_vector(rng, [n**k for k in range(VECTOR_LEVELS)]),
            "sequence": inputs.sequence_payload(rng, n, 1, 2),
            "measure": inputs.measure_payload(rng, 2, 0.0),
            "weight": float(rng.uniform(0.3, 0.7)),
        }

    def pipeline(self, inp: dict, tr) -> None:
        ctx = FockContext(inp["n"], inp["depth"])
        lam = inp["weight"]
        vec = tr.call("density.fock_vector_state", fock_vector_state,
                      ctx, inp["phi"])
        tr.note_state(vec)
        seq = tr.call("product_states.sequence_from_payload",
                      UnitVectorSequence.from_payload, inp["sequence"])
        measure = tr.call("measures.from_payload",
                          CircleMeasure.from_payload, inp["measure"])
        seq = tr.call("product_states.rephase", rephase, seq)
        ext = tr.call("product_states.extend", extend,
                      seq, measure, ctx.depth).matrix
        tr.note_state(ext)
        mix = tr.call("density.add", lambda: lam * ext + (1.0 - lam) * vec)
        tr.note_state(mix)

        for name, state in (("vector", vec), ("mixture", mix)):
            result = tr.call("density.is_positive", state.is_positive)
            expect(tr, "density", result.ok, f"{name} state is not positive")
        result = tr.call("density.is_decreasing", mix.is_decreasing)
        expect(tr, "density", result.ok, "mixture is not decreasing")
        label = tr.call("density.classify", classify, mix).label
        expect(tr, "density", label == "mixed",
               f"mixture classified {label!r}, expected 'mixed'")
        parts = tr.call("density.decompose", decompose, mix)
        tr.note_state(parts.essential)
        tr.note_state(parts.singular)
        essential = parts.essential.trace()
        expect(tr, "density", abs(essential - lam) <= MASS_TOL,
               f"essential mass {essential!r}, expected {lam!r}")
        total = essential + parts.singular.trace()
        expect(tr, "density", abs(total - mix.trace()) <= MASS_TOL,
               f"masses sum to {total!r}, trace is {mix.trace()!r}")

        p = seq.cycle_len
        window = (ctx.depth - seq.prefix_len) // p
        moments = tr.call("product_states.recover_measure_moments",
                          recover_measure_moments,
                          (1.0 / lam) * parts.essential, seq, p, window)
        worst = max(abs(moments.value(a) - fourier(measure, a))
                    for a in range(-window, window + 1))
        expect(tr, "product_states", worst <= MOMENT_MATCH_TOL,
               f"recovered moments off by {worst:.3e}")
        screen = tr.call("measures.herglotz_check", herglotz_check, moments)
        expect(tr, "measures", screen.ok, "moments fail the Herglotz screen")
        atoms = tr.call("measures.atomic_from_moments",
                        atomic_from_moments, moments)
        expect(tr, "measures", atoms.approx_eq(measure),
               f"reconstructed {atoms} differs from {measure}")


class AlgebraFock(InProcess):
    """Parse and multiply expressions, represent them on Fock space, check
    multiplicativity and the shift-series inversion, then a Gram check."""

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        self.inputs = [self._input(rng, SIZES[i % 2]) for i in range(POOL)]
        self.warm_input = self._input(rng, SIZES[0])

    @staticmethod
    def _input(rng, size) -> dict:
        n, depth = size
        letters = inputs.relabelled_letters(rng, n, size)
        return {
            "size": f"n{n}K{depth}",
            "n": n,
            "depth": depth,
            "x": inputs.expression_text(rng, inputs.X_SHAPES, letters),
            "y": inputs.expression_text(rng, inputs.Y_SHAPES, letters),
            "family": inputs.family_texts(rng, FAMILY_SIZE, letters),
            "phi": inputs.fock_vector(rng, [n**k for k in range(VECTOR_LEVELS)]),
        }

    def pipeline(self, inp: dict, tr) -> None:
        n = inp["n"]
        ctx = FockContext(n, inp["depth"])
        x = tr.call("word_algebra.parse_expression", parse_expression,
                    inp["x"], n)
        y = tr.call("word_algebra.parse_expression", parse_expression,
                    inp["y"], n)
        xy = tr.call("word_algebra.mul", operator.mul, x, y)
        tr.count("word_algebra.terms_out", len(xy.terms))

        ops = []
        for element in (x, y, xy):
            ops.append(tr.call("fock.represent", represent, ctx, element))
            tr.note_operator(ops[-1])
        rx, ry, rxy = ops
        product = tr.call("fock.matmul", operator.matmul, rx, ry)
        tr.note_operator(product)
        limit = min(product.horizon, rxy.horizon)
        worst = tr.call("fock.diff", product.diff, rxy, col_limit=limit)
        expect(tr, "fock", worst <= OPERATOR_TOL,
               f"represent(x)@represent(y) off by {worst:.3e}")
        defect = tr.call("fock.shift_defect", shift_defect, rxy)
        tr.note_operator(defect)
        series = tr.call("fock.shift_series", shift_series, defect)
        tr.note_operator(series)
        worst = tr.call("fock.diff", series.diff, rxy)
        expect(tr, "fock", worst <= OPERATOR_TOL,
               f"shift_series(shift_defect(op)) off by {worst:.3e}")

        vec = tr.call("density.fock_vector_state", fock_vector_state,
                      ctx, inp["phi"])
        tr.note_state(vec)
        family = [tr.call("word_algebra.parse_expression", parse_expression,
                          text, n) for text in inp["family"]]
        result = tr.call("density.gram_positivity_check",
                         gram_positivity_check, vec, [family])
        expect(tr, "density", result.ok,
               "Gram matrix of a vector state is not positive")
