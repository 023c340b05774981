"""In-memory spans around calls into the package's public functions.

A span records a name, a start, an end, its parent span and the unit it
belongs to.  Spans are kept in memory and written out once, when the run
ends.  A layer's self time is its span's duration minus the time covered by
its child spans.  Nothing inside the package is instrumented: every span is
opened here, around a call the benchmark makes.

With tracing off, :meth:`Tracer.call` only calls the function, so the same
pipeline code serves the untraced runs that give the end-to-end metrics.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    unit: int | None


class Tracer:
    """Span recorder; one per run, shared by every unit of the run."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        # A slot is reserved when a span opens and filled when it closes.
        self.spans: list[Span | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.unit: int | None = None
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name`` (``<module>.<function>``).

        An exception leaving ``fn`` counts against the module and is
        re-raised.
        """
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.errors[name.split(".", 1)[0]] += 1
            raise
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.unit)

    def count(self, name: str, amount: float) -> None:
        if self.enabled:
            self.counts[name] += amount

    def note_state(self, matrix) -> None:
        """Count the blocks of a state a step returned, by storage kind.

        Dense blocks are numpy arrays; every other block kind (today the
        rank-one form) counts as structured.
        """
        if not self.enabled:
            return
        for blk in matrix.blocks.values():
            if hasattr(blk, "nbytes"):
                self.counts["density.blocks_dense"] += 1
                self.counts["density.dense_mb"] += blk.nbytes / 1e6
            else:
                self.counts["density.blocks_rank1"] += 1

    def note_operator(self, op) -> None:
        """Count the dense bytes of a Fock operator a step returned."""
        if self.enabled:
            self.counts["fock.dense_mb"] += sum(
                arr.nbytes for arr in op.blocks.values()) / 1e6

    def note_error(self, module: str) -> None:
        """An output of ``module`` failed its check."""
        if self.enabled:
            self.errors[module] += 1

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Total self time and call count per span name."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        totals: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for index, span in enumerate(self.spans):
            totals[span.name] += span.end - span.start - covered[index]
            calls[span.name] += 1
        return totals, calls

    def child_time(self, unit: int, root: str) -> float:
        """Time covered by the direct children of the ``root`` spans of a unit."""
        roots = {i for i, s in enumerate(self.spans)
                 if s.unit == unit and s.name == root}
        return sum(s.end - s.start for s in self.spans if s.parent in roots)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": span.name, "start": span.start,
                    "end": span.end, "parent": span.parent,
                    "unit": span.unit,
                }) + "\n")
