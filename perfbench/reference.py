"""A fixed reference computation, timed between units.

The benchmark runs on shared virtual machines whose speed drifts by 10–40 %
over tens of seconds, because other tenants load the same cores, caches and
memory.  Unit times follow that drift.  The reference computation does the
same kinds of work as the package (interpreted Python on dicts and tuples,
JSON text, dense complex matrix products and a Hermitian eigensolver) on
fixed data that never changes, so its time measures how fast the machine is
at that moment.  A step's time divided by the time of the reference runs
right after it measures the program's own cost with most of the drift
removed.

Nothing here calls the package.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

import numpy as np

# The reference runs after each timed step (an in-process unit, or one CLI
# child) until it has taken this share of the step's time, and at least once.
SHARE = 0.1


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((160, 160)) + 1j * rng.standard_normal((160, 160))
        b = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        self.h = b + b.conj().T
        self.words = [tuple(int(x) for x in rng.integers(1, 4, size=k % 5))
                      for k in range(400)]
        self.text = json.dumps([[float(x), float(x) / 3.0]
                                for x in rng.standard_normal(1500)])
        self.seconds: list[float] = []
        # Wall time spent in after(), which the harness adds to the run.
        self.spent = 0.0
        self.once()

    def once(self) -> float:
        start = perf_counter()
        terms: dict[tuple, complex] = {}
        for i, left in enumerate(self.words):
            for right in self.words[i % 7::37]:
                key = left + right[::-1]
                terms[key] = terms.get(key, 0j) + complex(len(left), len(right))
        json.dumps(json.loads(self.text))
        self.a @ self.a
        np.linalg.eigvalsh(self.h)
        return perf_counter() - start

    def after(self, step_seconds: float) -> float:
        """Time the reference until it has taken ``SHARE`` of the step's
        time, and at least once; returns the median of these runs."""
        start = perf_counter()
        runs = []
        while not runs or sum(runs) < SHARE * step_seconds:
            runs.append(self.once())
        self.seconds.extend(runs)
        self.spent += perf_counter() - start
        return statistics.median(runs)

    def median(self) -> float:
        return statistics.median(self.seconds)
