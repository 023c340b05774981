"""Fuzzed input files through the command line.

Whatever a state, sequence or measure file holds, ``main`` exits with a
documented code (0-4), records no warning, writes nothing but its own
``error:`` lines to stderr, and never answers with exit 0 or 1 while
printing or writing a number that is not finite.  An extension that
``extend`` writes passes its own positivity and decreasing checks.

The values mix ordinary floats with the edges of the JSON number range:
signed zeros, the smallest subnormal, numbers near and past the float
maximum, NaN, infinities, 400-digit integers and booleans.  Half of the
state files are built Hermitian, so that they reach the checks.
"""

import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from fockstate.cli import main

FINITE_EDGES = [0.0, -0.0, 5e-324, 1e308, -1e308, 1.5e308]
BAD_NUMBERS = [math.nan, math.inf, -math.inf, 10**400, -10**400, True, False]
EXPRESSIONS = ["1", "v1", "v1 v1* + 0.5", "(2-1i) v[1,1] v1* + v2*"]

NON_FINITE_TEXT = re.compile(r"\b(nan|inf|NaN|Infinity)\b")


def numbers(finite_only):
    edges = FINITE_EDGES if finite_only else FINITE_EDGES + BAD_NUMBERS
    return st.one_of(st.floats(-2.0, 2.0), st.sampled_from(edges))


def pairs(draw, values, count):
    return [[draw(values), draw(values)] for _ in range(count)]


def negated(x):
    return x if isinstance(x, bool) else -x


@st.composite
def state_payloads(draw):
    n = draw(st.integers(1, 2))
    depth = draw(st.integers(0, 2))
    values = numbers(draw(st.booleans()))
    hermitian = draw(st.booleans())
    blocks = []
    for i in range(depth + 1):
        for j in range(depth + 1):
            if (hermitian and i > j) or not draw(st.booleans()):
                continue
            rows, cols = n**i, n**j
            if draw(st.booleans()):
                left = pairs(draw, values, rows)
                right = left if hermitian and i == j else pairs(draw, values, cols)
                coeff = [draw(values), 0.0 if hermitian and i == j else draw(values)]
                blocks.append({"i": i, "j": j, "coeff": coeff,
                               "left": left, "right": right})
                continue
            entries = [[None] * cols for _ in range(rows)]
            for a in range(rows):
                for b in range(cols):
                    if hermitian and i == j and b < a:
                        real, imag = entries[b][a]
                        entries[a][b] = [real, negated(imag)]
                    elif hermitian and i == j and b == a:
                        entries[a][b] = [draw(values), 0.0]
                    else:
                        entries[a][b] = [draw(values), draw(values)]
            blocks.append({"i": i, "j": j,
                           "entries": [pair for row in entries for pair in row]})
    payload = {"n": n, "K": depth, "blocks": blocks}
    if draw(st.booleans()):
        payload["metadata"] = {"exact_horizon": draw(st.integers(0, depth))}
    return payload


UNIT_VECTORS = {1: [[[1.0, 0.0]], [[0.0, -1.0]], [[0.6, 0.8]]],
                2: [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]],
                    [[0.6, 0.0], [0.0, 0.8]], [[0.0, 0.6], [-0.8, 0.0]]]}


@st.composite
def extend_inputs(draw):
    n = draw(st.integers(1, 2))
    values = numbers(draw(st.booleans()))

    def vector():
        if draw(st.booleans()):
            return draw(st.sampled_from(UNIT_VECTORS[n]))
        return pairs(draw, values, n)

    sequence = {"n": n,
                "prefix": [vector() for _ in range(draw(st.integers(0, 2)))],
                "cycle": [vector() for _ in range(draw(st.integers(1, 2)))]}
    angle = st.one_of(values, st.floats(0.0, 7.0))
    measure = draw(st.sampled_from([
        lambda: {"haar_weight": 1.0, "atoms": []},
        lambda: {"haar_weight": 0.0, "atoms": [{"angle": draw(angle), "weight": 1.0}]},
        lambda: {"haar_weight": 0.5, "atoms": [{"angle": draw(angle), "weight": 0.5}]},
        lambda: {"haar_weight": 0.0,
                 "atoms": [{"angle": draw(angle), "weight": 0.25},
                           {"angle": draw(angle), "weight": 0.75}]},
        lambda: {"haar_weight": draw(values),
                 "atoms": [{"angle": draw(angle), "weight": draw(values)}]},
    ]))()
    return sequence, measure, draw(st.integers(0, 3))


def run(argv):
    """Exit code of ``main``, after checking what holds for every input: a
    documented code, no warning, stderr holding only the CLI's own lines,
    and no NaN or infinity printed with exit 0 or 1."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    assert 0 <= code <= 4, (argv, code, err.getvalue())
    assert not caught, (argv, [str(w.message) for w in caught])
    for line in err.getvalue().splitlines():
        assert line.startswith(("error: ", "observed trace profile: ")), (argv, line)
    if code in (0, 1):
        assert not NON_FINITE_TEXT.search(out.getvalue()), (argv, out.getvalue())
    return code


def assert_finite_files(*paths):
    for path in paths:
        if path.exists():
            assert not NON_FINITE_TEXT.search(path.read_text()), path


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(payload=state_payloads(), expression=st.sampled_from(EXPRESSIONS))
def test_fuzzed_state_files(payload, expression):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        state = write_json(tmp / "state.json", payload)
        for what in ("positivity", "decreasing", "essential", "singular"):
            run(["check", state, "--what", what])
        run(["eval", state, expression])
        if run(["decompose", state, "--out-prefix", str(tmp / "parts")]) == 0:
            assert_finite_files(*(tmp / f"parts.{part}" for part in
                                   ("essential.json", "singular.json", "profile.csv")))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(inputs=extend_inputs())
def test_fuzzed_extend_inputs(inputs):
    sequence, measure, depth = inputs
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        out = tmp / "state.json"
        code = run(["extend", write_json(tmp / "seq.json", sequence),
                    write_json(tmp / "measure.json", measure),
                    "--depth", str(depth), "--out", str(out)])
        if code != 0:
            return
        assert_finite_files(out)
        assert run(["check", str(out), "--what", "positivity"]) == 0
        assert run(["check", str(out), "--what", "decreasing"]) == (4 if depth == 0 else 0)
