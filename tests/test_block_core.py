"""The block core shared by operators and states, and the payload checks.

``FockOperator`` and ``BlockOperatorMatrix`` validate and store their blocks
through one base class, and every JSON decoder checks its objects through
one set of codec helpers; these tests pin both for every user.
"""

import json

import numpy as np
import pytest

from fockstate.density import BlockOperatorMatrix, Rank1Block, StateHandle
from fockstate.errors import AlphabetMismatchError, SchemaError
from fockstate.fock import FockContext, FockOperator
from fockstate.measures import CircleMeasure
from fockstate.product_states import UnitVectorSequence, parse_extension_request

CTX = FockContext(2, 1)
CONTAINERS = [FockOperator.from_blocks, BlockOperatorMatrix]
IDS = ["operator", "state"]


def ones(size):
    return np.ones(size, dtype=complex)


@pytest.mark.parametrize("make", CONTAINERS, ids=IDS)
class TestValidation:
    @pytest.mark.parametrize("key", [(2, 0), (0, 2), (-1, 0)])
    def test_block_outside_levels(self, make, key):
        with pytest.raises(ValueError, match="outside levels"):
            make(CTX, {key: np.ones((1, 1))})

    def test_wrong_shape(self, make):
        with pytest.raises(ValueError, match="shape"):
            make(CTX, {(1, 1): np.eye(3)})

    @pytest.mark.parametrize("left, right", [(3, 2), (2, 1)])
    def test_wrong_factor_size(self, make, left, right):
        with pytest.raises(ValueError):
            make(CTX, {(1, 1): Rank1Block(1.0, ones(left), ones(right))})

    def test_zero_blocks_are_not_stored(self, make):
        mat = make(CTX, {(0, 0): np.zeros((1, 1)),
                         (1, 1): Rank1Block(0.0, ones(2), ones(2)),
                         (1, 0): np.ones((2, 1))})
        assert set(mat.blocks) == {(1, 0)}

    def test_different_spaces(self, make):
        a = make(CTX, {})
        b = make(FockContext(3, 1), {})
        with pytest.raises(AlphabetMismatchError):
            a + b
        with pytest.raises(AlphabetMismatchError):
            a - b


def test_operator_blocks_are_dense_state_blocks_stay_rank_one():
    block = Rank1Block(2.0, ones(2), ones(2))
    op = FockOperator.from_blocks(CTX, {(1, 1): block})
    state = BlockOperatorMatrix(CTX, {(1, 1): block})
    assert isinstance(op.blocks[(1, 1)], np.ndarray)
    assert np.array_equal(op.blocks[(1, 1)], block.dense())
    assert state.blocks[(1, 1)] is block


# One valid payload per decoder; each must reject a non-object, every
# missing required key and an unknown key.
STATE = {"n": 1, "K": 0, "blocks": [{"i": 0, "j": 0, "entries": [[1.0, 0.0]]}]}
SEQUENCE = {"n": 1, "prefix": [], "cycle": [[[1.0, 0.0]]]}
MEASURE = {"haar_weight": 1.0, "atoms": []}
DECODERS = {
    "state": (StateHandle.from_payload, lambda p: p, STATE),
    "metadata": (StateHandle.from_payload, lambda p: {**STATE, "metadata": p},
                 {"exact_horizon": 0}),
    "sequence": (UnitVectorSequence.from_payload, lambda p: p, SEQUENCE),
    "measure": (CircleMeasure.from_payload, lambda p: p, MEASURE),
    "atom": (CircleMeasure.from_payload,
             lambda p: {"haar_weight": 0.0, "atoms": [p]},
             {"angle": 0.5, "weight": 1.0}),
    "block": (StateHandle.from_payload,
              lambda p: {"n": 1, "K": 0, "blocks": [p]}, STATE["blocks"][0]),
    "request": (parse_extension_request, lambda p: p,
                {"sequence": SEQUENCE, "measure": MEASURE, "depth": 1}),
}
REQUIRED = {"metadata": ()}


# State files with one bad block record each (n=2, K=1).
RECORD = {"i": 0, "j": 0, "entries": [[1.0, 0.0]]}
BAD_RECORDS = {
    "entry count": [{**RECORD, "entries": [[1.0, 0.0]] * 2}],
    "row level": [{**RECORD, "i": 2}],
    "column level": [{**RECORD, "j": 5}],
    "duplicate": [RECORD, {**RECORD, "entries": [[2.0, 0.0]]}],
    "unknown block key": [{**RECORD, "name": "x"}],
}


def malformed(name):
    _, _, good = DECODERS[name]
    yield "list", [good]
    yield "unknown key", {**good, "extra": 1}
    for key in REQUIRED.get(name, good):
        yield f"no {key}", {k: v for k, v in good.items() if k != key}


@pytest.mark.parametrize("name", DECODERS)
def test_decoder_accepts_its_valid_payload(name):
    decode, wrap, good = DECODERS[name]
    decode(json.loads(json.dumps(wrap(good))))


@pytest.mark.parametrize("name, label, payload", [
    ("state", label, {"n": 2, "K": 1, "blocks": blocks})
    for label, blocks in BAD_RECORDS.items()
] + [
    (name, label, payload) for name in DECODERS for label, payload in malformed(name)
])
def test_decoder_rejects_malformed_objects(name, label, payload):
    decode, wrap, _ = DECODERS[name]
    with pytest.raises(SchemaError):
        decode(wrap(payload))


# Values of the right shape that a decoder must still refuse, by message.
BAD_VALUES = {
    "blocks not a list": ("state", {**STATE, "blocks": {}}, "'blocks' must be a list"),
    "huge integer": ("measure", {**MEASURE, "haar_weight": 10**400},
                     "beyond the float range"),
    "classification": ("metadata", {"classification": 5},
                       "'classification' must be a string"),
}


@pytest.mark.parametrize("name, payload, message", BAD_VALUES.values(), ids=BAD_VALUES)
def test_decoder_names_the_bad_value(name, payload, message):
    decode, wrap, _ = DECODERS[name]
    with pytest.raises(SchemaError, match=message):
        decode(json.loads(json.dumps(wrap(payload))))


@pytest.mark.parametrize("decode, payload", [
    (StateHandle.from_payload, {**STATE, "n": True}),
    (StateHandle.from_payload, {**STATE, "K": -1}),
    (UnitVectorSequence.from_payload, {**SEQUENCE, "n": 0}),
    (UnitVectorSequence.from_payload, {**SEQUENCE, "n": 1.0}),
    (parse_extension_request,
     {"sequence": SEQUENCE, "measure": MEASURE, "depth": False}),
], ids=["n-bool", "K-negative", "n-zero", "n-float", "depth-bool"])
def test_integers_reject_booleans_and_low_values(decode, payload):
    with pytest.raises(SchemaError, match="integer"):
        decode(payload)


@pytest.mark.parametrize("n, depth", [(2, 63), (2, 64), (2, 10**6), (3, 40)])
def test_unaddressable_depth_is_rejected(n, depth):
    with pytest.raises(SchemaError, match="too large"):
        FockContext(n, depth)


@pytest.mark.parametrize("n, depth", [(2, 40), (2, 62), (3, 39), (1, 1000)])
def test_addressable_depth_is_accepted(n, depth):
    assert FockContext(n, depth).dim(depth) == n**depth


@pytest.mark.parametrize("decode, payload", [
    (StateHandle.from_payload,
     {"n": 2, "K": 64, "blocks": [{"i": 0, "j": 0, "entries": [[1.0, 0.0]]}]}),
    (parse_extension_request,
     {"sequence": {"n": 2, "prefix": [], "cycle": [[[1.0, 0.0], [0.0, 0.0]]]},
      "measure": MEASURE, "depth": 64}),
], ids=["state", "request"])
def test_decoders_reject_unaddressable_depth(decode, payload):
    with pytest.raises(SchemaError, match="too large"):
        decode(payload)


def test_state_with_negative_horizon_is_not_written():
    """The slice of a K=0 state has horizon -1, which no file can hold."""
    sliced = BlockOperatorMatrix.vacuum(FockContext(2, 0)).sliced()
    assert sliced.horizon == -1
    with pytest.raises(ValueError, match="horizon -1"):
        StateHandle(sliced).to_payload()
    handle = StateHandle(BlockOperatorMatrix.vacuum(FockContext(2, 0)))
    assert StateHandle.from_payload(handle.to_payload()).matrix.horizon == 0
