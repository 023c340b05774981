"""The package surface: each module lists its public names once, in its
``__all__``, and the package re-exports all of them."""

import importlib

import pytest

import fockstate

MODULES = ["errors", "word_algebra", "fock", "density", "measures", "product_states"]

# The top-level names of release 0.1.0; none may disappear.
RELEASED = """
    AlgebraElement AlphabetMismatchError BlockOperatorMatrix CheckResult
    CircleMeasure ClassifyResult CoefficientRangeError DecomposeResult
    ExpressionSyntaxError FockContext FockOperator FockstateError
    HerglotzResult HorizonError InsufficientMomentsError LetterRangeError
    MomentSequence Rank1Block SchemaError StateHandle UndeterminedError
    UnitVectorSequence apply_operator atomic_from_moments basis_vector
    classify conditional_expectation decompose elementary_tensors extend
    extension_coefficients fock_vector_state fourier gauge_apply
    gauge_transform gram_matrix gram_positivity_check herglotz_check
    inner_product is_rephased left_create moment_window parse_expression
    parse_extension_request period product_state recover_measure_moments
    rephase represent right_create shift shift_defect shift_series
    state_eval trace_profile_csv vector_norm zero_vector __version__
""".split()


@pytest.mark.parametrize("name", MODULES)
def test_module_names_resolve(name):
    module = importlib.import_module(f"fockstate.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    for public in module.__all__:
        assert getattr(fockstate, public) is getattr(module, public)


def test_package_exports_the_union_of_the_modules():
    names = ["__version__"] + [public for name in MODULES
                               for public in importlib.import_module(
                                   f"fockstate.{name}").__all__]
    assert len(set(names)) == len(names)
    assert sorted(fockstate.__all__) == sorted(names)


def test_released_names_still_import():
    assert len(RELEASED) == 58
    assert set(RELEASED) <= set(fockstate.__all__)
    namespace = {}
    exec("from fockstate import *", namespace)
    assert set(RELEASED) <= set(namespace)
