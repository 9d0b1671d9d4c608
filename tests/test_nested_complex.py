"""A numpy complex scalar is found at any depth of a nested sequence.

``series.complex_array`` looked one level into a sequence, so a 2-d list
holding ``np.complex128(1+1j)`` passed to ``LeastSquaresProblem`` was cast
with the imaginary part dropped and only a ``ComplexWarning``: the design
below read as the identity.
"""
import numpy as np
import pytest

from greycast import InvalidInputError
from greycast.lstsq import LeastSquaresProblem
from greycast.series import complex_array

MESSAGE = "least-squares entries must be real numbers, not complex"
NESTED = {
    "list-of-lists": [[np.complex128(1 + 1j), 0.0], [0.0, 1.0]],
    "tuples": ((0.0, np.complex64(2j)), (1.0, 0.0)),
    "0d-array-in-list": [[1.0, 0.0], [np.array(1j), 1.0]],
    "complex-row-array": [np.array([1.0 + 1j, 0.0]), [0.0, 1.0]],
    "2d-object-array": np.array([[np.complex128(1j), 0.0], [0.0, 1.0]], dtype=object),
    "three-deep": [[[np.complex128(1j)]]],
}


@pytest.mark.filterwarnings("error")  # no ComplexWarning: refused before the cast
@pytest.mark.parametrize("design", NESTED.values(), ids=list(NESTED))
def test_a_nested_complex_scalar_is_refused(design):
    assert complex_array(design)
    with pytest.raises(InvalidInputError) as info:
        LeastSquaresProblem(design, np.ones(2))
    assert str(info.value) == MESSAGE


@pytest.mark.filterwarnings("error")
def test_nested_real_numbers_pass():
    for design in ([[1.0, 0.0], [0.0, 1.0]], [(np.float64(1.0), 0), [np.int32(0), 1.0]],
                   np.array([[1.0, 0.0], [0.0, 1.0]], dtype=object),
                   [np.array([1.0, 0.0]), [0.0, 1.0]]):
        assert not complex_array(design)
        assert LeastSquaresProblem(design, np.ones(2)).design.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert not complex_array(["ab", "c"]) and not complex_array("abc")
