"""``series.row_sums`` adds each row's terms left to right, so a row's sum
does not depend on the rows beside it: the two-column solve and both EF
filters rely on this for their alone-equals-stacked bit equality."""
import numpy as np
import pytest

from greycast.series import row_sums


def python_sum(row) -> float:
    total = row[0]
    for term in row[1:]:
        total += term
    return total


@pytest.mark.parametrize("columns", [1, 2, 5, 17])
def test_each_row_is_its_left_to_right_sum(columns):
    rng = np.random.default_rng(columns)
    # Terms spread over many magnitudes, so that the order of addition shows.
    terms = rng.normal(size=(40, columns)) * 10.0 ** rng.integers(-8, 17, (40, columns))
    terms[0] = -0.0
    sums = row_sums(terms)
    assert sums.shape == (40,)
    for row, total in zip(terms.tolist(), sums.tolist()):
        assert float(total).hex() == float(python_sum(row)).hex()


@pytest.mark.parametrize("columns", [1, 3, 9])
def test_a_row_sums_alike_in_any_stack(columns):
    rng = np.random.default_rng(7 + columns)
    terms = rng.normal(size=(3, 64, columns)) * 10.0 ** rng.integers(-8, 17, (3, 64, columns))
    full = row_sums(terms)
    assert full.shape == (3, 64)
    for size in (1, 2, 5, 64):
        assert row_sums(terms[:, :size]).tobytes() == full[:, :size].tobytes()
    for i in range(64):
        assert row_sums(terms[:, i:i + 1]).tobytes() == full[:, i:i + 1].tobytes()
