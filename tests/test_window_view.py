"""``series.window_view`` is ``sliding_window_view(values, width)[:count]``:
the same rows, read-only, for contiguous, strided and reversed arrays, and a
refusal for any stack that would read past the array."""
import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from greycast import InvalidInputError
from greycast.series import window_view

BASE = np.arange(1.0, 25.0) * 1.5


ARRAYS = {
    "contiguous": BASE[:12].copy(),
    "every-other": BASE[::2],
    "reversed": BASE[:12][::-1],
    "read-only": np.frombuffer(BASE[:9].tobytes()),
}


@pytest.mark.parametrize("name,values", ARRAYS.items(), ids=ARRAYS)
def test_every_valid_stack_equals_the_sliding_view(name, values):
    for width in range(0, 9):
        if width > values.size:
            continue
        reference = sliding_window_view(values, width)
        for count in range(0, values.size - width + 2):
            view = window_view(values, width, count)
            assert view.shape == (count, width), (name, width, count)
            assert np.array_equal(view, reference[:count]), (name, width, count)
            assert not view.flags.writeable
            if count:
                assert np.shares_memory(view, values) or width == 0


@pytest.mark.parametrize("name,values", ARRAYS.items(), ids=ARRAYS)
def test_a_stack_that_reads_past_the_array_is_refused(name, values):
    n = values.size
    for width in range(0, 9):
        for count in range(1, n + 4):
            if count + width - 1 > n:
                with pytest.raises(InvalidInputError, match="read past"):
                    window_view(values, width, count)
    for width, count in ((-1, 1), (2, -1), (n + 1, 1)):
        with pytest.raises(InvalidInputError, match="read past"):
            window_view(values, width, count)


def test_the_view_leaves_a_writeable_array_writeable():
    values = BASE[:6].copy()
    for count in (1, 3):
        window_view(values, 3, count)
        assert values.flags.writeable
    values[0] = -1.0  # a view sees the write
    assert window_view(values, 3, 2)[0, 0] == -1.0


def test_a_stack_of_one_is_the_leading_slice():
    values = BASE[3:10]
    view = window_view(values, 4, 1)
    assert view.shape == (1, 4) and view.base is not None
    assert view.tolist() == [values[:4].tolist()]
