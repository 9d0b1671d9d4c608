"""An empty window fails GVM on its length, as it fails GM(1,1): the
positivity check reads only windows long enough to fit, so it never takes
the minimum of an empty array."""
import numpy as np
import pytest

from greycast import InsufficientDataError
from greycast.models import ModelKind, fit_model, fit_windows

MESSAGE = "window of 0 < 4 observations"


@pytest.mark.parametrize("kind", [ModelKind.GM11, ModelKind.GVM], ids=lambda k: k.value)
def test_fit_model_on_an_empty_window(kind):
    with pytest.raises(InsufficientDataError) as raised:
        fit_model(kind, [])
    assert str(raised.value) == MESSAGE


@pytest.mark.parametrize("kind", [ModelKind.GM11, ModelKind.GVM], ids=lambda k: k.value)
def test_fit_windows_on_empty_windows(kind):
    fits = fit_windows(kind, np.empty((3, 0)))
    assert fits.failures.failed.all()
    assert [(type(e), str(e)) for e in fits.failures.errors.values()] \
        == [(InsufficientDataError, MESSAGE)] * 3


@pytest.mark.parametrize("w", [1, 2, 3])
def test_a_short_window_fails_on_length_before_positivity(w):
    # Non-positive values too: the length failure comes first, as for GM(1,1).
    windows = np.zeros((2, w))
    gvm = fit_windows(ModelKind.GVM, windows).failures.errors
    gm11 = fit_windows(ModelKind.GM11, windows).failures.errors
    assert {i: str(e) for i, e in gvm.items()} == {i: str(e) for i, e in gm11.items()} \
        == {0: f"window of {w} < 4 observations", 1: f"window of {w} < 4 observations"}


def test_positivity_is_still_checked_on_full_windows():
    fits = fit_windows(ModelKind.GVM, np.array([[1.0, 2.0, 0.0, 3.0], [1.0, 2.0, 3.0, 4.0]]))
    assert list(fits.failures.errors) == [0]
    assert "strictly positive values (index 2)" in str(fits.failures.errors[0])
