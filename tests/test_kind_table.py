"""The public face of the per-kind table in ``greycast.models``: the views
derived from it, the ``GreyFit`` layout of each kind, and the one-window case
agreeing with the stacked fit and forecast."""
from types import MappingProxyType

import numpy as np
import pytest

from greycast.models import (
    DEFAULT_OMEGA,
    EF_NAME,
    MIN_WINDOW,
    TRIG_KINDS,
    ModelKind,
    fit_model,
    fit_windows,
    forecast,
    forecast_windows,
)
from greycast.rolling import GREY_MODEL_NAMES

WINDOW = np.array([10.0, 12.5, 11.0, 13.5, 12.0, 14.5])

#: The GreyFit fields each kind's fit sets; every other optional field is None.
SET_FIELDS = {
    ModelKind.GM11: {"b"},
    ModelKind.GVM: {"b"},
    ModelKind.GM_S: {"b1", "b2", "omega"},
    ModelKind.GM_C: {"b1", "b2", "omega", "K"},
    ModelKind.GM_SC: {"b1", "b2", "b3", "omega", "K"},
    ModelKind.GM_ESC: {"b1", "b2", "b3", "omega", "K"},
}
OPTIONAL_FIELDS = ("b", "b1", "b2", "b3", "omega", "K")


def test_views():
    assert TRIG_KINDS == (ModelKind.GM_S, ModelKind.GM_C, ModelKind.GM_SC, ModelKind.GM_ESC)
    assert isinstance(DEFAULT_OMEGA, MappingProxyType)
    assert list(DEFAULT_OMEGA.items()) == [(ModelKind.GM_S, 4.30), (ModelKind.GM_C, 2.65),
                                           (ModelKind.GM_SC, 9.30), (ModelKind.GM_ESC, 74.10)]
    assert type(EF_NAME) is dict
    assert list(EF_NAME.items()) == [
        (ModelKind.GM11, "EFGM"), (ModelKind.GVM, "EFGVM"), (ModelKind.GM_S, "EFGM_S"),
        (ModelKind.GM_C, "EFGM_C"), (ModelKind.GM_SC, "EFGM_SC"),
        (ModelKind.GM_ESC, "EFGM_ESC")]
    assert type(MIN_WINDOW) is dict
    assert list(MIN_WINDOW.items()) == [
        (ModelKind.GM11, 4), (ModelKind.GVM, 4), (ModelKind.GM_S, 4), (ModelKind.GM_C, 4),
        (ModelKind.GM_SC, 5), (ModelKind.GM_ESC, 4)]
    assert GREY_MODEL_NAMES == ("GM11", "EFGM", "GVM", "EFGVM", "GM_S", "EFGM_S",
                                "GM_C", "EFGM_C", "GM_SC", "EFGM_SC", "GM_ESC", "EFGM_ESC")


@pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
def test_fit_layout(kind):
    fit = fit_model(kind, WINDOW)
    assert {name for name in OPTIONAL_FIELDS if getattr(fit, name) is not None} \
        == SET_FIELDS[kind]
    assert fit.a is not None and fit.x0_1 == WINDOW[0] and fit.window_len == WINDOW.size
    if kind in TRIG_KINDS:
        assert fit.omega == DEFAULT_OMEGA[kind]


@pytest.mark.parametrize("steps", [1, 3])
@pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
def test_one_window_equals_the_stack(kind, steps):
    stacked = forecast_windows(fit_windows(kind, WINDOW[None]), steps)
    assert float(stacked[0]).hex() == forecast(fit_model(kind, WINDOW), steps).hex()
