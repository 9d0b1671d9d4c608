"""A window gets the same bits in a window-last stack as alone.

``fit_windows`` and ``fit_esc_windows`` work on ``windows.T``: for a
``series.window_view`` stack, row j of it is one contiguous slice of the
series, and the mean sequence, design columns and targets are (N,) rows too.
The solvers take (N, m, p) views of those rows. These tests check, for each
grey kind and stack sizes from 1 up to ``BATCH_WINDOWS``, that every
window's fit, forecasts, fitted values and errors equal those of the
one-window calls, in float hex; and that ``solve_stacked`` and
``solve_shared`` give the same bytes for a C-ordered (N, m, p) stack and for
the view of its window-last rows. They pin behaviour the layout must not
change, so they hold for a window-first implementation as well.
"""
import math

import numpy as np
import pytest

from greycast import lstsq, models
from greycast.errors import GreycastError
from greycast.models import (
    ModelKind,
    fit_esc_windows,
    fit_model,
    fit_windows,
    fitted_values,
    fitted_windows,
    forecast,
    forecast_windows,
)
from greycast.rolling import BATCH_WINDOWS
from greycast.series import window_view

SIZES = sorted({1, 2, 3, 5, 7, 11, 13, 284, 1436, BATCH_WINDOWS})
HORIZONS = (1, 3)


def adversarial_series(length):
    """Blocks of 3 to 9 values, so that windows straddle them: seasonal
    (level 50, which passes the projection's gate, and level 5e4, which does
    not), zero and stuck runs, near-constant values, spikes, negative and
    non-finite values, and seasonal blocks scaled by 2^k up to where the
    fits fall back."""
    rng = np.random.default_rng(2020)
    blocks = []
    while sum(map(len, blocks)) < length:
        size = int(rng.integers(3, 10))
        k = np.arange(size)
        seasonal = 50.0 + 10.0 * np.sin(0.7 * k + rng.uniform(0, 6)) + rng.normal(0, 1, size)
        choice = len(blocks) % 12
        if choice == 0:
            block = seasonal
        elif choice == 1:
            block = np.zeros(size)
        elif choice == 2:
            block = np.full(size, rng.uniform(1, 100))
        elif choice == 3:
            block = 100.0 * (1.0 + 1e-13 * rng.normal(size=size))
        elif choice == 4:
            block = rng.uniform(1, 10, size)
            block[rng.integers(size)] = 1e6
        elif choice == 5:
            block = seasonal - 55.0
        elif choice == 6:
            block = seasonal.copy()
            block[rng.integers(size)] = (math.nan, math.inf, -math.inf)[len(blocks) % 3]
        elif choice == 7:
            block = 1e3 * seasonal
        else:
            block = seasonal * 2.0 ** float(rng.choice([-1074, -1040, -900, -520, 300,
                                                        700, 1010, 1015]))
        blocks.append(block)
    return np.concatenate(blocks)[:length]


SERIES = adversarial_series(BATCH_WINDOWS + 80)


def stacks(w):
    """(N, stack) pairs: each size's windows as a strided view of the series,
    at several offsets for the small sizes so they meet every block kind."""
    for n in SIZES:
        offsets = range(0, 70, 7) if n < 50 else (0,)
        for offset in offsets:
            yield n, window_view(SERIES[offset:], w, n)


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


def error(exc):
    return type(exc), str(exc)


def one_window(kind, window, omega):
    """What the one-window calls give for ``window``: the fit's error, or
    its parameters and each horizon's forecast (or error) and the fitted
    values (or error). A non-finite window, which ``fit_model`` refuses
    before fitting, is fitted as a stack of one."""
    try:
        if np.isfinite(window).all():
            fit = fit_model(kind, window, omega)
        else:
            with np.errstate(all="ignore"):
                fits = fit_windows(kind, window[None], omega)
            fits.failures.raise_first()
    except GreycastError as exc:
        return ("fit", error(exc))
    fields = models._KINDS[kind].fields
    params = hexes([fit.a] + [getattr(fit, name) if name else 0.0 for name in fields])
    out = [params]
    for h in HORIZONS:
        try:
            out.append(float(forecast(fit, h)).hex())
        except GreycastError as exc:
            out.append(error(exc))
    try:
        out.append(hexes(fitted_values(fit)))
    except (GreycastError, OverflowError) as exc:
        out.append(error(exc))
    return tuple(out)


def in_stack(fits, i, forecasts, fitted):
    """The same for window i of ``fits``, from the stack's arrays and errors
    (a stack of one holds its parameters as floats)."""
    if i in fits.failures.errors:
        return ("fit", error(fits.failures.errors[i]))
    out = [hexes([np.atleast_1d(v)[i] for v in (fits.a, fits.b, fits.bs, fits.bc)])]
    for failures, values in forecasts:
        out.append(error(failures.errors[i]) if i in failures.errors
                   else float(values[i]).hex())
    failures, values = fitted
    if i in failures.overflows:  # the bare closed form lets math.exp's error out
        out.append((OverflowError, "math range error"))
    else:
        out.append(error(failures.errors[i]) if i in failures.errors else hexes(values[i]))
    return tuple(out)


def evaluate(fits):
    """Forecasts at each horizon and fitted values, each on its own copy of
    the fit's failures, with the failures they leave."""
    forecasts = []
    with np.errstate(all="ignore"):
        for h in HORIZONS:
            own = fits._replace(failures=fits.failures.copy())
            forecasts.append((own.failures, forecast_windows(own, h)))
        own = fits._replace(failures=fits.failures.copy())
        fitted = (own.failures, fitted_windows(own))
    return forecasts, fitted


# Each kind at its default frequency, then GM_C at 0.05, where the windows
# lie above the kappa_F gate and both feeds solve them by LAPACK, and GM_ESC
# at a frequency other than its default.
CASES = [(kind, models.DEFAULT_OMEGA.get(kind)) for kind in ModelKind] + [
    (ModelKind.GM_C, 0.05), (ModelKind.GM_ESC, 1.3)]


@pytest.mark.parametrize("kind, omega", CASES, ids=[
    kind.value if omega == models.DEFAULT_OMEGA.get(kind) else f"{kind.value}-{omega}"
    for kind, omega in CASES])
def test_every_window_of_a_stack_equals_its_one_window_calls(kind, omega):
    w = models.MIN_WINDOW[kind]
    checked = set()
    for n, stack in stacks(w):
        with np.errstate(all="ignore"):
            fits = fit_windows(kind, stack, omega)
        forecasts, fitted = evaluate(fits)
        for i in range(n):
            got = in_stack(fits, i, forecasts, fitted)
            assert got == one_window(kind, np.array(stack[i]), omega), (n, i, stack[i])
            checked.add(got[0] == "fit")
    assert checked == {True, False}  # both fitted and failed windows were seen


@pytest.mark.parametrize("kind, omega", CASES, ids=[
    kind.value if omega == models.DEFAULT_OMEGA.get(kind) else f"{kind.value}-{omega}"
    for kind, omega in CASES])
@pytest.mark.parametrize("w", [4, 7])
def test_an_empty_stack_gives_empty_fits_and_forecasts(kind, omega, w):
    """A stack of no windows fits none and fails none: its forecasts are a
    (0,) array and its fitted values a (0, w - 1) one."""
    with np.errstate(all="ignore"):
        fits = fit_windows(kind, np.zeros((0, w)), omega)
        forecasts = [forecast_windows(fits, h) for h in HORIZONS]
        fitted = fitted_windows(fits)
    assert [f.shape for f in forecasts] == [(0,)] * len(HORIZONS)
    assert fitted.shape == (0, w - 1)
    assert np.size(fits.a) == 0 and fits.failures.failed.shape == (0,)
    assert not fits.failures.errors


def test_gm_c_windows_at_omega_005_lie_above_the_gate():
    """The GM_C case at omega = 0.05 reaches LAPACK: its block has factors,
    but nearly every window of the series fails the kappa_F gate (those
    that pass start with a run of zeros or subnormals)."""
    stack = window_view(SERIES, 4, BATCH_WINDOWS)
    block = models._shared_block(ModelKind.GM_C, 4, 0.05)
    x = np.array(stack[np.isfinite(stack).all(axis=1) & (stack >= 0).all(axis=1)])
    with np.errstate(all="ignore"):
        _, bound = lstsq._project_stack(-models._mean_sequence(x), x[:, 1:], block)
    passed = np.count_nonzero(bound <= lstsq.SHARED_CONDITION_LIMIT ** 2)
    assert block.basis is not None
    assert 0 < passed < bound.size / 10


def test_the_stacks_reach_the_edges():
    """The stacks mix projected windows with windows above the kappa_F gate,
    and their windows fail in every way the fits report."""
    w = 4
    stack = window_view(SERIES, w, BATCH_WINDOWS)
    block = models._shared_block(ModelKind.GM_C, w, models.DEFAULT_OMEGA[ModelKind.GM_C])
    finite = np.isfinite(stack).all(axis=1) & (stack >= 0).all(axis=1)
    x = np.array(stack[finite])
    z = models._mean_sequence(x)
    designs = np.empty(z.shape + (3,))
    designs[..., 0] = -z
    designs[..., 1:] = block.columns
    with np.errstate(all="ignore"):
        _, bound = lstsq._project_stack(designs[:, :, 0], x[:, 1:], block)
        passed = bound <= lstsq.SHARED_CONDITION_LIMIT ** 2
    assert passed.any() and not passed.all()
    messages = set()
    for kind in ModelKind:
        with np.errstate(all="ignore"):
            fits = fit_windows(kind, window_view(SERIES, models.MIN_WINDOW[kind], 600))
            forecast_windows(fits, 3)
        messages.update(str(e).split(" (")[0] for e in fits.failures.errors.values())
    assert {"window contains non-finite values", "least-squares entries must be finite",
            "Verhulst fit needs strictly positive values"} <= messages
    assert any(m.startswith("negative value") for m in messages)
    assert any(m.startswith("near-singular system") for m in messages)


@pytest.mark.parametrize("n", SIZES)
def test_esc_stage_two_damping_that_underflows_fails_alike(n):
    """A stage one whose a makes e^(-k a) under- or overflow (set by hand:
    no non-negative window gives |a| > 2) fails those windows in a stack as
    in a stack of one."""
    k = np.arange(n + 3.0)
    stack = window_view(50.0 + 10.0 * np.sin(0.7 * k) + np.cos(2.3 * k), 4, n)
    with np.errstate(all="ignore"):
        stage_one = fit_windows(ModelKind.GM11, stack)
        a = np.atleast_1d(stage_one.a).copy()
        a[::3] = 300.0
        a[1::3] = -300.0
        stage_one = stage_one._replace(a=a if n > 1 else float(a[0]))
        fits = fit_esc_windows(stage_one, stack, 74.1)
        forecasts, fitted = evaluate(fits)
        for i in range(n):
            one = fit_windows(ModelKind.GM11, stack[i:i + 1])._replace(a=float(a[i]))
            alone = fit_esc_windows(one, stack[i:i + 1], 74.1)
            alone_forecasts, alone_fitted = evaluate(alone)
            assert (in_stack(fits, i, forecasts, fitted)
                    == in_stack(alone, 0, alone_forecasts, alone_fitted))
    assert str(fits.failures.errors[0]) == (
        "stage-2 design degenerate: e^(-k a) underflowed or overflowed")


def systems(kind, n, k=None):
    """C-ordered (N, m, p) designs and (N, m) or (N, m, k) targets of
    ``kind`` on n windows of the series, less its signs, and its block."""
    w = models.MIN_WINDOW[kind]
    stack = np.array(window_view(np.abs(np.nan_to_num(SERIES, posinf=1.0, neginf=1.0)),
                                 w, n))
    with np.errstate(all="ignore"):
        z = models._mean_sequence(stack)
    trig = models._KINDS[kind].trig
    block = None
    designs = np.empty(z.shape + (2 + len(trig),))
    designs[..., 0] = -z
    if kind is ModelKind.GVM:
        with np.errstate(all="ignore"):
            designs[..., 1] = z * z
    elif trig:
        block = models._shared_block(kind, w, models.DEFAULT_OMEGA[kind])
        designs[..., 1:] = block.columns
    else:
        designs[..., 1] = 1.0
    targets = stack[:, 1:]
    if k is not None:
        targets = np.stack([targets * (j + 1.0) for j in range(k)], axis=2)
    # The solvers take finite systems: a fit zeroes what is not.
    return (np.nan_to_num(designs, nan=0.0, posinf=0.0, neginf=0.0),
            np.nan_to_num(targets, nan=0.0, posinf=0.0, neginf=0.0), block)


def window_last(array):
    """``array`` as the view of its window-last rows, a C-ordered copy of
    ``array.T``."""
    return np.ascontiguousarray(array.T).T


def assert_same_bytes(left, right):
    for a, b in zip(left, right):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", [ModelKind.GM11, ModelKind.GVM, ModelKind.GM_S,
                                  ModelKind.GM_C, ModelKind.GM_SC], ids=lambda k: k.value)
def test_solvers_give_the_same_bytes_for_either_layout(kind, n):
    designs, targets, block = systems(kind, n)
    with np.errstate(all="ignore"):
        assert_same_bytes(lstsq.solve_stacked(designs, targets),
                          lstsq.solve_stacked(window_last(designs), window_last(targets)))
        if block is not None:
            assert_same_bytes(
                lstsq.solve_shared(designs, targets, block),
                lstsq.solve_shared(window_last(designs), window_last(targets), block))


@pytest.mark.parametrize("n", SIZES)
def test_several_right_hand_sides_give_the_same_bytes_for_either_layout(n):
    designs, targets, _ = systems(ModelKind.GM11, n, k=3)
    with np.errstate(all="ignore"):
        assert_same_bytes(lstsq.solve_stacked(designs, targets),
                          lstsq.solve_stacked(window_last(designs), window_last(targets)))
