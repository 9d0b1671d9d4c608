"""Malformed ``synth`` parameters are input errors, not crashes.

A non-numeric or non-finite value, a count or position (``n``, ``start``,
``recover``, ``ramp``) that is not a whole number, a seasonal period of 0 and
an exponential ``a`` of -2 (its recursion divides by 1 + a/2) make
``generate_synthetic`` raise ``InvalidInputError`` naming the key, and the
CLI exit 2 with that message and no numpy warning. So do a bool, which is
no number, and finite values whose series is not finite (a period of
1e-320, or a mean and an amplitude of 1e308 each); that message names the
generator and every parameter given.
"""
import warnings

import numpy as np
import pytest

from greycast.cli import EXIT_INVALID_INPUT, EXIT_OK, main
from greycast.data import _GENERATORS, generate_synthetic
from greycast.errors import InvalidInputError

BAD = [
    ("seasonal", "n", "abc"),
    ("seasonal", "n", ""),
    ("seasonal", "n", "nan"),
    ("seasonal", "n", "inf"),
    ("seasonal", "n", "2.5"),
    ("seasonal", "period", "0"),
    ("seasonal", "amp", "-inf"),
    ("incident", "start", "nan"),
    ("incident", "ramp", "inf"),
    ("incident", "recover", "240.5"),
    ("logistic", "n", "1e400"),
    ("exponential", "a", "-2"),
    ("seasonal", "period", "1e-320"),
]

#: Finite parameters whose series is not finite.
NOT_FINITE = [
    ("seasonal", {"period": "1e-320"}),
    ("seasonal", {"mean": "1e308", "amp": "1e308"}),
    ("logistic", {"cap": "1e308", "sigma": "1e308"}),
    ("incident", {"base": "1e308", "drop": "-1e308"}),
]


@pytest.mark.parametrize("generator, key, raw", BAD, ids=[f"{g}-{k}={r}" for g, k, r in BAD])
def test_cli_exits_2_naming_the_key(generator, key, raw, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning is a leak too
        code = main(["synth", generator, "--params", f"{key}={raw}"])
    assert code == EXIT_INVALID_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"parameter {key} " in captured.err


@pytest.mark.parametrize("generator, key, raw", BAD, ids=[f"{g}-{k}={r}" for g, k, r in BAD])
def test_the_api_raises_the_same_error(generator, key, raw):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match=f"parameter {key} "):
            generate_synthetic(generator, seed=1, **{key: raw})


@pytest.mark.parametrize("value", [2.5, float("nan"), None, "x"])
def test_the_api_checks_values_it_is_given_as_numbers(value):
    with pytest.raises(InvalidInputError, match="parameter n "):
        generate_synthetic("seasonal", seed=1, n=value)


def test_a_whole_count_written_as_a_float_is_valid(capsys):
    assert main(["synth", "seasonal", "--params", "n=1e2", "sigma=0.5"]) == EXIT_OK
    scientific = capsys.readouterr().out
    assert main(["synth", "seasonal", "--params", "n=100", "sigma=0.5"]) == EXIT_OK
    assert capsys.readouterr().out == scientific
    assert len(scientific.splitlines()) == 101
    assert len(generate_synthetic("incident", seed=1, n=300.0, start=10.0)) == 300


@pytest.mark.parametrize("generator, params", NOT_FINITE,
                         ids=["-".join(f"{k}={v}" for k, v in p.items()) for _, p in NOT_FINITE])
def test_a_series_that_is_not_finite_is_refused_naming_its_parameters(generator, params, capsys):
    argv = ["synth", generator, "--params"] + [f"{k}={v}" for k, v in params.items()]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == EXIT_INVALID_INPUT
        with pytest.raises(InvalidInputError, match=f"{generator} gives a non-finite value"):
            generate_synthetic(generator, seed=1, **params)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {generator} gives a non-finite value at index " in captured.err
    for key in params:
        assert f"parameter {key} = " in captured.err


PARAMETERS = [(g, k) for g, (_, table) in _GENERATORS.items() for k in table]


@pytest.mark.parametrize("value", [True, False, np.bool_(True), np.bool_(False)])
@pytest.mark.parametrize("generator, key", PARAMETERS, ids=[f"{g}-{k}" for g, k in PARAMETERS])
def test_a_bool_is_no_parameter_value(generator, key, value):
    with pytest.raises(InvalidInputError, match=f"parameter {key} must be a (whole|finite) number"):
        generate_synthetic(generator, seed=1, **{"n": 300, key: value})
