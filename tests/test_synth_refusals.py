"""``synth`` refuses parameters its generator does not read, counts below 1
and a negative noise level, naming the key, where it used to drop or ignore
them and write a series.

A misspelt key (``sigmaa``) wrote the noiseless series, ``n=0`` wrote one
row of ``exponential``, ``ramp=0`` wrote an ``incident`` without its ramp and
``sigma=-1`` wrote the noiseless series. Each now raises ``InvalidInputError``
and the CLI exits 2 with the message and no output.
"""
import pytest

from greycast.cli import EXIT_INVALID_INPUT, EXIT_OK, main
from greycast.data import generate_synthetic
from greycast.errors import InvalidInputError

ACCEPTED = {
    "exponential": "a, b, n, x1",
    "logistic": "cap, mid, n, rate, sigma",
    "seasonal": "amp, mean, n, period, sigma",
    "incident": "base, drop, n, ramp, recover, sigma, start",
}

UNKNOWN = [
    ("seasonal", "sigmaa"),
    ("seasonal", "ramp"),
    ("exponential", "sigma"),
    ("logistic", "period"),
    ("incident", "amp"),
]


@pytest.mark.parametrize("generator, key", UNKNOWN, ids=[f"{g}-{k}" for g, k in UNKNOWN])
def test_an_unknown_key_is_refused_naming_it_and_the_accepted_ones(generator, key, capsys):
    message = f"parameter {key} is not one of {generator}'s: {ACCEPTED[generator]}"
    with pytest.raises(InvalidInputError) as err:
        generate_synthetic(generator, seed=1, **{key: "0.5"})
    assert str(err.value) == message
    assert main(["synth", generator, "--params", "n=30", f"{key}=0.5"]) == EXIT_INVALID_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


BELOW = [
    ("exponential", "n", "0", "be at least 1"),
    ("exponential", "n", "-5", "be at least 1"),
    ("seasonal", "n", "0", "be at least 1"),
    ("logistic", "n", "-1", "be at least 1"),
    ("incident", "ramp", "0", "be at least 1"),
    ("incident", "ramp", "-3", "be at least 1"),
    ("seasonal", "sigma", "-1", "not be negative"),
    ("logistic", "sigma", "-0.5", "not be negative"),
    ("incident", "sigma", "-2", "not be negative"),
]


@pytest.mark.parametrize("generator, key, raw, rule", BELOW,
                         ids=[f"{g}-{k}={r}" for g, k, r, _ in BELOW])
def test_a_count_below_1_or_a_negative_sigma_is_refused(generator, key, raw, rule, capsys):
    with pytest.raises(InvalidInputError, match=f"parameter {key} must {rule}"):
        generate_synthetic(generator, seed=1, **{key: raw})
    assert main(["synth", generator, "--params", f"{key}={raw}"]) == EXIT_INVALID_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"parameter {key} must {rule}" in captured.err


@pytest.mark.parametrize("generator, params", [
    ("exponential", ["n=1"]),
    ("incident", ["ramp=1"]),
    ("seasonal", ["sigma=0"]),
    ("logistic", ["sigma=-0.0", "n=1"]),
])
def test_the_edges_are_accepted(generator, params):
    assert main(["synth", generator, "--params", *params]) == EXIT_OK
