"""``synth`` refuses parameters its generator does not read, counts below 1
and a negative noise level, naming the key, where it used to drop or ignore
them and write a series; and a series longer than ``MAX_SYNTH_POINTS``,
before building any of it.

A misspelt key (``sigmaa``) wrote the noiseless series, ``n=0`` wrote one
row of ``exponential``, ``ramp=0`` wrote an ``incident`` without its ramp and
``sigma=-1`` wrote the noiseless series. Each now raises ``InvalidInputError``
and the CLI exits 2 with the message and no output.
"""
import pytest

from greycast import data
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


TOO_LONG = [
    ("exponential", ["n=1e18"], "parameter n must be at most 10000000, got '1e18'"),
    ("exponential", ["n=10000001"], "parameter n must be at most 10000000, got '10000001'"),
    ("seasonal", ["n=1e18"], "parameter n must be at most 10000000, got '1e18'"),
    ("logistic", ["n=1e18"], "parameter n must be at most 10000000, got '1e18'"),
    ("incident", ["n=1e18"], "parameter n must be at most 10000000, got '1e18'"),
    ("incident", ["recover=1e18"],
     "incident's default n = recover + 30 = 1000000000000000030 is above 10000000; give n"),
    ("incident", ["ramp=1e12"], "parameter ramp must be at most n = 288, got 1000000000000"),
    ("incident", ["n=300", "ramp=301"], "parameter ramp must be at most n = 300, got 301"),
]


@pytest.mark.parametrize("generator, params, message", TOO_LONG,
                         ids=[f"{g}-{'-'.join(p)}" for g, p, _ in TOO_LONG])
def test_a_series_too_long_to_build_is_refused_before_it_is_built(generator, params, message,
                                                                  capsys):
    """Each of these looped for hours or ran out of memory; the refusal comes
    before any value is generated."""
    with pytest.raises(InvalidInputError) as err:
        generate_synthetic(generator, seed=1, **dict(p.split("=") for p in params))
    assert str(err.value) == message
    assert main(["synth", generator, "--params", *params]) == EXIT_INVALID_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("generator", sorted(ACCEPTED))
def test_the_longest_series_is_built(generator, monkeypatch):
    """At a cap of 400 points, n = 400 is built and n = 401 refused; incident's
    default n follows recover, and a ramp may be as long as the series."""
    monkeypatch.setattr(data, "MAX_SYNTH_POINTS", 400)
    assert generate_synthetic(generator, seed=1, n="400").values.size == 400
    with pytest.raises(InvalidInputError, match="parameter n must be at most 400"):
        generate_synthetic(generator, seed=1, n="401")
    if generator == "incident":
        assert generate_synthetic(generator, seed=1, recover="370").values.size == 400
        with pytest.raises(InvalidInputError, match="default n = recover \\+ 30 = 401"):
            generate_synthetic(generator, seed=1, recover="371")
        assert generate_synthetic(generator, seed=1, n="300", ramp="300").values.size == 300
