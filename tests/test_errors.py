"""errors.named, the one rule that puts an input's name in front of an error."""

import pytest

from lfalloc import DegenerateWeights, InfeasibleBudget, ParseError
from lfalloc.errors import named


def raised(error, *kinds):
    """The error that leaves a named("in.txt", *kinds) block raising error."""
    with pytest.raises(Exception) as info:
        with named("in.txt", *kinds):
            raise error
    return info.value


def test_a_value_error_becomes_a_named_parse_error_chained_from_it():
    original = ValueError("budget must be positive and finite")
    error = raised(original)
    assert type(error) is ParseError
    assert str(error) == "in.txt: budget must be positive and finite"
    assert error.__cause__ is original


@pytest.mark.parametrize("kind", [DegenerateWeights, InfeasibleBudget])
def test_a_package_error_keeps_its_type(kind):
    original = kind("all frame weights are zero")
    error = raised(original)
    assert type(error) is kind
    assert str(error) == "in.txt: all frame weights are zero"
    assert error.__cause__ is original


def test_kinds_restrict_what_is_named():
    assert type(raised(DegenerateWeights("zero"), DegenerateWeights)) is DegenerateWeights
    original = ValueError("bad")
    assert raised(original, DegenerateWeights) is original
    assert str(original) == "bad" and original.__cause__ is None


@pytest.mark.parametrize("original", [KeyError("width"), OSError("no such file")])
def test_an_error_outside_the_default_kinds_passes_through_untouched(original):
    error = raised(original)
    assert error is original and error.__cause__ is None


def test_a_block_that_raises_nothing_is_left_alone():
    with named("in.txt"):
        value = 1
    assert value == 1
