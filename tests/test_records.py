"""Field converters: the strict read of one text and the bulk read of a
column hold a field to the same domain."""

import math

import pytest

from lfalloc import records

TEXTS = (
    "1", "-1", "0", "-0.0", "1.5", "nan", "inf", "-inf", "1e400", "5e-324",
    "x", "", " 7 ", "1_0", "0x10", "+3",
)
CONVERTERS = (
    records.integer, records.finite, records.nonnegative, records.positive, records.negative
)


@pytest.mark.parametrize("convert", CONVERTERS)
@pytest.mark.parametrize("text", TEXTS)
def test_a_column_reads_where_its_converter_reads(convert, text):
    """columns() gives None exactly where the converter raises, and
    otherwise the converter's value."""
    try:
        value = convert(text)
    except ValueError:
        assert records.columns([text], (convert,)) is None
    else:
        [column] = records.columns([text], (convert,))
        assert column.tolist() == [value]


@pytest.mark.parametrize(
    "convert, text, message",
    [
        (records.integer, "1.5", "not an integer '1.5'"),
        (records.positive_integer, " 0 ", "not a positive integer '0'"),
        (records.finite, "x", "not a number 'x'"),
        (records.finite, "nan", "non-finite number 'nan'"),
        # The finite check comes before the sign check.
        (records.nonnegative, "-inf", "non-finite number '-inf'"),
        (records.nonnegative, "-1", "negative number '-1'"),
        (records.positive, "0", "not a positive number '0'"),
        (records.negative, "-0.0", "not a negative number '-0.0'"),
    ],
)
def test_each_fault_is_phrased_with_the_stripped_text(convert, text, message):
    with pytest.raises(ValueError) as info:
        convert(text)
    assert str(info.value) == message


def test_negative_zero_is_nonnegative():
    value = records.nonnegative("-0.0")
    assert value == 0.0 and math.copysign(1.0, value) == -1.0
