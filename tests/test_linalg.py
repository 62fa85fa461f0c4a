import numpy as np
import pytest

from eivtls.errors import InvalidParams
from eivtls.linalg import as_integer, as_matrix, as_number, as_vector


class TestValidators:
    def test_rejects_nan(self):
        with pytest.raises(InvalidParams):
            as_matrix([[1.0, np.nan]])
        with pytest.raises(InvalidParams):
            as_vector([np.inf])

    def test_rejects_wrong_rank(self):
        with pytest.raises(InvalidParams):
            as_matrix([1.0, 2.0])
        with pytest.raises(InvalidParams):
            as_vector([[1.0]])

    def test_integer_refuses_fractions(self):
        assert as_integer(7.0, "n") == 7 and as_integer(7, "n") == 7
        for value in (2.5, np.nan, np.inf, np.float32(2.5)):
            with pytest.raises(InvalidParams, match="n must be a whole number"):
                as_integer(value, "n")

    def test_integer_refuses_strings_and_bools(self):
        for value in ("500", "7.0", np.str_("3"), True, False, np.bool_(True)):
            with pytest.raises(InvalidParams, match="n must be a whole number"):
                as_integer(value, "n")
        for value in (np.int64(-7), np.uint64(7), np.int32(7), np.float64(7.0)):
            result = as_integer(value, "n")
            assert type(result) is int and abs(result) == 7

    @pytest.mark.parametrize("value", ["1", True, np.bool_(False), None, [1.0], 1j, np.complex128(1)])
    def test_number_refuses_anything_but_integers_and_floats(self, value):
        with pytest.raises(InvalidParams, match="x must be a number"):
            as_number(value, "x")
        with pytest.raises(InvalidParams, match="x must be a whole number"):
            as_integer(value, "x")

    def test_number_returns_a_float(self):
        for value in (2, 2.0, np.int64(2), np.uint8(2), np.float32(2.0), 10**30):
            result = as_number(value, "x")
            assert type(result) is float and result == float(value)

    @pytest.mark.parametrize(
        "entries",
        [["1", "2"], [True, False], [1.0, True], [1.0, np.True_], [1.0, None], [[1.0], [1.0, 2.0]],
         [1.0, 1j]],
    )
    def test_arrays_refuse_entries_that_are_not_numbers(self, entries):
        with pytest.raises(InvalidParams):
            as_vector(entries)
        with pytest.raises(InvalidParams):
            as_matrix([entries, entries])
