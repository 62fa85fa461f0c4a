import numpy as np
import pytest

from eivtls.errors import InvalidParams
from eivtls.linalg import as_integer, as_matrix, as_vector


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
