import numpy as np
import pytest

from eivtls.errors import InvalidParams
from eivtls.linalg import as_matrix, as_vector


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
