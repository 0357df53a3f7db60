import numpy as np
import pytest

from fisher_fair.errors import ValidationError
from fisher_fair.sampling import sample_document


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
def test_bad_seed_raises_validation_error(seed):
    with pytest.raises(ValidationError, match="seed"):
        sample_document(2, 2, seed)


def test_numpy_integer_seed():
    assert sample_document(3, 2, np.int64(4)) == sample_document(3, 2, 4)
