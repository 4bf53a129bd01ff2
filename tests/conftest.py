"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from psrank.tensor import precision


@pytest.fixture
def float64():
    """Run the test with the tape in float64, the precision of the checks
    that compare bytes with a float64 oracle or a pinned digest, or values
    with a tolerance below float32's resolution."""
    with precision(np.float64):
        yield
