import dataclasses

import numpy as np
import pytest


def _leaves(x):
    if isinstance(x, np.ndarray):
        return x.tobytes()
    if dataclasses.is_dataclass(x):
        return tuple(_leaves(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, tuple):
        return tuple(_leaves(v) for v in x)
    return x


@pytest.fixture(scope="session")
def feature_leaves():
    """Every array (as raw bytes) and scalar of a fused feature, in order:
    two features are equal bit for bit when their leaves compare equal."""
    return _leaves
