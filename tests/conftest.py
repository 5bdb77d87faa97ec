import warnings

import numpy as np
import pytest

from fuselab import TrainConfig, generate, train
from fuselab.trainer import seeds_for

# hypothesis imports this module only once a property fails, to print the
# failing example. It pulls in libcst, whose import warns DeprecationWarning,
# and pyproject's filterwarnings would end the whole session in INTERNALERROR.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is optional
        pass


@pytest.fixture(scope="session")
def small_task():
    """A quick 4-class problem for unit tests."""
    train_ds = generate(4, 100, 8, seed=11)
    test_ds = generate(4, 100, 8, seed=11, sample_salt=1)
    return train_ds, test_ds


@pytest.fixture(scope="session")
def small_pair(small_task):
    """Two lightly trained models on the small task."""
    train_ds, _ = small_task
    models = []
    for s in (0, 1):
        init_seed, shuffle_seed = seeds_for(s)
        cfg = TrainConfig(
            hidden_widths=(16, 16),
            epochs=8,
            init_seed=init_seed,
            shuffle_seed=shuffle_seed,
        )
        models.append(train(train_ds, cfg))
    return models


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
