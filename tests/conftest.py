import numpy as np
import pytest

from weaksparse.dyadic import GridConfig
from weaksparse.measure import GridFunction
from weaksparse.verify import _random_exponents as random_exponents
from weaksparse.verify import _random_nonneg
from weaksparse.verify import _random_weight as random_weight


@pytest.fixture
def rng():
    return np.random.default_rng(314159)


def random_function(rng, cfg, signed=False) -> GridFunction:
    if signed:
        return GridFunction(cfg, rng.normal(0.0, 2.0, cfg.cell_count))
    return _random_nonneg(rng, cfg)


CFG1 = GridConfig(1, 4)
CFG2 = GridConfig(2, 3)
