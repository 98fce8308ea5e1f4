import numpy as np
import pytest

from weaksparse.dyadic import GridConfig
from weaksparse.measure import GridFunction
from weaksparse.sparse import family_forest
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


def stopping_children(fam) -> dict[int, list[int]]:
    """Each member's stopping children, as positions of its family in key
    order: the later members whose minimal strict ancestor in the family
    has that member as stopping parent."""
    up = family_forest(fam.family)
    members = fam.members.tolist()
    kids = {m: [] for m in members}
    for c in members:
        if fam.generation[c] > 0:
            kids[int(fam.top[up[c]])].append(c)
    return kids


def member_cubes(fam) -> frozenset:
    """The members of a stopping family as cubes."""
    return frozenset(fam.family.cube_at(j) for j in fam.members.tolist())
