"""The benchmark's tracer looks functions up by name; every name must resolve.

perfbench/tracer.py wraps weaksparse functions with getattr while a traced
run is installed, so a renamed or deleted function breaks only the traced
benchmark.  The file is executed here without writing anything next to it.
"""

import importlib
import runpy
from pathlib import Path

import numpy as np

from weaksparse.dyadic import GridConfig
from weaksparse.measure import GridFunction, Weight
from weaksparse.sparse import tower_family
from weaksparse.stopping import build_stopping

_TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    ns = runpy.run_path(str(_TRACER))
    names = [(m, f) for m, f, _ in ns["SPANNED"]] + list(ns["COUNTED"])
    assert names
    for module, func in names:
        assert callable(getattr(importlib.import_module(f"weaksparse.{module}"), func))


def test_build_stopping_has_sized_members():
    cfg = GridConfig(1, 3)
    fam = build_stopping(
        tower_family(cfg), GridFunction(cfg, np.arange(8.0)), Weight(cfg, np.ones(8))
    )
    assert len(fam.members) >= 1
