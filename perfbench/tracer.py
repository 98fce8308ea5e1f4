"""Per-layer tracing of weaksparse from outside the program.

The tracer wraps public functions of ``weaksparse.<module>`` while it is
installed and restores the originals when it is removed.  A wrapper is
put into every weaksparse module namespace that holds the function, so
calls through ``from .x import f`` names are seen too.

Span wrappers record one span per call (id, parent span id, name, start,
end, run id) and accumulate per layer: ``calls``, ``total_s`` (span
time), ``self_s`` (span time minus the time of its child spans) and
layer-specific counts.  The four hottest entry points (``parent``,
``stopping_parent`` and the ``DyadicCube`` and ``GridFunction``
constructors) only count, because a span each would cost more than the
call.  Work the tracer does itself after a call (hashing inputs, sizing
files) is charged to neither the span nor its parent's self time.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
import sys
import time
from collections import defaultdict

import numpy as np

#: Keys that are exact counts; two traced runs on one input must agree on them.
COUNT_KEYS = (
    "calls", "count", "cells", "cubes", "bytes",
    "distinct", "kept", "scanned", "selected", "candidates",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _cells(tracer, st, args, kwargs, result):
    st["cells"] += np.asarray(args[0]).size


def _weak_norm_cells(tracer, st, args, kwargs, result):
    st["cells"] += _arg(args, kwargs, 0, "f").values.size


def _cubes(tracer, st, args, kwargs, result):
    st["cubes"] += len(_arg(args, kwargs, 0, "S"))


def _distinct_input(tracer, st, args, kwargs, result):
    """Count distinct input arrays by content; a repeat is recomputed work."""
    arr = args[0] if args else kwargs["values"]
    hit = tracer.seen_inputs.get(id(arr))
    if hit is None or hit[0] is not arr:
        data = np.ascontiguousarray(arr)
        digest = hashlib.blake2b(data.view(np.uint8), digest_size=16)
        digest.update(repr((data.dtype.str, data.shape)).encode())
        # Holding the array keeps its id from being reused within the run.
        hit = tracer.seen_inputs[id(arr)] = (arr, digest.digest())
    tracer.distinct_inputs.add(hit[1])
    st["distinct"] = len(tracer.distinct_inputs)


def _kept(tracer, st, args, kwargs, result):
    config = _arg(args, kwargs, 0, "config")
    st["kept"] += len(result)
    st["scanned"] += sum(config.level_cube_count(k) for k in range(config.finest_level + 1))


def _selected(tracer, st, args, kwargs, result):
    st["selected"] += len(result.members)
    st["candidates"] += len(_arg(args, kwargs, 0, "S"))


def _bytes_read(tracer, st, args, kwargs, result):
    st["bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _bytes_written(tracer, st, args, kwargs, result):
    st["bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


#: Span-wrapped functions, as (module, function, extra statistics).
SPANNED = (
    ("dyadic", "level_averages", _distinct_input),
    ("dyadic", "cube_sums", _cells),
    ("measure", "weak_norm", _weak_norm_cells),
    ("measure", "lp_norm", None),
    ("measure", "dual_weight", None),
    ("measure", "joint_weight", None),
    ("sparse", "sparse_eval", _cubes),
    ("sparse", "generate_sparse", _kept),
    ("sparse", "verify_sparse", None),
    ("sparse", "family_forest", None),
    ("sparse", "restrict", None),
    ("stopping", "build_stopping", _selected),
    ("stopping", "carleson_checks", None),
    ("stopping", "bilinear_form_decompose", None),
    ("testing_conditions", "global_weak_quantity", None),
    ("testing_conditions", "local_testing_quantity", None),
    ("testing_conditions", "local_sigma_testing_ratio", None),
    ("testing_conditions", "sparse_sum_norm_ratios", None),
    ("constants", "ap_constant", None),
    ("constants", "apvec_constant", None),
    ("constants", "ainfty_constant", None),
    ("constants", "check_constant_inequalities", None),
    ("serialize", "load_weight", _bytes_read),
    ("serialize", "load_grid_function", _bytes_read),
    ("serialize", "load_sparse_family", _bytes_read),
    ("serialize", "save_grid_function", _bytes_written),
    ("serialize", "write_region_csv", _bytes_written),
    ("exponents", "region_map", None),
    ("exponents", "region_svg", None),
    ("families", "build_family", None),
    ("experiment", "slope_experiment", None),
)

#: Count-only functions.
COUNTED = (("dyadic", "parent"), ("stopping", "stopping_parent"))


class Tracer:
    """Spans and per-layer statistics of the runs made while installed."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[tuple] = []
        self._next_id = 0
        self._stack: list[list] = []  # [span id, time charged by children]
        self._patches: list[tuple] = []
        self.run = None
        self.stats: dict = {}
        # level_averages inputs of the current run: id -> (array, digest).
        self.seen_inputs: dict = {}
        self.distinct_inputs: set = set()

    # -- installation -------------------------------------------------------

    def install(self, run: int) -> None:
        """Start run `run`: fresh statistics, wrappers in place."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.run = run
        self.stats = defaultdict(lambda: defaultdict(float))
        self.seen_inputs = {}
        self.distinct_inputs = set()
        for module, func, extra in SPANNED:
            span = functools.partial(self._spanned, f"{module}.{func}", extra=extra)
            self._replace(module, func, span)
        for module, func in COUNTED:
            self._replace(module, func, functools.partial(self._counted, f"{module}.{func}"))
        self._patch_constructors()
        self._patch_checks()

    def remove(self) -> dict:
        """Restore every original and return this run's statistics."""
        for obj, name, original, is_item in reversed(self._patches):
            if is_item:
                obj[name] = original
            else:
                setattr(obj, name, original)
        self._patches.clear()
        self.seen_inputs = {}
        return {name: dict(st) for name, st in self.stats.items()}

    def _set(self, obj, name, value, is_item=False):
        original = obj[name] if is_item else getattr(obj, name)
        self._patches.append((obj, name, original, is_item))
        if is_item:
            obj[name] = value
        else:
            setattr(obj, name, value)

    def _replace(self, module: str, func: str, make) -> None:
        original = getattr(importlib.import_module(f"weaksparse.{module}"), func)
        wrapper = make(original)
        for modname, mod in list(sys.modules.items()):
            if modname == "weaksparse" or modname.startswith("weaksparse."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)

    def _patch_constructors(self) -> None:
        from weaksparse.dyadic import DyadicCube
        from weaksparse.measure import GridFunction

        cubes = self.stats["dyadic.DyadicCube"]
        post_init = DyadicCube.__post_init__

        def counted_post_init(cube):
            cubes["count"] += 1
            post_init(cube)

        functions = self.stats["measure.GridFunction"]
        init = GridFunction.__init__

        def counted_init(fn, config, values):
            init(fn, config, values)
            functions["cells"] += config.cell_count

        self._set(DyadicCube, "__post_init__", counted_post_init)
        self._set(GridFunction, "__init__", counted_init)

    def _patch_checks(self) -> None:
        from weaksparse import verify

        for name, check in list(verify._CHECKS.items()):
            wrapper = self._spanned(f"verify.{name}", check, None)
            self._set(verify._CHECKS, name, wrapper, is_item=True)

    # -- wrappers -----------------------------------------------------------

    def _counted(self, name, fn):
        st = self.stats[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st["calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, name, fn, extra):
        st = self.stats[name]
        stack, spans = self._stack, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [self._next_id, 0.0]
            self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                st["calls"] += 1
                st["total_s"] += duration
                st["self_s"] += duration - frame[1]
                spans.append((frame[0], parent[0] if parent else None, name, start, end, self.run))
                if parent is not None:
                    parent[1] += duration
            if extra is not None:
                extra(self, st, args, kwargs, result)
                if parent is not None:
                    parent[1] += clock() - end
            return result

        return wrapper

    # -- output -------------------------------------------------------------

    def span_records(self) -> list[list]:
        """Spans with times in seconds from the tracer's creation."""
        t0 = self.origin
        return [[i, p, n, round(s - t0, 9), round(e - t0, 9), r] for i, p, n, s, e, r in self.spans]


def counts(stats: dict) -> dict:
    """The exact-count part of one run's statistics."""
    return {
        name: {k: v for k, v in st.items() if k in COUNT_KEYS}
        for name, st in sorted(stats.items())
    }
