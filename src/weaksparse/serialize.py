"""File formats: grid-function JSON, sparse-family JSON, CSV tables.

Grid functions serialize as {"dimension", "finest_level", "values"} with
values in lexicographic cell order; json float repr is the shortest
round-tripping decimal, so the round trip is bit exact for doubles.
CSV output uses 17 significant digits, '.' decimals, and LF endings so
repeated runs are byte identical.
"""

from __future__ import annotations

import json

import numpy as np

from .dyadic import DyadicCube, GridConfig
from .exponents import REGION_COLUMNS, RegionTable
from .measure import GridFunction, Weight
from .sparse import SparseFamily, family_from_cubes


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_bool(b) -> str:
    return "true" if b else "false"


def _read_json(path):
    """The parsed document and its raw bytes."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return json.loads(raw), raw
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: invalid JSON at byte offset {e.pos}: {e.msg}") from e
    except RecursionError as e:
        raise ValueError(f"{path}: JSON nested too deeply") from e


def save_grid_function(f: GridFunction, path) -> None:
    doc = {
        "dimension": f.config.dimension,
        "finest_level": f.config.finest_level,
        "values": f.values.tolist(),
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(doc))  # json.dump's bytes, but from the C encoder
        fh.write("\n")


def _load_payload(path) -> tuple[GridConfig, np.ndarray]:
    doc, raw = _read_json(path)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    for key in ("dimension", "finest_level", "values"):
        if key not in doc:
            raise ValueError(f"{path}: missing field '{key}'")
    for key in ("dimension", "finest_level"):
        if type(doc[key]) is not int:
            raise ValueError(f"{path}: field '{key}' must be an integer")
    cfg = GridConfig(doc["dimension"], doc["finest_level"])
    try:
        values = np.asarray(doc["values"])  # no dtype: strings and nulls stay visible
    except ValueError:  # ragged nesting
        values = None
    if values is None or values.dtype.kind not in "iuf" or (
        # numpy promotes [true, 1.5] to floats; scan only if a boolean is there
        values.ndim == 1
        and (b"true" in raw or b"false" in raw)
        and any(type(x) is bool for x in doc["values"])
    ):
        raise ValueError(f"{path}: field 'values' must be an array of numbers")
    if values.shape != (cfg.cell_count,):
        raise ValueError(
            f"{path}: expected {cfg.cell_count} values, got {values.size}"
        )
    return cfg, values


def load_grid_function(path) -> GridFunction:
    cfg, values = _load_payload(path)
    return GridFunction(cfg, values)


def load_weight(path) -> Weight:
    cfg, values = _load_payload(path)
    return Weight(cfg, values)


def save_sparse_family(S: SparseFamily, path) -> None:
    doc = [{"level": q.level, "coords": list(q.coords)} for q in S.cubes]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(doc))  # json.dump's bytes, but from the C encoder
        fh.write("\n")


def load_sparse_family(path, config: GridConfig) -> SparseFamily:
    doc, _ = _read_json(path)
    if not isinstance(doc, list):
        raise ValueError(f"{path}: expected a JSON array of cubes")
    cubes = []
    for i, entry in enumerate(doc):
        where = f"{path}: cube entry {i}"
        if not isinstance(entry, dict):
            raise ValueError(f"{where}: expected a JSON object")
        if "level" not in entry or "coords" not in entry:
            raise ValueError(f"{where}: needs 'level' and 'coords'")
        level, coords = entry["level"], entry["coords"]
        if not isinstance(coords, list) or any(type(v) is not int for v in [level, *coords]):
            raise ValueError(f"{where}: level and coords must be integers")
        if not 0 <= level <= config.finest_level:  # before DyadicCube computes 2**level
            raise ValueError(f"{where}: level must be in [0, {config.finest_level}]")
        cubes.append(DyadicCube(level, tuple(coords)))
    return family_from_cubes(config, cubes)


def region_csv_text(table: RegionTable) -> str:
    lines = [",".join(REGION_COLUMNS)]
    for r in range(len(table)):
        lines.append(
            ",".join(
                (
                    _fmt(table.inv_p1[r]),
                    _fmt(table.inv_p2[r]),
                    _fmt(table.p[r]),
                    _fmt(table.beta[r]),
                    _fmt(table.gamma[r]),
                    _fmt(table.alpha[r]),
                    _fmt_bool(table.weak_strictly_better[r]),
                    _fmt_bool(table.alpha_lt_1[r]),
                    _fmt_bool(table.p_ge_golden[r]),
                    _fmt_bool(table.min_gt_4[r]),
                )
            )
        )
    return "\n".join(lines) + "\n"


def write_region_csv(table: RegionTable, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(region_csv_text(table))


def experiment_csv_text(rows) -> str:
    lines = ["delta,apvec,weak,strong,ratio_weak,ratio_strong"]
    for r in rows:
        lines.append(
            ",".join(
                _fmt(x)
                for x in (
                    r.delta,
                    r.apvec,
                    r.weak,
                    r.strong,
                    r.ratio_weak,
                    r.ratio_strong,
                )
            )
        )
    return "\n".join(lines) + "\n"


def write_experiment_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(experiment_csv_text(rows))
