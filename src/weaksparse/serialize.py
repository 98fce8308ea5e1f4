"""File formats: grid-function JSON, sparse-family JSON, CSV tables, SVG.

Grid functions serialize as {"dimension", "finest_level", "values"} with
values in lexicographic cell order; json float repr is the shortest
round-tripping decimal, so the round trip is bit exact for doubles.
CSV output uses 17 significant digits and '.' decimals.  Every file the
package writes (these formats, the region SVG that exponents.region_svg
renders, and the CLI's verify report) goes through _write_text: UTF-8
with LF endings, so repeated runs are byte identical.
"""

from __future__ import annotations

import json
from dataclasses import fields

import numpy as np

from .dyadic import DyadicCube, GridConfig
from .experiment import ExperimentRow
from .exponents import REGION_COLUMNS, RegionTable, region_svg
from .measure import GridFunction, Weight
from .sparse import SparseFamily, family_from_cubes


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_bool(b) -> str:
    return "true" if b else "false"


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _read_json(path):
    """The parsed document, and whether its text holds "true" or "false".

    The bytes are decoded as json.loads decodes bytes (UTF-8, -16 or -32)
    and dropped before parsing, so a large file is held once as text, not
    also as bytes, while the parser builds the document.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    text = raw.decode(json.detect_encoding(raw), "surrogatepass")
    del raw
    booleans = "true" in text or "false" in text
    try:
        # json.loads(bytes) runs this decoder on the decoded text; json.loads
        # on a str would first refuse a second BOM with another message
        return json.JSONDecoder().decode(text), booleans
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
    _write_text(path, json.dumps(doc) + "\n")  # json.dump's bytes, but from the C encoder


def _load_payload(path) -> tuple[GridConfig, np.ndarray]:
    doc, booleans = _read_json(path)
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
        # numpy promotes [true, 1.5] to floats; scan only if a boolean may be there
        values.ndim == 1
        and booleans
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
    _write_text(path, json.dumps(doc) + "\n")  # json.dump's bytes, but from the C encoder


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
    columns = [getattr(table, name) for name in REGION_COLUMNS]
    fmts = [_fmt_bool if c.dtype == bool else _fmt for c in columns]
    lines = [",".join(REGION_COLUMNS)]
    for r in range(len(table)):
        lines.append(",".join(fmt(c[r]) for fmt, c in zip(fmts, columns)))
    return "\n".join(lines) + "\n"


def write_region_csv(table: RegionTable, path) -> None:
    _write_text(path, region_csv_text(table))


def write_region_svg(table: RegionTable, path) -> None:
    _write_text(path, region_svg(table))


def experiment_csv_text(rows) -> str:
    names = [f.name for f in fields(ExperimentRow)]
    lines = [",".join(names)]
    for r in rows:
        lines.append(",".join(_fmt(getattr(r, name)) for name in names))
    return "\n".join(lines) + "\n"


def write_experiment_csv(rows, path) -> None:
    _write_text(path, experiment_csv_text(rows))
