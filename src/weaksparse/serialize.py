"""File formats: grid-function JSON, sparse-family JSON, CSV tables, SVG.

Grid functions serialize as {"dimension", "finest_level", "values"} with
values in lexicographic cell order; json float repr is the shortest
round-tripping decimal, so the round trip is bit exact for doubles.  The
writer renders the values from the array with orjson (the same shortest
digits, by Ryu) and writes json's separators and repr's exponent form
itself, so the file's bytes are still those of json.dump.  The loaders
stay on json: orjson.loads peaks about 35 MB higher on a 2^20-cell file.
Every loader error is a ValueError that starts with the file's path, and
names the family entry at fault where there is one.
CSV output uses 17 significant digits and '.' decimals.  Every file the
package writes (these formats, the region SVG that exponents.region_svg
renders, and the CLI's verify report) goes through _write_text: UTF-8
with LF endings, so repeated runs are byte identical.
"""

from __future__ import annotations

import json
from dataclasses import fields

import numpy as np

from .dyadic import DyadicCube, GridConfig, check_cube
from .experiment import ExperimentRow
from .exponents import REGION_COLUMNS, RegionTable, region_svg
from .measure import GridFunction, Weight
from .sparse import SparseFamily, family_from_cubes


def _write_text(path, *parts: str | bytes) -> None:
    """Write the parts in order, each str as UTF-8 and each bytes as is."""
    with open(path, "wb") as fh:
        for part in parts:
            fh.write(part.encode("utf-8") if isinstance(part, str) else part)


def _read_json(path):
    """The parsed document, and whether its text holds "true" or "false".

    The bytes are decoded as json.loads decodes bytes (UTF-8, -16 or -32)
    and dropped before parsing, so a large file is held once as text, not
    also as bytes, while the parser builds the document.  Every failure is
    a ValueError that starts with the path.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode(json.detect_encoding(raw), "surrogatepass")
    except UnicodeDecodeError as e:
        where = f"byte offset {e.start}: {e.reason}"
        raise ValueError(f"{path}: invalid {e.encoding} text at {where}") from e
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


def _json_floats(values: np.ndarray) -> bytes:
    """json.dumps(values.tolist()) as bytes, without building Python floats.

    orjson writes the same shortest round-tripping digits as float.__repr__
    but other exponent forms (0.00001 for 1e-05, 1e16 for 1e+16), so the
    nonzero values that repr writes in scientific notation are written
    again by repr.
    """
    # imported here, not with the module: the CLI imports this module at
    # start-up, and orjson's import (about 15 ms) would slow every command
    import orjson

    text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)
    size = np.abs(values)
    sci = np.flatnonzero(((size < 1e-4) & (size > 0.0)) | (size >= 1e16))
    if sci.size:
        tokens = text[1:-1].split(b",")
        for i, x in zip(sci.tolist(), values[sci].tolist()):
            tokens[i] = repr(x).encode()
        text = b"[" + b",".join(tokens) + b"]"
    return text.replace(b",", b", ")


def save_grid_function(f: GridFunction, path) -> None:
    cfg = f.config
    header = f'{{"dimension": {cfg.dimension}, "finest_level": {cfg.finest_level}, "values": '
    _write_text(path, header, _json_floats(f.values), "}\n")


def _load_grid(path, kind):
    """The kind (GridFunction or Weight) stored at path."""
    doc, booleans = _read_json(path)
    try:
        if not isinstance(doc, dict):
            raise ValueError("expected a JSON object")
        for key in ("dimension", "finest_level", "values"):
            if key not in doc:
                raise ValueError(f"missing field '{key}'")
        for key in ("dimension", "finest_level"):
            if type(doc[key]) is not int:
                raise ValueError(f"field '{key}' must be an integer")
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
            raise ValueError("field 'values' must be an array of numbers")
        if values.shape != (cfg.cell_count,):
            raise ValueError(f"expected {cfg.cell_count} values, got {values.size}")
        del doc  # the parsed list, several times the array's size, before kind copies it
        return kind(cfg, values)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e


def load_grid_function(path) -> GridFunction:
    return _load_grid(path, GridFunction)


def load_weight(path) -> Weight:
    return _load_grid(path, Weight)


def save_sparse_family(S: SparseFamily, path) -> None:
    doc = [{"level": q.level, "coords": list(q.coords)} for q in S.cubes]
    _write_text(path, json.dumps(doc) + "\n")  # json.dump's bytes, but from the C encoder


def load_sparse_family(path, config: GridConfig) -> SparseFamily:
    where = ""  # the entry at fault, if one is
    doc, _ = _read_json(path)
    try:
        if not isinstance(doc, list):
            raise ValueError("expected a JSON array of cubes")
        cubes = []
        for i, entry in enumerate(doc):
            where = f"cube entry {i}: "
            if not isinstance(entry, dict):
                raise ValueError("expected a JSON object")
            if "level" not in entry or "coords" not in entry:
                raise ValueError("needs 'level' and 'coords'")
            level, coords = entry["level"], entry["coords"]
            if type(coords) is not list or any(type(v) is not int for v in [level, *coords]):
                raise ValueError("level and coords must be integers")
            if not 0 <= level <= config.finest_level:  # before DyadicCube computes 2**level
                raise ValueError(f"level must be in [0, {config.finest_level}]")
            cubes.append(DyadicCube(level, tuple(coords)))
            check_cube(cubes[-1], config)
        where = ""
        return family_from_cubes(config, cubes)
    except ValueError as e:
        raise ValueError(f"{path}: {where}{e}") from e


def _csv_text(names, columns) -> str:
    """CSV of equal-length numpy columns under a header row: each float
    column as %.17g and each bool column as true/false, one % per row."""
    template = ",".join("%s" if c.dtype == bool else "%.17g" for c in columns)
    cells = [
        ["true" if b else "false" for b in c.tolist()] if c.dtype == bool else c.tolist()
        for c in columns
    ]
    lines = [",".join(names)]
    lines += [template % row for row in zip(*cells)]
    return "\n".join(lines) + "\n"


def region_csv_text(table: RegionTable) -> str:
    return _csv_text(REGION_COLUMNS, [getattr(table, name) for name in REGION_COLUMNS])


def write_region_csv(table: RegionTable, path) -> None:
    _write_text(path, region_csv_text(table))


def write_region_svg(table: RegionTable, path) -> None:
    _write_text(path, region_svg(table))


def experiment_csv_text(rows) -> str:
    names = [f.name for f in fields(ExperimentRow)]
    columns = [np.array([getattr(r, name) for r in rows], dtype=np.float64) for name in names]
    return _csv_text(names, columns)


def write_experiment_csv(rows, path) -> None:
    _write_text(path, experiment_csv_text(rows))
