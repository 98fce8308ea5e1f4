import io
import json
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import random_weight
from weaksparse import serialize
from weaksparse.cli import main
from weaksparse.dyadic import GridConfig
from weaksparse.exponents import REGION_COLUMNS, region_map
from weaksparse.experiment import ExperimentRow
from weaksparse.measure import GridFunction
from weaksparse.serialize import (
    experiment_csv_text,
    load_grid_function,
    load_sparse_family,
    load_weight,
    region_csv_text,
    save_grid_function,
    save_sparse_family,
    write_region_csv,
)
from weaksparse.sparse import generate_sparse, sparse_eval

CFG = GridConfig(1, 5)


def _json_dump_bytes(doc):
    buf = io.StringIO()
    json.dump(doc, buf)
    return (buf.getvalue() + "\n").encode("utf-8")


def _bit_patterns(rng, count, exponents=(0, 2047)):
    """count doubles with random sign and mantissa bits and a biased exponent
    drawn from range(*exponents); the default draws from every exponent, and
    the inf and nan patterns it can draw are replaced by 1.5."""
    sign = rng.integers(0, 2, count, dtype=np.uint64) << np.uint64(63)
    exponent = rng.integers(*exponents, count).astype(np.uint64) << np.uint64(52)
    mantissa = rng.integers(0, 2**52, count, dtype=np.uint64)
    values = (sign | exponent | mantissa).view(np.float64)
    return np.where(np.isfinite(values), values, 1.5)


def _special_values():
    """Where shortest digits or their exponent form are likeliest to differ:
    every power of two and its neighbours, subnormals, signed zeros, integral
    values past 2^53, and the neighbours of 1e-4 and 1e16, where repr turns
    to scientific notation (and of 1e-5, 1e15, 1e-7 and 1e22)."""
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    steps = [np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf)]
    subnormals = np.ldexp(np.arange(1.0, 4097.0), -1074)
    largest_subnormal = np.nextafter(2.2250738585072014e-308, 0.0)
    integral = [
        2.0**53 + 2.0 * np.arange(-64, 64),
        2.0 ** np.arange(53, 70) * 3,
        10.0 ** np.arange(15, 23),
        [9007199254740993.0, 1e16 - 2.0],
    ]
    edges = []
    for edge in (1e-4, 1e16, 1e-5, 1e15, 1e-7, 1e22):
        below = above = edge
        for _ in range(8):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
            edges += [below, above]
        edges.append(edge)
    values = np.concatenate(
        [*steps, subnormals, largest_subnormal - subnormals, *integral, edges, [0.0]]
    )
    values = values[np.isfinite(values)]
    return np.concatenate([values, -values])


def _slice_filling(count):
    """count floats whose writer rendering, joined by ", ", is exactly one
    slice of the grid reader (serialize._SLICE bytes): 1/3, 1.25 and 1.0
    render in 18, 4 and 3 bytes."""
    spare = serialize._SLICE - (5 * count - 2)
    long, wide = divmod(spare, 15)
    assert 0 <= long + wide <= count
    return [1 / 3] * long + [1.25] * wide + [1.0] * (count - long - wide)


def _assert_saved_as_json_dump(tmp_path, cfg, values):
    """save_grid_function writes json.dump's bytes, and the loader reads
    them back bit for bit as json does."""
    f = GridFunction(cfg, np.resize(values, cfg.cell_count))
    path = tmp_path / "f.json"
    save_grid_function(f, path)
    doc = {"dimension": cfg.dimension, "finest_level": cfg.finest_level}
    doc["values"] = f.values.tolist()
    raw = path.read_bytes()
    assert raw == _json_dump_bytes(doc)
    want = np.array(json.loads(raw)["values"]).tobytes()
    assert load_grid_function(path).values.tobytes() == want
    # the slice reader takes every such file but those with many exponents
    exponents = raw.count(b"e", raw.index(b"[")) > cfg.cell_count // serialize._EXPONENTS
    assert (serialize._read_saved_grid(raw) is None) == exponents


def test_saved_bytes_equal_json_dump_output(tmp_path, rng):
    vals = rng.normal(0, 1, CFG.cell_count)
    vals[:8] = [5e-324, -2.2250738585072014e-308, 1e-310, -0.0, 0.0, 1e300, -1e308, 0.1]
    f = GridFunction(CFG, vals)
    save_grid_function(f, tmp_path / "f.json")
    doc = {"dimension": 1, "finest_level": 5, "values": f.values.tolist()}
    assert (tmp_path / "f.json").read_bytes() == _json_dump_bytes(doc)
    fam = generate_sparse(GridConfig(2, 3), seed=4, budget=0.3)
    save_sparse_family(fam, tmp_path / "s.json")
    doc = [{"level": q.level, "coords": list(q.coords)} for q in fam.cubes]
    assert (tmp_path / "s.json").read_bytes() == _json_dump_bytes(doc)
    # the oracle sweep: 2^20 random patterns over every exponent, 2^18 over
    # the exponents orjson renders (1e-4 <= |x| < 1e16), the special values
    # on a 1D and a 2D grid, and grids with no and with only scientific values
    _assert_saved_as_json_dump(tmp_path, GridConfig(1, 20), _bit_patterns(rng, 2**20))
    band = _bit_patterns(rng, 2**18, exponents=(1023 - 14, 1023 + 54))
    band_size = np.abs(band)
    band = band[(band_size >= 1e-4) & (band_size < 1e16)]
    _assert_saved_as_json_dump(tmp_path, GridConfig(1, 18), band)
    special = _special_values()
    assert special.size <= 2**15
    _assert_saved_as_json_dump(tmp_path, GridConfig(1, 15), special)
    _assert_saved_as_json_dump(tmp_path, GridConfig(2, 8), special)
    _assert_saved_as_json_dump(tmp_path, GridConfig(2, 4), rng.uniform(0.5, 2.0, 256))
    size = np.abs(special)
    scientific = special[(size < 1e-4) | (size >= 1e16)]
    _assert_saved_as_json_dump(tmp_path, GridConfig(1, 15), scientific)
    # the band with one scientific value in 64, which the slice reader takes
    mixed = band.copy()
    mixed[::64] = np.resize(scientific, mixed[::64].size)
    _assert_saved_as_json_dump(tmp_path, GridConfig(1, 18), mixed)
    # a body one value longer than a whole slice: the last slice is one value
    _assert_saved_as_json_dump(tmp_path, GridConfig(1, 13), _slice_filling(2**13 - 1) + [0.1])


def test_sparse_eval_output_bytes_equal_json_dump_output(tmp_path, capsys, rng):
    cfg = GridConfig(2, 4)
    paths = {name: tmp_path / f"{name}.json" for name in ("f1", "f2", "family", "out")}
    functions = []
    for name in ("f1", "f2"):
        f = GridFunction(cfg, 10.0 ** rng.uniform(2.0, 9.0, cfg.cell_count))
        save_grid_function(f, paths[name])
        functions.append(f)
    fam = generate_sparse(cfg, seed=6, budget=0.3)
    save_sparse_family(fam, paths["family"])
    argv = ["sparse-eval", "--out", str(paths["out"])]
    for name in ("family", "f1", "f2"):
        argv += [f"--{name}", str(paths[name])]
    assert main(argv) == 0 and capsys.readouterr().out == ""
    image = sparse_eval(fam, *functions)
    assert 0 < np.count_nonzero(image.values >= 1e16) < cfg.cell_count  # both exponent forms
    doc = {"dimension": 2, "finest_level": 4, "values": image.values.tolist()}
    assert paths["out"].read_bytes() == _json_dump_bytes(doc)


def _writer_layout(level, body: str, dimension=1) -> bytes:
    """A grid file in save_grid_function's layout around a values body."""
    head = f'{{"dimension": {dimension}, "finest_level": {level}, "values": ['
    return (head + body + "]}\n").encode()


_BOUNDARY = ", ".join(map(repr, _slice_filling(2**13)))  # one whole slice


_LAYOUT_CASES = {
    "boolean_first": _writer_layout(1, "true, 1.5"),
    "boolean_last": _writer_layout(1, "1.5, false"),
    "big_integer": _writer_layout(1, "123456789012345678901234567890, 1.5"),
    "big_integer_among_floats": _writer_layout(2, "0.5, 123456789012345678901234567890, 1.5, 2.5"),
    "overflow": _writer_layout(1, "1e999, 1.5"),
    "nan": _writer_layout(1, "NaN, 1.5"),
    "minus_infinity": _writer_layout(1, "1.5, -Infinity"),
    "null": _writer_layout(1, "1.5, null"),
    "trailing_comma": _writer_layout(1, "1.0, 2.0,"),
    "double_comma": _writer_layout(1, "1.0,,2.0"),
    "trailing_comma_ends_a_slice": _writer_layout(13, _BOUNDARY + ", "),
    "double_comma_straddles_a_cut": _writer_layout(13, _BOUNDARY + ",, 2.0"),
    "comma_in_string": _writer_layout(1, '"1.0, 2.0", 1.5'),
    "nested": _writer_layout(1, "[1.0, 2.0], 1.5"),
    "one_too_few": _writer_layout(2, "1.5, 2.5, 3.5"),
    "one_too_many": _writer_layout(2, "1.5, 2.5, 3.5, 4.5, 5.5"),
    "one_too_few_long": _writer_layout(2, ", ".join([repr(1 / 3)] * 3)),  # room for 4
    "one_too_few_of_1024": _writer_layout(10, ", ".join([repr(1 / 3)] * 1023)),
    "level_24_over_two": _writer_layout(24, "1.5, 2.5"),
    "empty": _writer_layout(1, ""),
    "integers": _writer_layout(1, "1, 2"),
    "not_shortest": _writer_layout(1, "-0, 1.50"),
    "other_exponent_forms": _writer_layout(1, "1E5, 0.00001"),
    "no_exponent_past_1e16": _writer_layout(1, "100000000000000000.0, 1.5"),
    # 32 cells: two values written with an exponent are taken, three are not
    "writer_exponents": _writer_layout(5, ", ".join(["1e-05", "1.5e+16"] + ["1.5"] * 30)),
    "other_exponent": _writer_layout(5, ", ".join(["1e5", "1.5e+16"] + ["1.5"] * 30)),
    "too_many_exponents": _writer_layout(5, ", ".join(["1e-05", "1e+16", "2e-300"] + ["1.5"] * 29)),
    "three_dimensions": _writer_layout(3, "1.5, 2.5"),
    "bom": b"\xef\xbb\xbf" + _writer_layout(1, "1.5, 2.5"),
    "crlf": _writer_layout(1, "1.5, 2.5")[:-1] + b"\r\n",
    "writer": _writer_layout(1, "1.5, 2.5"),
    "writer_one_slice": _writer_layout(13, _BOUNDARY),
    "writer_plane": _writer_layout(2, "0.5, 0.25, 1.5, 2.5", dimension=2),
}


@pytest.mark.parametrize("raw", list(_LAYOUT_CASES.values()), ids=list(_LAYOUT_CASES))
def test_slice_reader_loads_as_json_does(tmp_path, monkeypatch, raw):
    """A file in the writer's layout loads to the same array bytes, or fails
    with the same exception and message, as through json alone."""
    path = tmp_path / "g.json"
    path.write_bytes(raw)

    def outcomes():
        found = []
        for load in (load_grid_function, load_weight):
            try:
                found.append(load(path).values.tobytes())
            except Exception as e:  # the type is compared
                found.append((type(e), str(e)))
        return found

    got = outcomes()
    monkeypatch.setattr(serialize, "_read_saved_grid", lambda raw: None)
    assert got == outcomes()


def test_start_up_command_does_not_import_orjson():
    """The grid writer imports orjson on its first call, so a command that
    writes no grid function does not pay for the import."""
    code = (
        "import sys\n"
        "from weaksparse.cli import main\n"
        "main(['exponents', '--p1', '2', '--p2', '3'])\n"
        "print('orjson' in sys.modules)\n"
    )
    import weaksparse

    src = os.path.dirname(os.path.dirname(weaksparse.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.splitlines()[-1] == "False"


def test_grid_function_roundtrip_bit_exact(tmp_path, rng):
    # adversarial values: denormals, huge, tiny, and non-terminating decimals
    vals = rng.normal(0, 1, CFG.cell_count) * 10.0 ** rng.integers(
        -300, 300, CFG.cell_count
    )
    vals[0] = 1 / 3
    vals[1] = 5e-324
    f = GridFunction(CFG, vals)
    path = tmp_path / "f.json"
    save_grid_function(f, path)
    g = load_grid_function(path)
    assert g.config == CFG
    assert np.array_equal(g.values, f.values)


def test_weight_roundtrip_and_positivity(tmp_path, rng):
    w = random_weight(rng, CFG)
    path = tmp_path / "w.json"
    save_grid_function(w, path)
    assert np.array_equal(load_weight(path).values, w.values)
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {"dimension": 1, "finest_level": 1, "values": [1.0, 0.0]}
        )
    )
    with pytest.raises(ValueError, match="positive"):
        load_weight(bad)


def test_corrupted_file_reports_byte_offset(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dimension": 1, "finest_level": 1, "values": [1.0,, 2.0]}')
    with pytest.raises(ValueError, match=r"byte offset \d+"):
        load_grid_function(path)


def test_missing_fields_and_wrong_length(tmp_path):
    path = tmp_path / "short.json"
    path.write_text('{"dimension": 1, "finest_level": 2, "values": [1.0]}')
    with pytest.raises(ValueError, match="expected 4 values"):
        load_grid_function(path)
    path2 = tmp_path / "nofield.json"
    path2.write_text('{"dimension": 1, "values": [1.0, 1.0]}')
    with pytest.raises(ValueError, match="finest_level"):
        load_grid_function(path2)


@pytest.mark.parametrize(
    "field, value",
    [
        ("dimension", 1.7),
        ("finest_level", 3.9),
        ("finest_level", 3.0),
        ("dimension", True),
        ("dimension", "1"),
    ],
)
def test_grid_header_fields_must_be_json_integers(tmp_path, field, value):
    doc = {"dimension": 1, "finest_level": 3, "values": [1.0] * 8, field: value}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    for load in (load_grid_function, load_weight):
        with pytest.raises(ValueError, match=f"g.json: field '{field}' must be an int"):
            load(path)


@pytest.mark.parametrize(
    "values",
    [
        [True] * 8,
        ["1.5"] * 8,
        [None] * 8,
        [[1.0], [1.0, 2.0]],
        "abc",
        [True] + [1.5] * 7,  # numpy would promote these booleans to floats
        [1] * 7 + [False],
    ],
)
def test_grid_values_must_be_numbers(tmp_path, values):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"dimension": 1, "finest_level": 3, "values": values}))
    with pytest.raises(ValueError, match="g.json: field 'values' must be an array"):
        load_grid_function(path)


_BOOLEAN_DOC = '{"dimension":1,"finest_level":1,"values":[true,1.5]}'


@pytest.mark.parametrize("encoding", ["utf-8", "utf-16-le", "utf-16", "utf-32", "utf-32-be"])
def test_booleans_are_refused_in_every_json_encoding(tmp_path, capsys, encoding):
    """json reads UTF-8, -16 and -32 files; a boolean among the values gives
    the same one-line error in each, from the loaders and from the CLI."""
    path = tmp_path / "w.json"
    path.write_bytes(_BOOLEAN_DOC.encode(encoding))
    message = f"{path}: field 'values' must be an array of numbers"
    for load in (load_grid_function, load_weight):
        with pytest.raises(ValueError) as info:
            load(path)
        assert str(info.value) == message
    code = main(["constants", "--weights", f"{path},{path}", "--p1", "2", "--p2", "3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"weaksparse: error: {message}\n"


@pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16-le", "utf-16", "utf-32"])
def test_numbers_load_alike_in_every_json_encoding(tmp_path, rng, encoding):
    w = random_weight(rng, CFG)
    save_grid_function(w, tmp_path / "w.json")
    path = tmp_path / "other.json"
    path.write_bytes((tmp_path / "w.json").read_text(encoding="utf-8").encode(encoding))
    assert load_weight(path).values.tobytes() == w.values.tobytes()


def test_undecodable_file_is_one_value_error_naming_its_path(tmp_path, capsys, rng):
    """A file that is not UTF-8, -16 or -32 text fails in the loaders and in
    the CLI with one line that starts with its path, as every loader error."""
    path = tmp_path / "bad.json"
    raw = b'{"dimension": 1, "finest_level": 1, "values": [\xff]}'
    path.write_bytes(raw)
    message = f"{path}: invalid utf-8 text at byte offset {raw.index(0xFF)}: invalid start byte"
    for load in (load_grid_function, load_weight, lambda p: load_sparse_family(p, CFG)):
        with pytest.raises(ValueError) as info:
            load(path)
        assert type(info.value) is ValueError and str(info.value) == message
    f = tmp_path / "f.json"
    save_grid_function(random_weight(rng, CFG), f)
    for argv in (
        ["constants", "--weights", f"{path},{f}", "--p1", "2", "--p2", "3"],
        ["sparse-eval", "--family", str(path), "--f1", str(f), "--f2", str(f),
         "--out", str(tmp_path / "out.json")],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"weaksparse: error: {message}\n"


def test_weight_file_is_not_held_as_bytes_beside_its_text(tmp_path, rng):
    """The traced peak of loading a 1D K = 16 weight stays under the text,
    the parsed list of floats and one more cell array, so the file's bytes
    are gone before the parser runs (keeping them adds the file's size)."""
    import tracemalloc

    cfg = GridConfig(1, 16)
    path = tmp_path / "w.json"
    save_grid_function(random_weight(rng, cfg), path)
    load_weight(path)  # warm caches and imports
    size, cells = path.stat().st_size, cfg.cell_count
    tracemalloc.start()
    try:
        load_weight(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    parsed = cells * (8 + 24)  # the list's slots and its float objects
    assert peak < size + parsed + 8 * cells, (peak, size, parsed)


def _traced_peak(call):
    import tracemalloc

    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_json_path_drops_the_bytes_before_parsing(tmp_path, rng):
    """A weight file the slice reader declines (here for its CRLF ending)
    peaks under the text, the parsed list of floats and one more cell
    array while json reads it, as the writer's own files did before."""
    cfg = GridConfig(1, 16)
    path = tmp_path / "w.json"
    save_grid_function(random_weight(rng, cfg), path)
    path.write_bytes(path.read_bytes()[:-1] + b"\r\n")
    assert serialize._read_saved_grid(path.read_bytes()) is None
    load_weight(path)  # warm caches and imports
    size, cells = path.stat().st_size, cfg.cell_count
    parsed = cells * (8 + 24)  # the list's slots and its float objects
    peak = _traced_peak(lambda: load_weight(path))
    assert peak < size + parsed + 8 * cells, (peak, size, parsed)


def test_slice_reader_holds_one_slice_of_parsed_values(tmp_path, rng):
    """Loading a 1D K = 16 weight peaks under the file's bytes, two cell
    arrays (the values and the weight's copy) and one slice's list of
    floats; a whole-file parse would hold a float object per cell.  A
    header that claims 2^24 cells over two values allocates none of them."""
    cfg = GridConfig(1, 16)
    path = tmp_path / "w.json"
    save_grid_function(random_weight(rng, cfg), path)
    load_weight(path)  # warm caches and imports
    size, cells = path.stat().st_size, cfg.cell_count
    listed = serialize._SLICE // 4 * (8 + 24)  # a value and its ", " take 5 bytes or more
    peak = _traced_peak(lambda: load_weight(path))
    assert peak < size + 2 * 8 * cells + listed, (peak, size, listed)
    claim = tmp_path / "claim.json"
    claim.write_bytes(_writer_layout(24, "1.5, 2.5"))

    def refused():
        with pytest.raises(ValueError, match="expected 16777216 values, got 2"):
            load_weight(claim)

    assert _traced_peak(refused) < 2**20


def test_deeply_nested_document_is_a_value_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ValueError, match="deep.json: JSON nested too deeply"):
        load_sparse_family(path, CFG)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.dictionaries(st.text(max_size=4), inner, max_size=5)
    ),
    max_leaves=16,
)
_GRID_DOC = st.fixed_dictionaries(
    {
        "dimension": st.integers(0, 3) | _JSON,
        "finest_level": st.integers(-1, 4) | _JSON,
        "values": st.lists(st.floats() | st.integers(), max_size=17) | _JSON,
    }
)
_CUBE = st.fixed_dictionaries(
    {
        "level": st.integers(-1, 4) | _JSON,
        "coords": st.lists(st.integers(-1, 9), max_size=3) | _JSON,
    }
)
_DOC = _JSON | _GRID_DOC | st.lists(_CUBE | _JSON, max_size=5) | st.binary(max_size=24)


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(doc=_DOC)
def test_loaders_load_or_raise_value_error(tmp_path, doc):
    path = tmp_path / "doc.json"
    if isinstance(doc, bytes):
        path.write_bytes(doc)
    else:
        path.write_text(json.dumps(doc))
    for load in (load_grid_function, load_weight):
        try:
            load(path)
        except ValueError:
            pass
    for cfg in (GridConfig(1, 3), GridConfig(2, 2)):
        try:
            load_sparse_family(path, cfg)
        except ValueError:
            pass


def test_sparse_family_roundtrip(tmp_path):
    fam = generate_sparse(CFG, seed=9, budget=0.3)
    path = tmp_path / "s.json"
    save_sparse_family(fam, path)
    back = load_sparse_family(path, CFG)
    assert back.cubes == fam.cubes
    assert back.witness is not None


def test_sparse_family_2d_roundtrip(tmp_path):
    cfg = GridConfig(2, 3)
    fam = generate_sparse(cfg, seed=2, budget=0.3)
    path = tmp_path / "s2.json"
    save_sparse_family(fam, path)
    assert load_sparse_family(path, cfg).cubes == fam.cubes


def test_region_csv_shape_and_determinism(tmp_path):
    table = region_map(6)
    text = region_csv_text(table)
    lines = text.strip().split("\n")
    assert lines[0] == (
        "inv_p1,inv_p2,p,beta,gamma,alpha,weak_strictly_better,"
        "alpha_lt_1,p_ge_golden,min_gt_4"
    )
    assert len(lines) == 1 + len(table)
    assert set(lines[1].split(",")[6:]) <= {"true", "false"}
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_region_csv(table, p1)
    write_region_csv(table, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_experiment_csv_header_and_precision():
    rows = [
        ExperimentRow(
            delta=0.25,
            apvec=1 / 3,
            weak=1.5,
            strong=2.5,
            ratio_weak=0.1,
            ratio_strong=0.2,
        )
    ]
    text = experiment_csv_text(rows)
    lines = text.split("\n")
    assert lines[0] == "delta,apvec,weak,strong,ratio_weak,ratio_strong"
    assert lines[1].split(",")[1] == "0.33333333333333331"
    assert text.endswith("\n")


def _fmt(x) -> str:
    """The former per-cell CSV formatter, kept as the oracle."""
    return format(float(x), ".17g")


def _csv_oracle(names, columns) -> str:
    lines = [",".join(names)]
    for row in zip(*columns):
        cells = [("true" if x else "false") if type(x) is np.bool_ else _fmt(x) for x in row]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def test_region_csv_equals_per_cell_formatting():
    for resolution in range(2, 61):
        table = region_map(resolution)
        columns = [getattr(table, name) for name in REGION_COLUMNS]
        assert region_csv_text(table) == _csv_oracle(REGION_COLUMNS, columns), resolution


def test_experiment_csv_equals_per_cell_formatting():
    extremes = [5e-324, 1e308, -2.5, 3.0, 1 / 3, 0.1, -0.0, 2.0**60]
    rows = [
        ExperimentRow(*(extremes[(i + k) % len(extremes)] for k in range(6)))
        for i in range(len(extremes))
    ]
    names = [f.name for f in fields(ExperimentRow)]
    columns = [[getattr(r, name) for r in rows] for name in names]
    assert experiment_csv_text(rows) == _csv_oracle(names, columns)
    assert experiment_csv_text([]) == ",".join(names) + "\n"
