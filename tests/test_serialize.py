import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import random_weight
from weaksparse.cli import main
from weaksparse.dyadic import GridConfig
from weaksparse.exponents import region_map
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
from weaksparse.sparse import generate_sparse

CFG = GridConfig(1, 5)


def _json_dump_bytes(doc):
    buf = io.StringIO()
    json.dump(doc, buf)
    return (buf.getvalue() + "\n").encode("utf-8")


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
