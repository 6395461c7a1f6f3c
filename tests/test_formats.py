"""Wire-format round trips and determinism."""

import json
from fractions import Fraction as F

import pytest

from taublab.errors import InputFormatError
from taublab.estimate import TauberianEstimate
from taublab.formats import (
    build_manifest,
    dumps_deterministic,
    halo_to_csv,
    halo_to_json_dict,
    lattice_set_from_json_dict,
    lattice_set_to_json_dict,
    load_lattice_set,
    save_lattice_set,
    sweep_to_csv,
)
from taublab.lattice import LatticeSet, halo, lattice_set
from taublab.search import SearchConfig, sweep


def test_lattice_set_round_trip(tmp_path):
    E = LatticeSet.from_points([(0, 1), (2, -3)])
    data = lattice_set_to_json_dict(E)
    assert data == {"dim": 2, "points": [[0, 1], [2, -3]]}
    assert lattice_set_from_json_dict(data) == E
    path = tmp_path / "set.json"
    save_lattice_set(E, path)
    assert load_lattice_set(path) == E


def test_lattice_set_malformed():
    for bad in [{}, {"dim": 1}, {"dim": 1, "points": [["x"]]}, {"dim": 2, "points": [[1]]}]:
        with pytest.raises(InputFormatError):
            lattice_set_from_json_dict(bad)


def test_lattice_set_rejects_json_floats_and_booleans(tmp_path):
    """Coordinates and dim are read only from JSON integers: int() would
    truncate 0.5 and 2.9 and read true as 1."""
    path = tmp_path / "set.json"
    for bad in (
        {"dim": 1, "points": [[0.5], [2.9], [True]]},
        {"dim": 1, "points": [[0], [2.0]]},
        {"dim": 1.9, "points": [[0]]},
        {"dim": True, "points": [[0]]},
    ):
        path.write_text(json.dumps(bad))
        with pytest.raises(InputFormatError, match="JSON integers"):
            load_lattice_set(path)
    path.write_text(json.dumps({"dim": 1, "points": [[0], [-3]]}))
    assert load_lattice_set(path) == lattice_set([-3, 0])


def test_load_rejects_bad_files(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(InputFormatError):
        load_lattice_set(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputFormatError):
        load_lattice_set(bad)


def test_estimate_wire_format():
    est = TauberianEstimate(
        alpha=F(1, 2), value=F(89, 30), witness=lattice_set(range(60)),
        strategy="interval-family", mode="exact",
    )
    data = est.to_json_dict()
    assert data["alpha"] == "1/2"
    assert data["value"] == "89/30"
    assert data["mode"] == "exact"
    assert data["witness"][0] == [0]
    atoms = TauberianEstimate(alpha=F(1, 2), value=F(2), witness=(0, 1), strategy="exhaustive-subsets")
    assert atoms.to_json_dict()["witness"] == [0, 1]


def test_halo_csv_rows_and_summary():
    h = halo(lattice_set([0, 1]), F(1, 2))
    text = halo_to_csv(h)
    lines = text.strip().split("\n")
    assert lines[0] == "x0"
    assert lines[1:-1] == ["-1", "0", "1", "2"]
    assert "ratio=2" in lines[-1]
    assert "alpha=1/2" in lines[-1]


def test_halo_json_ratio_lowest_terms():
    h = halo(lattice_set([0, 1, 2]), F(1, 2))
    data = halo_to_json_dict(h)
    assert data["ratio"] == "7/3"


def test_sweep_csv_shape():
    cfg = SearchConfig(dim=1, window=((0, 7),), strategy="interval-family", max_block=8)
    text = sweep_to_csv(sweep([F(1, 2), F(3, 4)], cfg))
    lines = text.strip().split("\n")
    assert lines[0].startswith("alpha,value,witness_size,halo_size,strategy")
    first = lines[1].split(",")
    assert first[0] == "1/2"
    # block of 8 at 1/2: halo [-7, 14], ratio 11/4
    assert first[1] == "11/4"
    assert (first[2], first[3]) == ("8", "22")
    assert first[4] == "interval-family"


def test_deterministic_json_dumps():
    a = dumps_deterministic({"b": 1, "a": [1, 2]})
    b = dumps_deterministic({"a": [1, 2], "b": 1})
    assert a == b
    assert a.endswith("\n")


def test_manifest_digests_inputs(tmp_path):
    f = tmp_path / "in.json"
    f.write_text("{}")
    m1 = build_manifest("halo", ["halo"], {}, None, [f], "0.1.0")
    f.write_text("{ }")
    m2 = build_manifest("halo", ["halo"], {}, None, [f], "0.1.0")
    assert m1["inputs"] != m2["inputs"]
    assert set(m1) == {"command", "argv", "config", "rng_seed", "inputs", "version"}
