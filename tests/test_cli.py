"""CLI, serialization and scene-config tests: exit codes, round trips, determinism."""
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from caloron import lattice as lat, serialize
from caloron.cli import EXIT_OK, EXIT_TOLERANCE, EXIT_VALIDATION, main
from caloron.errors import ConfigError, ShapeError
from caloron.lattice import SCALAR, SU2, U1, FormField, Grid, LinkField
from caloron.scene import SceneConfig, parse_config_text, report_hash
from caloron.transform import ProductConnection, forward_transform


# ---------------------------------------------------------------------------
# serialization


def _connection(group=U1, seed=0, twist=0):
    grid = Grid(sizes=(6, 8), base_axes=(0,))
    fam = "u1_harmonic" if group == U1 else "su2_band_limited"
    A = lat.sample(fam, grid, group, {"max_mode": 1}, seed=seed)
    return ProductConnection.from_one_form(A, twist=twist if group == U1 else 0)


@pytest.mark.parametrize("group", [U1, SU2])
def test_connection_doc_round_trip(group):
    w = _connection(group, seed=1, twist=2)
    # through an actual JSON string, not just the dict
    doc = json.loads(json.dumps(serialize.connection_to_doc(w)))
    back = serialize.connection_from_doc(doc)
    assert back.grid == w.grid and back.twist == w.twist
    for a in range(w.grid.dim):
        assert np.array_equal(back.comps[a], w.comps[a])


def test_pair_doc_round_trip():
    a, phi = forward_transform(_connection(U1, seed=2, twist=-1))
    doc = json.loads(json.dumps(serialize.pair_to_doc(a, phi)))
    a2, phi2 = serialize.pair_from_doc(doc)
    assert np.array_equal(a2.comps[0], a.comps[0])
    assert np.array_equal(phi2.comps[1], phi.comps[1])
    assert phi2.twist == -1


def test_links_doc_round_trip():
    g = Grid(sizes=(6, 6), base_axes=(0,))
    u = lat.constant_curvature_torus(Grid(sizes=(6, 6)), 1)
    u = LinkField(g, U1, u.links)
    doc = json.loads(json.dumps(serialize.links_to_doc(u)))
    back = serialize.links_from_doc(doc)
    for a in range(2):
        assert np.array_equal(back.links[a], u.links[a])


def test_document_kind():
    w = _connection()
    assert serialize.document_kind(serialize.connection_to_doc(w)) == "product_connection"
    assert serialize.document_kind(serialize.pair_to_doc(*forward_transform(w))) == \
        "transform_pair"


def test_form_doc_round_trip_and_key_validation():
    g = Grid(sizes=(4, 6, 8), base_axes=(0,))
    f = FormField(g, SCALAR, 2, {(0, 2): np.arange(4 * 6 * 8).reshape(g.sizes) * 1j})
    doc = json.loads(json.dumps(serialize.form_to_doc(f)))
    assert set(doc["components"]) == {"0,2"}
    back = serialize.form_from_doc(doc)
    assert set(back.comps) == {(0, 2)}
    assert np.array_equal(back.comps[(0, 2)], f.comps[(0, 2)])
    doc["components"] = {"2,0": doc["components"]["0,2"]}
    with pytest.raises(ShapeError):
        serialize.form_from_doc(doc)


def test_save_document_bytes_match_json_dump(tmp_path):
    w = _connection(SU2, seed=6)
    doc = serialize.connection_to_doc(w)
    doc["note"] = {"unicode": "\u00e9", "float": 0.1, "neg_zero": -0.0}
    path = tmp_path / "fast.json"
    serialize.save_document(doc, str(path))
    with open(tmp_path / "stream.json", "w") as fh:
        json.dump(doc, fh)
    assert path.read_bytes() == (tmp_path / "stream.json").read_bytes()


# ---------------------------------------------------------------------------
# scene configs


def test_parse_config_text():
    cfg = parse_config_text("a.b = 1 # comment\n\n# full comment\nc = x,y\n")
    assert cfg == {"a.b": "1", "c": "x,y"}
    with pytest.raises(ConfigError):
        parse_config_text("no equals sign here")


def test_scene_config_defaults_and_validation():
    sc = SceneConfig({"base.sizes": "4", "fiber.sizes": "8,8"})
    assert sc.grid.sizes == (4, 8, 8)
    assert sc.grid.base_axes == (0,)
    assert sc.group == U1 and sc.classes == (0,)
    with pytest.raises(ConfigError):
        SceneConfig({"base.sizes": "4", "fiber.sizes": "8,8", "classes": "1"})
    with pytest.raises(ConfigError):
        SceneConfig({"group": "e8"})


def test_scene_build_connection_deterministic():
    raw = {"base.sizes": "4", "fiber.sizes": "8", "family": "u1_harmonic",
           "seed": "3", "classes": "1"}
    w1 = SceneConfig(raw).build_connection()
    w2 = SceneConfig(raw).build_connection()
    assert all(np.array_equal(w1.comps[a], w2.comps[a]) for a in w1.comps)


def test_report_hash_ignores_timings():
    rep = {"checks": [1, 2], "timings": {"wall_seconds": 0.5}}
    other = {"checks": [1, 2], "timings": {"wall_seconds": 99.0}}
    assert report_hash(rep) == report_hash(other)
    assert report_hash(rep) != report_hash({"checks": [1, 3]})


# ---------------------------------------------------------------------------
# CLI


def test_expand_stdout(capsys):
    assert main(["expand", "--fiber-dim", "2", "--poly-degree", "2"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "NablaPhi^2 + 2*FA*FPhi"


def test_expand_latex(capsys):
    assert main(["expand", "--fiber-dim", "6", "--poly-degree", "3",
                 "--latex"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "F_{\\Phi}^{3}"


def test_expand_json_parses(capsys):
    assert main(["expand", "--fiber-dim", "3", "--poly-degree", "3",
                 "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert {"word": ["FA", "FPhi", "NablaPhi"], "coeff": "6/1"} in doc["terms"]


def test_expand_out_of_range_exit_code(capsys):
    assert main(["expand", "--fiber-dim", "9", "--poly-degree", "4"]) == \
        EXIT_VALIDATION
    assert "error" in capsys.readouterr().err


def test_transform_round_trip(tmp_path, capsys):
    w = _connection(U1, seed=4, twist=1)
    src = tmp_path / "w.json"
    serialize.save_document(serialize.connection_to_doc(w), str(src))
    assert main(["transform", "--input", str(src),
                 "--direction", "roundtrip"]) == EXIT_OK
    assert "roundtrip: exact" in capsys.readouterr().out


def test_transform_forward_then_inverse(tmp_path):
    w = _connection(SU2, seed=5)
    src = tmp_path / "w.json"
    pair = tmp_path / "pair.json"
    back = tmp_path / "back.json"
    serialize.save_document(serialize.connection_to_doc(w), str(src))
    assert main(["transform", "--input", str(src), "--direction", "forward",
                 "--output", str(pair)]) == EXIT_OK
    assert main(["transform", "--input", str(pair), "--direction", "inverse",
                 "--output", str(back)]) == EXIT_OK
    assert serialize.load_document(str(src)) == serialize.load_document(str(back))


def test_transform_bad_json_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["transform", "--input", str(bad),
                 "--direction", "forward"]) == EXIT_VALIDATION
    capsys.readouterr()


def test_transform_missing_file_exit_code(tmp_path, capsys):
    assert main(["transform", "--input", str(tmp_path / "nope.json"),
                 "--direction", "forward"]) == 3
    capsys.readouterr()


def test_classes_twist_scene(tmp_path, capsys):
    cfg = tmp_path / "scene.cfg"
    cfg.write_text("base.sizes = 4\nfiber.sizes = 16,16\ngroup = u1\n"
                   "family = zero\ntwist = 1\nclasses = 0\n"
                   "expect.pairing = 1\n")
    rep = tmp_path / "report.json"
    assert main(["classes", "--config", str(cfg), "--report", str(rep)]) == EXIT_OK
    doc = json.loads(rep.read_text())
    assert doc["report_hash"] == report_hash(doc)
    val = doc["pairings"][0]["value"]
    assert val[0] == pytest.approx(1.0, abs=1e-8)
    # closedness is reported, not judged: no pass flag without a tolerance
    (closed,) = [c for c in doc["checks"] if c["name"] == "closedness_r0"]
    assert closed["informational"] is True and "pass" not in closed
    capsys.readouterr()


def test_classes_expectation_failure_exit_code(tmp_path, capsys):
    cfg = tmp_path / "scene.cfg"
    cfg.write_text("base.sizes = 4\nfiber.sizes = 16,16\ntwist = 1\n"
                   "classes = 0\nexpect.pairing = 2\n")
    assert main(["classes", "--config", str(cfg),
                 "--report", str(tmp_path / "r.json")]) == EXIT_TOLERANCE
    capsys.readouterr()


def test_classes_bad_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "scene.cfg"
    cfg.write_text("fiber.sizes = 8,8\nclasses = 1\n")  # parity mismatch
    assert main(["classes", "--config", str(cfg)]) == EXIT_VALIDATION
    capsys.readouterr()


@pytest.mark.parametrize("line", ["base.sizes = a", "fiber.lengths = 6.28,x", "seed = -1",
                                  "fiber.lengths = nan,6.28", "base.lengths = inf"])
def test_classes_malformed_number_exit_code(tmp_path, capsys, line):
    cfg = tmp_path / "scene.cfg"
    cfg.write_text(f"fiber.sizes = 8,8\nclasses = 0\n{line}\n")
    assert main(["classes", "--config", str(cfg)]) == EXIT_VALIDATION
    assert "error" in capsys.readouterr().err


def test_transform_non_object_document_exit_code(tmp_path, capsys):
    src = tmp_path / "list.json"
    src.write_text("[1,2]")
    assert main(["transform", "--input", str(src),
                 "--direction", "forward"]) == EXIT_VALIDATION
    assert "error" in capsys.readouterr().err


def test_universal_command_and_determinism(tmp_path, capsys):
    r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["universal", "--graph", "torus:4:4", "--group", "su2",
                 "--seed", "5", "--report", str(r1)]) == EXIT_OK
    assert main(["universal", "--graph", "torus:4:4", "--group", "su2",
                 "--seed", "5", "--report", str(r2)]) == EXIT_OK
    a, b = json.loads(r1.read_text()), json.loads(r2.read_text())
    assert a["report_hash"] == b["report_hash"]
    assert all(c["pass"] for c in a["checks"])
    capsys.readouterr()


def test_universal_bad_graph_exit_code(capsys):
    assert main(["universal", "--graph", "ring:2"]) == EXIT_VALIDATION
    capsys.readouterr()


@pytest.mark.parametrize("spec", ["torus:x:4", "ring:abc"])
def test_universal_malformed_graph_spec_exit_code(capsys, spec):
    assert main(["universal", "--graph", spec]) == EXIT_VALIDATION
    assert "error" in capsys.readouterr().err


def test_universal_has_no_checks_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["universal", "--checks", "nonsense"])
    assert exc.value.code == EXIT_VALIDATION
    capsys.readouterr()


def test_selftest_green_and_deterministic(tmp_path, capsys):
    r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["selftest", "--seed", "7", "--report", str(r1)]) == EXIT_OK
    assert main(["selftest", "--seed", "7", "--report", str(r2)]) == EXIT_OK
    a, b = json.loads(r1.read_text()), json.loads(r2.read_text())
    assert a["report_hash"] == b["report_hash"]
    assert all(c["pass"] for c in a["checks"])
    capsys.readouterr()


def test_classes_max_mode_bound_exit_code(tmp_path, capsys):
    cfg = tmp_path / "scene.cfg"
    cfg.write_text("base.sizes = 4\nfiber.sizes = 8\nfamily = u1_harmonic\n"
                   "family.max_mode = 1000\nclasses = 1\n")
    assert main(["classes", "--config", str(cfg)]) == EXIT_VALIDATION
    assert "max_mode" in capsys.readouterr().err


def _zero_connection_doc() -> dict:
    grid = Grid(sizes=(4, 4, 4), base_axes=(0,))
    return json.loads(json.dumps(serialize.connection_to_doc(
        ProductConnection.zero(grid, U1))))


@pytest.mark.parametrize("path,value", [
    (("grid", "sizes"), [4, "x", 4]),
    (("twist",), "a"),
    (("components", "1"), "abc"),
    (("components", "1"), [[[0.0, 0.0]], [[0.0]]]),
    (("components", "1"), 5),
    (("twist",), 1.5),
    (("twist",), True),
    (("grid", "sizes"), [4.9, 4, 4]),
    (("grid", "sizes"), [4, "4", 4]),
    (("grid", "base_axes"), [0.0]),
])
def test_transform_malformed_values_exit_code(tmp_path, capsys, path, value):
    doc = _zero_connection_doc()
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    src = tmp_path / "w.json"
    src.write_text(json.dumps(doc))
    assert main(["transform", "--input", str(src),
                 "--direction", "forward"]) == EXIT_VALIDATION
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("block,key,direction", [
    ("components", "7", "forward"),
    ("components", "7", "roundtrip"),
    ("components", "-1", "forward"),
    ("Phi", "0", "inverse"),
    ("A", "2", "inverse"),
])
def test_transform_stray_component_key_exit_code(tmp_path, capsys, block, key,
                                                 direction):
    """A component for an axis the block does not have is rejected, not dropped."""
    doc = _zero_connection_doc()
    if block != "components":
        doc = serialize.pair_to_doc(*forward_transform(serialize.connection_from_doc(doc)))
    doc[block][key] = doc[block][next(iter(doc[block]))]
    src = tmp_path / "w.json"
    src.write_text(json.dumps(doc))
    assert main(["transform", "--input", str(src), "--direction", direction,
                 "--output", str(tmp_path / "out.json")]) == EXIT_VALIDATION
    assert "no axis" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


# integers stay small, so a mutated grid size never asks for a large grid
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)

# paths into a saved zero connection; the entry at the end is replaced
_mutation_paths = st.sampled_from([
    ("kind",), ("group",), ("twist",), ("grid",), ("grid", "sizes"),
    ("grid", "sizes", 1), ("grid", "lengths", 0), ("grid", "base_axes"),
    ("components",), ("components", "0"), ("components", "2", 1),
    ("components", "1", 2, 3), ("components", "1", 0, 0, 1),
])


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(path=_mutation_paths, value=_json_values, rename=st.booleans(),
       direction=st.sampled_from(["forward", "inverse", "roundtrip"]))
def test_transform_fuzzed_document_never_crashes(tmp_path, capsys, path, value,
                                                 rename, direction):
    """A saved zero connection with one entry replaced (or its key renamed)
    ends with a documented exit code, never an exception."""
    doc = _zero_connection_doc()
    target = doc
    for key in path[:-1]:
        target = target[key]
    if rename and isinstance(target, dict) and isinstance(value, str):
        target[value] = target.pop(path[-1])
    else:
        target[path[-1]] = value
    src = tmp_path / "fuzz.json"
    src.write_text(json.dumps(doc))
    code = main(["transform", "--input", str(src), "--direction", direction,
                 "--output", str(tmp_path / "out.json")])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in capsys.readouterr().err


# a small valid scene: twist 1 on a 4 x 4 x 4 grid, whose point pairing is 1
_SCENE = {
    "base.sizes": "4", "fiber.sizes": "4,4", "base.lengths": "6.0",
    "fiber.lengths": "6.0,7.0", "group": "u1", "family": "u1_harmonic",
    "family.max_mode": "1", "seed": "3", "twist": "1", "poly.kind": "chern_normalized",
    "classes": "0", "tol.pairing": "1e-8", "expect.pairing": "1",
}

# numbers and lists stay small, so a mutated size never asks for a large grid
_small_int = st.integers(-3, 9).map(str)
_scene_values = st.one_of(
    _small_int,
    st.lists(_small_int, min_size=1, max_size=3).map(",".join),
    st.floats().map(repr),
    st.sampled_from(["", "nan", "inf", "-0", "1e400", "0x10", "4,", ",", "u1", "su2",
                     "zero", "su2_band_limited", "constant_curvature_torus",
                     "chern_normalized", "trace"]),
    st.text(max_size=4),
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(sorted(_SCENE)), value=st.none() | _scene_values)
def test_classes_fuzzed_scene_never_crashes(tmp_path, capsys, key, value):
    """A small valid scene with one key replaced (or dropped, for None) ends
    with a documented exit code, never an exception."""
    scene = dict(_SCENE)
    if value is None:
        del scene[key]
    else:
        scene[key] = value
    cfg = tmp_path / "scene.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in scene.items()))
    code = main(["classes", "--config", str(cfg), "--report", str(tmp_path / "r.json")])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in capsys.readouterr().err


def test_classes_fuzz_base_scene_passes(tmp_path, capsys):
    cfg = tmp_path / "scene.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in _SCENE.items()))
    assert main(["classes", "--config", str(cfg), "--report", str(tmp_path / "r.json")]) \
        == EXIT_OK
    capsys.readouterr()
