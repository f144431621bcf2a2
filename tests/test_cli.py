"""CLI, serialization and scene-config tests: exit codes, round trips, determinism."""
import argparse
import gc
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from caloron import chernweil, cli, lattice as lat, serialize, universal
from caloron.cli import (EXIT_IO, EXIT_OK, EXIT_TOLERANCE, EXIT_VALIDATION, cmd_transform,
                         main, run)
from caloron.errors import ConfigError, SingularOperatorError
from caloron.lattice import SU2, U1, Grid
from caloron.scene import SCENE_KEYS, SceneConfig, parse_config_text, report_hash
from caloron.transform import (MAX_CONNECTION_BYTES, GaugeGroupConnection, HiggsFieldMap,
                               ProductConnection, check_connection, forward_transform,
                               link_inverse)


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


def test_document_kind():
    w = _connection()
    assert serialize.document_kind(serialize.connection_to_doc(w)) == "product_connection"
    assert serialize.document_kind(serialize.pair_to_doc(*forward_transform(w))) == \
        "transform_pair"


def _decode_array_oracle(data, group):
    """The complex array whose parts are the [re, im] pairs' exact bits."""
    raw = np.asarray(data).astype(float)
    cplx = np.empty(raw.shape[:-1], complex)
    cplx.real, cplx.imag = raw[..., 0], raw[..., 1]
    return cplx if group == U1 else cplx.reshape(cplx.shape[:-1] + (2, 2))


@pytest.mark.parametrize("group,shape", [(U1, (5, 2)), (U1, (3, 4, 2, 2)),
                                         (SU2, (2, 3, 4, 2))])
def test_decode_array_matches_numpy_conversion(group, shape):
    """Ints, signed zeros, subnormals, infinities and nan decode to the exact
    bits of their [re, im] pairs."""
    values = np.array([0.0, -0.0, 1.5, -2.25e-300, 5e-324, 1.7e308, float("inf"),
                       float("-inf"), float("nan"), 0, 7, -3, 2 ** 53 + 1], dtype=object)
    data = json.loads(json.dumps(
        np.random.default_rng(13).choice(values, size=shape).tolist()))
    got = serialize._decode_array(data, group)
    want = _decode_array_oracle(data, group)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("group,shape", [(U1, (3, 4)), (SU2, (3, 2, 2))])
def test_encode_decode_keeps_special_values_bit_exact(group, shape):
    """-0.0, +-inf and nan in either part survive encode, JSON text and decode."""
    specials = np.array([-0.0, float("inf"), float("-inf"), float("nan"), 0.0, 1.5])
    rng = np.random.default_rng(17)
    arr = np.empty(shape, complex)
    arr.real, arr.imag = rng.choice(specials, size=shape), rng.choice(specials, size=shape)
    arr.flat[0] = complex(1.0, -0.0)
    arr.flat[1] = complex(0.0, float("inf"))
    text = json.dumps(serialize._encode_array(arr, group))
    back = serialize._decode_array(json.loads(text), group)
    assert back.shape == arr.shape and back.tobytes() == arr.tobytes()


def _noted_document():
    doc = serialize.connection_to_doc(_connection(SU2, seed=6))
    doc["note"] = {"unicode": "\u00e9", "float": 0.1, "neg_zero": -0.0,
                   "nested": {"empty": {}}, "empty_list": [], "cl\u00e9": "\u00e9\n",
                   "nan": float("nan"), "inf": [float("inf"), -float("inf")],
                   2: None, True: 1.5}  # json.dumps writes keys 2 and True as "2", "true"
    return doc


@pytest.mark.parametrize("make_doc", [
    lambda: serialize.connection_to_doc(_connection(U1, seed=5, twist=2)),
    lambda: serialize.connection_to_doc(_connection(SU2, seed=6)),
    lambda: serialize.pair_to_doc(*forward_transform(_connection(SU2, seed=7))),
    _noted_document,
], ids=["u1-connection", "su2-connection", "su2-pair", "noted"])
def test_save_document_bytes_match_json_dump(tmp_path, make_doc):
    """The streamed writer writes json.dumps's bytes, and json.dump's."""
    doc = make_doc()
    path = tmp_path / "fast.json"
    serialize.save_document(doc, str(path))
    with open(tmp_path / "stream.json", "w") as fh:
        json.dump(doc, fh)
    assert path.read_bytes() == json.dumps(doc).encode()
    assert path.read_bytes() == (tmp_path / "stream.json").read_bytes()


def test_save_document_peak_memory(tmp_path):
    """Writing a document holds neither its whole text nor the encoder's
    pieces of it: with the collector paused, as `transform` runs, the traced
    peak stays under half the file (one text of the whole would be 2x)."""
    grid = Grid(sizes=(4,) * 6, base_axes=(0, 1, 2))
    A = lat.sample("su2_band_limited", grid, SU2, {"max_mode": 1}, seed=8)
    doc = serialize.connection_to_doc(ProductConnection.from_one_form(A))
    path = tmp_path / "w.json"
    with serialize.collector_paused():
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            serialize.save_document(doc, str(path))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    assert peak < path.stat().st_size / 2, (peak, path.stat().st_size)


@pytest.mark.parametrize("group", [U1, SU2])
def test_pair_doc_keeps_every_bit(group):
    """-0.0, +-inf and NaNs with their own payloads and signs survive a pair
    document's JSON text, since its arrays are packed float64 bytes."""
    grid = Grid(sizes=(4, 4), base_axes=(0,))
    nans = np.array([0x7FF8_0000_DEAD_BEEF, 0xFFF0_0000_0000_0001], dtype=np.uint64).view(float)
    specials = np.concatenate([[-0.0, 0.0, np.inf, -np.inf, 1.5], nans])
    shape = grid.sizes + lat.value_shape(group)
    rng = np.random.default_rng(19)
    comps = [rng.choice(specials, size=shape + (2,)).view(complex)[..., 0] for _ in range(2)]
    a = GaugeGroupConnection(grid, group, {0: comps[0]})
    phi = HiggsFieldMap(grid, group, {1: comps[1]})
    a2, phi2 = serialize.pair_from_doc(json.loads(json.dumps(serialize.pair_to_doc(a, phi))))
    assert a2.comps[0].tobytes() == comps[0].tobytes()
    assert phi2.comps[1].tobytes() == comps[1].tobytes()


def test_read_pair_peak_memory(tmp_path):
    """Reading a packed pair document holds its text, its parsed strings and
    their bytes, never a Python object per value: with the collector paused,
    as `transform` runs, the traced peak of reading the benchmark-sized
    (8,32,32) SU(2) pair stays under 3x the file (listed arrays took 5.4x)."""
    grid = Grid(sizes=(8, 32, 32), base_axes=(0,))
    A = lat.sample("su2_band_limited", grid, SU2, {"max_mode": 1}, seed=4)
    path = tmp_path / "pair.json"
    serialize.save_document(serialize.pair_to_doc(
        *forward_transform(ProductConnection.from_one_form(A))), str(path))
    with serialize.collector_paused():
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            serialize.pair_from_doc(serialize.load_document(str(path)))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    assert peak < 3 * path.stat().st_size, (peak, path.stat().st_size)


@pytest.mark.parametrize("group", [U1, SU2])
def test_inverse_writes_listed_connection(tmp_path, group):
    """A connection document `transform --direction inverse` writes keeps
    its arrays as nested lists, which np.asarray reads as the float pairs
    (the benchmark's forward/inverse oracle reads them so)."""
    w = _connection(group, seed=9)
    src, pair, back = (tmp_path / n for n in ("w.json", "pair.json", "back.json"))
    serialize.save_document(serialize.connection_to_doc(w), str(src))
    assert main(["transform", "--input", str(src), "--direction", "forward",
                 "--output", str(pair)]) == EXIT_OK
    assert main(["transform", "--input", str(pair), "--direction", "inverse",
                 "--output", str(back)]) == EXIT_OK
    doc = json.loads(back.read_text())
    for a in range(w.grid.dim):
        x = w.component(a).reshape(w.grid.sizes + (-1,))
        want = np.stack([x.real, x.imag], axis=-1)
        if group == U1:
            want = want[..., 0, :]
        got = np.asarray(doc["components"][str(a)], dtype=float)
        assert got.shape == want.shape and np.array_equal(got, want)


# ---------------------------------------------------------------------------
# scene configs


def test_parse_config_text():
    cfg = parse_config_text("a.b = 1 # comment\n\n# full comment\nc = x,y\n")
    assert cfg == {"a.b": "1", "c": "x,y"}
    with pytest.raises(ConfigError):
        parse_config_text("no equals sign here")
    with pytest.raises(ConfigError, match="line 3: key 'twist' given twice"):
        parse_config_text("twist = 1\nseed = 2\n twist=2\n")


@pytest.mark.parametrize("scene,key", [
    ("fibre.sizes = 8,8\n", "fibre.sizes"),
    ("twist = 1\ntwist = 2\n", "twist"),
    ("classes = 0\nTwist = 1\n", "Twist"),
])
def test_classes_unknown_or_repeated_scene_key_exit_code(tmp_path, capsys, scene, key):
    """A misspelt key would leave its default in force, and a repeated one
    would let the last line win: each exits 2 and names the key."""
    cfg = tmp_path / "scene.cfg"
    cfg.write_text(scene)
    assert main(["classes", "--config", str(cfg)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert repr(key) in err and "Traceback" not in err


def test_scene_keys_are_the_fuzzed_scene_keys():
    assert set(SCENE_KEYS) == set(_SCENE)


def _formats_scene_block() -> list:
    """The (key, value) lines of the scene-config block in docs/formats.md,
    comments dropped."""
    text = (Path(__file__).parent.parent / "docs" / "formats.md").read_text()
    block = text.split("## Scene configuration", 1)[1].split("```\n", 1)[1].split("```", 1)[0]
    return [tuple(part.strip() for part in line.split("=", 1))
            for line in block.splitlines() if line.strip()]


def test_formats_scene_block_matches_code():
    """docs/formats.md lists every scene key once, and names exactly the
    polynomial kinds chernweil accepts."""
    lines = _formats_scene_block()
    keys = [key for key, _ in lines]
    assert sorted(keys) == sorted(SCENE_KEYS)
    (poly,) = [value for key, value in lines if key == "poly.kind"]
    documented = {kind.strip() for kind in poly.split("#", 1)[1].split("|")}
    assert documented == set(chernweil.KINDS)
    SceneConfig(parse_config_text("\n".join(f"{k} = {v}" for k, v in lines)))


@pytest.mark.parametrize("scene", [
    "base.sizes = 4\nfiber.sizes = 8,8\nclasses =\nexpect.pairing = 5\n",
    "base.sizes = 4\nfiber.sizes = 8\nfamily = u1_harmonic\nclasses = 3\n",
    "base.sizes = 4,4\nfiber.sizes = 8,8\nfamily = u1_harmonic\nclasses = 0,4\n",
    "base.sizes = 4\nfiber.sizes = 8\nfamily = u1_harmonic\nclasses = -1\n",
    "base.sizes = 4\nfiber.sizes = 8,8\nfamily = zero\ntwist = 1\nclasses = 0,0\n"
    "expect.pairing = 1\n",
], ids=["empty", "above-one-base-axis", "above-two-base-axes", "negative", "repeated"])
def test_classes_out_of_range_exit_code(tmp_path, capsys, monkeypatch, scene):
    """An empty classes list would check nothing and pass, a degree above
    the base dimension would be found only after sampling, and a repeated
    degree would be computed twice under the same check names: each exits 2,
    naming classes, before anything is sampled."""
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the scene was validated")

    monkeypatch.setattr("caloron.scene.sample", no_sampling)
    cfg = tmp_path / "scene.cfg"
    cfg.write_text(scene)
    assert main(["classes", "--config", str(cfg)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "classes" in err and "Traceback" not in err


def test_classes_unknown_poly_kind_exit_code(tmp_path, capsys, monkeypatch):
    """A poly.kind outside chernweil.KINDS exits 2, naming the kinds there
    are, before anything is sampled."""
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before poly.kind was validated")

    monkeypatch.setattr("caloron.scene.sample", no_sampling)
    scene = "fiber.sizes = 8,8\nfamily = u1_harmonic\nclasses = 0\npoly.kind = power\n"
    with pytest.raises(ConfigError, match="unknown polynomial kind 'power'"):
        SceneConfig(parse_config_text(scene))
    cfg = tmp_path / "scene.cfg"
    cfg.write_text(scene)
    assert main(["classes", "--config", str(cfg),
                 "--report", str(tmp_path / "r.json")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "sym_trace" in err and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


def test_scene_config_defaults_and_validation():
    sc = SceneConfig({"base.sizes": "4", "fiber.sizes": "8,8"})
    assert sc.grid.sizes == (4, 8, 8)
    assert sc.grid.base_axes == (0,)
    assert sc.group == U1 and sc.classes == (0,)
    with pytest.raises(ConfigError, match="must have the same parity"):
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


def _report(path: Path) -> dict:
    """A report read as strict JSON: json.dumps writes a non-finite float as
    NaN or Infinity, which is not JSON, so reading one raises."""
    def reject(name):
        raise ValueError(f"{path.name} holds {name}, which is not JSON")

    return json.loads(path.read_text(), parse_constant=reject)


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


def test_expand_latex_and_json_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["expand", "--fiber-dim", "2", "--poly-degree", "2", "--latex", "--json"])
    assert exc.value.code == EXIT_VALIDATION
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--abelian"], ["--string"], ["--table"],
                                  ["--low-degree", "2"]])
def test_expand_has_no_variant_options(capsys, flag):
    """expand prints caloron_integrand(d, k) only; the variants it once
    offered printed the same bytes where they were valid."""
    with pytest.raises(SystemExit) as exc:
        main(["expand", "--fiber-dim", "2", "--poly-degree", "2"] + flag)
    assert exc.value.code == EXIT_VALIDATION
    assert "unrecognized arguments" in capsys.readouterr().err


def _readme_commands() -> list:
    """The `caloron ...` lines of README's command-line block, split as a
    shell splits them (comments dropped)."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines()
            if line.startswith("caloron ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert {argv[1] for argv in commands} == \
        {"expand", "transform", "classes", "universal", "selftest"}
    for argv in commands:
        cli.build_parser().parse_args(argv[1:])


def test_transform_round_trip(tmp_path, capsys):
    w = _connection(U1, seed=4, twist=1)
    src = tmp_path / "w.json"
    serialize.save_document(serialize.connection_to_doc(w), str(src))
    assert main(["transform", "--input", str(src),
                 "--direction", "roundtrip"]) == EXIT_OK
    assert "roundtrip: exact" in capsys.readouterr().out


def test_transform_roundtrip_compares_bits_nan(tmp_path, capsys):
    """A NaN entry round-trips bit for bit, so the roundtrip is exact."""
    doc = _zero_connection_doc()
    doc["components"]["1"][0][0][0] = [float("nan"), 0.0]
    src = tmp_path / "w.json"
    src.write_text(json.dumps(doc))
    assert main(["transform", "--input", str(src), "--direction", "roundtrip"]) == EXIT_OK
    assert "roundtrip: exact" in capsys.readouterr().out


def test_transform_roundtrip_compares_bits_signed_zero(tmp_path, capsys, monkeypatch):
    """A transform that loses the sign of a zero is a mismatch, though
    -0.0 == 0.0."""
    doc = _zero_connection_doc()
    doc["components"]["1"][0][0][0] = [-0.0, 0.0]
    src = tmp_path / "w.json"
    src.write_text(json.dumps(doc))

    def unsigned_forward(w):
        w = ProductConnection(w.grid, w.group, {a: v + 0.0 for a, v in w.comps.items()},
                              twist=w.twist)
        return forward_transform(w)

    monkeypatch.setattr(cli, "forward_transform", unsigned_forward)
    assert main(["transform", "--input", str(src), "--direction", "roundtrip"]) == \
        EXIT_TOLERANCE
    assert "roundtrip: MISMATCH" in capsys.readouterr().err


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
    """Text that is not JSON, or bytes that are not UTF-8, exit 2."""
    bad = tmp_path / "bad.json"
    for content in (b"{not json", b"\xff{}"):
        bad.write_bytes(content)
        assert main(["transform", "--input", str(bad),
                     "--direction", "forward"]) == EXIT_VALIDATION
        assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "[" * 100000 + "]" * 100000,
    '{"kind": "product_connection", "twist": ' + "9" * 5000 + "}",
], ids=["nested", "long-integer"])
def test_transform_unreadable_document_exit_code(tmp_path, capsys, text):
    """Nesting past the parser's recursion limit, or an integer past int()'s
    digit limit, is the reader's ConfigError and exits 2; json.load raises
    RecursionError or ValueError there."""
    src, out = tmp_path / "w.json", tmp_path / "out.json"
    src.write_text(text)
    with pytest.raises(ConfigError, match="unreadable document"):
        serialize.load_document(str(src))
    assert main(["transform", "--input", str(src), "--direction", "forward",
                 "--output", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "unreadable document" in err and "Traceback" not in err
    assert not out.exists()


def test_transform_missing_file_exit_code(tmp_path, capsys):
    assert main(["transform", "--input", str(tmp_path / "nope.json"),
                 "--direction", "forward"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("case,want", [("exact", EXIT_OK), ("malformed", EXIT_VALIDATION),
                                       ("missing", EXIT_IO)])
def test_transform_pauses_and_restores_collector(tmp_path, capsys, monkeypatch, enabled,
                                                 case, want):
    """`transform` runs with the cyclic collector off and leaves it as the
    caller had it, on success, a malformed document and a missing file."""
    src = tmp_path / "w.json"
    if case != "missing":
        doc = _zero_connection_doc()
        if case == "malformed":
            doc["twist"] = "a"
        src.write_text(json.dumps(doc))
    seen = []
    load = serialize.load_document
    monkeypatch.setattr(serialize, "load_document",
                        lambda path: seen.append(gc.isenabled()) or load(path))
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        code = main(["transform", "--input", str(src), "--direction", "roundtrip"])
        after = gc.isenabled()
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert (code, seen, after) == (want, [False], enabled)
    capsys.readouterr()


def test_transform_resumes_collector_after_dropping_documents(tmp_path, capsys,
                                                             monkeypatch):
    """The collector resumes only once the command's documents are freed, so
    its first collection does not walk them."""
    class Doc(dict):  # a dict that takes weak references
        pass

    refs, alive = [], []
    load = serialize.load_document

    def load_tracked(path):
        doc = Doc(load(path))
        refs.append(weakref.ref(doc))
        return doc

    def on_collect(phase, info):
        if phase == "start" and refs:
            alive.append(any(r() is not None for r in refs))

    src = tmp_path / "w.json"
    src.write_text(json.dumps(_zero_connection_doc()))
    monkeypatch.setattr(serialize, "load_document", load_tracked)
    was_enabled, threshold = gc.isenabled(), gc.get_threshold()
    gc.enable()
    gc.set_threshold(1)  # collect at the first allocation once resumed
    gc.callbacks.append(on_collect)
    try:
        code = main(["transform", "--input", str(src), "--direction", "roundtrip"])
    finally:
        gc.callbacks.remove(on_collect)
        gc.set_threshold(*threshold)
        (gc.enable if was_enabled else gc.disable)()
    assert code == EXIT_OK and alive and not any(alive)
    capsys.readouterr()


@pytest.mark.parametrize("group", [U1, SU2])
def test_transform_leaves_no_cyclic_garbage(tmp_path, capsys, group):
    """Pausing the collector loses nothing: with it off, the transform
    commands leave no garbage that only the cycle collector could free."""
    src, pair, back, bad = (tmp_path / n for n in ("w.json", "p.json", "b.json", "bad.json"))
    doc = serialize.connection_to_doc(_connection(group, seed=3))
    serialize.save_document(doc, str(src))
    bad.write_text(json.dumps(dict(doc, twist="a")))
    runs = [(src, "roundtrip", None, EXIT_OK), (src, "forward", pair, EXIT_OK),
            (pair, "inverse", back, EXIT_OK), (pair, "roundtrip", None, EXIT_OK),
            (bad, "forward", None, EXIT_VALIDATION)]
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for path, direction, out, want in runs:
            args = argparse.Namespace(input=str(path), direction=direction,
                                      output=out and str(out))
            assert run(cmd_transform, args) == want
            assert gc.collect() == 0, direction
    finally:
        if was_enabled:
            gc.enable()
    capsys.readouterr()


def test_classes_twist_scene(tmp_path, capsys):
    cfg = tmp_path / "scene.cfg"
    cfg.write_text("base.sizes = 4\nfiber.sizes = 16,16\ngroup = u1\n"
                   "family = zero\ntwist = 1\nclasses = 0\n"
                   "expect.pairing = 1\n")
    rep = tmp_path / "report.json"
    assert main(["classes", "--config", str(cfg), "--report", str(rep)]) == EXIT_OK
    doc = _report(rep)
    assert doc["report_hash"] == report_hash(doc)
    val = doc["pairings"][0]["value"]
    assert val[0] == pytest.approx(1.0, abs=1e-8)
    # closedness is reported, not judged: no pass flag without a tolerance
    (closed,) = [c for c in doc["checks"] if c["name"] == "closedness_r0"]
    assert closed["informational"] is True and "pass" not in closed
    capsys.readouterr()


def test_classes_refine_closed_scene_report_is_json(tmp_path, capsys):
    """On a scene closed at both resolutions the refinement ratio is undefined:
    the check leaves the residual out, instead of writing Infinity, and passes
    on the coarse residual alone."""
    cfg, rep = tmp_path / "scene.cfg", tmp_path / "report.json"
    cfg.write_text("base.sizes = 4\nfiber.sizes = 8,8\nfamily = zero\ntwist = 1\n"
                   "classes = 0\n")
    assert main(["classes", "--config", str(cfg), "--refine", "--report", str(rep)]) == EXIT_OK
    (ratio,) = [c for c in _report(rep)["checks"] if c["name"] == "closedness_ratio_r0"]
    assert ratio == {"name": "closedness_ratio_r0", "pass": True}
    capsys.readouterr()


def test_classes_expectation_failure_exit_code(tmp_path, capsys):
    cfg = tmp_path / "scene.cfg"
    cfg.write_text("base.sizes = 4\nfiber.sizes = 16,16\ntwist = 1\n"
                   "classes = 0\nexpect.pairing = 2\n")
    assert main(["classes", "--config", str(cfg),
                 "--report", str(tmp_path / "r.json")]) == EXIT_TOLERANCE
    capsys.readouterr()


def test_classes_bad_config_exit_code(tmp_path, capsys):
    """A parity mismatch, or bytes that are not UTF-8 (here in a comment of a
    scene that is otherwise valid), exit 2."""
    cfg = tmp_path / "scene.cfg"
    for content in (b"fiber.sizes = 8,8\nclasses = 1\n",
                    b"#\xff\nfiber.sizes = 8,8\nclasses = 0\n"):
        cfg.write_bytes(content)
        assert main(["classes", "--config", str(cfg)]) == EXIT_VALIDATION
        assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("line", ["base.sizes = a", "fiber.lengths = 6.28,x", "seed = -1",
                                  "fiber.lengths = nan,6.28", "base.lengths = inf",
                                  f"twist = {2 ** 53 + 1}",
                                  pytest.param("twist = 1" + "0" * 400, id="twist = 10**400"),
                                  pytest.param("base.sizes = 4,4\nbase.lengths = 1\n"
                                               "fiber.lengths = 2,3,4", id="lengths-count")])
def test_classes_malformed_number_exit_code(tmp_path, capsys, line):
    """Each line, added to a valid scene, exits 2.  In lengths-count base has
    one length too few and fiber one too many: the grid would take the four
    lengths in order, so the count is checked on each side."""
    cfg = tmp_path / "scene.cfg"
    cfg.write_text(f"fiber.sizes = 8,8\nclasses = 0\n{line}\n")
    assert main(["classes", "--config", str(cfg)]) == EXIT_VALIDATION
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("scene, lengths", [
    ("fiber.lengths = 1e-308,1\nfamily = u1_harmonic\n", "1e-308, 1.0"),
    ("fiber.lengths = 1e-308,1\nfamily = zero\ntwist = 1\n", "1e-308, 1.0"),
    ("fiber.lengths = 1e-160,1e-160\nfamily = zero\ntwist = 1\n", "1e-160, 1e-160"),
], ids=["wavenumber", "wavenumber-twist", "twist-constant"])
def test_classes_overflowing_lengths_exit_code(tmp_path, capsys, monkeypatch, scene, lengths):
    """Lengths whose wavenumber 2*pi/L or twist constant -2*pi*i*n/area is
    not finite are a config error naming the lengths (exit 2), raised before
    any sampling, not a report of NaN pairings that exits 0."""
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the lengths were checked")

    monkeypatch.setattr(lat, "sample", no_sampling)
    monkeypatch.setattr("caloron.scene.sample", no_sampling)
    cfg, rep = tmp_path / "scene.cfg", tmp_path / "r.json"
    cfg.write_text("base.sizes = 4\nfiber.sizes = 4,4\n" + scene)
    assert main(["classes", "--config", str(cfg), "--report", str(rep)]) == EXIT_VALIDATION
    assert f"lengths (6.283185307179586, {lengths})" in capsys.readouterr().err
    assert not rep.exists()


@pytest.mark.parametrize("line", ["tol.pairing = nan", "tol.pairing = inf",
                                  "tol.pairing = -inf", "tol.pairing = -1e-8",
                                  "expect.pairing = nan", "expect.pairing = inf",
                                  "expect.pairing = -inf"])
def test_classes_unusable_pairing_check_exit_code(tmp_path, capsys, line):
    """A pairing bound or expectation that no value could meet, or every
    value would, is a config error (exit 2), not a failed check (exit 4)."""
    key = line.split(" = ")[0]
    with pytest.raises(ConfigError, match=key):
        SceneConfig(parse_config_text(f"fiber.sizes = 8,8\nexpect.pairing = 1\n{line}\n"))
    cfg = tmp_path / "scene.cfg"
    cfg.write_text(f"base.sizes = 4\nfiber.sizes = 16,16\ntwist = 1\nclasses = 0\n"
                   f"expect.pairing = 1\n{line}\n")
    assert main(["classes", "--config", str(cfg)]) == EXIT_VALIDATION
    assert key in capsys.readouterr().err


def test_scene_config_zero_pairing_tolerance():
    cfg = SceneConfig({"fiber.sizes": "8,8", "tol.pairing": "0", "expect.pairing": "-2"})
    assert (cfg.tol_pairing, cfg.expect_pairing) == (0.0, -2.0)


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
    a, b = _report(r1), _report(r2)
    assert a["report_hash"] == b["report_hash"]
    assert all(c["pass"] for c in a["checks"])
    capsys.readouterr()


def test_universal_bad_graph_exit_code(capsys):
    assert main(["universal", "--graph", "ring:2"]) == EXIT_VALIDATION
    capsys.readouterr()


@pytest.mark.parametrize("spec", ["torus:x:4", "ring:abc", "torus:-3:-3", "torus:1:4",
                                  "torus:2:4"])
def test_universal_malformed_graph_spec_exit_code(capsys, spec):
    assert main(["universal", "--graph", spec]) == EXIT_VALIDATION
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("spec,canonical", [
    ("ring:+5", "ring:5"), ("ring:1_000", "ring:1000"), ("ring: 5", "ring:5"),
    ("torus:04:5", "torus:4:5"), ("ring:\u0665", "ring:5"), ("ring:5 ", "ring:5"),
])
def test_universal_noncanonical_graph_spec_exit_code(capsys, spec, canonical):
    """Sizes are canonical decimal, so one graph has one spec and one report
    hash; another spelling exits 2 and names the canonical one."""
    assert main(["universal", "--graph", spec]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"must be written {canonical!r}" in err and "Traceback" not in err


def test_universal_factor_size_limit_exit_code(capsys):
    """torus:200:200 is within the vertex cap, but its su(2) Green factor
    would take about 1.5 GiB: exit 2 before any block is allocated."""
    start = time.perf_counter()
    assert main(["universal", "--graph", "torus:200:200", "--group", "su2"]) == \
        EXIT_VALIDATION
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert "exceeds the limit" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["universal --graph torus:4:4 --group su2",
                                     "selftest --seed 7"])
def test_universal_solve_tolerance_exit_code(capsys, monkeypatch, command):
    """A Green solve that misses its residual tolerance, as on long su(2)
    rings whose Laplacian grows ill-conditioned with the length, exits 4
    without a traceback, in `universal` and in `selftest` alike."""
    def miss(self, v):
        raise SingularOperatorError("Green solve residual 1e-09 above tolerance")

    monkeypatch.setattr(universal.GreenOperator, "solve", miss)
    assert main(command.split()) == EXIT_TOLERANCE
    err = capsys.readouterr().err
    assert "tolerance error" in err and "Traceback" not in err


def test_universal_unknown_group_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["universal", "--group", "u2"])
    assert exc.value.code == EXIT_VALIDATION
    assert "invalid choice: 'u2'" in capsys.readouterr().err


def test_universal_has_no_checks_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["universal", "--checks", "nonsense"])
    assert exc.value.code == EXIT_VALIDATION
    capsys.readouterr()


@pytest.mark.parametrize("command", ["universal", "selftest"])
@pytest.mark.parametrize("seed", ["-1", "x"])
def test_bad_seed_exit_code(capsys, command, seed):
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", seed])
    assert exc.value.code == EXIT_VALIDATION
    assert "seed must be a non-negative integer" in capsys.readouterr().err


# sizes stay small; a large one fails the vertex cap before any edge is built
_graph_sizes = st.integers(-4, 7).map(str) | st.sampled_from(
    ["", "x", "0x4", "1e2", " 3", "+4", "99999999"]) | st.text(max_size=3)
_graph_specs = st.one_of(
    st.integers(-4, 12).map("ring:{}".format),
    st.builds("torus:{}:{}".format, st.integers(-4, 7), st.integers(-4, 7)),
    st.builds(lambda kind, sizes: ":".join([kind, *sizes]),
              st.sampled_from(["ring", "torus", "path", "Ring", ""]) | st.text(max_size=4),
              st.lists(_graph_sizes, max_size=3)))
_seeds = st.one_of(st.integers(-3, 9), st.integers(0, 2 ** 70)).map(str) | st.text(max_size=4)


_UNIVERSAL = {"graph": "torus:3:4", "group": SU2, "seed": "5"}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(sorted(_UNIVERSAL)), graph=_graph_specs,
       group=st.sampled_from([U1, SU2, "u2", ""]) | st.text(max_size=3), seed=_seeds)
def test_universal_fuzzed_arguments_never_crash(capsys, key, graph, group, seed):
    """A valid `universal` call with its graph spec, group or seed replaced
    ends with a documented exit code, never an exception; argparse reports a
    bad seed as exit 2."""
    args = dict(_UNIVERSAL, **{key: {"graph": graph, "group": group, "seed": seed}[key]})
    try:
        code = main(["universal"] + [f"--{k}={v}" for k, v in args.items()])
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in capsys.readouterr().err


def test_selftest_green_and_deterministic(tmp_path, capsys):
    r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["selftest", "--seed", "7", "--report", str(r1)]) == EXIT_OK
    assert main(["selftest", "--seed", "7", "--report", str(r2)]) == EXIT_OK
    a, b = _report(r1), _report(r2)
    assert a["report_hash"] == b["report_hash"]
    assert all(c["pass"] for c in a["checks"])
    capsys.readouterr()


# sampled `classes` scenes in u(1) and su(2) and their report hashes
_SAMPLED_CLASS_PINS = [
    ("base.sizes = 8,8\nfiber.sizes = 16,16\ngroup = u1\nfamily = u1_harmonic\n"
     "family.max_mode = 2\nseed = 5\ntwist = 2\nclasses = 0,2\n",
     "9de1dee05649377d6ce43f2c0cfb2a0d694e12e6c533a1b1848d35e7cabf14f6"),
    ("base.sizes = 4,4\nfiber.sizes = 8,8\ngroup = su2\nfamily = su2_band_limited\n"
     "family.max_mode = 1\nseed = 3\nclasses = 0,2\n",
     "0899c25dacf512fd596998ac9cbd1183787fcad32786fcb2fdef7a18d53f41e7"),
    ("base.sizes = 6,6,6\nfiber.sizes = 6\ngroup = su2\nfamily = su2_band_limited\n"
     "family.max_mode = 1\nseed = 4\nclasses = 1,3\n",
     "269eddc66903fb8672da9a6272c8afb339f1985975241acb8a04703215656a02"),
]


@pytest.mark.parametrize("scene,want", [
    (None, "5985fdaa3d7fe79026f5ebbc2b03ca015d7be011079701750ce636ec96dbb9aa"),
    *_SAMPLED_CLASS_PINS,
])
def test_report_hash_pinned(tmp_path, capsys, scene, want):
    """Reports of fixed runs keep their bits: `selftest --seed 7` (scene None)
    and three `classes` scenes.  The selftest pin also depends on OpenBLAS's
    core type, through the universal suite's residuals (5985fdaa... on
    SkylakeX, 235d44bd... on Haswell, 8c48332f... on Sandybridge); the class
    pins do not."""
    rep = tmp_path / "r.json"
    if scene is None:
        argv = ["selftest", "--seed", "7"]
    else:
        cfg = tmp_path / "scene.cfg"
        cfg.write_text(scene)
        argv = ["classes", "--config", str(cfg)]
    assert main(argv + ["--report", str(rep)]) == EXIT_OK
    assert _report(rep)["report_hash"] == want
    capsys.readouterr()


def _numpy_dispatched_targets() -> str:
    """The CPU targets this numpy dispatches to at run time, comma-separated."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__
    return ",".join(__cpu_dispatch__)


@pytest.mark.parametrize("env", [
    {"OPENBLAS_CORETYPE": "Prescott"},
    {"NPY_DISABLE_CPU_FEATURES": _numpy_dispatched_targets()},
], ids=["openblas-prescott", "numpy-baseline-only"])
def test_su2_class_hash_machine_independent(tmp_path, env):
    """The sampled class pins, u(1) and su(2), hold on OpenBLAS's oldest x86
    kernels and with numpy's SIMD dispatch off: the SU(2) products are float
    arithmetic in a fixed order, not zgemm or numpy's fused complex
    multiply, and the sampler's inverse FFT takes the same bits on either
    setting.  Each run is a child process, since both variables are read at
    import; where one does not apply (another BLAS or CPU), it is ignored."""
    env = {**os.environ, **env, "PYTHONPATH": str(Path(cli.__file__).parent.parent)}
    for n, (scene, want) in enumerate(_SAMPLED_CLASS_PINS):
        cfg, rep = tmp_path / f"scene{n}.cfg", tmp_path / f"r{n}.json"
        cfg.write_text(scene)
        out = subprocess.run([sys.executable, "-m", "caloron.cli", "classes", "--config",
                              str(cfg), "--report", str(rep)],
                             capture_output=True, text=True, env=env, timeout=120)
        assert out.returncode == EXIT_OK, out.stderr
        assert _report(rep)["report_hash"] == want, env


@pytest.mark.parametrize("graph,group,want", [
    ("torus:16:32", SU2, "b36155ea8c0b01322fd132cb6abba8cc9bd74801b4dfd55bb88f8adea663d93c"),
    ("ring:64", U1, "a754a6266289df7b8297c94619ee75f70536a284e9b459fc827b6e933e3bdc8a"),
])
def test_universal_report_hash_pinned(tmp_path, graph, group, want):
    """`universal --seed 3` reports keep their bits.  The residuals come from
    OpenBLAS matrix products whose bits depend on its thread count (two
    threads give 456ac0ac... on torus:16:32), so the command runs in a child
    process with one BLAS thread, as the benchmark runs it.  They also depend
    on OpenBLAS's core type: these pins are SkylakeX's, while Haswell gives
    5dd975d7... (torus) and c34d433b... (ring), Sandybridge ba1e495b... and
    12f20bf5...."""
    rep = tmp_path / "u.json"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(cli.__file__).parent.parent)}
    out = subprocess.run([sys.executable, "-m", "caloron.cli", "universal", "--graph", graph,
                          "--group", group, "--seed", "3", "--report", str(rep)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == EXIT_OK, out.stderr
    assert _report(rep)["report_hash"] == want


@pytest.mark.parametrize("group,seed,want_pair,want_back", [
    (U1, 11, "05ddb83d36d5e98248467b5c630131c56ec946dd121c09fd1f60c9d08e93522e",
     "ad5c8a53106386a006163a05fd2d6869293d1f3d536d5e1bb25fec4d08b31430"),
    (SU2, 12, "c227ddd1a3c78a6098d2d8258a370593a48a5ede7dcc4224d00fdd5ce587a60e",
     "f7601428169421547481df33afe5a266e371b24a8340ae95dffdeb2c2b417df1"),
])
def test_transform_output_hash_pinned(tmp_path, group, seed, want_pair, want_back):
    """The files `transform --direction forward` and `inverse` write for a
    fixed connection keep their bytes."""
    w = _connection(group, seed=seed, twist=2)
    # `+ 0.0` keeps negative zeros out, so the bytes pin the finite-value path
    w = ProductConnection(w.grid, w.group, {a: v + 0.0 for a, v in w.comps.items()},
                          twist=w.twist)
    src, pair, back = (tmp_path / n for n in ("w.json", "pair.json", "back.json"))
    serialize.save_document(serialize.connection_to_doc(w), str(src))
    assert main(["transform", "--input", str(src), "--direction", "forward",
                 "--output", str(pair)]) == EXIT_OK
    assert main(["transform", "--input", str(pair), "--direction", "inverse",
                 "--output", str(back)]) == EXIT_OK
    assert not re.search(r"-0\.0[,\]]|Infinity|NaN", src.read_text())
    # the pair's arrays are packed, so the same guard reads their decoded values
    a, phi = serialize.pair_from_doc(serialize.load_document(str(pair)))
    for arr in (*a.comps.values(), *phi.comps.values()):
        for part in (arr.real, arr.imag):
            assert np.isfinite(part).all() and not np.signbit(part[part == 0]).any()
    assert hashlib.sha256(pair.read_bytes()).hexdigest() == want_pair
    assert hashlib.sha256(back.read_bytes()).hexdigest() == want_back


@pytest.mark.parametrize("scene,refine", [
    ("base.sizes = 4096,4096\nfiber.sizes = 4096,4096\nfamily = u1_harmonic\n", False),
    ("base.sizes = 64,64\nfiber.sizes = 64,64\ngroup = su2\nfamily = su2_band_limited\n",
     False),
    # 2^23 points: 512 MiB for the u1 connection, 8 GiB refined
    ("base.sizes = 64,64\nfiber.sizes = 64,32\nfamily = u1_harmonic\n", True),
], ids=["u1-4096^4", "su2-64^4", "u1-refined"])
def test_classes_connection_size_limit_exit_code(tmp_path, capsys, scene, refine):
    """A scene whose connection would exceed MAX_CONNECTION_BYTES exits 2
    before anything is sampled; each scene's family belongs to its group, so
    only the size can fail it."""
    cfg = tmp_path / "scene.cfg"
    cfg.write_text(scene + "classes = 0\n")
    start = time.perf_counter()
    assert main(["classes", "--config", str(cfg)] + ["--refine"] * refine) == \
        EXIT_VALIDATION
    assert time.perf_counter() - start < 1.0
    assert "exceeds the limit" in capsys.readouterr().err


@pytest.mark.parametrize("group,fiber", [(U1, "64,64"), (SU2, "32,32")])
def test_scene_config_at_size_limit(group, fiber):
    """A grid whose connection takes exactly MAX_CONNECTION_BYTES builds its
    SceneConfig; one more point along an axis does not."""
    cfg = SceneConfig({"base.sizes": "64,64", "fiber.sizes": fiber, "group": group})
    nbytes = 16 * 4 * int(np.prod(cfg.grid.sizes)) * (4 if group == SU2 else 1)
    assert nbytes == MAX_CONNECTION_BYTES
    with pytest.raises(ConfigError, match=r"MiB on grid \(65, 64, [0-9, ]+\) exceeds the "
                                          "limit of 1024 MiB"):
        SceneConfig({"base.sizes": "65,64", "fiber.sizes": fiber, "group": group})


@pytest.mark.parametrize("group,family", [(SU2, "u1_harmonic"), (U1, "su2_band_limited"),
                                          (U1, "constant_curvature_torus")])
def test_classes_family_of_another_group_exit_code(tmp_path, capsys, monkeypatch,
                                                   group, family):
    """A scene family that does not sample the scene's group, or samples no
    connection at all, exits 2 before anything is sampled."""
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled")

    monkeypatch.setattr(lat, "band_limited_scalar", no_sampling)
    scene = (f"base.sizes = 4\nfiber.sizes = 8\ngroup = {group}\n"
             f"family = {family}\nclasses = 1\n")
    with pytest.raises(ConfigError, match="is not a sample family of group"):
        SceneConfig(parse_config_text(scene))
    cfg = tmp_path / "scene.cfg"
    cfg.write_text(scene)
    assert main(["classes", "--config", str(cfg),
                 "--report", str(tmp_path / "r.json")]) == EXIT_VALIDATION
    assert "is not a sample family of group" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_classes_su2_twist_exit_code(tmp_path, capsys, monkeypatch):
    """A twist on an su2 scene exits 2 before anything is sampled."""
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled")

    monkeypatch.setattr(lat, "band_limited_scalar", no_sampling)
    cfg = tmp_path / "scene.cfg"
    cfg.write_text("base.sizes = 4\nfiber.sizes = 8\ngroup = su2\n"
                   "family = su2_band_limited\ntwist = 1\nclasses = 1\n")
    assert main(["classes", "--config", str(cfg),
                 "--report", str(tmp_path / "r.json")]) == EXIT_VALIDATION
    assert "twists are supported for U(1) only" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_classes_max_mode_bound_exit_code(tmp_path, capsys):
    cfg = tmp_path / "scene.cfg"
    cfg.write_text("base.sizes = 4\nfiber.sizes = 8\nfamily = u1_harmonic\n"
                   "family.max_mode = 1000\nclasses = 1\n")
    assert main(["classes", "--config", str(cfg)]) == EXIT_VALIDATION
    assert "max_mode" in capsys.readouterr().err


# keys int() reads as an axis of a (4, 4, 4) grid, each spelled otherwise
# than the writers spell it
_NONCANONICAL_KEYS = ["00", " 0", "0 ", "+0", "0_2", "２"]


def _zero_connection_doc() -> dict:
    grid = Grid(sizes=(4, 4, 4), base_axes=(0,))
    return json.loads(json.dumps(serialize.connection_to_doc(
        ProductConnection.zero(grid, U1))))


class _RepeatedKeys(dict):
    """A JSON object that json.dumps writes with its pairs as given, so one
    key can appear twice in the text."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self._pairs = pairs

    def items(self):
        return iter(self._pairs)


_ZERO_COMPONENTS = _zero_connection_doc()["components"]


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
    (("grid", "lengths"), ["6.5", 6.5, 6.5]),
    (("components", "1", 0, 0, 0), ["0.25", 0.0]),
    (("components", "1"), [[[[True, False]] * 4] * 4] * 4),
    (("components", "1", 0, 0, 0), [True, False]),
    (("components",), _RepeatedKeys([("0", _ZERO_COMPONENTS["1"]),
                                      *_ZERO_COMPONENTS.items()])),
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


def _zero_pair_doc() -> dict:
    """The pair document of _zero_connection_doc: packed arrays, each of
    shape [4, 4, 4, 2], so 1024 bytes and 1368 base64 characters."""
    doc = serialize.connection_from_doc(_zero_connection_doc())
    return json.loads(json.dumps(serialize.pair_to_doc(*forward_transform(doc))))


_PAYLOAD = _zero_pair_doc()["Phi"]["1"]["base64"]


@pytest.mark.parametrize("key,value,match", [
    pytest.param("base64", _PAYLOAD[:-1], "not base64", id="truncated"),
    pytest.param("base64", _PAYLOAD[:-4], "holds 1023 bytes", id="short"),
    pytest.param("base64", "!" + _PAYLOAD[1:], "not base64", id="alphabet"),
    pytest.param("base64", _PAYLOAD[:8] + "\n" + _PAYLOAD[8:], "not base64", id="newline"),
    pytest.param("base64", _PAYLOAD[:8] + " " + _PAYLOAD[9:], "not base64", id="space"),
    pytest.param("base64", "\u00e9" + _PAYLOAD[1:], "not base64", id="non-ascii"),
    ("base64", 5, "must be a base64 string"),
    ("base64", None, "must be a base64 string"),
    ("base64", [_PAYLOAD], "must be a base64 string"),
    ("dtype", ">f8", "dtype must be '<f8'"),
    ("dtype", "<f4", "dtype must be '<f8'"),
    ("dtype", ["<f8"], "dtype must be '<f8'"),
    ("shape", [-4, 4, 4, 2], "negative entry"),
    ("shape", [-4, -4, 4, 2], "negative entry"),
    ("shape", [True, 4, 4, 2], "shape entry must be an integer"),
    ("shape", [4.0, 4, 4, 2], "shape entry must be an integer"),
    ("shape", "4,4,4,2", "shape must be a list"),
    ("shape", [4, 4, 4, 4, 2], "needs 4096"),
    ("shape", [8, 4, 2, 2], "has shape"),
    ("shape", [4, 4, 8], r"\[re, im\] pairs"),
    ("order", "C", "unknown packed array key 'order'"),
])
def test_transform_malformed_packed_array_exit_code(tmp_path, capsys, key, value, match):
    """Each field of a packed array is checked before numpy sees it, so a
    bad one exits 2 with a message, writes nothing and shows no traceback."""
    doc = _zero_pair_doc()
    doc["Phi"]["1"][key] = value
    src, out = tmp_path / "pair.json", tmp_path / "out.json"
    src.write_text(json.dumps(doc))
    assert main(["transform", "--input", str(src), "--direction", "inverse",
                 "--output", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert re.search(match, err) and "Traceback" not in err, err
    assert not out.exists()


@pytest.mark.parametrize("key", serialize.ARRAY_KEYS)
def test_transform_packed_array_missing_key_exit_code(tmp_path, capsys, key):
    doc = _zero_pair_doc()
    del doc["A"]["0"][key]
    src = tmp_path / "pair.json"
    src.write_text(json.dumps(doc))
    assert main(["transform", "--input", str(src), "--direction", "roundtrip"]) == \
        EXIT_VALIDATION
    err = capsys.readouterr().err
    assert repr(key) in err and "Traceback" not in err


def test_packed_byte_count_cannot_wrap():
    """A shape whose byte count wraps to 0 in 64 bits ([2**62, 4, 2] needs
    2**68 bytes) does not pass with an empty payload."""
    doc = _zero_pair_doc()
    doc["A"]["0"] = {"dtype": "<f8", "shape": [2 ** 62, 4, 2], "base64": ""}
    with pytest.raises(ConfigError, match=f"needs {2 ** 68}"):
        serialize.pair_from_doc(doc)


@pytest.mark.parametrize("block,key,direction", [
    ("components", "7", "forward"),
    ("components", "7", "roundtrip"),
    ("components", "-1", "forward"),
    ("Phi", "0", "inverse"),
    ("A", "2", "inverse"),
] + [("components", key, "forward") for key in _NONCANONICAL_KEYS] + [
    ("components", "0_2", "roundtrip"),
    ("A", "00", "inverse"),
    ("Phi", "+1", "inverse"),
    ("Phi", "２", "roundtrip"),
] + [(block, key, "inverse" if block != "components" else "forward")
     for block in ("components", "A", "Phi") for key in ("0,1", "")])
def test_transform_stray_component_key_exit_code(tmp_path, capsys, block, key,
                                                 direction):
    """A component for an axis the block does not have is rejected, not
    dropped; so is a key that int() reads as an axis but that is not how the
    writers spell it, which would silently replace that axis's array."""
    doc = _zero_connection_doc()
    if block != "components":
        doc = serialize.pair_to_doc(*forward_transform(serialize.connection_from_doc(doc)))
    doc[block][key] = doc[block][next(iter(doc[block]))]
    src = tmp_path / "w.json"
    src.write_text(json.dumps(doc))
    assert main(["transform", "--input", str(src), "--direction", direction,
                 "--output", str(tmp_path / "out.json")]) == EXIT_VALIDATION
    canonical = key.lstrip("-").isdecimal() and str(int(key)) == key
    want = "no axis" if canonical else "must be written"
    assert want in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("kind,path,key,direction", [
    ("product_connection", (), "twsit", "forward"),
    ("product_connection", (), "Twist", "roundtrip"),
    ("product_connection", ("grid",), "base_axis", "forward"),
    ("transform_pair", (), "phi", "inverse"),
    ("transform_pair", (), "components", "roundtrip"),
    ("transform_pair", ("grid",), "dims", "inverse"),
])
def test_transform_unknown_document_key_exit_code(tmp_path, capsys, kind, path, key,
                                                  direction):
    """A key no decoder reads is rejected and named: a misspelt "twsit"
    would otherwise be dropped and the twist written as 0."""
    doc = _zero_connection_doc()
    if kind == "transform_pair":
        doc = serialize.pair_to_doc(*forward_transform(serialize.connection_from_doc(doc)))
    target = doc
    for part in path:
        target = target[part]
    target[key] = 3
    src = tmp_path / "w.json"
    src.write_text(json.dumps(doc))
    assert main(["transform", "--input", str(src), "--direction", direction,
                 "--output", str(tmp_path / "out.json")]) == EXIT_VALIDATION
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def _empty_document(kind: str, sizes: tuple, group) -> dict:
    """A connection or pair document with no components, on the grid of
    `sizes` with base axis 0; nothing is built to write it."""
    blocks = {"components": {}} if kind == "product_connection" else {"A": {}, "Phi": {}}
    grid = {"dim": len(sizes), "sizes": list(sizes), "lengths": [lat.TWO_PI] * len(sizes),
            "base_axes": [0]}
    return {"kind": kind, "grid": grid, "group": group, "twist": 0, **blocks}


@pytest.mark.parametrize("components", [True, False], ids=["components", "empty"])
@pytest.mark.parametrize("group", ["x", "scalar", ["u1"]], ids=["x", "scalar", "list"])
@pytest.mark.parametrize("kind,direction", [
    ("product_connection", "forward"), ("product_connection", "roundtrip"),
    ("transform_pair", "inverse"), ("transform_pair", "roundtrip")])
def test_transform_unknown_group_exit_code(tmp_path, capsys, kind, direction, group,
                                           components):
    """A document group outside lattice.GROUPS exits 2, naming the groups,
    and writes nothing."""
    doc = _empty_document(kind, (4, 4, 4), group)
    if components:
        doc = _zero_connection_doc()
        if kind == "transform_pair":
            doc = serialize.pair_to_doc(*forward_transform(serialize.connection_from_doc(doc)))
        doc["group"] = group
    src, out = tmp_path / "w.json", tmp_path / "out.json"
    src.write_text(json.dumps(doc))
    assert main(["transform", "--input", str(src), "--direction", direction,
                 "--output", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "known groups: u1, su2" in err and "Traceback" not in err
    assert not out.exists()


# u1 at 10**12 points; su2 four points past 1 GiB (2**23 points fill it)
@pytest.mark.parametrize("group,sizes", [(U1, (4, 10 ** 12)), (SU2, (4, 2 ** 21 + 1))],
                         ids=["u1", "su2"])
@pytest.mark.parametrize("kind,direction", [
    ("product_connection", "forward"), ("product_connection", "roundtrip"),
    ("transform_pair", "inverse")])
def test_transform_connection_size_limit_exit_code(tmp_path, capsys, kind, direction,
                                                   group, sizes):
    """A document with no components on a grid whose connection would pass
    MAX_CONNECTION_BYTES exits 2 at once, before any zeros are written."""
    src, out = tmp_path / "w.json", tmp_path / "out.json"
    src.write_text(json.dumps(_empty_document(kind, sizes, group)))
    start = time.perf_counter()
    assert main(["transform", "--input", str(src), "--direction", direction,
                 "--output", str(out)]) == EXIT_VALIDATION
    assert time.perf_counter() - start < 1.0
    assert "exceeds the limit" in capsys.readouterr().err
    assert not out.exists()


# every route to a connection or link field, each given a grid and a group
_CONNECTION_ROUTES = {
    "scene": lambda grid, group: SceneConfig(parse_config_text(
        f"base.sizes = {grid.sizes[0]}\nfiber.sizes = {grid.sizes[1]}\ngroup = {group}\n")),
    "connection-document": lambda grid, group: serialize.connection_from_doc(
        _empty_document("product_connection", grid.sizes, group)),
    "pair-document": lambda grid, group: serialize.pair_from_doc(
        _empty_document("transform_pair", grid.sizes, group)),
    "ProductConnection": lambda grid, group: ProductConnection(grid, group, {}),
    "link_inverse": lambda grid, group: link_inverse({}, {}, grid, group),
}


@pytest.mark.parametrize("route", list(_CONNECTION_ROUTES))
@pytest.mark.parametrize("sizes,group,match", [
    ((4, 8), "x", "unknown group 'x'"),
    ((4, 10 ** 12), U1, "exceeds the limit of 1024 MiB"),
], ids=["group", "size"])
def test_connection_check_same_on_every_route(route, sizes, group, match):
    """Each route raises transform.check_connection's own error, message and
    all, so no route keeps a rule of its own."""
    grid = Grid(sizes=sizes, base_axes=(0,))
    with pytest.raises(ConfigError, match=match) as want:
        check_connection(grid, group, 0)
    with pytest.raises(ConfigError, match=match) as got:
        _CONNECTION_ROUTES[route](grid, group)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("dim", [7, 2, 0])
def test_transform_grid_dim_mismatch_exit_code(tmp_path, capsys, dim):
    doc = _zero_connection_doc()
    doc["grid"]["dim"] = dim
    src = tmp_path / "w.json"
    src.write_text(json.dumps(doc))
    assert main(["transform", "--input", str(src), "--direction", "forward"]) == \
        EXIT_VALIDATION
    assert "grid dim" in capsys.readouterr().err


def _formats_json_keys(section: str) -> set:
    """The keys of the JSON example under `section` in docs/formats.md, one
    per line (the first on each)."""
    text = (Path(__file__).parent.parent / "docs" / "formats.md").read_text()
    block = text.split(f"## {section}\n", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    return set(re.findall(r'^\s*"(\w+)":', block, flags=re.M))


def test_formats_document_keys_match_decoders():
    """docs/formats.md shows exactly the keys the decoders accept."""
    assert _formats_json_keys("Grid") == set(serialize.GRID_KEYS)
    assert _formats_json_keys("Product connection document") == set(serialize.CONNECTION_KEYS)
    assert _formats_json_keys("Transform pair document") == set(serialize.PAIR_KEYS)


def test_transform_pair_with_empty_a(tmp_path, capsys):
    """A pair document whose A lists no axis round-trips exactly, and its
    inverse writes every axis, the missing ones as zeros."""
    a, phi = forward_transform(_connection(U1, seed=3, twist=1))
    doc = serialize.pair_to_doc(a, phi)
    doc["A"] = {}
    src, back = tmp_path / "pair.json", tmp_path / "back.json"
    src.write_text(json.dumps(doc))
    assert main(["transform", "--input", str(src), "--direction", "roundtrip"]) == EXIT_OK
    assert "roundtrip: exact" in capsys.readouterr().out
    assert main(["transform", "--input", str(src), "--direction", "inverse",
                 "--output", str(back)]) == EXIT_OK
    w = json.loads(back.read_text())
    assert list(w["components"]) == ["0", "1"] and w["twist"] == 1
    back_w = serialize.connection_from_doc(w)
    assert back_w.comps[1].tobytes() == phi.comps[1].tobytes()
    assert not np.any(back_w.comps[0])


# integers stay small, so a mutated grid size never asks for a large grid
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)

# paths into a saved zero connection (listed arrays) or its pair document
# (packed arrays); the entry at the end is replaced
_mutation_paths = st.sampled_from([(_zero_connection_doc, path) for path in [
    ("kind",), ("group",), ("twist",), ("grid",), ("grid", "sizes"),
    ("grid", "sizes", 1), ("grid", "lengths", 0), ("grid", "base_axes"),
    ("components",), ("components", "0"), ("components", "2", 1),
    ("components", "1", 2, 3), ("components", "1", 0, 0, 1),
]] + [(_zero_pair_doc, path) for path in [
    ("kind",), ("twist",), ("grid", "sizes", 1), ("A",), ("A", "0"), ("Phi", "2"),
    ("A", "0", "dtype"), ("A", "0", "shape"), ("A", "0", "shape", 1),
    ("Phi", "1", "shape", 3), ("Phi", "2", "base64"),
]])

# a splice of the pair document's Phi["1"] payload: `n` characters from `i`
# replaced by `text`
_payload_splices = st.tuples(st.integers(0, len(_PAYLOAD)), st.integers(0, 4),
                             st.text("AQw+/= \n\u00e9", max_size=4))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(target=_mutation_paths, value=_json_values,
       rename=st.none() | st.text(max_size=3) | st.sampled_from(_NONCANONICAL_KEYS),
       splice=st.none() | _payload_splices,
       direction=st.sampled_from(["forward", "inverse", "roundtrip"]))
def test_transform_fuzzed_document_never_crashes(tmp_path, capsys, target, value,
                                                 rename, splice, direction):
    """A saved zero connection or pair document with one entry replaced (or
    its key renamed), and a pair's payload spliced, ends with a documented
    exit code, never an exception."""
    make_doc, path = target
    doc = make_doc()
    if splice is not None and make_doc is _zero_pair_doc:
        i, n, text = splice
        doc["Phi"]["1"]["base64"] = _PAYLOAD[:i] + text + _PAYLOAD[i + n:]
    target = doc
    for key in path[:-1]:
        target = target[key]
    if rename is not None and isinstance(target, dict):
        target[rename] = target.pop(path[-1])
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
