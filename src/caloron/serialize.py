"""JSON encoding of grids, product connections and transform pairs.

Complex numbers are [re, im] float pairs; SU(2) matrices are 4 complex entries
row-major.  An array of them is written in one of two forms, with one shape
and C order (grid axes, then 4 for SU(2), then the pair):

* listed, a nested list of JSON numbers: connection documents;
* packed, {"dtype": "<f8", "shape": [...], "base64": "..."}: the pairs'
  little-endian float64 bytes in RFC 4648 base64, as a .npy header names
  them: pair documents.

Either form decodes in either document, to a complex array that views the
float pairs.  A packed array keeps every bit, NaN payloads included; a listed
one round-trips through float repr, signed zeros and infinities included, and
a nan comes back as Python's default nan.  A document whose structure or
values cannot be decoded raises ConfigError.  `save_document` writes a
document's bytes as json.dumps would, one value at a time, so the written
text is never held whole.
"""
from __future__ import annotations

import base64
import contextlib
import functools
import gc
import json
import math
from itertools import chain

import numpy as np

from .errors import CaloronError, ConfigError
from .lattice import SU2, U1, Grid
from .transform import GaugeGroupConnection, HiggsFieldMap, ProductConnection


def _encode_array(arr: np.ndarray, group: str, packed: bool = False):
    """arr's [re, im] float pairs, listed or packed (ARRAY_KEYS)."""
    if group != U1:
        arr = arr.reshape(arr.shape[:-2] + (4,))
    pairs = np.ascontiguousarray(arr, dtype="<c16").view("<f8").reshape(arr.shape + (2,))
    if not packed:
        return pairs.tolist()
    return {"dtype": "<f8", "shape": list(pairs.shape),
            "base64": base64.b64encode(pairs).decode("ascii")}


def _decoder(fn):
    """Report a malformed document as ConfigError instead of whatever the
    decoding step happened to raise."""

    @functools.wraps(fn)
    def wrapper(doc):
        try:
            return fn(doc)
        except CaloronError:
            raise
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed document: {type(exc).__name__}: {exc}") from None

    return wrapper


def _integer(value, what: str) -> int:
    """An integer field of a document: a float, bool or string there would be
    silently truncated or parsed by int(), so it is a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return value


def _number(value, what: str):
    """A real-number field of a document: a string or bool there would be
    parsed or read as 0/1 by float(), so it is a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    return value


def _decode_array(data, group: str) -> np.ndarray:
    raw = _packed_array(data) if isinstance(data, dict) else _number_array(data)
    if raw.ndim < 1 or raw.shape[-1] != 2:
        raise ConfigError(f"array entries must be [re, im] pairs, got shape {raw.shape}")
    cplx = raw.view(complex)[..., 0]
    # only an SU(2) value's 4 entries form a matrix; any other group keeps one
    # value per pair, so an unknown group reaches the connection check intact
    return cplx.reshape(cplx.shape[:-1] + (2, 2)) if group == SU2 else cplx


def _number_array(data) -> np.ndarray:
    """A regular nested list of JSON numbers as a float64 array.

    It is flattened level by level rather than read by np.asarray, which takes
    a bool among numbers as 1/0 and, asked for floats, parses strings.
    """
    shape, entries = [], [data]
    while entries and type(entries[0]) is list:
        lengths = set(map(len, entries))
        if len(lengths) != 1:
            raise ConfigError(f"array is ragged: lists of lengths {sorted(lengths)}")
        shape.append(lengths.pop())
        entries = list(chain.from_iterable(entries))
    kinds = set(map(type, entries)) - {int, float}
    if kinds:
        raise ConfigError("array entries must be numbers, got "
                          + ", ".join(sorted(t.__name__ for t in kinds)))
    return np.array(entries, dtype=float).reshape(shape)


def _packed_array(data: dict) -> np.ndarray:
    """A packed array as a float64 array viewing its payload's decoded bytes.

    Each field is checked before the payload is read, and the byte count
    against the shape (by math.prod, which cannot wrap as a fixed-width
    product can), so no malformed array reaches numpy.
    """
    _known_keys(data, ARRAY_KEYS, "packed array")
    if data["dtype"] != "<f8":
        raise ConfigError(f"packed array dtype must be '<f8', got {data['dtype']!r}")
    if not isinstance(data["shape"], list):
        raise ConfigError(f"packed array shape must be a list, got {data['shape']!r}")
    shape = [_integer(n, "packed array shape entry") for n in data["shape"]]
    if any(n < 0 for n in shape):
        raise ConfigError(f"packed array shape {shape} has a negative entry")
    payload = data["base64"]
    if not isinstance(payload, str):
        raise ConfigError("packed array payload must be a base64 string, got "
                          + type(payload).__name__)
    try:
        raw = base64.b64decode(payload, validate=True)
    except ValueError as exc:  # binascii.Error, or a character past ASCII
        raise ConfigError(f"packed array payload is not base64: {exc}") from None
    if len(raw) != 8 * math.prod(shape):
        raise ConfigError(f"packed array payload holds {len(raw)} bytes, where shape "
                          f"{shape} needs {8 * math.prod(shape)}")
    return np.frombuffer(raw, "<f8").astype(float, copy=False).reshape(shape)


def _axes_to_doc(block, axes, packed: bool) -> dict:
    """Every axis in `axes` of a connection or block, a missing one as zeros:
    documents list every axis."""
    return {str(a): _encode_array(block.component(a), block.group, packed) for a in axes}


def _axes_from_doc(data: dict, group: str) -> dict:
    """An axis -> array object of a document.  Each key is one axis spelled
    as the writers spell it, in canonical decimal: int() alone would also
    read "00", " 0", "+0", "0_2" and full-width digits, so two keys could
    name one axis and one array silently replace the other."""
    out = {}
    for key, value in data.items():
        try:
            axis = int(key)
        except ValueError:
            raise ConfigError(f"component key {key!r} must be written as one "
                              "axis in decimal") from None
        if str(axis) != key:
            raise ConfigError(f"component key {key!r} must be written {str(axis)!r}")
        out[axis] = _decode_array(value, group)
    return out


# the keys each decoder reads; any other key is a ConfigError, since a
# misspelt one ("twsit") would leave its default silently in force
GRID_KEYS = ("dim", "sizes", "lengths", "base_axes")
CONNECTION_KEYS = ("kind", "grid", "group", "twist", "components")
PAIR_KEYS = ("kind", "grid", "group", "twist", "A", "Phi")
ARRAY_KEYS = ("dtype", "shape", "base64")


def _known_keys(doc: dict, keys: tuple, what: str) -> dict:
    """doc, once every key of it is one of `keys`."""
    for key in doc.keys():
        if key not in keys:
            raise ConfigError(f"unknown {what} key {key!r}; known keys: " + ", ".join(keys))
    return doc


def grid_to_doc(grid: Grid) -> dict:
    return {
        "dim": grid.dim,
        "sizes": list(grid.sizes),
        "lengths": list(grid.lengths),
        "base_axes": list(grid.base_axes),
    }


@_decoder
def grid_from_doc(doc: dict) -> Grid:
    _known_keys(doc, GRID_KEYS, "grid")
    grid = Grid(sizes=tuple(_integer(n, "grid size") for n in doc["sizes"]),
                lengths=tuple(_number(x, "grid length") for x in doc["lengths"]),
                base_axes=tuple(_integer(a, "base axis") for a in doc.get("base_axes", ())))
    if _integer(doc.get("dim", grid.dim), "grid dim") != grid.dim:
        raise ConfigError(f"grid dim {doc['dim']} is not {grid.dim}, the number of sizes")
    return grid


def connection_to_doc(w: ProductConnection) -> dict:
    return {
        "kind": "product_connection",
        "grid": grid_to_doc(w.grid),
        "group": w.group,
        "twist": w.twist,
        "components": _axes_to_doc(w, range(w.grid.dim), packed=False),
    }


@_decoder
def connection_from_doc(doc: dict) -> ProductConnection:
    grid = grid_from_doc(_known_keys(doc, CONNECTION_KEYS, "connection document")["grid"])
    group = doc["group"]
    return ProductConnection(grid, group, _axes_from_doc(doc["components"], group),
                             twist=_integer(doc.get("twist", 0), "twist"))


def pair_to_doc(a: GaugeGroupConnection, phi: HiggsFieldMap) -> dict:
    return {
        "kind": "transform_pair",
        "grid": grid_to_doc(a.grid),
        "group": a.group,
        "twist": phi.twist,
        "A": _axes_to_doc(a, a.grid.base_axes, packed=True),
        "Phi": _axes_to_doc(phi, phi.grid.fiber_axes, packed=True),
    }


@_decoder
def pair_from_doc(doc: dict):
    grid = grid_from_doc(_known_keys(doc, PAIR_KEYS, "pair document")["grid"])
    group = doc["group"]
    a = GaugeGroupConnection(grid, group, _axes_from_doc(doc["A"], group))
    phi = HiggsFieldMap(grid, group, _axes_from_doc(doc["Phi"], group),
                        twist=_integer(doc.get("twist", 0), "twist"))
    return a, phi


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a key written twice is a ConfigError, where
    json.load would keep the last value and drop the first unseen."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise ConfigError(f"key {repeated!r} appears twice in one JSON object")
    return obj


def load_document(path: str) -> dict:
    """The JSON value in `path`; nesting past the parser's recursion limit, or
    an integer past int()'s digit limit, is a ConfigError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except (CaloronError, json.JSONDecodeError, UnicodeDecodeError):
            raise
        except (RecursionError, ValueError) as exc:
            raise ConfigError(f"unreadable document: {type(exc).__name__}: {exc}") from None


def save_document(doc: dict, path: str) -> None:
    """Write `doc` to `path` with the bytes of json.dumps(doc).

    The document is written one value at a time, so neither the text of the
    whole document nor the encoder's list of its pieces is ever held.
    """
    with open(path, "w") as fh:
        _write_json(fh, doc)


def _write_json(fh, value) -> None:
    """Write json.dumps(value)'s bytes to fh.

    A dict's braces, keys and default separators are written here and its
    values in turn; a list's items are each written by the C encoder, so a
    field array goes out one outer row at a time (the encoder's pieces of a
    whole 0.55 MiB array took 3.09 MiB).  The writers' documents hold no
    cycles, so the encoder's per-list cycle check is skipped.
    """
    if isinstance(value, dict):
        fh.write("{")
        for i, (key, item) in enumerate(value.items()):
            # json.dumps({key: 0}) is "{" + the key as json.dumps spells it in
            # any dict (quoted and escaped, a number or bool as its string)
            # + ": 0}"
            fh.write((", " if i else "") + json.dumps({key: 0})[1:-4] + ": ")
            _write_json(fh, item)
        fh.write("}")
    elif isinstance(value, list):
        fh.write("[")
        for i, item in enumerate(value):
            fh.write((", " if i else "") + json.dumps(item, check_circular=False))
        fh.write("]")
    else:
        fh.write(json.dumps(value, check_circular=False))


@contextlib.contextmanager
def collector_paused():
    """Run the body with Python's cyclic garbage collector off.

    A connection document is many small lists (about 123k for a 3.5 MB
    SU(2) connection); a pair document is a few long strings.  Building the
    lists (`tolist`, `json.load`) sets off hundreds of collections, each of
    which walks every live document and finds nothing: the documents hold no
    reference cycles.  Writing one sets off none.
    On exit, exceptions included, the collector is enabled again only if it
    was enabled on entry.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def document_kind(doc: dict) -> str:
    if not isinstance(doc, dict):
        raise ConfigError(f"document must be a JSON object, got {type(doc).__name__}")
    kind = doc.get("kind")
    if kind in ("product_connection", "transform_pair"):
        return kind
    raise ConfigError(f"unknown document kind {kind!r}")
