"""JSON encoding of grids, fields, link fields and transform pairs.

Complex numbers are [re, im] pairs; SU(2) matrices are 4 complex entries
row-major.  Documents round-trip bit-exactly through float repr.  A document
whose structure or values cannot be decoded raises ConfigError.
"""
from __future__ import annotations

import functools
import json

import numpy as np

from .errors import CaloronError, ConfigError
from .lattice import SU2, U1, FormField, Grid, LinkField
from .transform import GaugeGroupConnection, HiggsFieldMap, ProductConnection


def _encode_array(arr: np.ndarray, group: str):
    if group in (U1, "scalar"):
        stacked = np.stack([arr.real, arr.imag], axis=-1)
        return stacked.tolist()
    flat = arr.reshape(arr.shape[:-2] + (4,))
    stacked = np.stack([flat.real, flat.imag], axis=-1)
    return stacked.tolist()


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


def _decode_array(data, group: str) -> np.ndarray:
    raw = np.asarray(data, dtype=float)
    if raw.ndim < 1 or raw.shape[-1] != 2:
        raise ConfigError(f"array entries must be [re, im] pairs, got shape {raw.shape}")
    cplx = raw[..., 0] + 1j * raw[..., 1]
    if group in (U1, "scalar"):
        return cplx
    return cplx.reshape(cplx.shape[:-1] + (2, 2))


def grid_to_doc(grid: Grid) -> dict:
    return {
        "dim": grid.dim,
        "sizes": list(grid.sizes),
        "lengths": list(grid.lengths),
        "base_axes": list(grid.base_axes),
    }


@_decoder
def grid_from_doc(doc: dict) -> Grid:
    return Grid(sizes=tuple(_integer(n, "grid size") for n in doc["sizes"]),
                lengths=tuple(doc["lengths"]),
                base_axes=tuple(_integer(a, "base axis") for a in doc.get("base_axes", ())))


def form_to_doc(f: FormField) -> dict:
    return {
        "grid": grid_to_doc(f.grid),
        "group": f.group,
        "degree": f.degree,
        "components": {",".join(map(str, k)): _encode_array(v, f.group)
                       for k, v in f.comps.items()},
    }


@_decoder
def form_from_doc(doc: dict) -> FormField:
    grid = grid_from_doc(doc["grid"])
    group = doc["group"]
    comps = {}
    for key, data in doc["components"].items():
        axes = tuple(int(x) for x in key.split(",")) if key else ()
        comps[axes] = _decode_array(data, group)
    return FormField(grid, group, _integer(doc["degree"], "degree"), comps)


def links_to_doc(u: LinkField) -> dict:
    return {
        "grid": grid_to_doc(u.grid),
        "group": u.group,
        "links": {str(a): _encode_array(v, u.group) for a, v in u.links.items()},
    }


@_decoder
def links_from_doc(doc: dict) -> LinkField:
    grid = grid_from_doc(doc["grid"])
    group = doc["group"]
    links = {int(a): _decode_array(v, group) for a, v in doc["links"].items()}
    return LinkField(grid, group, links)


def connection_to_doc(w: ProductConnection) -> dict:
    return {
        "kind": "product_connection",
        "grid": grid_to_doc(w.grid),
        "group": w.group,
        "twist": w.twist,
        "components": {str(a): _encode_array(v, w.group) for a, v in w.comps.items()},
    }


@_decoder
def connection_from_doc(doc: dict) -> ProductConnection:
    grid = grid_from_doc(doc["grid"])
    group = doc["group"]
    comps = {int(a): _decode_array(v, group) for a, v in doc["components"].items()}
    return ProductConnection(grid, group, comps,
                             twist=_integer(doc.get("twist", 0), "twist"))


def pair_to_doc(a: GaugeGroupConnection, phi: HiggsFieldMap) -> dict:
    return {
        "kind": "transform_pair",
        "grid": grid_to_doc(a.grid),
        "group": a.group,
        "twist": phi.twist,
        "A": {str(ax): _encode_array(v, a.group) for ax, v in a.comps.items()},
        "Phi": {str(ax): _encode_array(v, phi.group) for ax, v in phi.comps.items()},
    }


@_decoder
def pair_from_doc(doc: dict):
    grid = grid_from_doc(doc["grid"])
    group = doc["group"]
    a = GaugeGroupConnection(grid, group,
                             {int(ax): _decode_array(v, group)
                              for ax, v in doc["A"].items()})
    phi = HiggsFieldMap(grid, group,
                        {int(ax): _decode_array(v, group)
                         for ax, v in doc["Phi"].items()},
                        twist=_integer(doc.get("twist", 0), "twist"))
    return a, phi


def load_document(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def save_document(doc: dict, path: str) -> None:
    # json.dumps runs the C encoder; streaming json.dump would not
    text = json.dumps(doc)
    with open(path, "w") as fh:
        fh.write(text)


def document_kind(doc: dict) -> str:
    if not isinstance(doc, dict):
        raise ConfigError(f"document must be a JSON object, got {type(doc).__name__}")
    kind = doc.get("kind")
    if kind in ("product_connection", "transform_pair"):
        return kind
    raise ConfigError(f"unknown document kind {kind!r}")
