"""Flat key=value scene configuration and scene construction.

Config files are human-readable lines `dotted.key = value`; values are
scalars or comma-separated lists.  Data interchange stays JSON.
"""
from __future__ import annotations

import hashlib
import json
from math import isfinite
from typing import NamedTuple

from .chernweil import InvariantPolynomial, class_degree
from .errors import ConfigError
from .lattice import TWO_PI, U1, Grid, check_family, sample
from .transform import ProductConnection, check_connection

DEFAULT_LENGTH = TWO_PI

# every key a scene config may set
SCENE_KEYS = ("base.sizes", "fiber.sizes", "base.lengths", "fiber.lengths", "group",
              "family", "family.max_mode", "seed", "twist", "poly.kind", "classes",
              "tol.pairing", "expect.pairing")


def parse_config_text(text: str) -> dict:
    """The key = value lines of a config; a key given twice is a ConfigError."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise ConfigError(f"line {lineno}: key {key!r} given twice")
        out[key] = value
    return out


def load_config(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def _number(kind, raw: str):
    """kind(raw) for kind int or float, a malformed value being a ConfigError."""
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"expected {kind.__name__} value, got {raw!r}") from None


def _int_list(raw: str) -> tuple:
    return tuple(_number(int, x) for x in raw.split(",") if x.strip())


def _float_list(raw: str) -> tuple:
    return tuple(_number(float, x) for x in raw.split(",") if x.strip())


def _lengths(raw: dict, side: str, sizes: tuple) -> tuple:
    """`side`.lengths, one per axis of `side`.sizes (2*pi each if unset): the
    grid sees base and fiber lengths as one list, so a count off on one side
    would silently move a length to the other."""
    key = f"{side}.lengths"
    if key not in raw:
        return (DEFAULT_LENGTH,) * len(sizes)
    lengths = _float_list(raw[key])
    if len(lengths) != len(sizes):
        raise ConfigError(f"{key} lists {len(lengths)} lengths for the {len(sizes)} "
                          f"axes of {side}.sizes")
    return lengths


class SceneConfig:
    """Validated scene: grids, group, sample family, twist, classes and the
    invariant polynomial of each."""

    def __init__(self, raw: dict):
        unknown = sorted(set(raw) - set(SCENE_KEYS))
        if unknown:
            raise ConfigError(f"unknown scene key {unknown[0]!r}; known keys: "
                              + ", ".join(SCENE_KEYS))
        self.raw = dict(raw)
        base_sizes = _int_list(raw.get("base.sizes", "4"))
        fiber_sizes = _int_list(raw.get("fiber.sizes", "16"))
        if not base_sizes or not fiber_sizes:
            raise ConfigError("base.sizes and fiber.sizes must be non-empty")
        self.grid = Grid(sizes=base_sizes + fiber_sizes,
                         lengths=(_lengths(raw, "base", base_sizes)
                                  + _lengths(raw, "fiber", fiber_sizes)),
                         base_axes=tuple(range(len(base_sizes))))
        self.group = raw.get("group", U1)
        self.twist = _number(int, raw.get("twist", 0))
        # past 2**53 a float64 cannot hold the integer a pairing should return
        if abs(self.twist) > 2 ** 53:
            raise ConfigError(f"twist must be at most 2**53 in magnitude, got {raw['twist']!r}")
        check_connection(self.grid, self.group, self.twist)
        self.family = raw.get("family", "zero")
        if self.family != "zero":
            check_family(self.family, self.group)
        self.max_mode = _number(int, raw.get("family.max_mode", 2))
        self.seed = _number(int, raw.get("seed", 0))
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        poly_kind = raw.get("poly.kind", "chern_normalized")
        self.classes = _int_list(raw.get("classes", "0"))
        if not self.classes:
            raise ConfigError("classes must list at least one class degree")
        polys = []
        for r in self.classes:
            if not 0 <= r <= len(base_sizes):
                raise ConfigError(f"classes: degree r={r} outside 0..{len(base_sizes)}, "
                                  "the number of base axes")
            # a repeat would compute the class twice under the same check names
            if self.classes.count(r) > 1:
                raise ConfigError(f"classes: degree r={r} given twice")
            polys.append(InvariantPolynomial(class_degree(r, len(fiber_sizes)), poly_kind))
        self.polys = tuple(polys)
        # a NaN, infinite or negative bound would fail or pass every pairing
        self.tol_pairing = _number(float, raw.get("tol.pairing", 1e-8))
        if not (isfinite(self.tol_pairing) and self.tol_pairing >= 0.0):
            raise ConfigError("tol.pairing must be a finite non-negative number, "
                              f"got {raw['tol.pairing']!r}")
        self.expect_pairing = (_number(float, raw["expect.pairing"])
                               if "expect.pairing" in raw else None)
        if self.expect_pairing is not None and not isfinite(self.expect_pairing):
            raise ConfigError("expect.pairing must be a finite number, "
                              f"got {raw['expect.pairing']!r}")

    def build_connection(self, grid: Grid | None = None) -> ProductConnection:
        grid = grid or self.grid
        if self.family == "zero":
            return ProductConnection.zero(grid, self.group, twist=self.twist)
        form = sample(self.family, grid, self.group,
                      {"max_mode": self.max_mode}, seed=self.seed)
        return ProductConnection.from_one_form(form, twist=self.twist)

    def config_hash(self) -> str:
        payload = json.dumps(self.raw, sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()


class Check(NamedTuple):
    """One entry of a report's checks: a residual judged against a tolerance,
    or, with passed None, reported for inspection only."""

    name: str
    residual: float | None = None
    tolerance: float | None = None
    passed: bool | None = None

    def entry(self) -> dict:
        """The report entry: fields that are None are left out, and a check
        that was not judged is marked informational instead of passed."""
        entry = {"name": self.name}
        if self.residual is not None:
            entry["residual"] = self.residual
        if self.tolerance is not None:
            entry["tolerance"] = self.tolerance
        if self.passed is None:
            entry["informational"] = True
        else:
            entry["pass"] = bool(self.passed)
        return entry


def report_hash(report: dict) -> str:
    """Content hash over everything except timings."""
    covered = {k: v for k, v in report.items() if k not in ("timings", "report_hash")}
    payload = json.dumps(covered, sort_keys=True, default=str).encode()
    return hashlib.sha256(payload).hexdigest()
