"""Flat key=value scene configuration and scene construction.

Config files are human-readable lines `dotted.key = value`; values are
scalars or comma-separated lists.  Data interchange stays JSON.
"""
from __future__ import annotations

import hashlib
import json

import numpy as np

from .errors import ConfigError
from .lattice import SU2, TWO_PI, U1, FormField, Grid, sample
from .transform import ProductConnection

DEFAULT_LENGTH = TWO_PI


def parse_config_text(text: str) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def load_config(path: str) -> dict:
    with open(path) as fh:
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


class SceneConfig:
    """Validated scene: grids, group, sample family, twist, polynomial, classes."""

    def __init__(self, raw: dict):
        self.raw = dict(raw)
        base_sizes = _int_list(raw.get("base.sizes", "4"))
        fiber_sizes = _int_list(raw.get("fiber.sizes", "16"))
        if not base_sizes or not fiber_sizes:
            raise ConfigError("base.sizes and fiber.sizes must be non-empty")
        base_len = _float_list(raw["base.lengths"]) if "base.lengths" in raw \
            else (DEFAULT_LENGTH,) * len(base_sizes)
        fiber_len = _float_list(raw["fiber.lengths"]) if "fiber.lengths" in raw \
            else (DEFAULT_LENGTH,) * len(fiber_sizes)
        self.grid = Grid(sizes=base_sizes + fiber_sizes,
                         lengths=base_len + fiber_len,
                         base_axes=tuple(range(len(base_sizes))))
        self.group = raw.get("group", U1)
        if self.group not in (U1, SU2):
            raise ConfigError(f"unknown group {self.group!r}")
        self.family = raw.get("family", "zero")
        self.max_mode = _number(int, raw.get("family.max_mode", 2))
        self.seed = _number(int, raw.get("seed", 0))
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        self.twist = _number(int, raw.get("twist", 0))
        self.poly_kind = raw.get("poly.kind", "chern_normalized")
        self.classes = _int_list(raw.get("classes", "0"))
        d = len(self.grid.fiber_axes)
        for r in self.classes:
            if (r + d) % 2 != 0:
                raise ConfigError(f"class degree r={r} and fiber dimension d={d} "
                                  "must have the same parity")
        self.tol_pairing = _number(float, raw.get("tol.pairing", 1e-8))
        self.expect_pairing = (_number(float, raw["expect.pairing"])
                               if "expect.pairing" in raw else None)

    def build_connection(self, grid: Grid | None = None) -> ProductConnection:
        grid = grid or self.grid
        if self.family == "zero":
            return ProductConnection.zero(grid, self.group, twist=self.twist)
        form = sample(self.family, grid, self.group,
                      {"max_mode": self.max_mode}, seed=self.seed)
        if not isinstance(form, FormField):
            raise ConfigError(f"family {self.family!r} does not produce a "
                              "connection form for a scene")
        return ProductConnection.from_one_form(form, twist=self.twist)

    def config_hash(self) -> str:
        payload = json.dumps(self.raw, sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()


def report_hash(report: dict) -> str:
    """Content hash over everything except timings."""
    covered = {k: v for k, v in report.items() if k not in ("timings", "report_hash")}
    payload = json.dumps(covered, sort_keys=True, default=str).encode()
    return hashlib.sha256(payload).hexdigest()
