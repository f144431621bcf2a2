"""The product-case caloron correspondence and the curvature decomposition.

A connection 1-form on the product splits losslessly into its base-axis
block (a gauge-algebra-valued connection over the base) and its fiber-axis
block (a fiber connection per base point, the Higgs field).  Nontrivial
topology enters only through an integer twist carried as metadata: the
stored arrays are the periodic part of the connection and the twist
contributes a fixed constant background 2-form to the curvature, never
differenced.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegreeError, ShapeError
from .lattice import (
    TWO_PI,
    U1,
    FormField,
    Grid,
    LinkField,
    bracket,
    central_difference,
    ext_deriv,
    group_inverse,
    value_shape,
)


def _check_product(grid: Grid) -> None:
    if not grid.base_axes or not grid.fiber_axes:
        raise ConfigError("product grid needs at least one base and one fiber axis")


def _block_comps(grid: Grid, group: str, comps: dict, axes) -> dict:
    """Every axis of a block as an algebra array on the full grid, a missing
    axis as zeros; a key that names no axis of the block is a ShapeError."""
    _check_product(grid)
    axes = tuple(axes)
    stray = [a for a in comps if a not in axes]
    if stray:
        raise ShapeError(f"component keys {stray} name no axis of this block; "
                         f"its axes are {list(axes)}")
    shape = grid.sizes + value_shape(group)
    full = {}
    for a in axes:
        arr = comps.get(a)
        if arr is None:
            arr = np.zeros(shape, dtype=complex)
        else:
            arr = np.asarray(arr, dtype=complex)
            if arr.shape != shape:
                raise ShapeError(f"component {a} shape {arr.shape}, expected {shape}")
        full[a] = arr
    return full


@dataclass
class ProductConnection:
    """Connection 1-form on the product grid, periodic part plus twist metadata."""

    grid: Grid
    group: str
    comps: dict = field(default_factory=dict)  # axis -> algebra array on the full grid
    twist: int = 0

    def __post_init__(self):
        self.comps = _block_comps(self.grid, self.group, self.comps, range(self.grid.dim))
        if self.twist and self.group != U1:
            raise ConfigError("twists are supported for U(1) only")

    @classmethod
    def zero(cls, grid: Grid, group: str, twist: int = 0) -> "ProductConnection":
        return cls(grid, group, {}, twist)

    @classmethod
    def from_one_form(cls, A: FormField, twist: int = 0) -> "ProductConnection":
        if A.degree != 1:
            raise DegreeError("ProductConnection needs a 1-form")
        return cls(A.grid, A.group, {k[0]: v for k, v in A.comps.items()}, twist)

    def one_form(self) -> FormField:
        return FormField(self.grid, self.group, 1,
                         {(a,): v for a, v in self.comps.items()})


@dataclass
class GaugeGroupConnection:
    """Base-axis block: per base axis, a gauge-algebra map over the fiber grid,
    sampled at every product-grid point."""

    grid: Grid
    group: str
    comps: dict = field(default_factory=dict)  # base axis -> array on the full grid

    def __post_init__(self):
        self.comps = _block_comps(self.grid, self.group, self.comps, self.grid.base_axes)


@dataclass
class HiggsFieldMap:
    """Fiber-axis block: per base point, a fiber connection 1-form; shared twist."""

    grid: Grid
    group: str
    comps: dict = field(default_factory=dict)  # fiber axis -> array on the full grid
    twist: int = 0

    def __post_init__(self):
        self.comps = _block_comps(self.grid, self.group, self.comps, self.grid.fiber_axes)
        if self.twist and self.group != U1:
            raise ConfigError("twists are supported for U(1) only")


@dataclass
class CurvatureTriple:
    """Bidegree split of the total curvature: (2,0), (0,2) and (1,1) blocks.

    The blocks have disjoint keys, so their sum shares every array with them.
    """

    F_A: FormField
    F_Phi: FormField
    NablaPhi: FormField

    def total(self) -> FormField:
        return self.F_A + self.F_Phi + self.NablaPhi


def forward_transform(w: ProductConnection) -> tuple:
    """Split the product connection into its (A, Phi) blocks.  Pure reindexing."""
    a = GaugeGroupConnection(w.grid, w.group,
                             {ax: w.comps[ax] for ax in w.grid.base_axes})
    phi = HiggsFieldMap(w.grid, w.group,
                        {ax: w.comps[ax] for ax in w.grid.fiber_axes},
                        twist=w.twist)
    return a, phi


def inverse_transform(a: GaugeGroupConnection, phi: HiggsFieldMap) -> ProductConnection:
    """Reassemble the product connection from its (A, Phi) blocks."""
    if a.grid != phi.grid:
        raise ShapeError("base/fiber grids of the pair do not match")
    if a.group != phi.group:
        raise ShapeError("group mismatch in the pair")
    comps = {}
    comps.update(a.comps)
    comps.update(phi.comps)
    return ProductConnection(a.grid, a.group, comps, twist=phi.twist)


def link_forward(u: LinkField) -> tuple:
    """Exact holonomy split: base-direction links (gauge-group valued on the base)
    and fiber-direction links (a lattice connection on the fiber per base site)."""
    _check_product(u.grid)
    base = {a: u.links[a] for a in u.grid.base_axes}
    fiber = {a: u.links[a] for a in u.grid.fiber_axes}
    return base, fiber


def link_inverse(base: dict, fiber: dict, grid: Grid, group: str) -> LinkField:
    _check_product(grid)
    links = {}
    links.update(base)
    links.update(fiber)
    if set(links) != set(range(grid.dim)):
        raise ShapeError("link blocks do not cover the grid axes")
    return LinkField(grid, group, links)


def background_curvature(grid: Grid, group: str, twist: int) -> FormField:
    """Constant curvature 2-form carried by the twist metadata.

    Lives on the last two axes (both fiber when dim X = 2; mixed when dim X = 1),
    with the sign fixed so the Chern-normalized pairing is +twist.
    """
    if twist == 0:
        return FormField.zero(grid, group, 2)
    if group != U1:
        raise ConfigError("twists are supported for U(1) only")
    if grid.dim < 2:
        raise ConfigError("twist needs at least two axes")
    ax, ay = grid.dim - 2, grid.dim - 1
    area = grid.lengths[ax] * grid.lengths[ay]
    return FormField(grid, group, 2, {
        (ax, ay): np.full(grid.sizes, -1j * TWO_PI * twist / area, dtype=complex)})


def curvature_split(w: ProductConnection) -> CurvatureTriple:
    """F = dA + 1/2 [A, A] + twist background, partitioned by bidegree; the
    blocks share F's arrays."""
    A = w.one_form()
    F = ext_deriv(A)
    if w.group != U1:
        F = F + 0.5 * bracket(A, A)
    F = F + background_curvature(w.grid, w.group, w.twist)
    return CurvatureTriple(
        F_A=F.bidegree_part(2, 0),
        F_Phi=F.bidegree_part(0, 2),
        NablaPhi=F.bidegree_part(1, 1),
    )


def nabla_phi(a: GaugeGroupConnection, phi: HiggsFieldMap) -> FormField:
    """Mixed curvature from the definition sum: base derivative of Phi, bracket
    [A, Phi], fiber derivative of A, plus the twist background's mixed part.

    This is the canonical output; curvature_split provides the independent
    cross-check path.
    """
    if a.grid != phi.grid or a.group != phi.group:
        raise ShapeError("pair grids/groups do not match")
    grid, group = a.grid, a.group
    h = grid.spacings
    out = {}
    for mu in grid.base_axes:
        for nu in grid.fiber_axes:
            val = central_difference(phi.comps[nu], mu, h[mu]) \
                - central_difference(a.comps[mu], nu, h[nu])
            if group != U1:
                Am, Pn = a.comps[mu], phi.comps[nu]
                val = val + (Am @ Pn - Pn @ Am)
            out[(mu, nu)] = val
    field_ = FormField(grid, group, 2, out)
    bg = background_curvature(grid, group, phi.twist).bidegree_part(1, 1)
    return field_ + bg


def higgs_gauge_action(phi: HiggsFieldMap, psi: np.ndarray) -> HiggsFieldMap:
    """Fiber gauge transformation of the Higgs field:
    Phi -> psi^{-1} Phi psi + psi^{-1} d psi (central differences).

    `psi` is a group-valued array on the fiber grid (applied uniformly over the
    base) or on the full product grid (per base point).
    """
    grid, group = phi.grid, phi.group
    full_shape = grid.sizes + value_shape(group)
    fiber_shape = tuple(grid.sizes[ax] for ax in grid.fiber_axes) + value_shape(group)
    psi = np.asarray(psi, dtype=complex)
    if psi.shape == fiber_shape:
        expand = (1,) * len(grid.base_axes) + fiber_shape
        psi = np.broadcast_to(psi.reshape(expand), full_shape)
    elif psi.shape != full_shape:
        raise ShapeError(f"psi shape {psi.shape} matches neither the fiber grid "
                         f"nor the product grid")
    inv = group_inverse(group, psi)
    h = grid.spacings
    out = {}
    for nu in grid.fiber_axes:
        dpsi = central_difference(psi, nu, h[nu])
        if group == U1:
            out[nu] = phi.comps[nu] + inv * dpsi
        else:
            out[nu] = inv @ phi.comps[nu] @ psi + inv @ dpsi
    return HiggsFieldMap(grid, group, out, twist=phi.twist)
