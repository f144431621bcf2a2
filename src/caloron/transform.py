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

import cmath
from dataclasses import dataclass, field
from itertools import combinations
from math import inf, prod

import numpy as np

from .errors import ConfigError
from .lattice import (
    TWO_PI,
    U1,
    FormField,
    Grid,
    LinkField,
    central_difference,
    check_group,
    point_array,
    su2_commutator,
    twist_plane,
    value_shape,
    zero_array,
)

# bytes of a connection's arrays: one complex array per axis
MAX_CONNECTION_BYTES = 2 ** 30


def check_connection(grid: Grid, group: str, twist: int) -> None:
    """Raise unless `grid` is a product grid, `group` is in GROUPS, the arrays
    take at most MAX_CONNECTION_BYTES and a nonzero twist passes
    background_curvature.
    Every route to a connection or link field calls it before sampling or writing."""
    if not grid.base_axes or not grid.fiber_axes:
        raise ConfigError("product grid needs at least one base and one fiber axis")
    check_group(group)
    nbytes = 16 * grid.dim * prod(grid.sizes + value_shape(group))
    if nbytes > MAX_CONNECTION_BYTES:
        raise ConfigError(f"connection of {nbytes / 2**20:.0f} MiB on grid "
                          f"{grid.sizes} exceeds the limit of "
                          f"{MAX_CONNECTION_BYTES / 2**20:.0f} MiB")
    if twist:
        background_curvature(grid, group, twist)


@dataclass
class ProductConnection:
    """Connection 1-form on the product grid, periodic part plus twist metadata.

    `comps` holds only the axes that are present; a missing axis is zero and
    reads as one through `component`, as a FormField's missing component does.
    The (A, Phi) blocks are this type restricted to the base and to the fiber
    axes; the twist rides on Phi.
    """

    grid: Grid
    group: str
    comps: dict = field(default_factory=dict)  # axis -> algebra array on the full grid
    twist: int = 0

    def _axes(self) -> tuple:
        """The axes this connection may carry."""
        return tuple(range(self.grid.dim))

    def __post_init__(self):
        check_connection(self.grid, self.group, self.twist)
        axes = self._axes()
        stray = [a for a in self.comps if a not in axes]
        if stray:
            raise ConfigError(f"component keys {stray} name no axis of this block; "
                              f"its axes are {list(axes)}")
        self.comps = {a: point_array(self.grid, self.group, arr, f"component {a}")
                      for a, arr in self.comps.items()}
        # the twist plane ends on the last axis, always a fiber axis
        if self.twist and twist_plane(self.grid, self.group)[1] not in axes:
            raise ConfigError("the twist rides on the Higgs field, not on the base block")

    @classmethod
    def zero(cls, grid: Grid, group: str, twist: int = 0) -> "ProductConnection":
        return cls(grid, group, {}, twist)

    @classmethod
    def from_one_form(cls, A: FormField, twist: int = 0) -> "ProductConnection":
        if A.degree != 1:
            raise ConfigError("ProductConnection needs a 1-form")
        return cls(A.grid, A.group, {k[0]: v for k, v in A.comps.items()}, twist)

    def component(self, axis: int) -> np.ndarray:
        """The component on `axis`, or a read-only zero array when it is missing."""
        arr = self.comps.get(axis)
        return zero_array(self.grid, self.group) if arr is None else arr

    def one_form(self) -> FormField:
        return FormField(self.grid, self.group, 1,
                         {(a,): v for a, v in self.comps.items()})


class GaugeGroupConnection(ProductConnection):
    """Base-axis block A: per base axis, a gauge-algebra map over the fiber
    grid, sampled at every product-grid point."""

    def _axes(self) -> tuple:
        return self.grid.base_axes


class HiggsFieldMap(ProductConnection):
    """Fiber-axis block Phi: per base point, a fiber connection 1-form; it
    carries the twist."""

    def _axes(self) -> tuple:
        return self.grid.fiber_axes


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
                             {ax: w.comps[ax] for ax in w.grid.base_axes if ax in w.comps})
    phi = HiggsFieldMap(w.grid, w.group,
                        {ax: w.comps[ax] for ax in w.grid.fiber_axes if ax in w.comps},
                        twist=w.twist)
    return a, phi


def inverse_transform(a: GaugeGroupConnection, phi: HiggsFieldMap) -> ProductConnection:
    """Reassemble the product connection from its (A, Phi) blocks."""
    if a.grid != phi.grid:
        raise ConfigError("base/fiber grids of the pair do not match")
    if a.group != phi.group:
        raise ConfigError("group mismatch in the pair")
    return ProductConnection(a.grid, a.group, {**a.comps, **phi.comps}, twist=phi.twist)


def link_forward(u: LinkField) -> tuple:
    """Exact holonomy split: base-direction links (gauge-group valued on the base)
    and fiber-direction links (a lattice connection on the fiber per base site)."""
    check_connection(u.grid, u.group, 0)
    base = {a: u.links[a] for a in u.grid.base_axes}
    fiber = {a: u.links[a] for a in u.grid.fiber_axes}
    return base, fiber


def link_inverse(base: dict, fiber: dict, grid: Grid, group: str) -> LinkField:
    """The links of the base and fiber blocks, which must cover the grid's axes."""
    check_connection(grid, group, 0)
    return LinkField(grid, group, {**base, **fiber})


def background_curvature(grid: Grid, group: str, twist: int) -> FormField:
    """Constant curvature 2-form carried by the twist metadata.

    Lives on twist_plane's axes (both fiber when dim X = 2; mixed when
    dim X = 1), with the constant -2*pi*i*twist/area and the sign fixed so
    the Chern-normalized pairing is +twist.  A nonzero twist whose constant
    is not finite and nonzero is a ConfigError.  The constant is stored
    once, as a read-only broadcast array.
    """
    if twist == 0:
        return FormField.zero(grid, group, 2)
    ax, ay = twist_plane(grid, group)
    area = grid.lengths[ax] * grid.lengths[ay]
    try:
        value = -1j * TWO_PI * twist / area
    except (OverflowError, ZeroDivisionError):  # a twist past float range, or area 0
        value = complex(inf)
    if not (cmath.isfinite(value) and value):
        raise ConfigError(f"twist {twist} on grid lengths {grid.lengths} gives a "
                          "background curvature -2*pi*i*twist/area that is zero or not finite")
    return FormField(grid, group, 2, {(ax, ay): np.broadcast_to(value, grid.sizes)})


def curvature_split(w: ProductConnection, rows: slice = slice(None)) -> CurvatureTriple:
    """F = dA + 1/2 [A, A] + twist background on the points `rows` of axis 0
    (all of them by default), partitioned by bidegree; the blocks share F's
    arrays and live on `w.grid.slab(rows)`.

    F_ij = d_i A_j - d_j A_i + su2_commutator(A_i, A_j), which is A_i A_j -
    A_j A_i in su2_mul's bits: the two terms of the graded bracket [A, A]_ij
    are equal bit for bit (IEEE subtraction is sign symmetric), so half
    their sum is the single commutator.

    The call allocates one complex block of one slab-sized row per pair
    i < j, plus one: each F_ij is written into its own row, and its
    component array is a view of that row.  The last row is scratch: it
    takes d_j A_i and then the commutator before each is subtracted from,
    or added into, F_ij, so every point sees the same subtraction, division
    and commutator as with one new array per term.
    """
    grid, group = w.grid, w.group
    h = grid.spacings
    slab = grid.slab(rows)
    A = [w.component(a) for a in range(grid.dim)]
    pairs = list(combinations(range(grid.dim), 2))
    block = np.empty((len(pairs) + 1,) + slab.sizes + value_shape(group), dtype=complex)
    scratch = block[-1]
    F = {}
    for (i, j), Fij in zip(pairs, block):
        central_difference(A[j], i, h[i], rows, out=Fij)
        Fij -= central_difference(A[i], j, h[j], rows, out=scratch)
        if group != U1:
            Fij += su2_commutator(A[i][rows], A[j][rows], out=scratch)
        F[(i, j)] = Fij
    # in place, so the twisted component stays a view of the block too
    for key, bg in background_curvature(slab, group, w.twist).comps.items():
        F[key] += bg
    F = FormField(slab, group, 2, F)
    return CurvatureTriple(
        F_A=F.bidegree_part(2, 0),
        F_Phi=F.bidegree_part(0, 2),
        NablaPhi=F.bidegree_part(1, 1),
    )


def nabla_phi(a: GaugeGroupConnection, phi: HiggsFieldMap) -> FormField:
    """Mixed curvature from the definition sum: base derivative of Phi, minus
    fiber derivative of A, plus su2_commutator(A, Phi) added in place, plus
    the twist background's mixed part.

    It is the independent check on curvature_split's mixed block, which the
    class routines use; the two agree bit for bit.
    """
    if a.grid != phi.grid or a.group != phi.group:
        raise ConfigError("pair grids/groups do not match")
    grid, group = a.grid, a.group
    h = grid.spacings
    out = {}
    for mu in grid.base_axes:
        for nu in grid.fiber_axes:
            val = central_difference(phi.component(nu), mu, h[mu])
            np.subtract(val, central_difference(a.component(mu), nu, h[nu]), out=val)
            if group != U1:
                val += su2_commutator(a.component(mu), phi.component(nu))
            out[(mu, nu)] = val
    bg = background_curvature(grid, group, phi.twist).bidegree_part(1, 1)
    return FormField(grid, group, 2, out) + bg
