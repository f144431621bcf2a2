"""Periodic grids, U(1)/SU(2) matrix arithmetic, grid-sampled forms and link fields.

Conventions fixed here and relied on everywhere else:
  * axes are ordered base-first, then fiber; orientation is axis order;
  * derivatives are central differences on the periodic grid, O(h^2);
  * integration is the trapezoidal rule, i.e. plain mean times volume;
  * U(1) algebra values are purely imaginary complex scalars, SU(2) algebra
    values are 2x2 traceless anti-Hermitian matrices stored in trailing
    (2, 2) array dimensions.
"""
from __future__ import annotations

import cmath
import copy
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from itertools import combinations, product
from math import inf, pi, prod

import numpy as np

from .errors import ConfigError

TWO_PI = 2.0 * pi

# the largest rotation angle group_log takes and a twist's plaquette angle may
# reach: a guard band of 1e-6 below the principal logarithm's cut at pi
MAX_ANGLE = pi - 1e-6

U1 = "u1"
SU2 = "su2"
SCALAR = "scalar"  # complex-number-valued forms (after applying an invariant polynomial)
GROUPS = (U1, SU2)  # the structure groups a connection may have

_VALUE_SHAPE = {U1: (), SU2: (2, 2), SCALAR: ()}

PAULI = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)
EYE2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid with a base/fiber axis split (base axes first)."""

    sizes: tuple
    lengths: tuple = None
    base_axes: tuple = ()

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        lengths = self.lengths
        if lengths is None:
            lengths = (TWO_PI,) * len(sizes)
        object.__setattr__(self, "lengths", tuple(float(x) for x in lengths))
        object.__setattr__(self, "base_axes", tuple(int(a) for a in self.base_axes))
        if len(self.lengths) != len(sizes):
            raise ConfigError("lengths/sizes mismatch")
        if any(n < 4 for n in sizes):
            raise ConfigError(f"grid sizes {sizes} must all be >= 4")
        # a spacing that underflows to zero or a wavenumber that overflows
        # would make every difference or sample inf or nan
        if not all(0.0 < l < inf and l / n > 0.0 and TWO_PI / l < inf
                   for l, n in zip(self.lengths, sizes)):
            raise ConfigError(f"grid lengths {self.lengths} must be positive and finite, "
                              "with a nonzero spacing L/n and a finite wavenumber 2*pi/L")
        if self.base_axes != tuple(range(len(self.base_axes))):
            raise ConfigError("base axes must be the leading axes")

    @property
    def dim(self) -> int:
        return len(self.sizes)

    @property
    def fiber_axes(self) -> tuple:
        return tuple(range(len(self.base_axes), self.dim))

    @property
    def spacings(self) -> tuple:
        return tuple(l / n for l, n in zip(self.lengths, self.sizes))

    def volume(self, axes=None) -> float:
        axes = range(self.dim) if axes is None else axes
        return prod((self.lengths[a] for a in axes), start=1.0)

    def coordinate(self, axis: int) -> np.ndarray:
        """Coordinate array of grid points along one axis, broadcast over the grid."""
        x = np.arange(self.sizes[axis]) * self.spacings[axis]
        shape = [1] * self.dim
        shape[axis] = self.sizes[axis]
        return x.reshape(shape)

    def base_grid(self) -> "Grid":
        """The grid spanned by the base axes alone (all axes base)."""
        b = self.base_axes
        return Grid(
            sizes=tuple(self.sizes[a] for a in b),
            lengths=tuple(self.lengths[a] for a in b),
            base_axes=tuple(range(len(b))),
        )

    def slab(self, rows: slice) -> "Grid":
        """The grid of the points `rows` of axis 0, the other axes whole.

        The lengths stay those of the whole torus, so every spacing but axis
        0's, the fiber volume and the twist background read the same as on the
        whole grid; take axis 0's spacing from the whole grid.  A slab may be
        thinner than any grid, so the size check is not applied to it.
        """
        count = len(range(self.sizes[0])[rows])
        if count == self.sizes[0]:
            return self
        slab = copy.copy(self)
        object.__setattr__(slab, "sizes", (count,) + self.sizes[1:])
        return slab

    def refine(self) -> "Grid":
        """The grid with every size doubled."""
        return replace(self, sizes=tuple(n * 2 for n in self.sizes))


# ---------------------------------------------------------------------------
# group / algebra arithmetic


def value_shape(group: str) -> tuple:
    """The trailing array shape of one `group` value; ConfigError for another group."""
    if group not in _VALUE_SHAPE:
        raise ConfigError(f"unknown group {group!r}; known groups: " + ", ".join(_VALUE_SHAPE))
    return _VALUE_SHAPE[group]


def check_group(group: str) -> None:
    """Raise ConfigError unless `group` is a structure group of GROUPS."""
    if group not in GROUPS:
        raise ConfigError(f"unknown group {group!r}; known groups: " + ", ".join(GROUPS))


def trace2(X: np.ndarray) -> np.ndarray:
    """Trace over the trailing (2, 2) axes, bit for bit np.trace's.

    np.trace reduces the strided diagonal, starting from zero and adding the
    entries in order; (0 + X00) + X11 is that sum, signed zeros included
    (X00 + X11 alone keeps -0.0 where np.trace gives 0.0), without the
    reduction's per-call cost.
    """
    return (np.zeros((), X.dtype) + X[..., 0, 0]) + X[..., 1, 1]


def su2_from_coords(a: np.ndarray) -> np.ndarray:
    """i * (a . sigma) for real coordinate array a with trailing dim 3."""
    return 1j * np.einsum("...k,kij->...ij", np.asarray(a, dtype=float), PAULI)


def su2_coords(X: np.ndarray) -> np.ndarray:
    """Inverse of su2_from_coords (real part projection)."""
    return np.real(np.einsum("...ij,kji->...k", X / 1j, PAULI) / 2.0)


def group_exp(group: str, X: np.ndarray) -> np.ndarray:
    """Exponential map; closed form for SU(2)."""
    if group == U1:
        return np.exp(X)
    a = su2_coords(X)
    norm = np.linalg.norm(a, axis=-1)
    safe = np.where(norm == 0.0, 1.0, norm)
    unit = a / safe[..., None]
    c = np.cos(norm)[..., None, None] * EYE2
    s = np.sin(norm)[..., None, None] * su2_from_coords(unit)
    return c + s


def group_log(U: np.ndarray) -> np.ndarray:
    """Principal U(1) logarithm; raises on rotation angles of MAX_ANGLE or more."""
    ang = np.angle(U)
    if np.any(np.abs(ang) >= MAX_ANGLE):
        raise ConfigError("U(1) holonomy angle within guard band of pi; refine the grid")
    return 1j * ang


def group_inverse(group: str, U: np.ndarray) -> np.ndarray:
    if group == U1:
        return np.conj(U)
    return np.conj(np.swapaxes(U, -1, -2))


def _cmul(x: np.ndarray, y: np.ndarray) -> tuple:
    """(re, im) of the pointwise complex product x y, on the float views of
    the two entry arrays: re = xr yr - xi yi, im = xr yi + xi yr, CPython's
    complex product.  Only float multiplies, adds and subtracts touch the
    data, so the bits do not depend on the CPU (numpy's complex `*` fuses
    multiply-adds on AVX2 and AVX-512).  Both products commute and neither
    sum is fused, so _cmul(y, x) gives the bits of _cmul(x, y), a nan's sign
    and payload aside."""
    xr, xi, yr, yi = x.real, x.imag, y.real, y.imag
    re = xr * yr
    re -= xi * yi
    im = xr * yi
    im += xi * yr
    return re, im


def _out_array(out: np.ndarray | None, shape: tuple, dtype) -> np.ndarray:
    """A kernel's result array: `out` if it has `shape` and `dtype`, a new
    array if it is None; any other `out` is refused, not broadcast or cast into."""
    if out is None:
        return np.empty(shape, dtype=dtype)
    if (out.shape, out.dtype) != (shape, np.dtype(dtype)):
        raise ValueError(f"out has shape {out.shape} and dtype {out.dtype}, "
                         f"expected {shape} and {np.dtype(dtype)}")
    return out


def su2_mul(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Pointwise 2x2 product over broadcast stacks, in fixed-order real arithmetic.

    C_ij = X_i0 Y_0j + X_i1 Y_1j, each part the sum of the two _cmul parts:
    per point, CPython's complex product and sum.  The bits do not depend
    on the BLAS kernel (`@` calls zgemm once per point) or on the CPU.
    """
    out = np.empty(np.broadcast_shapes(X.shape, Y.shape), dtype=complex)
    for i, j in product((0, 1), repeat=2):
        p = _cmul(X[..., i, 0], Y[..., 0, j])
        q = _cmul(X[..., i, 1], Y[..., 1, j])
        c = out[..., i, j]
        np.add(p[0], q[0], out=c.real)
        np.add(p[1], q[1], out=c.imag)
    return out


def su2_commutator(X: np.ndarray, Y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """X Y - Y X over broadcast stacks: su2_mul(X, Y) - su2_mul(Y, X) bit
    for bit, from 12 entry products instead of 16.

    Since _cmul(y, x) has the bits of _cmul(x, y), the diagonal needs only
    d0 = X00 Y00, q = X01 Y10, r = X10 Y01 and d1 = X11 Y11:
    (X Y)_00 = d0 + q, (Y X)_00 = d0 + r, (X Y)_11 = r + d1 and
    (Y X)_11 = q + d1.  Each off-diagonal entry takes its own four.  The
    result goes into `out`, as for a numpy ufunc, or else into a new array;
    `out` must be a complex array of the broadcast shape that overlaps
    neither input.
    """
    out = _out_array(out, np.broadcast_shapes(X.shape, Y.shape), complex)

    def entry(i, j, xy, yx):  # out_ij = (xy0 + xy1) - (yx0 + yx1), per part
        c = out[..., i, j]
        for part, view in enumerate((c.real, c.imag)):
            np.add(xy[0][part], xy[1][part], out=view)
            view -= yx[0][part] + yx[1][part]

    d0, q = _cmul(X[..., 0, 0], Y[..., 0, 0]), _cmul(X[..., 0, 1], Y[..., 1, 0])
    r, d1 = _cmul(X[..., 1, 0], Y[..., 0, 1]), _cmul(X[..., 1, 1], Y[..., 1, 1])
    entry(0, 0, (d0, q), (d0, r))
    entry(1, 1, (r, d1), (q, d1))
    for i, j in ((0, 1), (1, 0)):
        entry(i, j, (_cmul(X[..., i, 0], Y[..., 0, j]), _cmul(X[..., i, 1], Y[..., 1, j])),
              (_cmul(Y[..., i, 0], X[..., 0, j]), _cmul(Y[..., i, 1], X[..., 1, j])))
    return out


def su2_trace_mul(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """trace2(su2_mul(X, Y)) bit for bit, from C00 and C11 alone:
    (0.0 + C00) + C11 per part, with each C_ii in su2_mul's order."""
    out = np.empty(np.broadcast_shapes(X.shape, Y.shape)[:-2], dtype=complex)
    c00 = _cmul(X[..., 0, 0], Y[..., 0, 0]), _cmul(X[..., 0, 1], Y[..., 1, 0])
    c11 = _cmul(X[..., 1, 0], Y[..., 0, 1]), _cmul(X[..., 1, 1], Y[..., 1, 1])
    for part, view in enumerate((out.real, out.imag)):
        np.add(0.0, c00[0][part] + c00[1][part], out=view)
        view += c11[0][part] + c11[1][part]
    return out


def group_mul(group: str, *factors) -> np.ndarray:
    """Pointwise product, left to right: su2_mul for SU(2), complex otherwise."""
    out = factors[0]
    for f in factors[1:]:
        out = su2_mul(out, f) if group == SU2 else out * f
    return out


def trace_mul(group: str, *factors) -> np.ndarray:
    """Trace of group_mul(group, *factors), a U(1) value being its own trace.

    For SU(2) the last product is su2_trace_mul, which forms only the
    diagonal the trace keeps; one factor is trace2 of it."""
    if group != SU2:
        return group_mul(group, *factors)
    if len(factors) == 1:
        return trace2(factors[0])
    return su2_trace_mul(group_mul(group, *factors[:-1]), factors[-1])


# ---------------------------------------------------------------------------
# forms


def form_components(dim: int, degree: int) -> list:
    return [tuple(c) for c in combinations(range(dim), degree)]


def point_array(grid: Grid, group: str, value, what: str) -> np.ndarray:
    """`value` as a complex array of one `group` value per point of `grid`;
    a ConfigError naming `what` when its shape is any other."""
    arr = np.asarray(value, dtype=complex)
    shape = grid.sizes + value_shape(group)
    if arr.shape != shape:
        raise ConfigError(f"{what} has shape {arr.shape}, expected {shape}")
    return arr


def zero_array(grid: Grid, group: str) -> np.ndarray:
    """A read-only zero of one `group` value per point of `grid`."""
    return np.broadcast_to(np.zeros((), dtype=complex), grid.sizes + value_shape(group))


@dataclass
class FormField:
    """Algebra- or scalar-valued p-form sampled on a periodic grid.

    `comps` holds only the components that are present; a missing key is the
    zero component.  Keys are strictly increasing axis tuples of length
    `degree`.  Forms share arrays with the forms they were built from, so
    component arrays are never written in place.
    """

    grid: Grid
    group: str
    degree: int
    comps: dict = field(default_factory=dict)

    def __post_init__(self):
        value_shape(self.group)
        if not 0 <= self.degree:
            raise ConfigError(f"degree {self.degree} negative")
        valid = _component_keys(self.grid.dim, self.degree)
        for key in self.comps:
            if key not in valid:
                raise ConfigError(f"component key {key!r} is not a strictly increasing "
                                  f"tuple of {self.degree} axes of a "
                                  f"{self.grid.dim}-dimensional grid")
        self.comps = {key: point_array(self.grid, self.group, arr, f"component {key}")
                      for key, arr in self.comps.items()}

    @classmethod
    def zero(cls, grid: Grid, group: str, degree: int) -> "FormField":
        return cls(grid, group, degree, {})

    def component(self, key: tuple) -> np.ndarray:
        """The component `key`, or a read-only zero array when it is missing."""
        arr = self.comps.get(key)
        return zero_array(self.grid, self.group) if arr is None else arr

    def __add__(self, other: "FormField") -> "FormField":
        _check_compatible(self, other)
        if self.degree != other.degree:
            raise ConfigError("cannot add forms of different degree")
        comps = dict(self.comps)
        for k, v in other.comps.items():
            comps[k] = comps[k] + v if k in comps else v
        return FormField(self.grid, self.group, self.degree, comps)

    def __sub__(self, other: "FormField") -> "FormField":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "FormField":
        return FormField(self.grid, self.group, self.degree,
                         {k: scalar * v for k, v in self.comps.items()})

    def max_norm(self) -> float:
        return max((float(np.max(np.abs(v))) for v in self.comps.values()), default=0.0)

    def fiber_count(self, key: tuple) -> int:
        fiber = set(self.grid.fiber_axes)
        return sum(1 for a in key if a in fiber)

    def bidegree_part(self, base: int, fiber: int) -> "FormField":
        """Sub-form keeping only components with the given (base, fiber) axis
        counts; it shares their arrays."""
        if base + fiber != self.degree:
            return FormField.zero(self.grid, self.group, self.degree)
        keep = {k: v for k, v in self.comps.items() if self.fiber_count(k) == fiber}
        return FormField(self.grid, self.group, self.degree, keep)


@lru_cache(maxsize=None)
def _component_keys(dim: int, degree: int) -> frozenset:
    return frozenset(form_components(dim, degree))


def _check_compatible(a: FormField, b: FormField) -> None:
    if a.grid != b.grid:
        raise ConfigError("grid mismatch")
    if a.group != b.group:
        raise ConfigError(f"group mismatch: {a.group} vs {b.group}")


def central_difference(arr: np.ndarray, axis: int, spacing: float,
                       rows: slice = slice(None), out: np.ndarray | None = None) -> np.ndarray:
    """Periodic central difference (arr[i+1] - arr[i-1]) / (2 spacing) along
    `axis`, on the points `rows` (a slice of step 1) of axis 0.

    Along axis 0 it reads the rows either side of `rows`, wrapping
    periodically.  The result goes into `out`, as for a numpy ufunc, or else
    into one new array; `out` must have the result's shape and dtype and
    must not overlap `arr`.  The interior is a subtraction of shifted slices
    into the result, the two wrap-around points are subtracted on their own,
    and the whole is then divided in place.  Those are the subtraction and
    the complex-by-float division of
    (np.roll(arr, -1, axis) - np.roll(arr, 1, axis)) / (2.0 * spacing), so
    the bits are the same, signed zeros included.
    """
    if rows.step not in (None, 1):
        raise ValueError(f"rows must have step 1, got {rows}")
    arr = np.asarray(arr)
    if axis:
        arr, rows = arr[rows], slice(None)
    n = arr.shape[axis]
    start, stop, _ = rows.indices(n)
    stop = max(start, stop)

    def at(i, j):
        return (slice(None),) * axis + (slice(i, j),)

    out = _out_array(out, arr.shape[:axis] + (stop - start,) + arr.shape[axis + 1:],
                     np.result_type(arr, 2.0 * spacing))
    lo, hi = max(start, 1), min(stop, n - 1)
    if lo < hi:
        np.subtract(arr[at(lo + 1, hi + 1)], arr[at(lo - 1, hi - 1)],
                    out=out[at(lo - start, hi - start)])
    if start == 0 < stop:
        np.subtract(arr[at(1 % n, 1 % n + 1)], arr[at(n - 1, n)], out=out[at(0, 1)])
    if start < n == stop and n > 1:
        np.subtract(arr[at(0, 1)], arr[at(n - 2, n - 1)], out=out[at(n - 1 - start, n - start)])
    np.divide(out, 2.0 * spacing, out=out)
    return out


def ext_deriv(f: FormField) -> FormField:
    """Central-difference periodic exterior derivative; it emits only the
    components that receive a term."""
    if f.degree >= f.grid.dim:
        raise ConfigError(f"cannot differentiate a degree-{f.degree} form on a "
                          f"{f.grid.dim}-dimensional grid")
    h = f.grid.spacings
    out = {}
    for key in form_components(f.grid.dim, f.degree + 1):
        acc = None
        for j, a in enumerate(key):
            arr = f.comps.get(key[:j] + key[j + 1:])
            if arr is None:
                continue
            term = central_difference(arr, a, h[a])
            if acc is None:
                acc = -term if j % 2 else term
            else:
                acc = acc - term if j % 2 else acc + term
        if acc is not None:
            out[key] = acc
    return FormField(f.grid, f.group, f.degree + 1, out)


def shuffle_sign(I: tuple, J: tuple) -> int:
    """Sign of the permutation merging the ordered blocks I, J into sorted order."""
    inversions = sum(1 for i in I for j in J if j < i)
    return -1 if inversions % 2 else 1


@lru_cache(maxsize=None)
def _ordered_splits(key: tuple, degrees: tuple) -> tuple:
    """All ways to split the sorted index tuple `key` into ordered blocks of the
    given sizes, with the Koszul sign of the unshuffle.  Cached, since every
    slab asks again for the same keys; a tuple, so no caller can alter it."""
    results = []

    def rec(remaining: tuple, i: int, blocks: tuple, sign: int):
        if i == len(degrees):
            results.append((blocks, sign))
            return
        for I in combinations(remaining, degrees[i]):
            rest = tuple(x for x in remaining if x not in I)
            rec(rest, i + 1, blocks + (I,), sign * shuffle_sign(I, rest))

    rec(key, 0, (), 1)
    return tuple(results)


def graded_sums(keys, terms, mul) -> dict:
    """For each component key, the sum over `terms`, a list of (coeff, forms),
    and over the ordered splits of the key into blocks of the forms' degrees,
    of (sign * coeff) * mul(*values), each value the form's component on its
    block.  A split is skipped when any of its components is missing, and a
    key no split reaches is left out.  The terms are added in place in that
    order: term, then split."""
    out = {}
    for key in keys:
        acc = None
        for coeff, forms in terms:
            for blocks, sign in _ordered_splits(key, tuple(f.degree for f in forms)):
                vals = [f.comps.get(I) for f, I in zip(forms, blocks)]
                if any(v is None for v in vals):
                    continue
                term = (sign * coeff) * mul(*vals)
                # in place: term is always a new array, and no sum is allocated
                acc = term if acc is None else np.add(acc, term, out=acc)
        if acc is not None:
            out[key] = acc
    return out


def wedge(a: FormField, b: FormField, mul=None) -> FormField:
    """Componentwise wedge with pointwise value multiplication `mul` (default:
    group_mul); terms with a missing factor are skipped."""
    _check_compatible(a, b)
    deg = a.degree + b.degree
    if deg > a.grid.dim:
        return FormField.zero(a.grid, a.group, deg)
    return FormField(a.grid, a.group, deg,
                     graded_sums(form_components(a.grid.dim, deg), [(1, (a, b))],
                                 mul or partial(group_mul, a.group)))


def bracket(a: FormField, b: FormField) -> FormField:
    """Graded bracket: wedge on indices, matrix commutator on values."""
    _check_compatible(a, b)
    if a.degree + b.degree > a.grid.dim:
        raise ConfigError("bracket degree exceeds grid dimension")
    if a.group == U1:
        return FormField.zero(a.grid, a.group, a.degree + b.degree)
    return wedge(a, b, mul=su2_commutator)


# ---------------------------------------------------------------------------
# link fields


@dataclass
class LinkField:
    """Group-valued field on oriented edges site -> site + e_axis; `links`
    holds one array for each axis of the grid."""

    grid: Grid
    group: str
    links: dict

    def __post_init__(self):
        check_group(self.group)
        axes = range(self.grid.dim)
        if set(self.links) != set(axes):
            raise ConfigError(f"link axes {list(self.links)} are not the grid's axes "
                              f"{list(axes)}")
        self.links = {a: point_array(self.grid, self.group, self.links[a],
                                     f"link array for axis {a}") for a in axes}


def plaquette_holonomy(u: LinkField, ax: int, ay: int) -> np.ndarray:
    """U_x(s) U_y(s+x) U_x(s+y)^{-1} U_y(s)^{-1} per site."""
    g = u.group
    Ux = u.links[ax]
    Uy = u.links[ay]
    Uy_xp = np.roll(Uy, -1, axis=ax)
    Ux_yp = np.roll(Ux, -1, axis=ay)
    return group_mul(g, Ux, Uy_xp, group_inverse(g, Ux_yp), group_inverse(g, Uy))


def total_flux(u: LinkField, ax: int = 0, ay: int = 1) -> complex:
    """Sum of principal U(1) plaquette logs; 2*pi*i*(integer) on a closed surface.

    Only U(1) links carry flux: an su(2) value is traceless, so an SU(2)
    bundle's first Chern class vanishes and its classes start in degree 2."""
    if u.group != U1:
        raise ConfigError(f"total flux needs U(1) links, got group {u.group!r}")
    return complex(np.sum(group_log(plaquette_holonomy(u, ax, ay)),
                          axis=tuple(range(u.grid.dim))))


# ---------------------------------------------------------------------------
# sample configurations


def band_limited_scalar(grid: Grid, max_mode: int, rng: np.random.Generator) -> np.ndarray:
    """Real random trigonometric polynomial with per-axis modes up to max_mode:
    the sum of amp cos(k.x + phase) over the mode combinations m != 0, where
    k_a = 2 pi m_a / L_a, and amp = standard_normal() / (1 + |m|^2) and
    phase = uniform(0, 2 pi) are drawn per combination in combination order.

    On the grid k.x = 2 pi m.j / n, so the sum is one unnormalised inverse
    FFT of amp e^{i phase} placed at index m mod n (m_a = +-n_a / 2 share a
    bin, as their cosines coincide there).  Its rounding differs from a sum
    of one cosine per combination by at most 1e-13 of the largest value.
    """
    coeffs = np.zeros(grid.sizes, dtype=complex)
    modes = range(-max_mode, max_mode + 1)
    for combo in product(modes, repeat=grid.dim):
        if any(combo):
            amp = rng.standard_normal() / (1 + sum(m * m for m in combo))
            coeffs[tuple(m % n for m, n in zip(combo, grid.sizes))] += \
                cmath.rect(amp, rng.uniform(0.0, TWO_PI))
    return np.fft.ifftn(coeffs, norm="forward").real.copy()


# the group each sample family draws its connection in
FAMILY_GROUP = {"u1_harmonic": U1, "su2_band_limited": SU2}


def check_family(family: str, group: str) -> None:
    """Raise ConfigError unless `family` is a sample family of `group`."""
    if FAMILY_GROUP.get(family) != group:
        raise ConfigError(f"{family!r} is not a sample family of group {group!r}; "
                          + ", ".join(f"{f} needs {g}" for f, g in FAMILY_GROUP.items()))


def sample(family: str, grid: Grid, group: str = U1, params: dict | None = None,
           seed: int = 0) -> FormField:
    """Deterministic random connection 1-form of a band-limited family.

    Families: u1_harmonic(max_mode) for group u1, su2_band_limited(max_mode)
    for group su2 (FAMILY_GROUP).  `params` may hold only max_mode (default
    2), an integer with 0 <= max_mode <= min(grid.sizes) // 2.
    """
    check_family(family, group)
    params = params or {}
    unknown = [key for key in params if key != "max_mode"]
    if unknown:
        raise ConfigError(f"unknown sample parameter {unknown[0]!r}; the only one is 'max_mode'")
    max_mode = params.get("max_mode", 2)
    if isinstance(max_mode, bool) or not isinstance(max_mode, (int, np.integer)):
        raise ConfigError(f"max_mode must be an integer, got {max_mode!r}")
    rng = np.random.default_rng(seed)
    if not 0 <= max_mode <= min(grid.sizes) // 2:
        # past the Nyquist limit of the coarsest axis the modes only alias
        raise ConfigError(f"max_mode {max_mode} outside 0..{min(grid.sizes) // 2} "
                          f"for grid sizes {grid.sizes}")
    comps = {}
    if family == "u1_harmonic":
        for a in range(grid.dim):
            comps[(a,)] = 1j * band_limited_scalar(grid, max_mode, rng)
        return FormField(grid, U1, 1, comps)
    for a in range(grid.dim):
        coords = np.stack([band_limited_scalar(grid, max_mode, rng) for _ in range(3)],
                          axis=-1)
        comps[(a,)] = su2_from_coords(coords)
    return FormField(grid, SU2, 1, comps)


def constant_curvature_torus(grid: Grid, c: int) -> LinkField:
    """Twist-c U(1) link configuration on a 2-torus with constant plaquette angle.

    Signs are fixed so the Chern-normalized pairing (i/2pi) * total flux is +c.
    """
    if grid.dim != 2:
        raise ConfigError("constant_curvature_torus needs a 2-dimensional grid")
    nx, ny = grid.sizes
    if abs(c) * TWO_PI / (nx * ny) >= MAX_ANGLE:
        raise ConfigError("twist too large for this grid; refine")
    jx = np.arange(nx).reshape(nx, 1)
    jy = np.arange(ny).reshape(1, ny)
    Uy = np.exp(-1j * TWO_PI * c * jx / (nx * ny)) * np.ones((nx, ny))
    Ux = np.ones((nx, ny), dtype=complex)
    Ux[nx - 1, :] = np.exp(1j * TWO_PI * c * jy[0] / ny)
    return LinkField(grid, U1, {0: Ux, 1: Uy})


def twist_plane(grid: Grid, group: str) -> tuple:
    """The axes (a, b) of the plane a twist's constant background lives on:
    the last two.  Twists are U(1) only."""
    if group != U1:
        raise ConfigError("twists are supported for U(1) only")
    if grid.dim < 2:
        raise ConfigError("twist needs at least two axes")
    return grid.dim - 2, grid.dim - 1


def links_from_connection(A: FormField, twist: int = 0) -> LinkField:
    """Midpoint-exponential links exp(h_a A_a(s)), optionally times a U(1) twist
    background on twist_plane's axes."""
    check_group(A.group)
    if A.degree != 1:
        raise ConfigError("links_from_connection needs a 1-form")
    h = A.grid.spacings
    links = {a: group_exp(A.group, h[a] * A.component((a,))) for a in range(A.grid.dim)}
    if twist:
        ax, ay = twist_plane(A.grid, A.group)
        bg = constant_curvature_torus(
            Grid(sizes=(A.grid.sizes[ax], A.grid.sizes[ay]),
                 lengths=(A.grid.lengths[ax], A.grid.lengths[ay])),
            twist)
        shape = tuple(n if a in (ax, ay) else 1 for a, n in enumerate(A.grid.sizes))
        links[ax] = links[ax] * bg.links[0].reshape(shape)
        links[ay] = links[ay] * bg.links[1].reshape(shape)
    return LinkField(A.grid, A.group, links)
