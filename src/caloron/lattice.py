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

from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import combinations, product
from math import inf, pi

import numpy as np

from .errors import BranchCutError, ConfigError, DegreeError, ShapeError

TWO_PI = 2.0 * pi

U1 = "u1"
SU2 = "su2"
SCALAR = "scalar"  # complex-number-valued forms (after applying an invariant polynomial)

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
        if not all(0.0 < l < inf for l in self.lengths):
            raise ConfigError(f"grid lengths {self.lengths} must be positive and finite")
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
        out = 1.0
        for a in axes:
            out *= self.lengths[a]
        return out

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

    def refine(self, factor: int = 2) -> "Grid":
        return replace(self, sizes=tuple(n * factor for n in self.sizes))


# ---------------------------------------------------------------------------
# group / algebra arithmetic


def value_shape(group: str) -> tuple:
    return _VALUE_SHAPE[group]


def alg_zero(group: str, grid: Grid) -> np.ndarray:
    return np.zeros(grid.sizes + value_shape(group), dtype=complex)


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


def group_log(group: str, U: np.ndarray, guard: float = 1e-6) -> np.ndarray:
    """Principal logarithm; raises on rotation angles within `guard` of pi."""
    if group == U1:
        ang = np.angle(U)
        if np.any(np.abs(ang) >= pi - guard):
            raise BranchCutError("U(1) holonomy angle within guard band of pi; refine the grid")
        return 1j * ang
    tr_half = np.real(np.trace(U, axis1=-2, axis2=-1)) / 2.0
    theta = np.arccos(np.clip(tr_half, -1.0, 1.0))
    if np.any(theta >= pi - guard):
        raise BranchCutError("SU(2) holonomy angle within guard band of pi; refine the grid")
    # U = cos(theta) I + i sin(theta) (n . sigma); recover n sin(theta) from the
    # anti-Hermitian traceless part of U
    anti = 0.5 * (U - np.conj(np.swapaxes(U, -1, -2)))
    n_sin = su2_coords(anti)
    sin_theta = np.sin(theta)
    safe = np.where(sin_theta == 0.0, 1.0, sin_theta)
    n = n_sin / safe[..., None]
    return su2_from_coords(theta[..., None] * n)


def group_inverse(group: str, U: np.ndarray) -> np.ndarray:
    if group == U1:
        return np.conj(U)
    return np.conj(np.swapaxes(U, -1, -2))


def group_mul(group: str, *factors) -> np.ndarray:
    out = factors[0]
    for f in factors[1:]:
        out = out * f if group == U1 else out @ f
    return out


def conjugate(group: str, g: np.ndarray, X: np.ndarray) -> np.ndarray:
    """g X g^{-1}."""
    if group == U1:
        return X.copy() if isinstance(X, np.ndarray) else X
    return g @ X @ group_inverse(group, g)


def commutator(group: str, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    if group in (U1, SCALAR):
        return np.zeros(np.broadcast(X, Y).shape, dtype=complex)
    return X @ Y - Y @ X


def alg_violation(group: str, X: np.ndarray) -> float:
    """Max deviation from the algebra constraints (anti-Hermitian, traceless)."""
    if group == U1:
        return float(np.max(np.abs(np.real(X)), initial=0.0))
    anti = np.max(np.abs(X + np.conj(np.swapaxes(X, -1, -2))), initial=0.0)
    tr = np.max(np.abs(np.trace(X, axis1=-2, axis2=-1)), initial=0.0)
    return float(max(anti, tr))


def group_violation(group: str, U: np.ndarray) -> float:
    if group == U1:
        return float(np.max(np.abs(np.abs(U) - 1.0), initial=0.0))
    Udag = group_inverse(group, U)
    unit = np.max(np.abs(Udag @ U - EYE2), initial=0.0)
    det = np.max(np.abs(np.linalg.det(U) - 1.0), initial=0.0)
    return float(max(unit, det))


# ---------------------------------------------------------------------------
# forms


def form_components(dim: int, degree: int) -> list:
    return [tuple(c) for c in combinations(range(dim), degree)]


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
        if not 0 <= self.degree:
            raise DegreeError(f"degree {self.degree} negative")
        shape = self.grid.sizes + value_shape(self.group)
        valid = _component_keys(self.grid.dim, self.degree)
        comps = {}
        for key, arr in self.comps.items():
            if key not in valid:
                raise ShapeError(f"component key {key!r} is not a strictly increasing "
                                 f"tuple of {self.degree} axes of a "
                                 f"{self.grid.dim}-dimensional grid")
            arr = np.asarray(arr, dtype=complex)
            if arr.shape != shape:
                raise ShapeError(f"component {key} has shape {arr.shape}, expected {shape}")
            comps[key] = arr
        self.comps = comps

    @classmethod
    def zero(cls, grid: Grid, group: str, degree: int) -> "FormField":
        return cls(grid, group, degree, {})

    def component(self, key: tuple) -> np.ndarray:
        """The component `key`, or a read-only zero array when it is missing."""
        arr = self.comps.get(key)
        if arr is None:
            arr = np.broadcast_to(np.zeros((), dtype=complex),
                                  self.grid.sizes + value_shape(self.group))
        return arr

    def copy(self) -> "FormField":
        return FormField(self.grid, self.group, self.degree,
                         {k: v.copy() for k, v in self.comps.items()})

    def __add__(self, other: "FormField") -> "FormField":
        _check_compatible(self, other)
        if self.degree != other.degree:
            raise DegreeError("cannot add forms of different degree")
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
        raise ShapeError("grid mismatch")
    if a.group != b.group:
        raise ShapeError(f"group mismatch: {a.group} vs {b.group}")


def central_difference(arr: np.ndarray, axis: int, spacing: float) -> np.ndarray:
    return (np.roll(arr, -1, axis=axis) - np.roll(arr, 1, axis=axis)) / (2.0 * spacing)


def ext_deriv(f: FormField) -> FormField:
    """Central-difference periodic exterior derivative; it emits only the
    components that receive a term."""
    if f.degree >= f.grid.dim:
        raise DegreeError(f"cannot differentiate a degree-{f.degree} form on a "
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


def wedge(a: FormField, b: FormField, mul=None) -> FormField:
    """Componentwise wedge with pointwise value multiplication `mul` (default: product
    for scalar/U(1) values, matrix product for SU(2)); terms with a missing factor
    are skipped."""
    _check_compatible(a, b)
    deg = a.degree + b.degree
    if deg > a.grid.dim:
        return FormField.zero(a.grid, a.group, deg)
    if mul is None:
        mul = (lambda x, y: x * y) if a.group in (U1, SCALAR) else (lambda x, y: x @ y)
    out = {}
    for key in form_components(a.grid.dim, deg):
        acc = None
        for I in combinations(key, a.degree):
            J = tuple(x for x in key if x not in I)
            x, y = a.comps.get(I), b.comps.get(J)
            if x is None or y is None:
                continue
            term = shuffle_sign(I, J) * mul(x, y)
            acc = term if acc is None else acc + term
        if acc is not None:
            out[key] = acc
    return FormField(a.grid, a.group, deg, out)


def bracket(a: FormField, b: FormField) -> FormField:
    """Graded bracket: wedge on indices, matrix commutator on values."""
    _check_compatible(a, b)
    if a.degree + b.degree > a.grid.dim:
        raise DegreeError("bracket degree exceeds grid dimension")
    if a.group == U1:
        return FormField.zero(a.grid, a.group, a.degree + b.degree)
    return wedge(a, b, mul=lambda x, y: x @ y - y @ x)


def integrate(f: FormField, axes=None):
    """Trapezoidal (= mean * volume) integral of the component spanning `axes`.

    With axes=None the form must be top degree. On a periodic grid the
    trapezoid rule is the plain mean times volume, exact for pure harmonics.
    The result keeps the value dimensions (and any non-integrated grid axes).
    """
    if axes is None:
        axes = tuple(range(f.grid.dim))
    key = tuple(sorted(axes))
    if f.degree != len(key):
        raise DegreeError(f"degree-{f.degree} form cannot be integrated over "
                          f"{len(key)} axes")
    return np.mean(f.component(key), axis=key) * f.grid.volume(key)


# ---------------------------------------------------------------------------
# link fields


@dataclass
class LinkField:
    """Group-valued field on oriented edges site -> site + e_axis."""

    grid: Grid
    group: str
    links: dict = field(default_factory=dict)

    def __post_init__(self):
        shape = self.grid.sizes + value_shape(self.group)
        full = {}
        ident = np.ones(shape, dtype=complex) if self.group == U1 else \
            np.broadcast_to(EYE2, shape).copy()
        for a in range(self.grid.dim):
            arr = self.links.get(a)
            if arr is None:
                arr = ident.copy()
            else:
                arr = np.asarray(arr, dtype=complex)
                if arr.shape != shape:
                    raise ShapeError(f"link array for axis {a} has shape {arr.shape}, "
                                     f"expected {shape}")
            full[a] = arr
        self.links = full

    @classmethod
    def identity(cls, grid: Grid, group: str) -> "LinkField":
        return cls(grid, group, {})

    def copy(self) -> "LinkField":
        return LinkField(self.grid, self.group, {a: u.copy() for a, u in self.links.items()})

    def max_group_violation(self) -> float:
        return max(group_violation(self.group, u) for u in self.links.values())


def plaquette_holonomy(u: LinkField, ax: int, ay: int) -> np.ndarray:
    """U_x(s) U_y(s+x) U_x(s+y)^{-1} U_y(s)^{-1} per site."""
    g = u.group
    Ux = u.links[ax]
    Uy = u.links[ay]
    Uy_xp = np.roll(Uy, -1, axis=ax)
    Ux_yp = np.roll(Ux, -1, axis=ay)
    return group_mul(g, Ux, Uy_xp, group_inverse(g, Ux_yp), group_inverse(g, Uy))


def plaquette_curvature(u: LinkField) -> FormField:
    """Curvature 2-form from plaquette holonomies (principal log / plaquette area)."""
    if u.grid.dim != 2:
        raise DegreeError("plaquette_curvature requires a 2-dimensional grid")
    h = u.grid.spacings
    P = plaquette_holonomy(u, 0, 1)
    F = group_log(u.group, P) / (h[0] * h[1])
    return FormField(u.grid, u.group, 2, {(0, 1): F})


def total_flux(u: LinkField, ax: int = 0, ay: int = 1) -> complex:
    """Sum of principal plaquette logs; 2*pi*i*(integer) on a closed surface."""
    P = plaquette_holonomy(u, ax, ay)
    axes = tuple(range(P.ndim)) if u.group == U1 else tuple(range(P.ndim - 2))
    return complex(np.sum(group_log(u.group, P), axis=axes) if u.group == U1
                   else np.trace(np.sum(group_log(u.group, P), axis=axes)) / 2.0)


# ---------------------------------------------------------------------------
# gauge transformations


def gauge_transform_form(f: FormField, g: np.ndarray) -> FormField:
    """Pointwise conjugation of an algebra-valued form by a group-valued 0-form."""
    if f.group == U1:
        return f.copy()
    if g.shape != f.grid.sizes + (2, 2):
        raise ShapeError("gauge field shape mismatch")
    ginv = group_inverse(f.group, g)
    return FormField(f.grid, f.group, f.degree,
                     {k: g @ v @ ginv for k, v in f.comps.items()})


def gauge_transform_links(u: LinkField, g: np.ndarray) -> LinkField:
    """U_a(s) -> g(s) U_a(s) g(s + e_a)^{-1}."""
    out = {}
    for a, U in u.links.items():
        g_shift = np.roll(g, -1, axis=a)
        out[a] = group_mul(u.group, g, U, group_inverse(u.group, g_shift))
    return LinkField(u.grid, u.group, out)


def gauge_transform_connection(A: FormField, g: np.ndarray) -> FormField:
    """Connection 1-form transform g A g^{-1} + g d(g^{-1}), central differences.

    Every component is present in the result: the g d(g^{-1}) term appears
    also where A has no component."""
    if A.degree != 1:
        raise DegreeError("connection transform needs a 1-form")
    h = A.grid.spacings
    ginv = group_inverse(A.group, g)
    out = {}
    for a in range(A.grid.dim):
        dginv = central_difference(ginv, a, h[a])
        g_dginv = g * dginv if A.group == U1 else g @ dginv
        arr = A.comps.get((a,))
        if arr is None:
            out[(a,)] = g_dginv
        elif A.group == U1:
            out[(a,)] = arr + g_dginv
        else:
            out[(a,)] = g @ arr @ ginv + g_dginv
    return FormField(A.grid, A.group, 1, out)


# ---------------------------------------------------------------------------
# sample configurations


def band_limited_scalar(grid: Grid, max_mode: int, rng: np.random.Generator,
                        amplitude: float = 1.0) -> np.ndarray:
    """Real random trigonometric polynomial with per-axis modes up to max_mode.

    Each mode combination's cosine is evaluated only on the axes where its
    mode is nonzero and broadcast into the output, so the cost is
    prod(1 + 2 max_mode n_a) - 1 cosines.  Every grid point still sees the
    same additions in the same order as a full-grid sum, and the generator
    draws an amplitude and a phase per combination, in combination order.
    """
    out = np.zeros(grid.sizes)
    modes = range(-max_mode, max_mode + 1)
    # one broadcastable wave-number-times-coordinate term per axis and mode
    terms = [{m: m * (TWO_PI / grid.lengths[axis]) * grid.coordinate(axis)
              for m in modes if m} for axis in range(grid.dim)]
    for combo in product(modes, repeat=grid.dim):
        if not any(combo):
            continue
        amp = amplitude * rng.standard_normal() / (1 + sum(m * m for m in combo))
        phase = rng.uniform(0.0, TWO_PI)
        arg = None
        for axis, m in enumerate(combo):
            if m:
                arg = terms[axis][m] if arg is None else arg + terms[axis][m]
        out += amp * np.cos(arg + phase)
    return out


def sample(family: str, grid: Grid, group: str = U1, params: dict | None = None,
           seed: int = 0):
    """Deterministic test-configuration library.

    Families: zero, u1_harmonic(max_mode), su2_band_limited(max_mode),
    constant_curvature_torus(c) (returns a LinkField on a 2-d grid).  The
    band-limited families need 0 <= max_mode <= min(grid.sizes) // 2.
    """
    params = dict(params or {})
    rng = np.random.default_rng(seed)
    if family == "zero":
        return FormField.zero(grid, group, 1)
    if family == "constant_curvature_torus":
        return constant_curvature_torus(grid, int(params.get("c", 1)))
    if family not in ("u1_harmonic", "su2_band_limited"):
        raise ConfigError(f"unknown sample family {family!r}")
    max_mode = int(params.get("max_mode", 2))
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
    if abs(c) * TWO_PI / (nx * ny) >= pi - 1e-6:
        raise ConfigError("twist too large for this grid; refine")
    jx = np.arange(nx).reshape(nx, 1)
    jy = np.arange(ny).reshape(1, ny)
    Uy = np.exp(-1j * TWO_PI * c * jx / (nx * ny)) * np.ones((nx, ny))
    Ux = np.ones((nx, ny), dtype=complex)
    Ux[nx - 1, :] = np.exp(1j * TWO_PI * c * jy[0] / ny)
    return LinkField(grid, U1, {0: Ux, 1: Uy})


def links_from_connection(A: FormField, twist: int = 0) -> LinkField:
    """Midpoint-exponential links exp(h_a A_a(s)), optionally times a U(1) twist
    background on the last two axes."""
    if A.degree != 1:
        raise DegreeError("links_from_connection needs a 1-form")
    h = A.grid.spacings
    links = {}
    for a in range(A.grid.dim):
        links[a] = group_exp(A.group, h[a] * A.component((a,)))
    u = LinkField(A.grid, A.group, links)
    if twist:
        if A.group != U1:
            raise ConfigError("twists are supported for U(1) only")
        if A.grid.dim < 2:
            raise ConfigError("twist needs at least two axes")
        ax, ay = A.grid.dim - 2, A.grid.dim - 1
        bg = constant_curvature_torus(
            Grid(sizes=(A.grid.sizes[ax], A.grid.sizes[ay]),
                 lengths=(A.grid.lengths[ax], A.grid.lengths[ay])),
            twist)
        shape = [1] * A.grid.dim
        shape[ax] = A.grid.sizes[ax]
        shape[ay] = A.grid.sizes[ay]
        u.links[ax] = u.links[ax] * bg.links[0].reshape(shape)
        u.links[ay] = u.links[ay] * bg.links[1].reshape(shape)
    return u
