"""Invariant polynomials, Chern-Weil forms, fiber integration and caloron classes.

Two independent evaluation routes are kept for the classes: numeric bidegree
filtering of f applied to the full curvature sum, and term-by-term evaluation
of the exact symbolic integrand.  Both must agree; tests enforce it.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import partial
from itertools import permutations
from math import pi

import numpy as np

from . import symbolic
from .errors import ConfigError
from .lattice import (
    SCALAR,
    SU2,
    FormField,
    Grid,
    ext_deriv,
    form_components,
    graded_sums,
    trace_mul,
    value_shape,
)
from .transform import ProductConnection, curvature_split

SYM_TRACE = "sym_trace"
CHERN = "chern_normalized"
KINDS = (CHERN, SYM_TRACE)

MAX_POLY_DEGREE = 6


@dataclass(frozen=True)
class InvariantPolynomial:
    """Degree-k symmetric ad-invariant evaluator on the structure algebra."""

    degree: int
    kind: str = CHERN

    def __post_init__(self):
        if not 1 <= self.degree <= MAX_POLY_DEGREE:
            raise ConfigError(f"polynomial degree {self.degree} outside 1..{MAX_POLY_DEGREE}")
        if self.kind not in KINDS:
            raise ConfigError(f"unknown polynomial kind {self.kind!r}; "
                              f"known kinds: {', '.join(KINDS)}")

    @property
    def normalization(self) -> complex:
        if self.kind == CHERN:
            return (1j / (2.0 * pi)) ** self.degree
        return 1.0


def eval_invariant(f: InvariantPolynomial, args: list, fiber: int | None = None) -> FormField:
    """Symmetrized evaluation of f on k algebra-valued forms, wedged on indices.

    Repeated arguments are collapsed via the multiset of argument identities, so
    the permutation sum stays exact for repeated entries at any k <= 6.  Returns
    a scalar-valued form; degrees above the grid dimension give the zero form.
    With `fiber` given, only components with exactly that many fiber indices
    are computed (the bidegree part of the full result).  The terms are
    summed by lattice.graded_sums, each one trace_mul of its blocks: for
    SU(2), the product of the first k - 1 and then the trace of its product
    with the last, whose off-diagonal entries are never formed.
    """
    k = f.degree
    if len(args) != k:
        raise ConfigError(f"expected {k} arguments, got {len(args)}")
    grid = args[0].grid
    group = args[0].group
    for a in args:
        if a.grid != grid or a.group != group:
            raise ConfigError("arguments live on different grids/groups")
    total_degree = sum(a.degree for a in args)
    if total_degree > grid.dim:
        return FormField.zero(grid, SCALAR, total_degree)

    orderings = [tuple(range(k))]
    if group == SU2:
        # identify repeated argument objects so the symmetrization collapses:
        # the first permutation of each distinct sequence of arguments
        ids = tuple(id(a) for a in args)
        firsts = {}
        for p in permutations(range(k)):
            firsts.setdefault(tuple(ids[i] for i in p), p)
        orderings = list(firsts.values())
    weight = 1.0 / len(orderings)
    keys = [key for key in form_components(grid.dim, total_degree)
            if fiber is None or args[0].fiber_count(key) == fiber]
    sums = graded_sums(keys, [(weight, tuple(args[i] for i in order)) for order in orderings],
                       partial(trace_mul, group))
    return FormField(grid, SCALAR, total_degree,
                     {key: acc * f.normalization for key, acc in sums.items()})


def fiber_integrate(w: FormField) -> FormField:
    """Integrate a scalar-valued form on the product over all fiber axes.

    Components carrying fewer fiber indices than dim X map to zero; the rest
    lose their fiber indices and keep the base block.  The result holds every
    component of its degree.  caloron_class does the same arithmetic one slab
    of base axis 0 at a time, never holding the whole product-grid form this
    takes.
    """
    return _fiber_integral(w.grid, w.degree, lambda rows: w, w.grid.sizes[0])


# Bytes of one connection component on the rows of a slab.  At 256 KB the
# (32,32,4,32,4) U(1) grid streams one row at a time, while the 4^6 SU(2) grid
# and the (8,8,16,16) scene grid are a single slab each and pay no per-slab
# Python overhead.
_SLAB_BYTES = 1 << 18


def _slab_rows(grid: Grid, group: str) -> int:
    """Points of base axis 0 per slab for a connection on `grid`."""
    row = np.dtype(complex).itemsize * int(np.prod(grid.sizes[1:] + value_shape(group)))
    return max(1, _SLAB_BYTES // row)


# Cap on the threads that stream one class's slabs.  Each thread holds one
# slab of curvature and density, about 4 MB on the (32,32,4,32,4) U(1) grid.
_MAX_WORKERS = 4


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fiber_integral(grid: Grid, degree: int, form_on, step: int) -> FormField:
    """Fiber integral of a degree-`degree` scalar form on `grid`, streamed
    over slabs of `step` points of base axis 0: form_on(rows) is the form on
    the points `rows` of axis 0, the other axes whole.

    Each component with every fiber index, averaged over the fiber and times
    its volume, is added to the rows of its base block; every other
    component maps to zero, and the result holds every component of its
    degree.  For a class, form_on builds the slab's curvature and density,
    which need the connection only on the slab and its neighbouring rows; so
    each slab's forms are made and dropped in turn, peak memory is about one
    slab per worker above the input, and each point sees the arithmetic of
    the whole grid, bit for bit.

    The slabs run on min(usable CPUs, slabs, _MAX_WORKERS) threads of a pool
    that lives for this call only; with one, they run inline.  numpy
    releases the interpreter lock inside its array loops, and each slab adds
    into its own rows of the result, so the bits do not depend on which
    thread runs which slab, or when.  An exception in a slab cancels the
    slabs not yet started and is raised here once the running ones end.
    """
    base_grid, fiber = grid.base_grid(), grid.fiber_axes
    d, vol = len(fiber), grid.volume(fiber)
    out_degree = max(degree - d, 0)
    out = {key: np.zeros(base_grid.sizes, dtype=complex)
           for key in form_components(base_grid.dim, out_degree)}
    n0 = grid.sizes[0]
    slabs = [slice(s0, min(s0 + step, n0)) for s0 in range(0, n0, step)]

    def add_slab(rows):
        w = form_on(rows)
        for key, arr in w.comps.items():
            # base axes keep their indices (base axes lead the product grid)
            if w.fiber_count(key) == d:
                out[key[:len(key) - d]][rows] += np.mean(arr, axis=fiber) * vol

    workers = min(_usable_cpus(), len(slabs), _MAX_WORKERS)
    if workers == 1:
        for rows in slabs:
            add_slab(rows)
    else:
        # imported here, so single-slab calls never load concurrent.futures
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(workers) as pool:
            for _ in pool.map(add_slab, slabs):
                pass
    return FormField(base_grid, SCALAR, out_degree, out)


def closedness_residual(w: FormField) -> float:
    """Max norm of the exterior derivative; top-degree forms return 0 by convention."""
    if w.degree >= w.grid.dim:
        return 0.0
    return ext_deriv(w).max_norm()


def pair_with_cycle(w: FormField, axes: tuple, basepoint: dict | None = None) -> complex:
    """Pair a p-form with the axis-aligned p-torus spanned by `axes` through
    `basepoint`, a point index 0..n-1 per base axis off the cycle (default 0).
    `axes` must be distinct axes of the form's grid."""
    key = tuple(sorted(axes))
    if len(set(key)) != len(key) or not all(a in range(w.grid.dim) for a in key):
        raise ConfigError(f"cycle axes {tuple(axes)} are not distinct axes of the form's "
                          f"{w.grid.dim}-dimensional grid")
    if len(key) != w.degree:
        raise ConfigError(f"cycle dimension {len(key)} != form degree {w.degree}")
    off_cycle = [a for a in w.grid.base_axes if a not in key]
    idx = [slice(None) if a in key else 0 for a in range(w.grid.dim)]
    for a, i in (basepoint or {}).items():
        if a not in off_cycle:
            raise ConfigError(f"basepoint key {a!r} is not a base axis off the cycle; "
                              f"those are {off_cycle}")
        idx[a] = int(i)
        if not 0 <= idx[a] < w.grid.sizes[a]:
            raise ConfigError(f"basepoint index {i} on axis {a} outside "
                              f"0..{w.grid.sizes[a] - 1}")
    arr = w.component(key)[tuple(idx)]
    return complex(np.mean(arr) * w.grid.volume(key))


def class_degree(r: int, d: int) -> int:
    """k = (r + d) / 2, the degree of the invariant polynomial whose caloron
    class on a d-dimensional fiber is an r-form on the base."""
    if (r + d) % 2 != 0:
        raise ConfigError(f"class degree r={r} and fiber dimension d={d} "
                          "must have the same parity")
    k = (d + r) // 2
    if k < 1:
        raise ConfigError(f"(r={r}, d={d}) gives polynomial degree k={k} < 1")
    return k


@dataclass
class CaloronClassReport:
    r: int
    d: int
    k: int
    class_form: FormField
    pairings: list = field(default_factory=list)  # (cycle id, value)
    closedness_residual: float = 0.0


def _connection(data) -> ProductConnection:
    """data itself, which must be a ProductConnection."""
    if type(data) is not ProductConnection:
        raise ConfigError(f"expected a ProductConnection, got {type(data).__name__}")
    return data


def caloron_class(data: ProductConnection, f: InvariantPolynomial, r: int,
                  cycles: list | None = None,
                  symbolic_path: bool = False) -> CaloronClassReport:
    """Fiber-integrated bidegree-(2k-d, d) part of f applied to the total curvature
    of the connection `data`.

    `cycles` is a list of (name, axes-of-the-base, basepoint) entries;
    pairings are reported for each.  With symbolic_path=True the exact
    integrand words are evaluated term by term instead of filtering
    numerically.  The curvature, the integrand and its fiber mean are
    computed one slab of base axis 0 at a time, so no whole product-grid
    form is held; the class form is bit for bit that of the whole-grid
    computation.
    """
    w = _connection(data)
    d = len(w.grid.fiber_axes)
    k = class_degree(r, d)
    if f.degree != k:
        raise ConfigError(f"polynomial degree {f.degree} != required k={k}")

    if symbolic_path:
        integrand = symbolic.caloron_integrand(d, k)

        def density(triple):
            gen_map = {symbolic.FA: triple.F_A, symbolic.FPHI: triple.F_Phi,
                       symbolic.NABLA: triple.NablaPhi}
            # caloron_integrand(d, k) always holds FA^(k-ceil(d/2)) FPhi^(d//2)
            # NablaPhi^(d%2), so the sum has a first term
            total_form = None
            for word, coeff in integrand.terms.items():
                val = eval_invariant(f, [gen_map[g] for g in word], fiber=d)
                term = float(coeff) * val
                total_form = term if total_form is None else total_form + term
            return total_form
    else:
        def density(triple):
            return eval_invariant(f, [triple.total()] * k, fiber=d)

    class_form = _fiber_integral(w.grid, 2 * k, lambda rows: density(curvature_split(w, rows)),
                                 _slab_rows(w.grid, w.group))
    residual = closedness_residual(class_form)
    pairings = []
    for name, axes, basepoint in (cycles or []):
        pairings.append((name, pair_with_cycle(class_form, axes, basepoint)))
    return CaloronClassReport(r=r, d=d, k=k, class_form=class_form, pairings=pairings,
                              closedness_residual=residual)


def string_class(data: ProductConnection, f: InvariantPolynomial, k: int,
                 cycles: list | None = None) -> CaloronClassReport:
    """The string class: the degree-(2k-1) caloron class of a circle fiber.

    For d = 1 the caloron integrand is the single word k * F_A^{k-1} NablaPhi,
    so this is caloron_class's symbolic path, bit for bit."""
    w = _connection(data)
    if len(w.grid.fiber_axes) != 1:
        raise ConfigError("string classes need a 1-dimensional fiber")
    return caloron_class(w, f, 2 * k - 1, cycles, symbolic_path=True)
