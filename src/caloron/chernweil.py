"""Invariant polynomials, Chern-Weil forms, fiber integration and caloron classes.

Two independent evaluation routes are kept for the classes: numeric bidegree
filtering of f applied to the full curvature sum, and term-by-term evaluation
of the exact symbolic integrand.  Both must agree; tests enforce it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations
from math import pi

import numpy as np

from . import symbolic
from .errors import ArityError, DegreeError, DomainError, ParityError, ShapeError
from .lattice import (
    SCALAR,
    SU2,
    U1,
    FormField,
    Grid,
    ext_deriv,
    form_components,
    shuffle_sign,
)
from .transform import (
    CurvatureTriple,
    GaugeGroupConnection,
    HiggsFieldMap,
    ProductConnection,
    curvature_split,
    inverse_transform,
    nabla_phi,
)

SYM_TRACE = "sym_trace"
CHERN = "chern_normalized"
ABELIAN = "abelian_power"

MAX_POLY_DEGREE = 6


@dataclass(frozen=True)
class InvariantPolynomial:
    """Degree-k symmetric ad-invariant evaluator on the structure algebra."""

    degree: int
    kind: str = CHERN

    def __post_init__(self):
        if not 1 <= self.degree <= MAX_POLY_DEGREE:
            raise DegreeError(f"polynomial degree {self.degree} outside 1..{MAX_POLY_DEGREE}")
        if self.kind not in (SYM_TRACE, CHERN, ABELIAN):
            raise DomainError(f"unknown polynomial kind {self.kind!r}")

    @property
    def normalization(self) -> complex:
        if self.kind == CHERN:
            return (1j / (2.0 * pi)) ** self.degree
        return 1.0


def _dedupe_by_keys(keys: tuple):
    seen = set()
    out = []
    for p in permutations(range(len(keys))):
        label = tuple(keys[i] for i in p)
        if label not in seen:
            seen.add(label)
            out.append(p)
    return out


def eval_invariant(f: InvariantPolynomial, args: list, fiber: int | None = None) -> FormField:
    """Symmetrized evaluation of f on k algebra-valued forms, wedged on indices.

    Repeated arguments are collapsed via the multiset of argument identities, so
    the permutation sum stays exact for repeated entries at any k <= 6.  Returns
    a scalar-valued form; degrees above the grid dimension give the zero form.
    With `fiber` given, only components with exactly that many fiber indices
    are computed (the bidegree part of the full result).  A split of a
    component into argument blocks is skipped when any block is missing, and a
    component no split reaches is left out.
    """
    k = f.degree
    if len(args) != k:
        raise ArityError(f"expected {k} arguments, got {len(args)}")
    grid = args[0].grid
    group = args[0].group
    for a in args:
        if a.grid != grid or a.group != group:
            raise ShapeError("arguments live on different grids/groups")
    if f.kind == ABELIAN and group != U1:
        raise DomainError("abelian_power applies to U(1) data only")
    total_degree = sum(a.degree for a in args)
    if total_degree > grid.dim:
        return FormField.zero(grid, SCALAR, total_degree)

    abelian = group in (U1, SCALAR)
    # identify repeated argument objects so the symmetrization collapses
    ids = tuple(id(a) for a in args)
    orderings = [tuple(range(k))] if abelian else _dedupe_by_keys(ids)
    weight = 1.0 / len(orderings)

    out = {}
    for key in form_components(grid.dim, total_degree):
        if fiber is not None and args[0].fiber_count(key) != fiber:
            continue
        acc = None
        for order in orderings:
            degs = tuple(args[i].degree for i in order)
            for blocks, sign in _ordered_splits(key, degs):
                vals = [args[idx].comps.get(I) for idx, I in zip(order, blocks)]
                if any(v is None for v in vals):
                    continue
                prod = vals[0]
                for val in vals[1:]:
                    prod = prod * val if abelian else prod @ val
                term = prod if abelian else np.trace(prod, axis1=-2, axis2=-1)
                term = (sign * weight) * term
                acc = term if acc is None else acc + term
        if acc is not None:
            out[key] = acc * f.normalization
    return FormField(grid, SCALAR, total_degree, out)


def _ordered_splits(key: tuple, degrees: tuple):
    """All ways to split the sorted index tuple `key` into ordered blocks of the
    given sizes, with the Koszul sign of the unshuffle."""
    results = []

    def rec(remaining: tuple, i: int, blocks: tuple, sign: int):
        if i == len(degrees):
            results.append((blocks, sign))
            return
        for I in combinations(remaining, degrees[i]):
            rest = tuple(x for x in remaining if x not in I)
            s = shuffle_sign(I, rest)
            rec(rest, i + 1, blocks + (I,), sign * s)

    rec(key, 0, (), 1)
    return results


def chern_weil_form(f: InvariantPolynomial, F: FormField) -> FormField:
    """f(F, ..., F): the Chern-Weil 2k-form of a curvature 2-form."""
    if F.degree != 2:
        raise DegreeError("chern_weil_form expects a curvature 2-form")
    return eval_invariant(f, [F] * f.degree)


def fiber_integrate(w: FormField) -> FormField:
    """Integrate a scalar-valued form on the product over all fiber axes.

    Components carrying fewer fiber indices than dim X map to zero; the rest
    lose their fiber indices and keep the base block.  The result holds every
    component of its degree.
    """
    grid = w.grid
    fiber = grid.fiber_axes
    d = len(fiber)
    base_grid = grid.base_grid()
    out_degree = max(w.degree - d, 0)
    # every component of the base degree is present, zero or not
    out = {key: np.zeros(base_grid.sizes, dtype=complex)
           for key in form_components(base_grid.dim, out_degree)}
    vol = grid.volume(fiber)
    for key, arr in w.comps.items():
        if w.fiber_count(key) != d:
            continue
        # base axes keep their indices (base axes lead the product grid)
        base_part = key[:len(key) - d]
        out[base_part] = out[base_part] + np.mean(arr, axis=fiber) * vol
    return FormField(base_grid, SCALAR, out_degree, out)


def closedness_residual(w: FormField) -> float:
    """Max norm of the exterior derivative; top-degree forms return 0 by convention."""
    if w.degree >= w.grid.dim:
        return 0.0
    return ext_deriv(w).max_norm()


def pair_with_cycle(w: FormField, axes: tuple, basepoint: dict | None = None) -> complex:
    """Pair a p-form with the axis-aligned p-torus spanned by `axes` through
    `basepoint` (index per remaining axis, default 0)."""
    key = tuple(sorted(axes))
    if len(key) != w.degree:
        raise DegreeError(f"cycle dimension {len(key)} != form degree {w.degree}")
    arr = w.component(key)
    basepoint = basepoint or {}
    idx = []
    for a in range(w.grid.dim):
        idx.append(slice(None) if a in key else int(basepoint.get(a, 0)))
    arr = arr[tuple(idx)]
    return complex(np.mean(arr) * w.grid.volume(key))


@dataclass
class CaloronClassReport:
    r: int
    d: int
    k: int
    class_form: FormField
    pairings: list = field(default_factory=list)  # (cycle id, value)
    closedness_residual: float = 0.0
    degree_overflow: bool = False
    metadata: dict = field(default_factory=dict)


def _resolve_triple(data) -> tuple:
    """Accept a ProductConnection or an (A, Phi) pair; return (triple, grid, group)."""
    if isinstance(data, ProductConnection):
        triple = curvature_split(data)
        return triple, data.grid, data.group
    if isinstance(data, CurvatureTriple):
        g = data.F_A.grid
        return data, g, data.F_A.group
    a, phi = data
    if not isinstance(a, GaugeGroupConnection) or not isinstance(phi, HiggsFieldMap):
        raise ShapeError("expected a ProductConnection or a (GaugeGroupConnection, "
                         "HiggsFieldMap) pair")
    w = inverse_transform(a, phi)
    triple = curvature_split(w)
    # the definition-sum path is the canonical mixed block for pair input
    triple = CurvatureTriple(triple.F_A, triple.F_Phi, nabla_phi(a, phi))
    return triple, w.grid, w.group


def caloron_class(data, f: InvariantPolynomial, r: int, cycles: list | None = None,
                  symbolic_path: bool = False) -> CaloronClassReport:
    """Fiber-integrated bidegree-(2k-d, d) part of f applied to the total curvature.

    `cycles` is a list of (name, axes-of-the-base, basepoint) entries; pairings
    are reported for each.  With symbolic_path=True the exact integrand words
    are evaluated term by term instead of filtering numerically.
    """
    triple, grid, group = _resolve_triple(data)
    d = len(grid.fiber_axes)
    if (r + d) % 2 != 0:
        raise ParityError(f"class degree r={r} and fiber dimension d={d} "
                          "must have the same parity")
    k = (d + r) // 2
    if k < 1:
        raise DegreeError(f"(r={r}, d={d}) gives polynomial degree k={k} < 1")
    if f.degree != k:
        raise ArityError(f"polynomial degree {f.degree} != required k={k}")
    overflow = 2 * k > grid.dim

    if symbolic_path:
        gen_map = {symbolic.FA: triple.F_A, symbolic.FPHI: triple.F_Phi,
                   symbolic.NABLA: triple.NablaPhi}
        integrand = symbolic.caloron_integrand(d, k)
        total_form = None
        for word, coeff in integrand.terms.items():
            val = eval_invariant(f, [gen_map[g] for g in word], fiber=d)
            term = float(coeff) * val
            total_form = term if total_form is None else total_form + term
        w2k = total_form if total_form is not None \
            else FormField.zero(grid, SCALAR, 2 * k)
    else:
        w2k = eval_invariant(f, [triple.total()] * k, fiber=d)

    class_form = fiber_integrate(w2k)
    residual = closedness_residual(class_form)
    pairings = []
    for name, axes, basepoint in (cycles or []):
        pairings.append((name, pair_with_cycle(class_form, axes, basepoint)))
    return CaloronClassReport(
        r=r, d=d, k=k, class_form=class_form, pairings=pairings,
        closedness_residual=residual, degree_overflow=overflow,
        metadata={"group": group, "sizes": grid.sizes, "kind": f.kind,
                  "path": "symbolic" if symbolic_path else "numeric"},
    )


def string_class(data, f: InvariantPolynomial, k: int,
                 cycles: list | None = None) -> CaloronClassReport:
    """k * f(F_A^{k-1} NablaPhi) fiber-integrated over a circle fiber."""
    triple, grid, group = _resolve_triple(data)
    if len(grid.fiber_axes) != 1:
        raise DomainError("string classes need a 1-dimensional fiber")
    if f.degree != k:
        raise ArityError(f"polynomial degree {f.degree} != k={k}")
    args = [triple.F_A] * (k - 1) + [triple.NablaPhi]
    w2k = eval_invariant(f, args, fiber=1)
    class_form = fiber_integrate(float(k) * w2k)
    pairings = []
    for name, axes, basepoint in (cycles or []):
        pairings.append((name, pair_with_cycle(class_form, axes, basepoint)))
    return CaloronClassReport(
        r=2 * k - 1, d=1, k=k, class_form=class_form, pairings=pairings,
        closedness_residual=closedness_residual(class_form),
        degree_overflow=2 * k > grid.dim,
        metadata={"group": group, "sizes": grid.sizes, "kind": f.kind,
                  "path": "string"},
    )
