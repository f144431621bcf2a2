"""Invariant-polynomial evaluation, fiber integration and class computations."""
import concurrent.futures
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from caloron import chernweil, lattice as lat, symbolic as sym
from caloron.chernweil import (
    CaloronClassReport,
    InvariantPolynomial,
    caloron_class,
    closedness_residual,
    eval_invariant,
    fiber_integrate,
    pair_with_cycle,
    string_class,
)
from caloron.errors import ConfigError
from caloron.lattice import SCALAR, SU2, U1, FormField, Grid
from caloron.transform import (
    CurvatureTriple,
    ProductConnection,
    background_curvature,
    curvature_split,
    forward_transform,
    inverse_transform,
)

TWO_PI = 2.0 * np.pi


def _su2_one_form(grid, seed):
    return lat.sample("su2_band_limited", grid, SU2, {"max_mode": 1}, seed=seed)


def test_invariant_polynomial_validation():
    with pytest.raises(ConfigError, match=r"polynomial degree 0 outside 1\.\.6"):
        InvariantPolynomial(0)
    with pytest.raises(ConfigError, match=r"polynomial degree 7 outside 1\.\.6"):
        InvariantPolynomial(7)
    with pytest.raises(ConfigError, match="known kinds: chern_normalized, sym_trace"):
        InvariantPolynomial(2, "bogus")
    assert InvariantPolynomial(2).normalization == pytest.approx(
        (1j / TWO_PI) ** 2)
    assert InvariantPolynomial(3, "sym_trace").normalization == 1.0


def test_eval_invariant_arity_guard():
    g = Grid(sizes=(6, 6))
    F = FormField.zero(g, U1, 2)
    with pytest.raises(ConfigError, match="expected 2 arguments, got 1"):
        eval_invariant(InvariantPolynomial(2, "sym_trace"), [F])


def test_eval_invariant_abelian_is_product():
    g = Grid(sizes=(8, 8, 8, 8))
    rng = np.random.default_rng(0)
    a = FormField(g, U1, 2, {k: 1j * rng.standard_normal(g.sizes)
                             for k in lat.form_components(4, 2)})
    b = FormField(g, U1, 2, {k: 1j * rng.standard_normal(g.sizes)
                             for k in lat.form_components(4, 2)})
    out = eval_invariant(InvariantPolynomial(2, "sym_trace"), [a, b])
    oracle = lat.wedge(a, b)
    for k in out.comps:
        assert np.max(np.abs(out.comps[k] - oracle.comps[k])) < 1e-13


def test_eval_invariant_symmetric_in_arguments():
    g = Grid(sizes=(6, 6, 6, 6))
    a = FormField(g, SU2, 2, {k: lat.su2_from_coords(
        np.random.default_rng(1).standard_normal(g.sizes + (3,)))
        for k in lat.form_components(4, 2)})
    b = FormField(g, SU2, 2, {k: lat.su2_from_coords(
        np.random.default_rng(2).standard_normal(g.sizes + (3,)))
        for k in lat.form_components(4, 2)})
    f = InvariantPolynomial(2, "sym_trace")
    ab = eval_invariant(f, [a, b])
    ba = eval_invariant(f, [b, a])
    assert (ab - ba).max_norm() < 1e-12


def test_eval_invariant_conjugation_invariant():
    # ad-invariance: conjugating every argument by a fixed group element
    # leaves the trace form unchanged
    g = Grid(sizes=(6, 6, 6, 6))
    rng = np.random.default_rng(3)
    a = FormField(g, SU2, 2, {k: lat.su2_from_coords(rng.standard_normal(g.sizes + (3,)))
                              for k in lat.form_components(4, 2)})
    psi = lat.group_exp(SU2, lat.su2_from_coords(rng.standard_normal(3)))
    conj = FormField(g, SU2, 2, {k: psi @ v @ lat.group_inverse(SU2, psi)
                                 for k, v in a.comps.items()})
    f = InvariantPolynomial(2, "sym_trace")
    diff = eval_invariant(f, [a, a]) - eval_invariant(f, [conj, conj])
    assert diff.max_norm() < 1e-12


def test_eval_invariant_su2_trace_oracle():
    # k = 1 trace on a single site: compare with a hand trace
    g = Grid(sizes=(4, 4))
    X = lat.su2_from_coords(np.random.default_rng(4).standard_normal(g.sizes + (3,)))
    a = FormField(g, SU2, 2, {(0, 1): X})
    out = eval_invariant(InvariantPolynomial(1, "sym_trace"), [a])
    site = (1, 2)
    assert out.comps[(0, 1)][site] == pytest.approx(np.trace(X[site]))


def _old_route_trace_mul(group, *factors):
    """A term as trace2 of group_mul's whole product, every entry formed."""
    term = lat.group_mul(group, *factors)
    return lat.trace2(term) if group == SU2 else term


@pytest.mark.parametrize("degrees, same", [
    ((2,), False), ((2, 2), False), ((2, 2), True), ((1, 2, 1), False), ((1, 1, 1), True),
], ids=["k1", "k2", "k2-repeated", "k3", "k3-repeated"])
def test_eval_invariant_su2_matches_trace_of_whole_product(monkeypatch, degrees, same):
    """At k = 1, 2 and 3, eval_invariant's SU(2) terms are bit for bit the sum
    of (sign * weight) * trace2(group_mul(...)) over orderings and splits."""
    g = Grid(sizes=(4, 4, 4, 4), base_axes=(0, 1))
    rng = np.random.default_rng(sum(degrees) + 10 * same)

    def form(degree):
        return FormField(g, SU2, degree, {
            key: lat.su2_from_coords(rng.standard_normal(g.sizes + (3,)))
            for key in lat.form_components(g.dim, degree)})

    first = form(degrees[0])
    args = [first if same else form(d) for d in degrees]
    f = InvariantPolynomial(len(degrees))
    got = eval_invariant(f, args)
    monkeypatch.setattr(chernweil, "trace_mul", _old_route_trace_mul)
    want = eval_invariant(f, args)
    assert got.comps and set(got.comps) == set(want.comps)
    for key, arr in want.comps.items():
        assert got.comps[key].tobytes() == arr.tobytes(), key


def test_eval_invariant_su2_k2_forms_no_whole_product(monkeypatch):
    """At k = 2 every term is a trace of one product, so su2_mul (which forms
    the off-diagonal entries too) is never called; at k = 3 it forms the
    first two factors' product."""
    g = Grid(sizes=(4, 4, 4, 4))
    rng = np.random.default_rng(37)
    F = FormField(g, SU2, 2, {k: lat.su2_from_coords(rng.standard_normal(g.sizes + (3,)))
                              for k in lat.form_components(4, 2)})
    G = FormField(g, SU2, 1, {k: lat.su2_from_coords(rng.standard_normal(g.sizes + (3,)))
                              for k in lat.form_components(4, 1)})
    calls = []
    su2_mul = lat.su2_mul

    def spy(X, Y):
        calls.append(1)
        return su2_mul(X, Y)

    monkeypatch.setattr(lat, "su2_mul", spy)
    assert eval_invariant(InvariantPolynomial(2), [F, F]).comps
    assert eval_invariant(InvariantPolynomial(2), [F, G]).comps
    assert calls == []
    assert eval_invariant(InvariantPolynomial(3), [G, F, G]).comps
    assert calls


def test_eval_invariant_above_grid_dimension_is_zero():
    g = Grid(sizes=(6, 6))
    F = FormField(g, U1, 2, {(0, 1): 1j * np.ones(g.sizes)})
    out = eval_invariant(InvariantPolynomial(2, "sym_trace"), [F, F])
    assert out.degree == 4 and out.max_norm() == 0.0


def test_chern_number_of_twist_configuration():
    # [DERIVED] constant curvature -2*pi*i*c/(2*pi)^2 pairs to +c
    for c in (-1, 2):
        g = Grid(sizes=(16, 16))
        F = FormField(g, U1, 2, {(0, 1): np.full(
            g.sizes, -1j * TWO_PI * c / (TWO_PI ** 2))})
        w = eval_invariant(InvariantPolynomial(1), [F])
        val = np.mean(w.component((0, 1))) * g.volume()
        assert val.real == pytest.approx(c, abs=1e-12)
        assert abs(val.imag) < 1e-12


def test_fiber_integrate_constant_in_fiber():
    # [DERIVED] (1,1) component c * sin(x_base) integrates to 2*pi*c*sin(x_base)
    g = Grid(sizes=(12, 16), base_axes=(0,))
    x = g.coordinate(0)
    w = FormField(g, SCALAR, 2, {(0, 1): np.broadcast_to(2.5 * np.sin(x), g.sizes)})
    out = fiber_integrate(w)
    assert out.grid == g.base_grid()
    assert np.allclose(out.comps[(0,)], TWO_PI * 2.5 * np.sin(x[:, 0]))


def test_fiber_integrate_drops_low_fiber_components():
    # a 2-form with only base indices integrates to zero over a 1-dim fiber
    g = Grid(sizes=(8, 8, 8), base_axes=(0, 1))
    w = FormField(g, SCALAR, 2, {(0, 1): np.ones(g.sizes)})
    assert fiber_integrate(w).max_norm() == 0.0


def test_fiber_integrate_exact_fiber_form_vanishes():
    # the fiber derivative of a periodic function sums to zero exactly
    g = Grid(sizes=(8, 16), base_axes=(0,))
    rng = np.random.default_rng(5)
    lam = rng.standard_normal(g.sizes)
    d_lam = lat.central_difference(lam, 1, g.spacings[1])
    w = FormField(g, SCALAR, 1, {(1,): d_lam})
    assert fiber_integrate(w).max_norm() < 1e-14


def test_pair_with_cycle_basepoint():
    g = Grid(sizes=(6, 8), base_axes=(0, 1))
    arr = np.outer(np.arange(6), np.ones(8))
    w = FormField(g, SCALAR, 1, {(1,): arr})
    v0 = pair_with_cycle(w, (1,), {0: 0})
    v3 = pair_with_cycle(w, (1,), {0: 3})
    assert v0 == pytest.approx(0.0)
    assert v3 == pytest.approx(3.0 * TWO_PI)


@pytest.mark.parametrize("basepoint, match", [
    ({0: 6}, r"index 6 on axis 0 outside 0\.\.5"),
    ({0: 99}, r"index 99 on axis 0 outside 0\.\.5"),
    ({0: -1}, r"index -1 on axis 0 outside 0\.\.5"),
    ({1: 0}, r"key 1 is not a base axis off the cycle; those are \[0\]"),
    ({2: 0}, r"key 2 is not a base axis off the cycle"),
], ids=["past-end", "far-past-end", "negative", "key-on-cycle", "key-off-grid"])
def test_pair_with_cycle_rejects_bad_basepoint(basepoint, match):
    """A basepoint index off the grid is refused, not wrapped or left to
    numpy's IndexError, and so is a key on the cycle or off the grid."""
    g = Grid(sizes=(6, 8), base_axes=(0, 1))
    w = FormField(g, SCALAR, 1, {(1,): np.ones(g.sizes)})
    with pytest.raises(ConfigError, match=match):
        pair_with_cycle(w, (1,), basepoint)


@pytest.mark.parametrize("axes", [(1, 1), (-1, 1), (0, 2), (5,), (0, 0, 1)],
                         ids=["repeated", "negative", "past-end", "off-grid", "repeated-3"])
def test_pair_with_cycle_rejects_bad_axes(axes):
    """Cycle axes that repeat or lie off the grid are refused, not paired
    with a missing component as 0j or left to numpy's IndexError."""
    g = Grid(sizes=(6, 8), base_axes=(0, 1))
    w = FormField(g, SCALAR, len(axes), {})
    with pytest.raises(ConfigError, match=r"cycle axes .* are not distinct axes of the "
                                          r"form's 2-dimensional grid"):
        pair_with_cycle(w, axes)


def test_caloron_class_parity_and_arity_guards():
    g = Grid(sizes=(6, 6, 6), base_axes=(0,))
    w = ProductConnection.zero(g, U1)
    with pytest.raises(ConfigError, match="r=1 and fiber dimension d=2 must have the same parity"):
        caloron_class(w, InvariantPolynomial(1), 1)
    with pytest.raises(ConfigError, match="polynomial degree 1 != required k=2"):
        caloron_class(w, InvariantPolynomial(1), 2)


def test_twist_class_pairing_and_invariance():
    # topological pairing is +twist, exactly stable under smooth deformation
    g = Grid(sizes=(4, 24, 24), base_axes=(0,))
    f = InvariantPolynomial(1)
    for c in (-2, -1, 0, 1, 2):
        w = ProductConnection.zero(g, U1, twist=c)
        rep = caloron_class(w, f, 0, cycles=[("pt", (), {})])
        assert rep.pairings[0][1].real == pytest.approx(c, abs=1e-10)
        # perturb by a random band-limited 1-form: pairing unchanged
        pert = lat.sample("u1_harmonic", g, U1, {"max_mode": 2}, seed=10 + c)
        wp = ProductConnection.from_one_form(w.one_form() + pert, twist=c)
        rep2 = caloron_class(wp, f, 0, cycles=[("pt", (), {})])
        assert abs(rep2.pairings[0][1] - rep.pairings[0][1]) < 1e-8


@pytest.mark.parametrize("group,seed", [(U1, 11), (U1, 12), (SU2, 13), (SU2, 14)])
def test_symbolic_and_numeric_paths_agree(group, seed):
    g = Grid(sizes=(8, 8, 8, 8), base_axes=(0, 1))
    fam = "u1_harmonic" if group == U1 else "su2_band_limited"
    A = lat.sample(fam, g, group, {"max_mode": 1}, seed=seed)
    w = ProductConnection.from_one_form(A)
    f = InvariantPolynomial(2)
    num = caloron_class(w, f, 2, cycles=[("base", (0, 1), {})])
    sym = caloron_class(w, f, 2, cycles=[("base", (0, 1), {})], symbolic_path=True)
    assert (num.class_form - sym.class_form).max_norm() < 1e-10
    assert abs(num.pairings[0][1] - sym.pairings[0][1]) < 1e-10


def test_pair_input_matches_connection_input():
    g = Grid(sizes=(8, 8, 8, 8), base_axes=(0, 1))
    A = lat.sample("su2_band_limited", g, SU2, {"max_mode": 1}, seed=15)
    w = ProductConnection.from_one_form(A)
    f = InvariantPolynomial(2)
    rep_w = caloron_class(w, f, 2, cycles=[("base", (0, 1), {})])
    w_pair = inverse_transform(*forward_transform(w))
    rep_pair = caloron_class(w_pair, f, 2, cycles=[("base", (0, 1), {})])
    assert (rep_w.class_form - rep_pair.class_form).max_norm() < 1e-12


def test_string_class_matches_generic_class():
    # circle fiber: k * f(F_A^{k-1} NablaPhi) equals the generic route
    g = Grid(sizes=(8, 8, 8, 8), base_axes=(0, 1, 2))
    A = lat.sample("su2_band_limited", g, SU2, {"max_mode": 1}, seed=16)
    w = ProductConnection.from_one_form(A)
    f = InvariantPolynomial(2)
    generic = caloron_class(w, f, 3, cycles=[("c", (0, 1, 2), {})])
    string = string_class(w, f, 2, cycles=[("c", (0, 1, 2), {})])
    assert (generic.class_form - string.class_form).max_norm() < 1e-12
    assert abs(generic.pairings[0][1] - string.pairings[0][1]) < 1e-12


def test_string_class_needs_circle_fiber():
    g = Grid(sizes=(6, 6, 6), base_axes=(0,))
    with pytest.raises(ConfigError, match="string classes need a 1-dimensional fiber"):
        string_class(ProductConnection.zero(g, U1), InvariantPolynomial(2), 2)


def test_class_routines_reject_curvature_triple():
    """The class routines take a connection, not its curvature or its
    (A, Phi) pair."""
    g = Grid(sizes=(6, 6, 6), base_axes=(0, 1))
    w = ProductConnection.zero(g, U1, twist=1)
    for data in (curvature_split(w), forward_transform(w)):
        with pytest.raises(ConfigError, match="expected a ProductConnection, got "):
            caloron_class(data, InvariantPolynomial(1), 1)
        with pytest.raises(ConfigError, match="expected a ProductConnection, got "):
            string_class(data, InvariantPolynomial(1), 1)


def test_closedness_residual_top_degree_convention():
    g = Grid(sizes=(6, 6))
    w = FormField(g, SCALAR, 2, {(0, 1): np.random.default_rng(17).standard_normal(g.sizes)})
    assert closedness_residual(w) == 0.0


def test_closedness_residual_converges():
    # [DERIVED] the class 2-form on a 3-torus base closes at O(h^2)
    residuals = []
    for n in (16, 32):
        g = Grid(sizes=(n, n, 4, n, 4), base_axes=(0, 1, 2))
        rng = np.random.default_rng(21)
        comps = {}
        for a in range(g.dim):
            s = lat.band_limited_scalar(Grid(sizes=(n, n, n)), 1, rng)
            comps[(a,)] = 1j * s[:, :, None, :, None] * np.ones(g.sizes)
        A = FormField(g, U1, 1, comps)
        w = ProductConnection.from_one_form(A)
        rep = caloron_class(w, InvariantPolynomial(2), 2)
        residuals.append(rep.closedness_residual)
    assert residuals[0] / residuals[1] > 3.4


def test_report_fields():
    g = Grid(sizes=(4, 8, 8), base_axes=(0,))
    rep = caloron_class(ProductConnection.zero(g, U1, twist=1),
                        InvariantPolynomial(1), 0)
    assert isinstance(rep, CaloronClassReport)
    assert (rep.r, rep.d, rep.k) == (0, 2, 1)


# ---------------------------------------------------------------------------
# streaming over slabs of base axis 0 against the whole-grid oracle


def _nabla_phi_oracle(a, phi):
    """The pair's mixed block by whole-grid central differences."""
    h = a.grid.spacings
    out = {}
    for mu in a.grid.base_axes:
        for nu in a.grid.fiber_axes:
            val = lat.central_difference(phi.comps[nu], mu, h[mu]) \
                - lat.central_difference(a.comps[mu], nu, h[nu])
            if a.group != U1:
                Am, Pn = a.comps[mu], phi.comps[nu]
                val = val + (lat.group_mul(a.group, Am, Pn) - lat.group_mul(a.group, Pn, Am))
            out[(mu, nu)] = val
    bg = background_curvature(a.grid, a.group, phi.twist).bidegree_part(1, 1)
    return FormField(a.grid, a.group, 2, out) + bg


def _whole_grid_triple(data):
    """The curvature triple on the whole product grid: ext_deriv, half the
    graded bracket [A, A] and the twist background."""
    w = data if isinstance(data, ProductConnection) else inverse_transform(*data)
    A = w.one_form()
    F = lat.ext_deriv(A)
    if w.group != U1:
        F = F + 0.5 * lat.bracket(A, A)
    F = F + background_curvature(w.grid, w.group, w.twist)
    nabla = F.bidegree_part(1, 1) if isinstance(data, ProductConnection) \
        else _nabla_phi_oracle(*data)
    return CurvatureTriple(F.bidegree_part(2, 0), F.bidegree_part(0, 2), nabla)


def _whole_grid_class(data, f, route, r):
    """The class form from whole-grid forms: the curvature triple, then
    eval_invariant, then fiber_integrate.  For route "string", r is k."""
    t = _whole_grid_triple(data)
    d = len(t.F_A.grid.fiber_axes)
    if route == "string":
        args = [t.F_A] * (r - 1) + [t.NablaPhi]
        return fiber_integrate(float(r) * eval_invariant(f, args, fiber=1))
    k = (d + r) // 2
    if route == "numeric":
        return fiber_integrate(eval_invariant(f, [t.total()] * k, fiber=d))
    gen = {sym.FA: t.F_A, sym.FPHI: t.F_Phi, sym.NABLA: t.NablaPhi}
    w2k = None
    for word, coeff in sym.caloron_integrand(d, k).terms.items():
        term = float(coeff) * eval_invariant(f, [gen[g] for g in word], fiber=d)
        w2k = term if w2k is None else w2k + term
    return fiber_integrate(w2k)


def _u1_5d():
    g = Grid(sizes=(8, 8, 4, 8, 4), base_axes=(0, 1, 2))
    A = lat.sample("u1_harmonic", g, U1, {"max_mode": 1}, seed=31)
    return ProductConnection.from_one_form(A, twist=1)


def _u1_2d():
    # base (0,) and fiber (1,): the twist plane (0, 1) contains axis 0
    g = Grid(sizes=(10, 8), base_axes=(0,))
    A = lat.sample("u1_harmonic", g, U1, {"max_mode": 2}, seed=32)
    return ProductConnection.from_one_form(A, twist=2)


def _u1_5d_antitwist():
    w = _u1_5d()
    return ProductConnection(w.grid, w.group, w.comps, twist=-1)


def _su2_4d():
    g = Grid(sizes=(5, 4, 4, 4), base_axes=(0, 1))
    return ProductConnection.from_one_form(_su2_one_form(g, 33))


def _su2_circle():
    g = Grid(sizes=(5, 4, 4, 6), base_axes=(0, 1, 2))
    return ProductConnection.from_one_form(_su2_one_form(g, 34))


# name: (connection, input form, route, r (k for "string"), polynomial degree)
_STREAM_CASES = {
    "u1-5d-twist": (_u1_5d, "connection", "numeric", 2, 2),
    "u1-5d-twist-pair": (_u1_5d, "pair", "symbolic", 2, 2),
    "u1-5d-antitwist": (_u1_5d_antitwist, "connection", "symbolic", 2, 2),
    "u1-5d-antitwist-pair": (_u1_5d_antitwist, "pair", "numeric", 2, 2),
    "u1-2d-twist": (_u1_2d, "connection", "numeric", 1, 1),
    "u1-2d-twist-pair": (_u1_2d, "pair", "numeric", 1, 1),
    "su2-numeric": (_su2_4d, "connection", "numeric", 2, 2),
    "su2-symbolic": (_su2_4d, "connection", "symbolic", 2, 2),
    "su2-pair": (_su2_4d, "pair", "numeric", 2, 2),
    "string": (_su2_circle, "connection", "string", 2, 2),
    "string-pair": (_su2_circle, "pair", "string", 2, 2),
    "overflow": (_u1_2d, "connection", "numeric", 3, 2),
}


# the slab workers: 1 runs inline; 2 and 4 take the threaded branch on any machine
_WORKERS = [1, 2, 4]


@pytest.fixture
def short_switch_interval():
    """Switch threads every microsecond, so slabs interleave as often as they can."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("case", list(_STREAM_CASES))
def test_streamed_class_matches_whole_grid_oracle(monkeypatch, short_switch_interval,
                                                 case, rows):
    """Every class form component is bit for bit the whole-grid one, at 1, 2
    and 3 rows per slab (3 divides none of the first-axis sizes) and on 1, 2
    and 4 workers.  Every case has at least two slabs, so the slabs run off
    the calling thread exactly when there is more than one worker.  A pair
    case classes the connection inverse_transform reassembles from the
    (A, Phi) pair, against the oracle's curvature of the pair."""
    make, form, route, r, degree = _STREAM_CASES[case]
    w = make()
    data = {"connection": w, "pair": forward_transform(w)}[form]
    f = InvariantPolynomial(degree)
    want = _whole_grid_class(data, f, route, r)
    if form == "pair":
        data = inverse_transform(*data)

    row_bytes = w.comps[0][0].nbytes
    monkeypatch.setattr(chernweil, "_SLAB_BYTES", rows * row_bytes + row_bytes // 2)
    assert chernweil._slab_rows(w.grid, w.group) == rows
    slab_sizes, threads = [], set()
    traced = chernweil.eval_invariant

    def eval_invariant_spy(f, args, fiber=None):
        slab_sizes.append(args[0].grid.sizes[0])
        threads.add(threading.get_ident())
        return traced(f, args, fiber)

    monkeypatch.setattr(chernweil, "eval_invariant", eval_invariant_spy)
    for workers in _WORKERS:
        monkeypatch.setattr(chernweil, "_usable_cpus", lambda n=workers: n)
        slab_sizes.clear()
        threads.clear()
        before = threading.active_count()
        if route == "string":
            got = string_class(data, f, r).class_form
        else:
            got = caloron_class(data, f, r, symbolic_path=route == "symbolic").class_form

        assert (got.grid, got.group, got.degree) == (want.grid, want.group, want.degree)
        assert set(got.comps) == set(want.comps)
        for key, arr in want.comps.items():
            assert got.comps[key].tobytes() == arr.tobytes(), (key, workers)
        assert max(slab_sizes) == rows
        assert (threading.get_ident() in threads) == (workers == 1)
        assert len(threads) <= workers
        assert threading.active_count() == before


def test_benchmark_grids_slab_sizes():
    """The 4^6 SU(2) grid and the (8,8,16,16) U(1) scene grid are one slab
    each; the (32,32,4,32,4) U(1) grid streams one row at a time."""
    assert chernweil._slab_rows(Grid(sizes=(4,) * 6, base_axes=(0, 1, 2, 3)), SU2) >= 4
    assert chernweil._slab_rows(Grid(sizes=(8, 8, 16, 16), base_axes=(0, 1)), U1) >= 8
    assert chernweil._slab_rows(Grid(sizes=(32, 32, 4, 32, 4), base_axes=(0, 1, 2)),
                                U1) == 1


def test_streamed_class_memory_is_one_slab(monkeypatch):
    """With one row per slab and one worker, the memory numpy allocates for a
    class stays under half the connection's bytes; whole-grid forms take
    about 3x.  Each further worker adds about one worker's slab (this module
    has imported concurrent.futures already, so that import is not counted)."""
    g = Grid(sizes=(16, 16, 4, 16, 4), base_axes=(0, 1, 2))
    rng = np.random.default_rng(35)
    w = ProductConnection(g, U1, {a: 1j * rng.standard_normal(g.sizes)
                                  for a in range(g.dim)}, twist=1)
    input_bytes = sum(arr.nbytes for arr in w.comps.values())
    monkeypatch.setattr(chernweil, "_SLAB_BYTES", 1)
    peaks = {}
    for workers in _WORKERS:
        monkeypatch.setattr(chernweil, "_usable_cpus", lambda n=workers: n)
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            caloron_class(w, InvariantPolynomial(2), 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks[workers] = peak - base
    assert peaks[1] < 0.5 * input_bytes
    for workers in (2, 4):
        assert peaks[workers] < 1.25 * workers * peaks[1]


@pytest.mark.parametrize("workers", _WORKERS)
def test_slab_exception_propagates_and_threads_end(monkeypatch, workers):
    """An error in one slab's curvature comes out of caloron_class, and no
    worker thread outlives the call."""
    w = _u1_5d()
    monkeypatch.setattr(chernweil, "_SLAB_BYTES", 1)
    monkeypatch.setattr(chernweil, "_usable_cpus", lambda: workers)
    split = chernweil.curvature_split

    def failing_split(w, rows):
        if rows.start == 3:
            raise RuntimeError("slab 3 failed")
        return split(w, rows)

    monkeypatch.setattr(chernweil, "curvature_split", failing_split)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="slab 3 failed"):
        caloron_class(w, InvariantPolynomial(2), 2)
    assert threading.active_count() == before


def test_worker_count_is_capped(monkeypatch):
    """A pool has at most _MAX_WORKERS threads and never more than slabs."""
    assert chernweil._usable_cpus() >= 1
    pools = []

    class PoolSpy(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", PoolSpy)
    monkeypatch.setattr(chernweil, "_SLAB_BYTES", 1)
    w = _u1_5d()  # 8 slabs of one row
    for cpus, want in ((64, 4), (3, 3), (1, None)):
        monkeypatch.setattr(chernweil, "_usable_cpus", lambda n=cpus: n)
        pools.clear()
        caloron_class(w, InvariantPolynomial(2), 2)
        assert pools == ([want] if want else [])


def test_single_slab_class_loads_no_pool():
    """A one-slab class (the 4^6 SU(2) grid) runs inline: concurrent.futures
    is never imported."""
    script = (
        "import sys\n"
        "from caloron.chernweil import InvariantPolynomial, caloron_class\n"
        "from caloron.lattice import SU2, Grid, sample\n"
        "from caloron.transform import ProductConnection\n"
        "g = Grid(sizes=(4,) * 6, base_axes=(0, 1, 2, 3))\n"
        "A = sample('su2_band_limited', g, SU2, {'max_mode': 1}, seed=1)\n"
        "caloron_class(ProductConnection.from_one_form(A), InvariantPolynomial(2), 2)\n"
        "print('concurrent.futures' in sys.modules)\n")
    src = Path(chernweil.__file__).parent.parent
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def _np_trace(X):
    """The trace oracle: numpy's reduction over the strided diagonal."""
    return np.trace(X, axis1=-2, axis2=-1)


# name: (connection, input form, route)
_SU2_TRACE_CASES = {
    "numeric": (_su2_4d, "connection", "numeric"),
    "symbolic": (_su2_4d, "connection", "symbolic"),
    "pair": (_su2_4d, "pair", "numeric"),
    "string": (_su2_circle, "connection", "string"),
    "string-pair": (_su2_circle, "pair", "string"),
}


@pytest.mark.parametrize("case", list(_SU2_TRACE_CASES))
def test_su2_class_forms_match_np_trace_oracle(monkeypatch, case):
    """SU(2) class forms are bit for bit those eval_invariant gives when its
    traces are taken by np.trace of the whole product: lattice's trace of a
    product and trace of one factor are patched, and the patch is reached."""
    make, form, route = _SU2_TRACE_CASES[case]
    w = make()
    data = {"connection": w, "pair": inverse_transform(*forward_transform(w))}[form]
    f = InvariantPolynomial(2)

    def class_form():
        if route == "string":
            return string_class(data, f, 2).class_form
        return caloron_class(data, f, 2, symbolic_path=route == "symbolic").class_form

    got = class_form()
    calls = []

    def oracle(X, Y):  # every entry of the product, then np.trace
        calls.append(1)
        return _np_trace(lat.su2_mul(X, Y))

    monkeypatch.setattr(lat, "su2_trace_mul", oracle)
    monkeypatch.setattr(lat, "trace2", _np_trace)
    want = class_form()
    assert calls
    assert set(got.comps) == set(want.comps)
    for key, arr in want.comps.items():
        assert got.comps[key].tobytes() == arr.tobytes(), key


def test_library_calls_no_np_trace(monkeypatch):
    """No caloron module calls np.trace, and every SU(2) trace site runs with
    numpy.trace made to raise."""
    call = re.compile(r"\b(np|numpy)\.trace\(")
    src = Path(chernweil.__file__).parent
    hits = [f"{path.name}:{n}" for path in sorted(src.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if call.search(line)]
    assert hits == []

    def no_trace(*args, **kwargs):
        raise AssertionError("numpy.trace called")

    monkeypatch.setattr(np, "trace", no_trace)
    g = Grid(sizes=(4, 4, 4, 4))
    rng = np.random.default_rng(36)
    F = FormField(g, SU2, 2, {k: lat.su2_from_coords(rng.standard_normal(g.sizes + (3,)))
                              for k in lat.form_components(4, 2)})
    assert eval_invariant(InvariantPolynomial(2), [F, F]).comps


def test_ordered_splits_are_cached_tuples():
    """The splits of a key are computed once and handed out as one tuple, by
    the one enumerator behind graded_sums, which both wedge and
    eval_invariant sum through."""
    assert "_ordered_splits" not in vars(chernweil)
    splits = lat._ordered_splits((0, 1, 2, 3), (2, 2))
    assert isinstance(splits, tuple)
    assert lat._ordered_splits((0, 1, 2, 3), (2, 2)) is splits
    assert [blocks for blocks, _ in splits] == [
        ((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)),
        ((1, 2), (0, 3)), ((1, 3), (0, 2)), ((2, 3), (0, 1))]
    assert [sign for _, sign in splits] == [1, -1, 1, 1, -1, 1]
