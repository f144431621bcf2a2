"""Grid calculus tests: derivatives, wedge/bracket, integration, links, gauge."""
import re

import numpy as np
import pytest

from caloron import lattice as lat
from caloron.errors import ConfigError
from caloron.lattice import SU2, U1, FormField, Grid, LinkField

TWO_PI = 2.0 * np.pi


def _grid2(n=32, base=1):
    return Grid(sizes=(n, n), base_axes=tuple(range(base)))


def test_grid_validation():
    with pytest.raises(ConfigError):
        Grid(sizes=(3, 8))
    with pytest.raises(ConfigError):
        Grid(sizes=(8, 8), base_axes=(1,))
    with pytest.raises(ConfigError):
        Grid(sizes=(8,), lengths=(1.0, 2.0))
    # 5e-324 / 8 underflows to a zero spacing; 2*pi / 1e-308 overflows
    for bad in (0.0, -1.0, float("nan"), float("inf"), 5e-324, 1e-308):
        with pytest.raises(ConfigError, match="lengths"):
            Grid(sizes=(8, 8), lengths=(1.0, bad))
    assert Grid(sizes=(8, 8), lengths=(1e-300, 1e300)).spacings == (1.25e-301, 1.25e299)


def test_grid_geometry():
    g = Grid(sizes=(8, 16), lengths=(2.0, 4.0), base_axes=(0,))
    assert g.spacings == (0.25, 0.25)
    assert g.volume() == pytest.approx(8.0)
    assert g.fiber_axes == (1,)
    assert g.base_grid().sizes == (8,)
    assert g.refine().sizes == (16, 32)


def test_su2_coords_round_trip():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 3))
    X = lat.su2_from_coords(a)
    assert np.max(np.abs(X + np.conj(np.swapaxes(X, -1, -2)))) < 1e-14  # anti-Hermitian
    assert np.max(np.abs(np.trace(X, axis1=-2, axis2=-1))) < 1e-14  # traceless
    assert np.allclose(lat.su2_coords(X), a)


def test_group_exp_log_round_trip():
    rng = np.random.default_rng(1)
    a = 0.8 * rng.standard_normal((50, 3))
    X = lat.su2_from_coords(a)
    U = lat.group_exp(SU2, X)
    assert np.max(np.abs(lat.group_inverse(SU2, U) @ U - np.eye(2))) < 1e-13  # unitary
    assert np.max(np.abs(np.linalg.det(U) - 1.0)) < 1e-13
    # abelian
    z = 1j * rng.uniform(-3.0, 3.0, size=20)
    assert np.max(np.abs(lat.group_log(lat.group_exp(U1, z)) - z)) < 1e-14


def test_group_exp_matches_scipy_style_series():
    # oracle: dense matrix exponential by scaling and squaring via numpy eig
    rng = np.random.default_rng(2)
    X = lat.su2_from_coords(rng.standard_normal(3))
    w, V = np.linalg.eig(X)
    dense = V @ np.diag(np.exp(w)) @ np.linalg.inv(V)
    assert np.max(np.abs(lat.group_exp(SU2, X) - dense)) < 1e-12


def test_group_log_guard_band():
    U = np.array(np.exp(1j * (np.pi - 1e-9)))
    with pytest.raises(ConfigError, match=r"U\(1\) holonomy angle within guard band of pi"):
        lat.group_log(U)


_TRACE_ENTRIES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e308, 1.0, -1.0])


@pytest.mark.parametrize("dtype", [np.float64, np.complex128, np.float32, np.complex64])
@pytest.mark.parametrize("shape", [(2, 2), (729, 2, 2), (2, 3, 1, 3, 2, 3, 2, 2)])
def test_trace2_matches_np_trace_bit_for_bit(dtype, shape):
    """Signed zeros, infinities, nan, the smallest subnormal and near-overflow
    entries: trace2 gives np.trace's bytes, dtype and shape.  X00 + X11 alone
    fails every case: the first matrix is all -0.0, and -0.0 + -0.0 keeps the
    sign that np.trace's zero start drops."""
    rng = np.random.default_rng(12)
    X = np.empty(shape, dtype=dtype)
    with np.errstate(all="ignore"):  # 1e308 overflows single precision
        X.real = rng.choice(_TRACE_ENTRIES, size=shape)
        if X.dtype.kind == "c":
            X.imag = rng.choice(_TRACE_ENTRIES, size=shape)
        X.reshape(-1, 2, 2)[0] = -0.0
        want = np.trace(X, axis1=-2, axis2=-1)
        got = lat.trace2(X)
    assert (got.dtype, np.shape(got)) == (want.dtype, np.shape(want))
    assert got.tobytes() == want.tobytes()


_PRODUCT_ENTRIES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e308, 1.5, -0.75])


def _su2_mul_oracle(X, Y):
    """Per point and entry, x[i,0]*y[0,j] + x[i,1]*y[1,j] on Python complex scalars."""
    X, Y = np.broadcast_arrays(X, Y)
    out = np.empty(X.shape, complex)
    for p in np.ndindex(X.shape[:-2]):
        x = [[complex(v) for v in row] for row in X[p]]
        y = [[complex(v) for v in row] for row in Y[p]]
        for i in (0, 1):
            for j in (0, 1):
                out[p + (i, j)] = x[i][0] * y[0][j] + x[i][1] * y[1][j]
    return out


def _nan_canonical_bytes(z):
    """The bytes of `z` with every nan made the one quiet nan.  IEEE 754 does
    not fix the sign or payload of a nan result: x86 passes on one operand's,
    and which one depends on the order a compiler put the operands in."""
    v = np.array(z).view(float)
    v[np.isnan(v)] = np.nan
    return v.tobytes()


def _su2_mul_inputs(rng):
    """(X, Y) pairs of (7, 5) stacks of 2x2 matrices with entries from
    _PRODUCT_ENTRIES: contiguous, transposed, strided, broadcast against a
    single matrix and against each other, and rows A[rows] of a taller stack."""
    def draw(shape):
        out = np.empty(shape, complex)
        out.real = rng.choice(_PRODUCT_ENTRIES, size=shape)
        out.imag = rng.choice(_PRODUCT_ENTRIES, size=shape)
        return out

    shape = (7, 5, 2, 2)
    yield draw(shape), draw(shape)
    yield np.swapaxes(draw(shape), -1, -2), np.transpose(draw((5, 7, 2, 2)), (1, 0, 2, 3))
    yield draw((7, 10, 2, 2))[:, ::2], draw((7, 5, 4, 4))[..., 1::2, ::2]
    yield np.broadcast_to(draw((2, 2)), shape), draw(shape)
    yield draw((7, 1, 2, 2)), draw((1, 5, 2, 2))
    yield draw((12,) + shape[1:])[3:10], draw((9,) + shape[1:])[1:8]


@pytest.mark.parametrize("seed", range(4))
def test_su2_mul_matches_python_complex_oracle(seed):
    """Bit for bit CPython's complex product and sum at every point and entry,
    both ways round, for signed zeros, infinities, nan, the smallest subnormal
    and near-overflow entries, on every input layout; a nan matches a nan."""
    rng = np.random.default_rng(seed)
    checked = 0
    with np.errstate(all="ignore"):
        for X, Y in _su2_mul_inputs(rng):
            for x, y in ((X, Y), (Y, X)):
                want = _su2_mul_oracle(x, y)
                got = lat.su2_mul(x, y)
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert _nan_canonical_bytes(got) == _nan_canonical_bytes(want), \
                    (x.shape, x.strides, y.strides)
                checked += want.size
    assert checked > 1000


def _su2_trace_mul_oracle(X, Y):
    """Per point, (0j + c00) + c11 of the oracle product on Python complex scalars."""
    C = _su2_mul_oracle(X, Y)
    out = np.empty(C.shape[:-2], complex)
    for p in np.ndindex(out.shape):
        c = C[p].tolist()
        out[p] = (0j + c[0][0]) + c[1][1]
    return out


def _su2_commutator_oracle(X, Y):
    """Per point and entry, (x y)_ij - (y x)_ij on Python complex scalars."""
    XY, YX = _su2_mul_oracle(X, Y), _su2_mul_oracle(Y, X)
    out = np.empty(XY.shape, complex)
    for p in np.ndindex(out.shape):
        out[p] = complex(XY[p]) - complex(YX[p])
    return out


def _su2_commutator_into_out(X, Y):
    """su2_commutator written through out= into a nan-filled row of a block."""
    shape = np.broadcast_shapes(X.shape, Y.shape)
    out = np.full((2,) + shape, np.nan, complex)[1]
    with pytest.raises(ValueError, match="out has shape"):
        lat.su2_commutator(X, Y, out=out[..., :1])
    assert lat.su2_commutator(X, Y, out=out) is out
    return out


@pytest.mark.parametrize("kernel, oracle", [
    (lat.su2_commutator, _su2_commutator_oracle),
    (lat.su2_trace_mul, _su2_trace_mul_oracle),
    (_su2_commutator_into_out, _su2_commutator_oracle),
], ids=["commutator", "trace_mul", "commutator-out"])
@pytest.mark.parametrize("seed", range(4))
def test_su2_kernels_match_python_complex_oracle(seed, kernel, oracle):
    """The commutator, also written through out=, and the trace of a product
    give CPython's complex arithmetic on every entry su2_mul gives it on:
    the same special values and input layouts, both ways round, normal
    draws, whose sums round, and a read-only broadcast zero against them; a
    nan matches a nan."""
    rng = np.random.default_rng(seed)

    def normal():
        z = rng.standard_normal((2, 7, 5, 2, 2))
        return z[0] + 1j * z[1]

    zero = np.broadcast_to(np.zeros((), complex), (7, 5, 2, 2))
    checked = 0
    with np.errstate(all="ignore"):
        for X, Y in [*_su2_mul_inputs(rng), (normal(), normal()), (zero, normal())]:
            for x, y in ((X, Y), (Y, X)):
                want = oracle(x, y)
                got = kernel(x, y)
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert _nan_canonical_bytes(got) == _nan_canonical_bytes(want), \
                    (x.shape, x.strides, y.strides)
                checked += want.size
    assert checked > 250


def test_central_difference_harmonic():
    # [DERIVED] analytic oracle with O(h^2) error decay
    errs = []
    for n in (32, 64):
        g = Grid(sizes=(n,))
        x = g.coordinate(0)
        d = lat.central_difference(np.sin(x), 0, g.spacings[0])
        errs.append(np.max(np.abs(d - np.cos(x))))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)


def _roll_difference(arr, axis, spacing):
    """The central-difference oracle: two rolled copies, subtracted and divided."""
    return (np.roll(arr, -1, axis=axis) - np.roll(arr, 1, axis=axis)) / (2.0 * spacing)


_EDGE_VALUES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1.25, -3.5])
_AXIS_LENGTHS = (1, 2, 3, 4, 7)


def _difference_inputs(shape, dtype, rng):
    """Arrays of `shape` with entries from _EDGE_VALUES: contiguous, a
    transposed view, a strided view and a read-only broadcast zero."""
    def draw(shape):
        out = np.empty(shape, dtype)
        out.real = rng.choice(_EDGE_VALUES, size=shape)
        if dtype == complex:
            out.imag = rng.choice(_EDGE_VALUES, size=shape)
        return out

    yield draw(shape)
    yield np.transpose(draw(shape[::-1]))
    yield draw(shape[:-1] + (2 * shape[-1],))[..., ::2]
    yield np.broadcast_to(np.zeros((), dtype), shape)


@pytest.mark.parametrize("dtype, into_out", [(float, False), (complex, False),
                                             (float, True), (complex, True)],
                         ids=["float", "complex", "float-out", "complex-out"])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_central_difference_matches_roll_oracle(dim, dtype, into_out):
    """Bit for bit the np.roll formula on every axis, for axis lengths 1 to 7,
    IEEE edge values, non-contiguous and broadcast inputs, and rows of axis 0
    that wrap at either end or both; with into_out, written through out=
    into a nan-filled row of a block."""
    rng = np.random.default_rng(dim)
    # each axis sees each length once across the shapes
    shapes = [tuple(_AXIS_LENGTHS[(i + j) % 5] for j in range(dim)) for i in range(5)]
    checked = 0
    with np.errstate(invalid="ignore"):
        for shape in shapes:
            n = shape[0]
            row_sets = [slice(None), slice(0, 1), slice(n - 1, n), slice(1, max(n - 1, 1)),
                        slice(0, (n + 1) // 2), slice(n // 2, n)]
            for arr in _difference_inputs(shape, dtype, rng):
                for axis in range(dim):
                    want = _roll_difference(arr, axis, 0.3)
                    for rows in row_sets:
                        if into_out:
                            out = np.full((2,) + want[rows].shape, np.nan, want.dtype)[1]
                            got = lat.central_difference(arr, axis, 0.3, rows, out=out)
                            assert got is out
                        else:
                            got = lat.central_difference(arr, axis, 0.3, rows)
                        assert (got.dtype, got.shape) == (want.dtype, want[rows].shape)
                        assert got.tobytes() == want[rows].tobytes(), (shape, axis, rows)
                        checked += 1
    assert checked > 100


def test_central_difference_rows_need_step_one():
    with pytest.raises(ValueError):
        lat.central_difference(np.zeros((4, 4)), 0, 1.0, slice(0, 4, 2))
    # an out of another shape or dtype is refused, not broadcast or cast into
    for out in (np.empty((4, 3)), np.empty((4, 4), complex)):
        with pytest.raises(ValueError, match="out has shape"):
            lat.central_difference(np.zeros((4, 4)), 1, 1.0, out=out)


def test_ext_deriv_analytic():
    errs = []
    for n in (32, 64):
        g = Grid(sizes=(n, n))
        x, y = g.coordinate(0), g.coordinate(1)
        f = FormField(g, U1, 1, {(0,): 1j * np.sin(y) + 0 * x,
                                 (1,): 1j * np.cos(2 * x) + 0 * y})
        df = lat.ext_deriv(f)
        exact = -2j * np.sin(2 * x) - 1j * np.cos(y) + 0 * (x + y)
        errs.append(np.max(np.abs(df.comps[(0, 1)] - exact)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)


def test_ext_deriv_nilpotent():
    # rolls commute, so d of d cancels to rounding on arbitrary data
    rng = np.random.default_rng(3)
    g = Grid(sizes=(8, 8, 8))
    f = FormField(g, U1, 0, {(): 1j * rng.standard_normal(g.sizes)})
    ddf = lat.ext_deriv(lat.ext_deriv(f))
    assert ddf.max_norm() < 1e-13


def test_ext_deriv_top_degree_guard():
    g = _grid2(8)
    top = FormField.zero(g, U1, 2)
    with pytest.raises(ConfigError, match="cannot differentiate a degree-2 form on a "
                                          "2-dimensional grid"):
        lat.ext_deriv(top)


def test_shuffle_sign():
    assert lat.shuffle_sign((0,), (1,)) == 1
    assert lat.shuffle_sign((1,), (0,)) == -1
    assert lat.shuffle_sign((0, 2), (1, 3)) == -1
    assert lat.shuffle_sign((2, 3), (0, 1)) == 1


def test_wedge_scalar_oracle():
    # [DERIVED] (f dx) ^ (g dy) = f g dx^dy and antisymmetry of the cross term
    g = _grid2(8)
    rng = np.random.default_rng(4)
    F, G = rng.standard_normal(g.sizes), rng.standard_normal(g.sizes)
    a = FormField(g, lat.SCALAR, 1, {(0,): F})
    b = FormField(g, lat.SCALAR, 1, {(1,): G})
    assert np.array_equal(lat.wedge(a, b).comps[(0, 1)], F * G)
    assert np.array_equal(lat.wedge(b, a).comps[(0, 1)], -G * F)


def test_wedge_one_forms_antisymmetric():
    g = _grid2(8)
    rng = np.random.default_rng(5)
    a = FormField(g, lat.SCALAR, 1, {(0,): rng.standard_normal(g.sizes),
                                     (1,): rng.standard_normal(g.sizes)})
    s = lat.wedge(a, a)
    assert s.max_norm() == 0.0


def test_bracket_pointwise_oracle():
    # compare against a commutator in Python complex arithmetic at every site
    g = _grid2(4)
    rng = np.random.default_rng(6)
    X = lat.su2_from_coords(rng.standard_normal(g.sizes + (3,)))
    Y = lat.su2_from_coords(rng.standard_normal(g.sizes + (3,)))
    a = FormField(g, SU2, 1, {(0,): X})
    b = FormField(g, SU2, 1, {(1,): Y})
    br = lat.bracket(a, b)
    expect = _su2_mul_oracle(X, Y) - _su2_mul_oracle(Y, X)
    assert br.comps[(0, 1)].tobytes() == expect.tobytes()


def test_bracket_graded_antisymmetry_degree_one():
    # [a, b] - [b, a] vanishes for two 1-forms (Koszul sign (+1)*(-1)^{1*1})
    g = _grid2(6)
    rng = np.random.default_rng(7)
    mk = lambda seed: FormField(  # noqa: E731
        g, SU2, 1,
        {(a,): lat.su2_from_coords(
            np.random.default_rng(seed + a).standard_normal(g.sizes + (3,)))
         for a in range(2)})
    a, b = mk(10), mk(20)
    diff = lat.bracket(a, b) - lat.bracket(b, a)
    assert diff.max_norm() == 0.0


def test_bracket_abelian_zero():
    g = _grid2(6)
    a = FormField(g, U1, 1, {(0,): 1j * np.ones(g.sizes)})
    assert lat.bracket(a, a).max_norm() == 0.0


def test_stokes_total_integral_vanishes():
    # integral of an exact top form over the closed grid is zero to rounding
    g = Grid(sizes=(12, 12))
    rng = np.random.default_rng(8)
    a = FormField(g, U1, 1, {(0,): 1j * rng.standard_normal(g.sizes),
                             (1,): 1j * rng.standard_normal(g.sizes)})
    assert abs(np.mean(lat.ext_deriv(a).component((0, 1))) * g.volume()) < 1e-12


@pytest.mark.parametrize("axes", [(0, 1, 7), (7,), (0,), ()])
def test_link_field_needs_exactly_the_grid_axes(axes):
    """A stray axis is not dropped and a missing one is not filled in."""
    g = _grid2(4)
    with pytest.raises(ConfigError, match="not the grid's axes"):
        LinkField(g, U1, {a: np.ones(g.sizes, dtype=complex) for a in axes})


def test_plaquette_constant_curvature_oracle():
    # [DERIVED] twist-c configuration has exactly constant curvature
    g = Grid(sizes=(16, 16))
    c = 2
    u = lat.constant_curvature_torus(g, c)
    h0, h1 = g.spacings
    F = lat.group_log(lat.plaquette_holonomy(u, 0, 1)) / (h0 * h1)
    expect = -1j * TWO_PI * c / (TWO_PI * TWO_PI)
    assert np.max(np.abs(F - expect)) < 1e-13


def test_total_flux_quantized():
    g = Grid(sizes=(16, 16))
    for c in (-2, -1, 0, 1, 2):
        flux = lat.total_flux(lat.constant_curvature_torus(g, c))
        assert abs(flux - (-1j * TWO_PI * c)) < 1e-12
        pairing = (1j / TWO_PI) * flux
        assert pairing.real == pytest.approx(c, abs=1e-12)


def test_total_flux_is_u1_only():
    """An su(2) value is traceless, so SU(2) links carry no flux to sum."""
    g = _grid2(4)
    u = LinkField(g, SU2, {a: np.broadcast_to(np.eye(2, dtype=complex), g.sizes + (2, 2))
                           for a in range(2)})
    with pytest.raises(ConfigError, match="total flux needs U\\(1\\) links"):
        lat.total_flux(u)


def test_flux_gauge_invariant():
    g = Grid(sizes=(16, 16))
    rng = np.random.default_rng(9)
    u = lat.constant_curvature_torus(g, 1)
    psi = np.exp(1j * rng.uniform(-3, 3, size=g.sizes))
    # U_a(s) -> psi(s) U_a(s) psi(s + e_a)^{-1}
    v = LinkField(g, U1, {a: psi * U * np.conj(np.roll(psi, -1, axis=a))
                          for a, U in u.links.items()})
    assert abs(lat.total_flux(v) - lat.total_flux(u)) < 1e-12


def test_gauge_transform_links_su2_plaquette_conjugates():
    g = _grid2(6)
    rng = np.random.default_rng(10)
    u = LinkField(g, SU2, {
        a: lat.group_exp(SU2, lat.su2_from_coords(
            0.3 * rng.standard_normal(g.sizes + (3,))))
        for a in range(2)})
    psi = lat.group_exp(SU2, lat.su2_from_coords(rng.standard_normal(g.sizes + (3,))))
    P = lat.plaquette_holonomy(u, 0, 1)
    v = LinkField(g, SU2, {a: psi @ U @ lat.group_inverse(SU2, np.roll(psi, -1, axis=a))
                           for a, U in u.links.items()})
    Q = lat.plaquette_holonomy(v, 0, 1)
    conj = psi @ P @ lat.group_inverse(SU2, psi)
    assert np.max(np.abs(Q - conj)) < 1e-12


def test_gauge_transform_connection_curvature_covariant():
    # dA' + A'^A' conjugates under a constant gauge change, exactly
    g = _grid2(8)
    rng = np.random.default_rng(11)
    A = lat.sample("su2_band_limited", g, SU2, {"max_mode": 1}, seed=12)
    psi0 = lat.group_exp(SU2, lat.su2_from_coords(rng.standard_normal(3)))
    psi0inv = lat.group_inverse(SU2, psi0)
    # a constant g has dg = 0, so A -> g A g^{-1} and F -> g F g^{-1}
    conj = lambda f: FormField(f.grid, f.group, f.degree,  # noqa: E731
                               {k: psi0 @ v @ psi0inv for k, v in f.comps.items()})
    curv = lambda B: lat.ext_deriv(B) + 0.5 * lat.bracket(B, B)  # noqa: E731
    diff = curv(conj(A)) - conj(curv(A))
    assert diff.max_norm() < 1e-12


def test_links_from_connection_twist_flux():
    g = Grid(sizes=(4, 32, 32), base_axes=(0,))
    A = FormField.zero(g, U1, 1)
    u = lat.links_from_connection(A, twist=3)
    flux = lat.total_flux(u, 1, 2)
    # per-site flux summed over the repeated base axis: divide it back out
    assert abs(flux / g.sizes[0] - (-1j * TWO_PI * 3)) < 1e-10


def test_sample_deterministic():
    g = _grid2(8)
    a = lat.sample("u1_harmonic", g, U1, {"max_mode": 2}, seed=5)
    b = lat.sample("u1_harmonic", g, U1, {"max_mode": 2}, seed=5)
    c = lat.sample("u1_harmonic", g, U1, {"max_mode": 2}, seed=6)
    assert all(np.array_equal(a.comps[k], b.comps[k]) for k in a.comps)
    assert any(not np.array_equal(a.comps[k], c.comps[k]) for k in a.comps)


def test_sample_unknown_family():
    with pytest.raises(ConfigError):
        lat.sample("nope", _grid2(8))
    # a family samples only its own group, and links are no sample family
    for fam, group in (("u1_harmonic", SU2), ("su2_band_limited", U1),
                       ("constant_curvature_torus", U1), ("zero", U1)):
        with pytest.raises(ConfigError, match="is not a sample family of group"):
            lat.sample(fam, _grid2(8), group)


def test_form_rejects_unknown_group():
    g = Grid(sizes=(4, 4))
    with pytest.raises(ConfigError, match="known groups: u1, su2, scalar"):
        FormField(g, "x", 1, {(0,): np.zeros((4, 4))})


def test_empty_form_rejects_unknown_group():
    with pytest.raises(ConfigError, match="known groups: u1, su2, scalar"):
        FormField(Grid(sizes=(4, 4)), "x", 1, {})


def test_link_field_rejects_unknown_group():
    """Links take a structure group only: scalar values are forms, so a
    scalar LinkField or the links of a scalar form name the groups too."""
    g = Grid(sizes=(4, 4))
    for group in ("x", lat.SCALAR):
        with pytest.raises(ConfigError, match=f"unknown group '{group}'; known groups: u1, su2$"):
            LinkField(g, group, {a: np.ones(g.sizes, dtype=complex) for a in range(2)})
    A = FormField(g, lat.SCALAR, 1, {(0,): np.ones(g.sizes)})
    with pytest.raises(ConfigError, match="unknown group 'scalar'; known groups: u1, su2$"):
        lat.links_from_connection(A)


def test_form_shape_validation():
    g = _grid2(8)
    with pytest.raises(ConfigError, match=r"has shape \(4, 4\), expected \(8, 8\)"):
        FormField(g, U1, 1, {(0,): np.zeros((4, 4))})
    with pytest.raises(ConfigError, match="grid mismatch"):
        FormField(g, U1, 1) + FormField(_grid2(16), U1, 1)


def test_form_rejects_invalid_component_keys():
    g = _grid2(8)
    ones = np.ones(g.sizes, dtype=complex)
    for key in [(1, 0), (0, 0), (0, 2), (-1, 1), (0,), (0, 1, 1)]:
        with pytest.raises(ConfigError, match=f"component key {re.escape(repr(key))} is not "
                                                 "a strictly increasing tuple of 2 axes"):
            FormField(g, U1, 2, {key: ones})
    assert FormField(g, U1, 2, {(0, 1): ones}).max_norm() == 1.0


def test_form_missing_component_reads_as_zero():
    g = _grid2(8)
    f = FormField(g, U1, 1, {(1,): np.ones(g.sizes)})
    assert set(f.comps) == {(1,)}
    zero = f.component((0,))
    assert zero.shape == g.sizes and not zero.any() and not zero.flags.writeable
    assert f.component((1,)) is f.comps[(1,)]


def test_sample_max_mode_bound():
    g = Grid(sizes=(8, 12))
    for fam, group in (("u1_harmonic", U1), ("su2_band_limited", SU2)):
        assert lat.sample(fam, g, group, {"max_mode": 4}, seed=1).max_norm() > 0.0
        assert lat.sample(fam, g, group, {"max_mode": 0}, seed=1).max_norm() == 0.0
        for bad in (5, -1):
            with pytest.raises(ConfigError):
                lat.sample(fam, g, group, {"max_mode": bad}, seed=1)


@pytest.mark.parametrize("params,match", [
    ({"max_mod": 0}, "unknown sample parameter 'max_mod'; the only one is 'max_mode'"),
    ({"max_mode": 1, "seed": 3}, "unknown sample parameter 'seed'"),
    ({"max_mode": 1.7}, "max_mode must be an integer, got 1.7"),
    ({"max_mode": 2.0}, "max_mode must be an integer, got 2.0"),
    ({"max_mode": "1"}, "max_mode must be an integer, got '1'"),
    ({"max_mode": True}, "max_mode must be an integer, got True"),
], ids=["misspelt", "extra-key", "fraction", "float", "string", "bool"])
def test_sample_rejects_bad_params(params, match):
    """A misspelt or extra parameter, or a max_mode that is not an integer,
    is refused instead of falling back to the default or being truncated."""
    for fam, group in (("u1_harmonic", U1), ("su2_band_limited", SU2)):
        with pytest.raises(ConfigError, match=re.escape(match)):
            lat.sample(fam, Grid(sizes=(8, 12)), group, params, seed=1)
    assert lat.sample("u1_harmonic", Grid(sizes=(8, 12)), U1,
                      {"max_mode": np.int64(1)}, seed=1).max_norm() > 0.0


def _band_limited_scalar_oracle(grid, max_mode, rng):
    """The full-grid sum that band_limited_scalar must reproduce to rounding:
    one cosine over the whole grid for every mode combination, from the same
    draws in the same order."""
    modes = range(-max_mode, max_mode + 1)
    combos = [()]
    for _ in range(grid.dim):
        combos = [c + (m,) for c in combos for m in modes]
    out = np.zeros(grid.sizes)
    for combo in combos:
        if all(m == 0 for m in combo):
            continue
        amp = rng.standard_normal() / (1 + sum(m * m for m in combo))
        phase = rng.uniform(0.0, TWO_PI)
        arg = np.zeros(grid.sizes)
        for axis, m in enumerate(combo):
            if m:
                arg = arg + m * (TWO_PI / grid.lengths[axis]) * grid.coordinate(axis)
        out = out + amp * np.cos(arg + phase)
    return out


def _within_rounding(got, want) -> bool:
    """|got - want| <= 1e-13 max(1, max |want|) at every point: the inverse FFT
    and the cosine sum round differently (3.1e-15 of the largest value at
    worst over these grids)."""
    return bool(np.all(np.abs(got - want) <= 1e-13 * max(1.0, np.max(np.abs(want)))))


# (sizes, lengths, seeds, top max_mode): every dimension 1-6, lengths other
# than 2*pi, max_mode up to the bound min(sizes) // 2; the 6-d grid stops at 1,
# as its bound, 2, costs the oracle 5^6 full-grid cosines (about 3 s)
_SAMPLER_GRIDS = [
    ((8,), None, (0, 1, 2), 4),
    ((5,), (1.5,), (3, 4), 2),
    ((4, 9), (3.0, 0.7), (0, 5, 6), 2),
    ((6, 4, 5), (1.0, 2.5, 7.0), (1, 2, 7), 2),
    ((4, 6, 4, 5), None, (8, 9), 2),
    ((4, 5, 4, 4, 6), (0.5, 1.0, 2.0, 4.0, 8.0), (10,), 2),
    ((4,) * 6, (2.0,) * 6, (11, 12), 1),
]


@pytest.mark.parametrize("sizes,lengths,seeds,top", _SAMPLER_GRIDS)
def test_band_limited_scalar_matches_full_grid_oracle(sizes, lengths, seeds, top):
    grid = Grid(sizes=sizes, lengths=lengths)
    for max_mode in range(top + 1):
        for seed in seeds:
            rng, rng_oracle = np.random.default_rng(seed), np.random.default_rng(seed)
            got = lat.band_limited_scalar(grid, max_mode, rng)
            want = _band_limited_scalar_oracle(grid, max_mode, rng_oracle)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert _within_rounding(got, want), (max_mode, seed)
            # the same draws in the same order: the stream continues identically
            assert rng.random() == rng_oracle.random()


@pytest.mark.parametrize("family,group", [("u1_harmonic", U1), ("su2_band_limited", SU2)])
def test_sample_matches_full_grid_oracle(monkeypatch, family, group):
    grid = Grid(sizes=(4, 6, 5), lengths=(1.0, 3.0, 9.0), base_axes=(0,))
    for max_mode in (0, 1, 2):
        for seed in (3, 11):
            got = lat.sample(family, grid, group, {"max_mode": max_mode}, seed=seed)
            with monkeypatch.context() as patch:
                patch.setattr(lat, "band_limited_scalar", _band_limited_scalar_oracle)
                want = lat.sample(family, grid, group, {"max_mode": max_mode}, seed=seed)
            assert set(got.comps) == set(want.comps) == {(0,), (1,), (2,)}
            for key, arr in want.comps.items():
                assert _within_rounding(got.comps[key], arr), (max_mode, seed, key)
