"""Grid calculus tests: derivatives, wedge/bracket, integration, links, gauge."""
import numpy as np
import pytest

from caloron import lattice as lat
from caloron.errors import BranchCutError, ConfigError, DegreeError, ShapeError
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
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            Grid(sizes=(8, 8), lengths=(1.0, bad))


def test_grid_geometry():
    g = Grid(sizes=(8, 16), lengths=(2.0, 4.0), base_axes=(0,))
    assert g.spacings == (0.25, 0.25)
    assert g.volume() == pytest.approx(8.0)
    assert g.fiber_axes == (1,)
    assert g.base_grid().sizes == (8,)
    assert g.refine(2).sizes == (16, 32)


def test_su2_coords_round_trip():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 3))
    X = lat.su2_from_coords(a)
    assert lat.alg_violation(SU2, X) < 1e-14
    assert np.allclose(lat.su2_coords(X), a)


def test_group_exp_log_round_trip():
    rng = np.random.default_rng(1)
    a = 0.8 * rng.standard_normal((50, 3))
    X = lat.su2_from_coords(a)
    U = lat.group_exp(SU2, X)
    assert lat.group_violation(SU2, U) < 1e-13
    assert np.max(np.abs(lat.group_log(SU2, U) - X)) < 1e-12
    # abelian
    z = 1j * rng.uniform(-3.0, 3.0, size=20)
    assert np.max(np.abs(lat.group_log(U1, lat.group_exp(U1, z)) - z)) < 1e-14


def test_group_exp_matches_scipy_style_series():
    # oracle: dense matrix exponential by scaling and squaring via numpy eig
    rng = np.random.default_rng(2)
    X = lat.su2_from_coords(rng.standard_normal(3))
    w, V = np.linalg.eig(X)
    dense = V @ np.diag(np.exp(w)) @ np.linalg.inv(V)
    assert np.max(np.abs(lat.group_exp(SU2, X) - dense)) < 1e-12


def test_group_log_guard_band():
    U = np.array(np.exp(1j * (np.pi - 1e-9)))
    with pytest.raises(BranchCutError):
        lat.group_log(U1, U)


def test_central_difference_harmonic():
    # [DERIVED] analytic oracle with O(h^2) error decay
    errs = []
    for n in (32, 64):
        g = Grid(sizes=(n,))
        x = g.coordinate(0)
        d = lat.central_difference(np.sin(x), 0, g.spacings[0])
        errs.append(np.max(np.abs(d - np.cos(x))))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)


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
    with pytest.raises(DegreeError):
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
    # compare against a hand-evaluated commutator at one site
    g = _grid2(4)
    rng = np.random.default_rng(6)
    X = lat.su2_from_coords(rng.standard_normal(g.sizes + (3,)))
    Y = lat.su2_from_coords(rng.standard_normal(g.sizes + (3,)))
    a = FormField(g, SU2, 1, {(0,): X})
    b = FormField(g, SU2, 1, {(1,): Y})
    br = lat.bracket(a, b)
    site = (2, 3)
    expect = X[site] @ Y[site] - Y[site] @ X[site]
    assert np.array_equal(br.comps[(0, 1)][site], expect)


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


def test_integrate_harmonic_exact():
    # trapezoid = mean * volume is exact on resolved harmonics
    g = _grid2(16)
    x, y = g.coordinate(0), g.coordinate(1)
    f = FormField(g, lat.SCALAR, 2, {(0, 1): 1.5 + np.cos(3 * x) * np.sin(y)})
    assert lat.integrate(f) == pytest.approx(1.5 * TWO_PI ** 2, abs=1e-12)


def test_integrate_partial_axes():
    g = Grid(sizes=(8, 16), base_axes=(0,))
    x = g.coordinate(0)
    f = FormField(g, lat.SCALAR, 1, {(1,): np.broadcast_to(np.sin(x), g.sizes)})
    out = lat.integrate(f, axes=(1,))
    assert out.shape == (8,)
    assert np.allclose(out, TWO_PI * np.sin(x[:, 0]))


def test_stokes_total_integral_vanishes():
    # integral of an exact top form over the closed grid is zero to rounding
    g = Grid(sizes=(12, 12))
    rng = np.random.default_rng(8)
    a = FormField(g, U1, 1, {(0,): 1j * rng.standard_normal(g.sizes),
                             (1,): 1j * rng.standard_normal(g.sizes)})
    assert abs(lat.integrate(lat.ext_deriv(a))) < 1e-12


def test_plaquette_identity_links():
    g = _grid2(8)
    u = LinkField.identity(g, U1)
    assert lat.plaquette_curvature(u).max_norm() == 0.0


def test_plaquette_constant_curvature_oracle():
    # [DERIVED] twist-c configuration has exactly constant curvature
    g = Grid(sizes=(16, 16))
    c = 2
    u = lat.constant_curvature_torus(g, c)
    F = lat.plaquette_curvature(u)
    expect = -1j * TWO_PI * c / (TWO_PI * TWO_PI)
    assert np.max(np.abs(F.comps[(0, 1)] - expect)) < 1e-13


def test_total_flux_quantized():
    g = Grid(sizes=(16, 16))
    for c in (-2, -1, 0, 1, 2):
        flux = lat.total_flux(lat.constant_curvature_torus(g, c))
        assert abs(flux - (-1j * TWO_PI * c)) < 1e-12
        pairing = (1j / TWO_PI) * flux
        assert pairing.real == pytest.approx(c, abs=1e-12)


def test_flux_gauge_invariant():
    g = Grid(sizes=(16, 16))
    rng = np.random.default_rng(9)
    u = lat.constant_curvature_torus(g, 1)
    psi = np.exp(1j * rng.uniform(-3, 3, size=g.sizes))
    v = lat.gauge_transform_links(u, psi)
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
    Q = lat.plaquette_holonomy(lat.gauge_transform_links(u, psi), 0, 1)
    conj = psi @ P @ lat.group_inverse(SU2, psi)
    assert np.max(np.abs(Q - conj)) < 1e-12


def test_gauge_transform_connection_curvature_covariant():
    # dA' + A'^A' conjugates under a constant gauge change, exactly
    g = _grid2(8)
    rng = np.random.default_rng(11)
    A = lat.sample("su2_band_limited", g, SU2, {"max_mode": 1}, seed=12)
    psi0 = lat.group_exp(SU2, lat.su2_from_coords(rng.standard_normal(3)))
    psi = np.broadcast_to(psi0, g.sizes + (2, 2)).copy()
    curv = lambda B: lat.ext_deriv(B) + 0.5 * lat.bracket(B, B)  # noqa: E731
    F = curv(A)
    Fp = curv(lat.gauge_transform_connection(A, psi))
    diff = Fp - lat.gauge_transform_form(F, psi)
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


def test_form_shape_validation():
    g = _grid2(8)
    with pytest.raises(ShapeError):
        FormField(g, U1, 1, {(0,): np.zeros((4, 4))})
    with pytest.raises(ShapeError):
        FormField(g, U1, 1) + FormField(_grid2(16), U1, 1)


def test_form_rejects_invalid_component_keys():
    g = _grid2(8)
    ones = np.ones(g.sizes, dtype=complex)
    for key in [(1, 0), (0, 0), (0, 2), (-1, 1), (0,), (0, 1, 1)]:
        with pytest.raises(ShapeError):
            FormField(g, U1, 2, {key: ones})
    assert FormField(g, U1, 2, {(0, 1): ones}).max_norm() == 1.0


def test_form_missing_component_reads_as_zero():
    g = _grid2(8)
    f = FormField(g, U1, 1, {(1,): np.ones(g.sizes)})
    assert set(f.comps) == {(1,)}
    zero = f.component((0,))
    assert zero.shape == g.sizes and not zero.any() and not zero.flags.writeable
    assert f.component((1,)) is f.comps[(1,)]
    assert lat.integrate(f, (0,)).shape == (8,) and not lat.integrate(f, (0,)).any()


def test_sample_max_mode_bound():
    g = Grid(sizes=(8, 12))
    for fam, group in (("u1_harmonic", U1), ("su2_band_limited", SU2)):
        assert lat.sample(fam, g, group, {"max_mode": 4}, seed=1).max_norm() > 0.0
        assert lat.sample(fam, g, group, {"max_mode": 0}, seed=1).max_norm() == 0.0
        for bad in (5, -1):
            with pytest.raises(ConfigError):
                lat.sample(fam, g, group, {"max_mode": bad}, seed=1)


def _band_limited_scalar_oracle(grid, max_mode, rng, amplitude=1.0):
    """The full-grid sum that band_limited_scalar must reproduce bit for bit:
    one cosine over the whole grid for every mode combination."""
    modes = range(-max_mode, max_mode + 1)
    combos = [()]
    for _ in range(grid.dim):
        combos = [c + (m,) for c in combos for m in modes]
    out = np.zeros(grid.sizes)
    for combo in combos:
        if all(m == 0 for m in combo):
            continue
        amp = amplitude * rng.standard_normal() / (1 + sum(m * m for m in combo))
        phase = rng.uniform(0.0, TWO_PI)
        arg = np.zeros(grid.sizes)
        for axis, m in enumerate(combo):
            if m:
                arg = arg + m * (TWO_PI / grid.lengths[axis]) * grid.coordinate(axis)
        out = out + amp * np.cos(arg + phase)
    return out


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
            amplitude = 0.5 + seed
            got = lat.band_limited_scalar(grid, max_mode, rng, amplitude)
            want = _band_limited_scalar_oracle(grid, max_mode, rng_oracle, amplitude)
            assert got.tobytes() == want.tobytes(), (max_mode, seed)
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
                assert got.comps[key].tobytes() == arr.tobytes(), (max_mode, seed, key)
