"""Correspondence tests: lossless round trips and the curvature decomposition."""
import numpy as np
import pytest

from caloron import lattice as lat, transform as tr
from caloron.errors import ConfigError, ShapeError
from caloron.lattice import SU2, U1, FormField, Grid, LinkField
from caloron.transform import (
    HiggsFieldMap,
    ProductConnection,
    background_curvature,
    curvature_split,
    forward_transform,
    higgs_gauge_action,
    inverse_transform,
    link_forward,
    link_inverse,
    nabla_phi,
)


def _product_grid(n=8, base=1, dim=2):
    return Grid(sizes=(n,) * dim, base_axes=tuple(range(base)))


def _random_connection(grid, group, seed, twist=0):
    fam = "u1_harmonic" if group == U1 else "su2_band_limited"
    A = lat.sample(fam, grid, group, {"max_mode": 2}, seed=seed)
    return ProductConnection.from_one_form(A, twist=twist if group == U1 else 0)


@pytest.mark.parametrize("group", [U1, SU2])
@pytest.mark.parametrize("seed", range(10))
def test_round_trip_bit_exact(group, seed):
    grid = _product_grid(8)
    w = _random_connection(grid, group, seed, twist=seed % 3 - 1)
    back = inverse_transform(*forward_transform(w))
    assert back.twist == w.twist
    for a in range(grid.dim):
        assert np.array_equal(back.comps[a], w.comps[a])


@pytest.mark.parametrize("group", [U1, SU2])
@pytest.mark.parametrize("seed", range(10))
def test_link_round_trip_bit_exact(group, seed):
    grid = _product_grid(6)
    rng = np.random.default_rng(seed)
    if group == U1:
        links = {a: np.exp(1j * rng.uniform(-2, 2, grid.sizes)) for a in range(2)}
    else:
        links = {a: lat.group_exp(SU2, lat.su2_from_coords(
            rng.standard_normal(grid.sizes + (3,)))) for a in range(2)}
    u = LinkField(grid, group, links)
    base, fiber = link_forward(u)
    back = link_inverse(base, fiber, grid, group)
    for a in range(grid.dim):
        assert np.array_equal(back.links[a], u.links[a])


def test_forward_blocks_are_views_of_the_right_axes():
    grid = Grid(sizes=(8, 6, 6), base_axes=(0,))
    w = _random_connection(grid, U1, 0)
    a, phi = forward_transform(w)
    assert set(a.comps) == {0}
    assert set(phi.comps) == {1, 2}
    assert np.array_equal(a.comps[0], w.comps[0])
    assert np.array_equal(phi.comps[2], w.comps[2])


def test_blocks_reject_keys_outside_their_axes():
    grid = Grid(sizes=(4, 6, 6), base_axes=(0,))
    ones = np.ones(grid.sizes, dtype=complex)
    for key in (3, 7, -1):
        with pytest.raises(ShapeError):
            ProductConnection(grid, U1, {0: ones, key: ones})
    for key in (1, 2, 3):
        with pytest.raises(ShapeError):
            tr.GaugeGroupConnection(grid, U1, {key: ones})
    for key in (0, 3):
        with pytest.raises(ShapeError):
            HiggsFieldMap(grid, U1, {1: ones, key: ones})
    # every key naming an axis of its block is kept, a missing axis reads as zero
    phi = HiggsFieldMap(grid, U1, {2: ones})
    assert set(phi.comps) == {1, 2} and not phi.comps[1].any()


def test_twist_requires_abelian():
    grid = _product_grid(6)
    with pytest.raises(ConfigError):
        ProductConnection.zero(grid, SU2, twist=1)


def test_pair_mismatch_rejected():
    g1, g2 = _product_grid(6), _product_grid(8)
    a, _ = forward_transform(_random_connection(g1, U1, 0))
    _, phi = forward_transform(_random_connection(g2, U1, 0))
    with pytest.raises(ShapeError):
        inverse_transform(a, phi)


def test_background_curvature_pairing_sign():
    # the twist block integrates to -2*pi*i*c, so (i/2pi) * integral = +c
    grid = Grid(sizes=(4, 12, 12), base_axes=(0,))
    for c in (-2, 1, 3):
        bg = background_curvature(grid, U1, c)
        per_base = lat.integrate(bg, axes=(1, 2))
        val = (1j / (2 * np.pi)) * per_base[0]
        assert val.real == pytest.approx(c, abs=1e-12)
    assert background_curvature(grid, U1, 0).max_norm() == 0.0


@pytest.mark.parametrize("group", [U1, SU2])
def test_partition_identity_exact(group):
    # the three blocks reassemble the total curvature with no leftover
    grid = Grid(sizes=(8, 8, 8), base_axes=(0, 1))
    w = _random_connection(grid, group, 3, twist=1)
    triple = curvature_split(w)
    A = w.one_form()
    F = lat.ext_deriv(A)
    if group != U1:
        F = F + 0.5 * lat.bracket(A, A)
    F = F + background_curvature(grid, group, w.twist)
    assert (triple.total() - F).max_norm() == 0.0
    # blocks carry the claimed axis types only
    assert all(triple.F_A.fiber_count(k) == 0 or
               np.all(triple.F_A.comps[k] == 0) for k in triple.F_A.comps)
    assert all(triple.NablaPhi.fiber_count(k) == 1 or
               np.all(triple.NablaPhi.comps[k] == 0) for k in triple.NablaPhi.comps)


@pytest.mark.parametrize("group", [U1, SU2])
def test_nabla_phi_paths_agree(group):
    # definition sum vs bidegree slice of the assembled curvature
    grid = Grid(sizes=(8, 8, 8), base_axes=(0,))
    w = _random_connection(grid, group, 4, twist=-2)
    a, phi = forward_transform(w)
    direct = nabla_phi(a, phi)
    sliced = curvature_split(w).NablaPhi
    assert (direct - sliced).max_norm() < 1e-12


def test_nabla_phi_analytic_convergence():
    # [DERIVED] A = 0, Phi_x = i sin(m) cos(x): mixed curvature is
    # i cos(m) cos(x) with O(h^2) error
    errs = []
    for n in (32, 64):
        grid = Grid(sizes=(n, n), base_axes=(0,))
        m, x = grid.coordinate(0), grid.coordinate(1)
        phi = HiggsFieldMap(grid, U1, {1: 1j * np.sin(m) * np.cos(x)})
        a = tr.GaugeGroupConnection(grid, U1)
        np_field = nabla_phi(a, phi)
        exact = 1j * np.cos(m) * np.cos(x)
        errs.append(np.max(np.abs(np_field.comps[(0, 1)] - exact)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)


def test_higgs_gauge_action_abelian_shifts_by_exact_form():
    # psi = e^{i sin x} shifts Phi by i cos(x) dx up to O(h^2)
    errs = []
    for n in (32, 64):
        grid = Grid(sizes=(6, n), base_axes=(0,))
        w = _random_connection(grid, U1, 5)
        _, phi = forward_transform(w)
        x = np.arange(n) * 2 * np.pi / n
        psi = np.exp(1j * np.sin(x))
        out = higgs_gauge_action(phi, psi)
        shift = (1j * np.cos(x)).reshape(1, n)
        errs.append(np.max(np.abs(out.comps[1] - (phi.comps[1] + shift))))
        assert out.twist == phi.twist
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)


def test_higgs_gauge_action_su2_constant_conjugates():
    grid = Grid(sizes=(6, 8), base_axes=(0,))
    w = _random_connection(grid, SU2, 6)
    _, phi = forward_transform(w)
    rng = np.random.default_rng(7)
    psi0 = lat.group_exp(SU2, lat.su2_from_coords(rng.standard_normal(3)))
    psi = np.broadcast_to(psi0, (8, 2, 2)).copy()
    out = higgs_gauge_action(phi, psi)
    inv = lat.group_inverse(SU2, psi0)
    expect = inv @ phi.comps[1] @ psi0
    assert np.max(np.abs(out.comps[1] - expect)) < 1e-13


def test_higgs_gauge_action_shape_guard():
    grid = Grid(sizes=(6, 8), base_axes=(0,))
    _, phi = forward_transform(_random_connection(grid, U1, 8))
    with pytest.raises(ShapeError):
        higgs_gauge_action(phi, np.ones(5, dtype=complex))


def test_link_inverse_coverage_guard():
    grid = _product_grid(6)
    u = LinkField.identity(grid, U1)
    base, fiber = link_forward(u)
    with pytest.raises(ShapeError):
        link_inverse(base, {}, grid, U1)
