"""Sparse form storage: a missing component is zero, and every operator on
sparse forms agrees with the same operator on the zero-filled forms."""
import numpy as np
import pytest

from caloron import lattice as lat
from caloron.chernweil import InvariantPolynomial, eval_invariant
from caloron.lattice import SU2, U1, FormField, Grid
from caloron.transform import ProductConnection, curvature_split


def densify(f: FormField) -> FormField:
    """The same form with every missing component filled with zeros."""
    shape = f.grid.sizes + lat.value_shape(f.group)
    return FormField(f.grid, f.group, f.degree, {
        key: f.comps.get(key, np.zeros(shape, dtype=complex))
        for key in lat.form_components(f.grid.dim, f.degree)})


def assert_same_form(sparse: FormField, dense: FormField) -> None:
    a, b = densify(sparse), densify(dense)
    assert (a.grid, a.group, a.degree) == (b.grid, b.group, b.degree)
    assert set(a.comps) == set(b.comps)
    for key in a.comps:
        assert np.array_equal(a.comps[key], b.comps[key]), key


def _random_form(grid, group, degree, rng, keep=0.5) -> FormField:
    """Random algebra-valued form with about `keep` of its components present."""
    comps = {}
    for key in lat.form_components(grid.dim, degree):
        if rng.random() >= keep:
            continue
        if group == U1:
            comps[key] = 1j * rng.standard_normal(grid.sizes)
        else:
            comps[key] = lat.su2_from_coords(rng.standard_normal(grid.sizes + (3,)))
    return FormField(grid, group, degree, comps)


GRID = Grid(sizes=(4, 5, 4, 6), base_axes=(0, 1))


@pytest.mark.parametrize("group", [U1, SU2])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ext_deriv_wedge_bracket_match_dense(group, seed):
    rng = np.random.default_rng([seed, 40])
    a = _random_form(GRID, group, 1, rng)
    b = _random_form(GRID, group, 2, rng)
    c = _random_form(GRID, group, 1, rng)
    assert_same_form(a + c, densify(a) + densify(c))
    assert_same_form(a - c, densify(a) - densify(c))
    for f in (a, b):
        assert_same_form(lat.ext_deriv(f), lat.ext_deriv(densify(f)))
    assert_same_form(lat.wedge(a, b), lat.wedge(densify(a), densify(b)))
    assert_same_form(lat.wedge(b, a), lat.wedge(densify(b), densify(a)))
    assert_same_form(lat.bracket(a, a), lat.bracket(densify(a), densify(a)))
    assert_same_form(lat.bracket(a, b), lat.bracket(densify(a), densify(b)))


def test_sparse_outputs_hold_only_reached_components():
    f = FormField(GRID, U1, 1, {(0,): 1j * np.ones(GRID.sizes)})
    # d of a 1-form along axis 0 reaches only the planes (0, b)
    assert set(lat.ext_deriv(f).comps) <= {(0, 1), (0, 2), (0, 3)}
    assert lat.wedge(f, f).comps == {}
    assert lat.bracket(f, f).comps == {}


@pytest.mark.parametrize("group", [U1, SU2])
@pytest.mark.parametrize("seed", [3, 4])
def test_eval_invariant_fiber_matches_dense_bidegree_part(group, seed):
    rng = np.random.default_rng([seed, 41])
    f = InvariantPolynomial(2)
    x = _random_form(GRID, group, 2, rng, keep=0.6)
    y = _random_form(GRID, group, 2, rng, keep=0.6)
    for args in ([x, x], [x, y]):
        dense_args = [densify(a) for a in args]
        if args[0] is args[1]:
            dense_args[1] = dense_args[0]
        full = eval_invariant(f, dense_args)
        for d in range(3):
            assert_same_form(eval_invariant(f, args, fiber=d),
                             full.bidegree_part(4 - d, d))


@pytest.mark.parametrize("group,twist", [(U1, 1), (SU2, 0)])
def test_curvature_split_blocks_share_arrays(group, twist):
    grid = Grid(sizes=(6, 6, 6), base_axes=(0,))
    fam = "u1_harmonic" if group == U1 else "su2_band_limited"
    A = lat.sample(fam, grid, group, {"max_mode": 1}, seed=7)
    triple = curvature_split(ProductConnection.from_one_form(A, twist=twist))
    blocks = (triple.F_A, triple.F_Phi, triple.NablaPhi)
    keys = [set(b.comps) for b in blocks]
    assert not (keys[0] & keys[1] or keys[0] & keys[2] or keys[1] & keys[2])
    total = triple.total()
    assert set(total.comps) == keys[0] | keys[1] | keys[2]
    for block in blocks:
        for key, arr in block.comps.items():
            assert np.shares_memory(arr, total.comps[key])
