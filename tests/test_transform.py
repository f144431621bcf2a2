"""Correspondence tests: lossless round trips and the curvature decomposition."""
import json
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from caloron import chernweil, lattice as lat, serialize, transform as tr
from caloron.chernweil import InvariantPolynomial, caloron_class, string_class
from caloron.errors import ConfigError, ShapeError
from caloron.lattice import SU2, U1, FormField, Grid, LinkField
from caloron.transform import (
    HiggsFieldMap,
    ProductConnection,
    background_curvature,
    curvature_split,
    forward_transform,
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
    # a missing axis is absent from comps and reads as a read-only zero, while
    # a written document still lists every axis of the block
    phi = HiggsFieldMap(grid, U1, {2: ones})
    assert set(phi.comps) == {2}
    zero = phi.component(1)
    assert zero.shape == grid.sizes and not zero.any() and not zero.flags.writeable
    assert phi.component(2) is phi.comps[2]
    doc = serialize.pair_to_doc(tr.GaugeGroupConnection(grid, U1), phi)
    assert list(doc["A"]) == ["0"] and list(doc["Phi"]) == ["1", "2"]
    assert ProductConnection.zero(grid, U1).comps == {}


def test_twist_requires_abelian():
    grid = _product_grid(6)
    with pytest.raises(ConfigError):
        ProductConnection.zero(grid, SU2, twist=1)
    with pytest.raises(ConfigError):
        HiggsFieldMap.zero(grid, SU2, twist=1)


@pytest.mark.parametrize("twist, lengths", [
    (10 ** 400, (1.0, 1.0, 1.0)),        # the twist is past float range
    (1, (1.0, 1e-200, 1e-200)),          # the area underflows to zero
    (1, (1.0, 1e-160, 1e-160)),          # the constant overflows
    (1, (1.0, 1e200, 1e200)),            # the area overflows, the constant is zero
], ids=["huge-twist", "area-zero", "constant-inf", "constant-zero"])
def test_twist_background_must_be_finite_and_nonzero(twist, lengths):
    """A connection whose background constant -2*pi*i*twist/area is not
    finite and nonzero is refused when it is made, naming the lengths."""
    grid = Grid(sizes=(4, 4, 4), lengths=lengths, base_axes=(0,))
    with pytest.raises(ConfigError, match=r"lengths \(1\.0, "):
        ProductConnection.zero(grid, U1, twist=twist)


def test_twist_rides_on_the_higgs_field():
    grid = _product_grid(6)
    with pytest.raises(ConfigError):
        tr.GaugeGroupConnection.zero(grid, U1, twist=1)
    a, phi = forward_transform(ProductConnection.zero(grid, U1, twist=-1))
    assert (a.twist, phi.twist) == (0, -1)


def test_pair_mismatch_rejected():
    g1, g2 = _product_grid(6), _product_grid(8)
    a, _ = forward_transform(_random_connection(g1, U1, 0))
    _, phi = forward_transform(_random_connection(g2, U1, 0))
    with pytest.raises(ShapeError):
        inverse_transform(a, phi)


_TWIST_CALLERS = {
    "ProductConnection": lambda grid, group, twist: ProductConnection.zero(grid, group, twist),
    "background_curvature": background_curvature,
    "links_from_connection": lambda grid, group, twist: lat.links_from_connection(
        FormField.zero(grid, group, 1), twist),
}


@pytest.mark.parametrize("caller", list(_TWIST_CALLERS))
def test_twist_rule_is_twist_plane_in_every_caller(caller):
    """Each caller takes its twist rule from lattice.twist_plane: U(1) only,
    on the plane of the last two axes."""
    make = _TWIST_CALLERS[caller]
    grid = Grid(sizes=(4, 6, 8), base_axes=(0,))
    with pytest.raises(ConfigError, match=r"twists are supported for U\(1\) only"):
        make(grid, SU2, 1)
    ax, ay = lat.twist_plane(grid, U1)
    assert (ax, ay) == (1, 2)
    out = make(grid, U1, 3)
    if caller == "background_curvature":
        assert set(out.comps) == {(ax, ay)}
    elif caller == "links_from_connection":
        assert lat.total_flux(out, ax, ay) == pytest.approx(-2j * np.pi * 3 * 4, abs=1e-9)
        assert abs(lat.total_flux(out, 0, ax)) < 1e-12
    else:
        assert out.twist == 3
    if caller != "ProductConnection":  # a product grid has two axes or more
        with pytest.raises(ConfigError, match="at least two axes"):
            make(Grid(sizes=(4,)), U1, 1)


def test_background_curvature_is_one_read_only_constant():
    grid = Grid(sizes=(4, 6, 8), base_axes=(0,))
    arr = background_curvature(grid, U1, 2).comps[(1, 2)]
    assert arr.shape == grid.sizes and not arr.flags.writeable
    assert arr.strides == (0, 0, 0)
    assert arr[0, 0, 0] == -1j * lat.TWO_PI * 2 / (lat.TWO_PI * lat.TWO_PI)


def test_background_curvature_pairing_sign():
    # the twist block integrates to -2*pi*i*c, so (i/2pi) * integral = +c
    grid = Grid(sizes=(4, 12, 12), base_axes=(0,))
    for c in (-2, 1, 3):
        bg = background_curvature(grid, U1, c)
        per_base = np.mean(bg.component((1, 2)), axis=(1, 2)) * grid.volume((1, 2))
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


def _su2_6d_connection():
    """A seeded SU(2) connection on the 4^6 grid of the class benchmark's
    shape, turned by a constant gauge rotation g A g^-1.

    A sampled value i a.sigma has entries i a3, a2 + i a1, -a2 + i a1 and
    -i a3 exactly, and then the two sums of each commutator entry are
    negatives of each other, so every grouping of them gives the same bits.
    The rotation's rounding breaks that, as the rounding of any computed
    connection does."""
    grid = Grid(sizes=(4,) * 6, base_axes=(0, 1, 2, 3))
    A = lat.sample("su2_band_limited", grid, SU2, {"max_mode": 1}, seed=1)
    g = lat.group_exp(SU2, lat.su2_from_coords(np.array([0.3, -1.1, 0.7])))
    g_inv = lat.group_inverse(SU2, g)
    return ProductConnection(grid, SU2, {a: lat.su2_mul(lat.su2_mul(g, v), g_inv)
                                         for (a,), v in A.comps.items()})


def _u1_multi_slab_connection():
    """A twisted U(1) connection whose rows the class routines take one slab each."""
    grid = Grid(sizes=(4, 16, 16, 8, 16), base_axes=(0, 1, 2))
    assert chernweil._slab_rows(grid, U1) == 1
    A = lat.sample("u1_harmonic", grid, U1, {"max_mode": 1}, seed=7)
    return ProductConnection.from_one_form(A, twist=-2)


def _curvature_oracle(w) -> dict:
    """F_ij component by component: the np.roll difference of A_j along i
    minus that of A_i along j, plus su2_mul(A_i, A_j) - su2_mul(A_j, A_i) for
    SU(2), plus the twist background on its plane."""
    grid, group = w.grid, w.group
    A = [w.component(a) for a in range(grid.dim)]

    def diff(arr, axis):
        h = grid.spacings[axis]
        return (np.roll(arr, -1, axis=axis) - np.roll(arr, 1, axis=axis)) / (2.0 * h)

    bg = background_curvature(grid, group, w.twist).comps
    F = {}
    for i, j in combinations(range(grid.dim), 2):
        Fij = diff(A[j], i) - diff(A[i], j)
        if group == SU2:
            Fij = Fij + (lat.su2_mul(A[i], A[j]) - lat.su2_mul(A[j], A[i]))
        F[(i, j)] = Fij + bg[(i, j)] if (i, j) in bg else Fij
    return F


@pytest.mark.parametrize("make", [_su2_6d_connection, _u1_multi_slab_connection],
                         ids=["su2-4^6", "u1-twisted-multi-slab"])
def test_curvature_split_matches_component_oracle(make):
    """Every block component of curvature_split, over the whole grid and on
    every one-row slab, has the bytes of the per-component oracle."""
    w = make()
    want = _curvature_oracle(w)
    n0 = w.grid.sizes[0]
    for rows in [slice(None)] + [slice(r, r + 1) for r in range(n0)]:
        got = {}
        for block in vars(curvature_split(w, rows)).values():
            got.update(block.comps)
        assert set(got) == set(want)
        for key, arr in got.items():
            assert arr.tobytes() == want[key][rows].tobytes(), (rows, key)


def test_curvature_split_allocates_one_block(monkeypatch):
    """On the 4^6 SU(2) grid the curvature is one allocation: a row for each
    of the 15 components plus a scratch row, every component a view of it.
    Every difference and commutator is kept alive, so a term that took an
    array of its own would still be traced; with the blocks held, numpy's
    traced memory holds that block and no array of one component's 256 KiB
    (one array per F_ij, difference and commutator made about 45)."""
    kept = []

    def keep(f):
        def call(*args, **kwargs):
            kept.append(f(*args, **kwargs))
            return kept[-1]
        return call

    monkeypatch.setattr(tr, "central_difference", keep(lat.central_difference))
    monkeypatch.setattr(tr, "su2_commutator", keep(lat.su2_commutator))
    w = _su2_6d_connection()
    comp_bytes = w.comps[0].nbytes
    tracemalloc.start()
    try:
        triple = curvature_split(w)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert len(kept) == 45
    numpy_traces = snapshot.filter_traces(
        [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]).traces
    assert sorted(t.size for t in numpy_traces if t.size >= comp_bytes) == [16 * comp_bytes]
    comps = [arr for block in vars(triple).values() for arr in block.comps.values()]
    assert len(comps) == 15
    assert len({id(arr.base) for arr in comps}) == 1
    assert comps[0].base.nbytes == 16 * comp_bytes


def test_link_inverse_coverage_guard():
    grid = _product_grid(6)
    u = LinkField(grid, U1, {a: np.ones(grid.sizes, dtype=complex) for a in range(grid.dim)})
    base, fiber = link_forward(u)
    with pytest.raises(ShapeError):
        link_inverse(base, {}, grid, U1)


# ---------------------------------------------------------------------------
# one connection type: pair input and missing axes, against dense zeros

# a 1-d fiber, so string classes apply; the U(1) twist plane (2, 3) is mixed
_MERGED_GRID = Grid(sizes=(5, 4, 4, 6), base_axes=(0, 1, 2))
_MERGED_CASES = [(U1, 1), (U1, -1), (SU2, 0)]
# the rows of base axis 0 taken at a time: the whole grid, or two slabs
_SLABS = {"whole": (slice(None),), "two-slabs": (slice(0, 3), slice(3, 5))}


def _merged_connection(group, twist):
    fam = "u1_harmonic" if group == U1 else "su2_band_limited"
    A = lat.sample(fam, _MERGED_GRID, group, {"max_mode": 1}, seed=41)
    return ProductConnection.from_one_form(A, twist=twist)


def _stream(monkeypatch, slabs):
    """Make the class routines take the slabs of _SLABS[slabs]."""
    if slabs == "two-slabs":
        monkeypatch.setattr(chernweil, "_slab_rows", lambda grid, group: 3)


def _class_forms(data) -> list:
    """The numeric, symbolic and string class forms of a connection."""
    f = InvariantPolynomial(2)
    return [caloron_class(data, f, 3).class_form,
            caloron_class(data, f, 3, symbolic_path=True).class_form,
            string_class(data, f, 2).class_form]


def _assert_same_bits(x: FormField, y: FormField):
    assert (x.grid, x.group, x.degree) == (y.grid, y.group, y.degree)
    assert set(x.comps) == set(y.comps)
    for key, arr in x.comps.items():
        assert arr.tobytes() == y.comps[key].tobytes(), key


@pytest.mark.parametrize("slabs", list(_SLABS))
@pytest.mark.parametrize("group,twist", _MERGED_CASES)
def test_nabla_phi_equals_curvature_split_mixed_block(group, twist, slabs):
    """Each slab's mixed block is, byte for byte, its rows of the whole-grid
    definition sum."""
    w = _merged_connection(group, twist)
    whole = nabla_phi(*forward_transform(w))
    for rows in _SLABS[slabs]:
        mixed = curvature_split(w, rows).NablaPhi
        rows_of_whole = FormField(mixed.grid, group, 2,
                                  {k: v[rows] for k, v in whole.comps.items()})
        _assert_same_bits(rows_of_whole, mixed)


@pytest.mark.parametrize("slabs", list(_SLABS))
@pytest.mark.parametrize("group,twist", _MERGED_CASES)
def test_pair_and_connection_class_forms_identical(monkeypatch, group, twist, slabs):
    w = _merged_connection(group, twist)
    _stream(monkeypatch, slabs)
    back = inverse_transform(*forward_transform(w))
    for got, want in zip(_class_forms(back), _class_forms(w)):
        _assert_same_bits(got, want)


def _drop_axes(w, missing: str):
    """w without its base axes or its fiber axes, or the zero connection."""
    if missing == "all":
        return ProductConnection.zero(w.grid, w.group, w.twist)
    keep = w.grid.fiber_axes if missing == "A" else w.grid.base_axes
    return ProductConnection(w.grid, w.group, {a: w.comps[a] for a in keep}, twist=w.twist)


@pytest.mark.parametrize("slabs", list(_SLABS))
@pytest.mark.parametrize("missing", ["A", "Phi", "all"])
@pytest.mark.parametrize("group,twist", _MERGED_CASES)
def test_missing_axes_match_dense_zeros(monkeypatch, group, twist, missing, slabs):
    """A connection with missing axes computes and writes exactly what the
    same connection with explicit np.zeros arrays does."""
    sparse = _drop_axes(_merged_connection(group, twist), missing)
    shape = sparse.grid.sizes + lat.value_shape(group)
    dense = ProductConnection(sparse.grid, group, {
        a: sparse.comps.get(a, np.zeros(shape, dtype=complex))
        for a in range(sparse.grid.dim)}, twist=twist)
    assert len(sparse.comps) < len(dense.comps)

    for rows in _SLABS[slabs]:
        for got, want in zip(vars(curvature_split(sparse, rows)).values(),
                             vars(curvature_split(dense, rows)).values()):
            _assert_same_bits(got, want)
    _stream(monkeypatch, slabs)
    for got, want in zip(_class_forms(sparse), _class_forms(dense)):
        _assert_same_bits(got, want)
    for write in (serialize.connection_to_doc,
                  lambda w: serialize.pair_to_doc(*forward_transform(w))):
        assert json.dumps(write(sparse)) == json.dumps(write(dense))
