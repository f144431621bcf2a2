"""Graph model tests: covariant calculus, Green operator, curvature properties."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from caloron import universal as uni
from caloron.errors import ConfigError, SingularOperatorError
from caloron.lattice import SU2, U1
from caloron.universal import (
    GraphX,
    GreenOperator,
    ad_star,
    adjoint_cov_deriv,
    connection_form,
    cov_deriv,
    horizontal_project,
    parse_graph,
    project_based,
    run_property_suite,
    universal_curvature_FA,
)


def _cov_matrix(graph, group, omega):
    """Dense oracle: cov_deriv applied to each based basis vector, one column each
    (basepoint column removed)."""
    g = uni.ALG_DIM[group]
    keep = [v for v in range(graph.n_vertices) if v != graph.basepoint]
    D = np.zeros((graph.n_edges * g, len(keep) * g))
    basis = np.zeros((graph.n_vertices, g))
    for col, v in enumerate(keep):
        for c in range(g):
            basis[v, c] = 1.0
            D[:, col * g + c] = cov_deriv(graph, group, omega, basis).ravel()
            basis[v, c] = 0.0
    return D


def _factor_order(graph, group, blocks):
    """Columns of _cov_matrix (based vertices in index order) in block order."""
    g = uni.ALG_DIM[group]
    keep = [v for v in range(graph.n_vertices) if v != graph.basepoint]
    col = {v: i for i, v in enumerate(keep)}
    return np.array([col[v] * g + c for v in np.concatenate(blocks).tolist()
                     for c in range(g)])


def _dense_from_blocks(D, E):
    """The block-tridiagonal matrix with diagonal blocks D and lower couplings E."""
    bounds = np.cumsum([0] + [len(d) for d in D])
    L = np.zeros((bounds[-1], bounds[-1]))
    for k, d in enumerate(D):
        L[bounds[k]:bounds[k + 1], bounds[k]:bounds[k + 1]] = d
    for k, e in enumerate(E):
        L[bounds[k + 1]:bounds[k + 2], bounds[k]:bounds[k + 1]] = e
        L[bounds[k]:bounds[k + 1], bounds[k + 1]:bounds[k + 2]] = e.T
    return L


def test_graph_validation():
    with pytest.raises(ConfigError):
        GraphX(2, ((0, 1),))
    with pytest.raises(ConfigError):
        GraphX(4, ((0, 1), (2, 3)))  # disconnected
    with pytest.raises(ConfigError):
        GraphX(4, GraphX.ring(4).edges, 9)


def test_property_suite_rejects_unknown_group():
    with pytest.raises(ConfigError, match="known groups: u1, su2$"):
        run_property_suite(parse_graph("ring:8"), "x")


def test_parse_graph():
    g = parse_graph("ring:6")
    assert (g.n_vertices, g.n_edges) == (6, 6)
    t = parse_graph("torus:3:4")
    assert (t.n_vertices, t.n_edges) == (12, 24)
    assert len(t.plaquettes) == 12
    # each face (bottom, right, top, left) is a unit square: bottom and top
    # run along x from its lower and upper corners, left and right along y
    for nx, ny in ((3, 4), (5, 3)):
        t = GraphX.torus(nx, ny)
        for b, r, tp, l in t.plaquettes:
            (v, vx), (v2, vy), (vx2, w), (vy2, w2) = (t.edges[e] for e in (b, l, r, tp))
            assert (v, vx, vy) == (v2, vx2, vy2) and w == w2
            assert vx == (v + ny) % (nx * ny) and vy == v - v % ny + (v + 1) % ny
        assert sorted(e for face in t.plaquettes for e in face) == \
            sorted(2 * list(range(t.n_edges)))
    with pytest.raises(ConfigError):
        parse_graph("chain:5")
    for bad in ("torus:x:4", "ring:abc", "ring:2.5", "torus:4", "ring:4:4",
                "torus:-3:-3", "torus:1:4", "torus:2:4", "torus:4:2"):
        with pytest.raises(ConfigError):
            parse_graph(bad)


def test_graph_size_cap():
    with pytest.raises(ConfigError, match="above the cap"):
        parse_graph("torus:300:300")
    with pytest.raises(ConfigError, match="above the cap"):
        GraphX.ring(uni.MAX_VERTICES + 1)
    assert GraphX.ring(uni.MAX_VERTICES).n_vertices == uni.MAX_VERTICES


def test_graph_levels():
    # [DERIVED] ring:8 from basepoint 2: distances 0, 1, 2, 3, 4 around both ways
    levels = GraphX(8, GraphX.ring(8).edges, 2).levels
    assert [lv.tolist() for lv in levels] == [[2], [1, 3], [0, 4], [5, 7], [6]]
    t = GraphX.torus(3, 4)
    assert t.levels is t.levels  # computed once per graph
    assert sorted(np.concatenate(t.levels).tolist()) == list(range(12))


def test_edge_index_arrays():
    t = GraphX.torus(3, 4)
    assert t.tails.dtype == np.intp and t.heads.dtype == np.intp
    assert list(zip(t.tails.tolist(), t.heads.tolist())) == list(t.edges)
    assert t.heads is t.heads  # computed once per graph


def test_alg_bracket():
    x, y = np.array([1.0, 0, 0]), np.array([0, 1.0, 0])
    assert np.allclose(uni.alg_bracket(SU2, x, y), [0, 0, -2.0])
    assert np.all(uni.alg_bracket(U1, np.ones((4, 1)), np.ones((4, 1))) == 0)


def test_cov_deriv_flat_is_graph_gradient():
    g = GraphX.ring(4)
    omega = np.zeros((4, 1))
    mu = np.array([[0.0], [1.0], [3.0], [6.0]])
    d = cov_deriv(g, U1, omega, mu)
    assert np.allclose(d.ravel(), [1.0, 2.0, 3.0, -6.0])


def test_adjoint_is_matrix_transpose():
    # [DERIVED] compare against the dense transpose of the cov_deriv matrix
    g = GraphX.torus(3, 3)
    rng = np.random.default_rng(0)
    omega = rng.standard_normal((g.n_edges, 3))
    D = _cov_matrix(g, SU2, omega)
    xi = rng.standard_normal((g.n_edges, 3))
    direct = adjoint_cov_deriv(g, SU2, omega, xi)
    keep = [v for v in range(g.n_vertices) if v != g.basepoint]
    dense = (D.T @ xi.ravel()).reshape(len(keep), 3)
    assert np.max(np.abs(direct[keep] - dense)) < 1e-12
    assert np.all(direct[g.basepoint] == 0.0)


@pytest.mark.parametrize("spec", ["ring:8", "torus:3:4", "torus:6:8"])
@pytest.mark.parametrize("group", [U1, SU2])
def test_laplacian_assembly_matches_dense_oracle(spec, group):
    g = parse_graph(spec)
    rng = np.random.default_rng(11)
    omega = rng.standard_normal((g.n_edges, uni.ALG_DIM[group]))
    blocks = uni.green_blocks(g, group)
    D, E = uni._laplacian_blocks(g, group, omega, blocks)
    L = _dense_from_blocks(D, E)
    Dm = _cov_matrix(g, group, omega)[:, _factor_order(g, group, blocks)]
    scale = np.max(np.abs(L))
    assert L.shape == (Dm.shape[1], Dm.shape[1])
    assert np.max(np.abs(L - Dm.T @ Dm)) <= 1e-12 * scale
    assert all(np.max(np.abs(d - d.T)) <= 1e-14 * scale for d in D)


@pytest.mark.parametrize("spec", ["ring:8", "torus:4:5"])
@pytest.mark.parametrize("group", [U1, SU2])
def test_residual_operator_matches_assembled_blocks(spec, group):
    """The solve checks its residual with adjoint_cov_deriv of cov_deriv; on
    based fields that agrees with the assembled D_k, E_k product."""
    g = parse_graph(spec)
    rng = np.random.default_rng(12)
    omega = rng.standard_normal((g.n_edges, uni.ALG_DIM[group]))
    blocks = uni.green_blocks(g, group)
    L = _dense_from_blocks(*uni._laplacian_blocks(g, group, omega, blocks))
    order = np.concatenate(blocks)
    for _ in range(3):
        mu = project_based(g, rng.standard_normal((g.n_vertices, uni.ALG_DIM[group])))
        want = L @ mu[order].ravel()
        got = adjoint_cov_deriv(g, group, omega, cov_deriv(g, group, omega, mu))[order].ravel()
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_green_factor_size_limit_counts_the_buffer_once():
    """The limit counts the one D_k, E_k buffer and the temporaries of the
    largest block: su(2) on torus:150:150 (618 MiB) is within 1 GiB and
    torus:200:200 (a 1465 MiB buffer) is not.  Only the block sizes are computed."""
    uni.green_blocks(parse_graph("torus:150:150"), SU2)
    with pytest.raises(ConfigError, match="Green factor of .* MiB exceeds the limit"):
        uni.green_blocks(parse_graph("torus:200:200"), SU2)


def test_green_residual_check_catches_a_perturbed_factor():
    """Scaling one C_k^{-1} block by 1 + 1e-6 puts the solve far past its
    1e-10 relative residual; the intact factor passes."""
    g = parse_graph("torus:4:5")
    rng = np.random.default_rng(13)
    omega = rng.standard_normal((g.n_edges, 3))
    gop = GreenOperator(g, SU2, omega)
    v = project_based(g, rng.standard_normal((g.n_vertices, 3)))
    gop.solve(v)
    gop._cinv[0] = gop._cinv[0] * (1 + 1e-6)
    with pytest.raises(SingularOperatorError, match="residual"):
        gop.solve(v)


@st.composite
def _connected_multigraphs(draw):
    """A random spanning tree on 3-40 vertices plus extra edges (parallel ones
    allowed, no self-loops), randomly oriented and ordered, with a random
    basepoint."""
    n = draw(st.integers(3, 40))
    label = draw(st.permutations(range(n)))
    edges = [(label[v], label[draw(st.integers(0, v - 1))]) for v in range(1, n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges += draw(st.lists(pairs.filter(lambda e: e[0] != e[1]), max_size=2 * n))
    edges = [(h, t) if draw(st.booleans()) else (t, h) for t, h in edges]
    edges = draw(st.permutations(edges))
    return GraphX(n, tuple(edges), draw(st.integers(0, n - 1)))


@settings(max_examples=60, deadline=None)
@given(graph=_connected_multigraphs(), group=st.sampled_from([U1, SU2]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_level_blocked_green_matches_dense_solve(graph, group, seed):
    """The blocks partition the based vertices, each in index order; an edge
    stays within a block or joins adjacent ones; every block but the last has
    at least 32 unknowns; and a solve matches np.linalg.solve on the
    dense oracle's D^T D."""
    g, bp = uni.ALG_DIM[group], graph.basepoint
    blocks = uni.green_blocks(graph, group)
    keep = [v for v in range(graph.n_vertices) if v != bp]
    assert sorted(np.concatenate(blocks).tolist()) == keep
    assert all(np.all(np.diff(b) > 0) for b in blocks)
    assert all(g * len(b) >= 32 for b in blocks[:-1])
    where = {v: k for k, b in enumerate(blocks) for v in b.tolist()}
    assert all(abs(where[t] - where[h]) <= 1 for t, h in graph.edges if bp not in (t, h))

    rng = np.random.default_rng(seed)
    omega = rng.standard_normal((graph.n_edges, g))
    D = _cov_matrix(graph, group, omega)
    rhs = rng.standard_normal((len(keep), g))
    ref = np.linalg.solve(D.T @ D, rhs.ravel()).reshape(len(keep), g)
    v = np.zeros((graph.n_vertices, g))
    v[keep] = rhs
    got = GreenOperator(graph, group, omega).solve(v)
    assert np.max(np.abs(got[keep] - ref)) <= 1e-9 * np.max(np.abs(ref))
    assert np.all(got[bp] == 0.0)


def test_green_hand_oracle_ring4():
    # [DERIVED] flat u(1) ring n=4: based Laplacian is the path Laplacian
    # [[2,-1,0],[-1,2,-1],[0,-1,2]] with inverse (1/4)[[3,2,1],[2,4,2],[1,2,3]]
    g = GraphX.ring(4)
    omega = np.zeros((4, 1))
    Linv = 0.25 * np.array([[3.0, 2, 1], [2, 4, 2], [1, 2, 3]])
    rng = np.random.default_rng(1)
    v = project_based(g, rng.standard_normal((4, 1)))
    out = GreenOperator(g, U1, omega).solve(v)
    assert np.max(np.abs(out[1:, 0] - Linv @ v[1:, 0])) < 1e-12
    assert out[0, 0] == 0.0


def test_green_solve_inverts_laplacian():
    g = GraphX.torus(3, 4)
    rng = np.random.default_rng(2)
    omega = rng.standard_normal((g.n_edges, 3))
    gop = GreenOperator(g, SU2, omega)
    mu = project_based(g, rng.standard_normal((g.n_vertices, 3)))
    v = adjoint_cov_deriv(g, SU2, omega, cov_deriv(g, SU2, omega, mu))
    assert np.max(np.abs(gop.solve(v) - mu)) < 1e-10


def test_connection_form_reproduces_vertical():
    g = GraphX.ring(6)
    rng = np.random.default_rng(3)
    omega = rng.standard_normal((6, 3))
    mu = project_based(g, rng.standard_normal((6, 3)))
    vert = cov_deriv(g, SU2, omega, mu)
    back = connection_form(GreenOperator(g, SU2, omega), vert)
    assert np.max(np.abs(back - mu)) < 1e-10


def test_horizontal_projector_properties():
    g = GraphX.torus(4, 4)
    rng = np.random.default_rng(4)
    omega = rng.standard_normal((g.n_edges, 3))
    gop = GreenOperator(g, SU2, omega)
    xi = rng.standard_normal((g.n_edges, 3))
    ph = horizontal_project(gop, xi)
    assert np.max(np.abs(adjoint_cov_deriv(g, SU2, omega, ph))) < 1e-10
    ph2 = horizontal_project(gop, ph)
    assert np.max(np.abs(ph2 - ph)) < 1e-10
    assert np.linalg.norm(ph) <= np.linalg.norm(xi) + 1e-12


def test_ad_star_antisymmetry_and_pairing():
    g = GraphX.ring(5)
    rng = np.random.default_rng(5)
    xi, eta = rng.standard_normal((2, 5, 3))
    s = ad_star(g, SU2, xi, eta) + ad_star(g, SU2, eta, xi)
    assert np.max(np.abs(s)) < 1e-14
    # defining pairing <ad*_xi eta, mu> = <eta, [xi, mu_avg]>
    mu = project_based(g, rng.standard_normal((5, 3)))
    heads = [h for _, h in g.edges]
    tails = [t for t, _ in g.edges]
    rhs = np.sum(eta * uni.alg_bracket(SU2, xi, 0.5 * (mu[heads] + mu[tails])))
    lhs = np.sum(ad_star(g, SU2, xi, eta) * mu)
    assert abs(lhs - rhs) < 1e-12


def _add_at_adjoint(graph, group, omega, xi):
    """The scatter oracle for adjoint_cov_deriv: four np.add.at calls."""
    out = np.zeros((graph.n_vertices, uni.ALG_DIM[group]))
    np.add.at(out, graph.heads, xi)
    np.add.at(out, graph.tails, -xi)
    br = -0.5 * (np.zeros(xi.shape) if group == U1 else -2.0 * np.cross(omega, xi))
    np.add.at(out, graph.heads, br)
    np.add.at(out, graph.tails, br)
    return project_based(graph, out)


def _add_at_ad_star(graph, xi1, eta):
    """The scatter oracle for su(2) ad_star: two np.add.at calls."""
    out = np.zeros((graph.n_vertices, 3))
    br = -0.5 * (-2.0 * np.cross(xi1, eta))
    np.add.at(out, graph.heads, br)
    np.add.at(out, graph.tails, br)
    return project_based(graph, out)


_EDGE_ENTRIES = np.array([0.0, -0.0, 5e-324, 1e300, -1e300, 0.1, -3.0, 7.5])


@pytest.mark.parametrize("spec", ["ring:8", "ring:64", "torus:8:8", "torus:5:7"])
def test_vertex_sums_match_add_at_oracle_bit_for_bit(spec):
    """adjoint_cov_deriv, ad_star and the su(2) bracket give the bytes of
    np.add.at and np.cross, on normal draws and on signed zeros, a subnormal
    and entries whose products overflow."""
    g = parse_graph(spec)
    rng = np.random.default_rng(len(spec))
    for draw in (lambda shape: rng.standard_normal(shape),
                 lambda shape: rng.choice(_EDGE_ENTRIES, size=shape)):
        with np.errstate(over="ignore", invalid="ignore"):
            for group in (U1, SU2):
                dim = uni.ALG_DIM[group]
                omega, xi = draw((g.n_edges, dim)), draw((g.n_edges, dim))
                got = adjoint_cov_deriv(g, group, omega, xi)
                assert got.tobytes() == _add_at_adjoint(g, group, omega, xi).tobytes()
            assert ad_star(g, SU2, omega, xi).tobytes() == \
                _add_at_ad_star(g, omega, xi).tobytes()
            assert uni.alg_bracket(SU2, omega, xi).tobytes() == \
                (-2.0 * np.cross(omega, xi)).tobytes()
            assert uni.alg_bracket(SU2, omega[:, None, :], np.eye(3)).tobytes() == \
                (-2.0 * np.cross(omega[:, None, :], np.eye(3))).tobytes()


def test_curvature_requires_horizontal():
    g = GraphX.ring(5)
    rng = np.random.default_rng(6)
    omega = rng.standard_normal((5, 3))
    xi = rng.standard_normal((5, 3))  # generic, not horizontal
    with pytest.raises(ConfigError, match="edge field is not horizontal"):
        universal_curvature_FA(GreenOperator(g, SU2, omega), xi, xi)


def test_abelian_curvature_exactly_zero():
    g = GraphX.torus(3, 3)
    rng = np.random.default_rng(7)
    omega = rng.standard_normal((g.n_edges, 1))
    gop = GreenOperator(g, U1, omega)
    h1 = horizontal_project(gop, rng.standard_normal((g.n_edges, 1)))
    h2 = horizontal_project(gop, rng.standard_normal((g.n_edges, 1)))
    fa = universal_curvature_FA(gop, h1, h2)
    assert np.all(fa == 0.0)


def test_curvature_FA_antisymmetric():
    g = GraphX.torus(3, 3)
    rng = np.random.default_rng(8)
    omega = rng.standard_normal((g.n_edges, 3))
    gop = GreenOperator(g, SU2, omega)
    h1 = horizontal_project(gop, rng.standard_normal((g.n_edges, 3)))
    h2 = horizontal_project(gop, rng.standard_normal((g.n_edges, 3)))
    f12 = universal_curvature_FA(gop, h1, h2)
    f21 = universal_curvature_FA(gop, h2, h1)
    assert np.max(np.abs(f12 + f21)) < 1e-10


@pytest.mark.parametrize("spec", ["ring:8", "torus:4:5"])
def test_curvature_FA_matches_structure_equation(spec):
    """On horizontal xi, eta, F_A(xi, eta) = 1/2 (D_xi Theta(eta) - D_eta Theta(xi)),
    with Theta = connection_form and D the central difference in omega at
    t = 1e-5.  The difference errs by O(t^2), about 1e-10 of |F_A| on these
    graphs; without the 1/2 the two sides differ by |F_A|."""
    g = parse_graph(spec)
    rng = np.random.default_rng(3)
    omega = rng.standard_normal((g.n_edges, 3))
    gop = GreenOperator(g, SU2, omega)
    xi, eta = (horizontal_project(gop, rng.standard_normal((g.n_edges, 3)))
               for _ in range(2))
    t = 1e-5

    def D(direction, arg):
        plus = connection_form(GreenOperator(g, SU2, omega + t * direction), arg)
        minus = connection_form(GreenOperator(g, SU2, omega - t * direction), arg)
        return (plus - minus) / (2 * t)

    fa = universal_curvature_FA(gop, xi, eta)
    err = np.max(np.abs(fa - 0.5 * (D(xi, eta) - D(eta, xi))))
    assert err <= 1e-8 * np.max(np.abs(fa))


def test_full_curvature_antisymmetric():
    g = GraphX.torus(4, 4)
    rng = np.random.default_rng(9)
    omega = rng.standard_normal((g.n_edges, 3))
    gop = GreenOperator(g, SU2, omega)
    h1 = horizontal_project(gop, rng.standard_normal((g.n_edges, 3)))
    h2 = horizontal_project(gop, rng.standard_normal((g.n_edges, 3)))
    from caloron.lattice import group_exp, su2_from_coords
    element = group_exp(SU2, su2_from_coords(np.array([0.3, 0.1, -0.2])))
    # an x-edge and a y-edge of one face, so the plaquette term is nonzero
    z1, z2 = (0, 0.7), (g.plaquettes[0][3], -1.3)
    f12 = universal_curvature_FA(gop, h1, h2)
    f21 = universal_curvature_FA(gop, h2, h1)
    a = uni._curvature_full(gop, 2, element, f12, h1, z1, h2, z2)
    b = uni._curvature_full(gop, 2, element, f21, h2, z2, h1, z1)
    assert np.max(np.abs(a + b)) < 1e-10


@pytest.mark.parametrize("spec", ["ring:8", "torus:4:4"])
@pytest.mark.parametrize("group", [U1, SU2])
def test_property_suite_green(spec, group):
    results = run_property_suite(parse_graph(spec), group, seed=3)
    assert results, "empty suite"
    for name, residual, tol, ok in results:
        assert ok, f"{name}: residual {residual} > {tol}"


def test_property_suite_green_large_torus():
    # the benchmark size: 16 x 32 torus, 1533 su(2) unknowns
    results = run_property_suite(parse_graph("torus:16:32"), SU2, seed=3)
    for name, residual, tol, ok in results:
        assert ok, f"{name}: residual {residual} > {tol}"


def test_property_suite_green_torus_64_64():
    # 12,285 su(2) unknowns, 24x the dense-era cap of 512 vertices
    results = run_property_suite(parse_graph("torus:64:64"), SU2, seed=3)
    for name, residual, tol, ok in results:
        assert ok, f"{name}: residual {residual} > {tol}"


@pytest.mark.parametrize("group,want", [(U1, 5), (SU2, 7)])
def test_property_suite_green_solve_count(monkeypatch, group, want):
    """One solve per distinct Green field: green_inverse, vertical_reproduction,
    the projections of xi, ph and eta, and for su(2) F_A(h1, h2) and
    F_A(h2, h1), which the full-curvature checks reuse.  Outside the solves,
    each field's d* is taken once: F_A(h2, h1) does not check again the
    fields that F_A(h1, h2) checked."""
    calls = {"solve": 0, "adjoint": 0}
    solve, adjoint = GreenOperator.solve, uni.adjoint_cov_deriv

    def counted(self, v):
        calls["solve"] += 1
        return solve(self, v)

    def counted_adjoint(*args):
        calls["adjoint"] += 1
        return adjoint(*args)

    monkeypatch.setattr(GreenOperator, "solve", counted)
    monkeypatch.setattr(uni, "adjoint_cov_deriv", counted_adjoint)
    run_property_suite(parse_graph("torus:4:4"), group, seed=3)
    # each solve checks its residual with one adjoint_cov_deriv
    assert (calls["solve"], calls["adjoint"] - calls["solve"]) == (want, 9)


def test_property_suite_deterministic():
    a = run_property_suite(parse_graph("ring:8"), SU2, seed=5)
    b = run_property_suite(parse_graph("ring:8"), SU2, seed=5)
    assert a == b


def test_shape_guards():
    g = GraphX.ring(4)
    with pytest.raises(ConfigError, match=r"vertex field shape \(5, 1\), expected \(4, 1\)"):
        cov_deriv(g, U1, np.zeros((4, 1)), np.zeros((5, 1)))
    with pytest.raises(ConfigError, match=r"edge field shape \(4, 1\), expected \(4, 3\)"):
        adjoint_cov_deriv(g, SU2, np.zeros((4, 3)), np.zeros((4, 1)))
