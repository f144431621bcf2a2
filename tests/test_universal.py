"""Graph model tests: covariant calculus, Green operator, curvature properties."""
import numpy as np
import pytest

from caloron import universal as uni
from caloron.errors import ConfigError, DomainError, ShapeError
from caloron.lattice import SU2, U1
from caloron.universal import (
    FiberPoint,
    FiberTangent,
    GraphX,
    GreenOperator,
    ad_star,
    adjoint_cov_deriv,
    connection_form,
    cov_deriv,
    green,
    horizontal_project,
    parse_graph,
    project_based,
    run_property_suite,
    universal_curvature_FA,
    universal_curvature_full,
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


def test_graph_validation():
    with pytest.raises(ConfigError):
        GraphX(2, ((0, 1),))
    with pytest.raises(ConfigError):
        GraphX(4, ((0, 1), (2, 3)))  # disconnected
    with pytest.raises(ConfigError):
        GraphX.ring(4, basepoint=9)


def test_parse_graph():
    g = parse_graph("ring:6")
    assert (g.n_vertices, g.n_edges) == (6, 6)
    t = parse_graph("torus:3:4")
    assert (t.n_vertices, t.n_edges) == (12, 24)
    assert len(t.plaquettes) == 12
    with pytest.raises(ConfigError):
        parse_graph("chain:5")
    for bad in ("torus:x:4", "ring:abc", "ring:2.5", "torus:4", "ring:4:4"):
        with pytest.raises(ConfigError):
            parse_graph(bad)


def test_graph_size_cap():
    with pytest.raises(ConfigError, match="dense-solve cap"):
        parse_graph("torus:100:100")
    with pytest.raises(ConfigError, match="dense-solve cap"):
        GraphX.ring(uni.MAX_VERTICES + 1)
    assert GraphX.ring(uni.MAX_VERTICES).n_vertices == uni.MAX_VERTICES


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


@pytest.mark.parametrize("spec", ["ring:8", "torus:3:4"])
@pytest.mark.parametrize("group", [U1, SU2])
def test_laplacian_assembly_matches_dense_oracle(spec, group):
    g = parse_graph(spec)
    rng = np.random.default_rng(11)
    omega = rng.standard_normal((g.n_edges, uni.ALG_DIM[group]))
    D = _cov_matrix(g, group, omega)
    L = uni._based_laplacian(g, group, omega)
    scale = np.max(np.abs(L))
    assert L.shape == (D.shape[1], D.shape[1])
    assert np.max(np.abs(L - D.T @ D)) <= 1e-12 * scale
    assert np.max(np.abs(L - L.T)) <= 1e-14 * scale


@pytest.mark.parametrize("lower", [True, False])
def test_blocked_triangular_solve_matches_dense(lower):
    n = 3 * uni._TRI_BLOCK + 7  # several blocks plus a ragged last one
    rng = np.random.default_rng(12)
    M = rng.standard_normal((n, n))
    C = np.linalg.cholesky(M @ M.T + n * np.eye(n))
    T = C if lower else C.T
    b = rng.standard_normal(n)
    x = uni._solve_triangular(T, b, lower=lower)
    ref = np.linalg.solve(T, b)
    assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_green_hand_oracle_ring4():
    # [DERIVED] flat u(1) ring n=4: based Laplacian is the path Laplacian
    # [[2,-1,0],[-1,2,-1],[0,-1,2]] with inverse (1/4)[[3,2,1],[2,4,2],[1,2,3]]
    g = GraphX.ring(4)
    omega = np.zeros((4, 1))
    Linv = 0.25 * np.array([[3.0, 2, 1], [2, 4, 2], [1, 2, 3]])
    rng = np.random.default_rng(1)
    v = project_based(g, rng.standard_normal((4, 1)))
    out = green(g, U1, omega, v)
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
    back = connection_form(g, SU2, omega, vert)
    assert np.max(np.abs(back - mu)) < 1e-10


def test_horizontal_projector_properties():
    g = GraphX.torus(4, 4)
    rng = np.random.default_rng(4)
    omega = rng.standard_normal((g.n_edges, 3))
    gop = GreenOperator(g, SU2, omega)
    xi = rng.standard_normal((g.n_edges, 3))
    ph = horizontal_project(g, SU2, omega, xi, gop)
    assert np.max(np.abs(adjoint_cov_deriv(g, SU2, omega, ph))) < 1e-10
    ph2 = horizontal_project(g, SU2, omega, ph, gop)
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


def test_curvature_requires_horizontal():
    g = GraphX.ring(5)
    rng = np.random.default_rng(6)
    omega = rng.standard_normal((5, 3))
    xi = rng.standard_normal((5, 3))  # generic, not horizontal
    with pytest.raises(DomainError):
        universal_curvature_FA(g, SU2, omega, xi, xi)


def test_abelian_curvature_exactly_zero():
    g = GraphX.torus(3, 3)
    rng = np.random.default_rng(7)
    omega = rng.standard_normal((g.n_edges, 1))
    gop = GreenOperator(g, U1, omega)
    h1 = horizontal_project(g, U1, omega, rng.standard_normal((g.n_edges, 1)), gop)
    h2 = horizontal_project(g, U1, omega, rng.standard_normal((g.n_edges, 1)), gop)
    fa = universal_curvature_FA(g, U1, omega, h1, h2, gop)
    assert np.all(fa == 0.0)


def test_curvature_FA_antisymmetric():
    g = GraphX.torus(3, 3)
    rng = np.random.default_rng(8)
    omega = rng.standard_normal((g.n_edges, 3))
    gop = GreenOperator(g, SU2, omega)
    h1 = horizontal_project(g, SU2, omega, rng.standard_normal((g.n_edges, 3)), gop)
    h2 = horizontal_project(g, SU2, omega, rng.standard_normal((g.n_edges, 3)), gop)
    f12 = universal_curvature_FA(g, SU2, omega, h1, h2, gop)
    f21 = universal_curvature_FA(g, SU2, omega, h2, h1, gop)
    assert np.max(np.abs(f12 + f21)) < 1e-10


def test_full_curvature_antisymmetric():
    g = GraphX.torus(4, 4)
    rng = np.random.default_rng(9)
    omega = rng.standard_normal((g.n_edges, 3))
    gop = GreenOperator(g, SU2, omega)
    h1 = horizontal_project(g, SU2, omega, rng.standard_normal((g.n_edges, 3)), gop)
    h2 = horizontal_project(g, SU2, omega, rng.standard_normal((g.n_edges, 3)), gop)
    from caloron.lattice import group_exp, su2_from_coords
    q = FiberPoint(vertex=2, element=group_exp(SU2, su2_from_coords(
        np.array([0.3, 0.1, -0.2]))))
    V1 = (h1, FiberTangent(edge=0, magnitude=0.7))
    V2 = (h2, FiberTangent(edge=g.plaquettes[0][3], magnitude=-1.3))
    a = universal_curvature_full(g, SU2, omega, q, V1, V2, gop)
    b = universal_curvature_full(g, SU2, omega, q, V2, V1, gop)
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


def test_property_suite_deterministic():
    a = run_property_suite(parse_graph("ring:8"), SU2, seed=5)
    b = run_property_suite(parse_graph("ring:8"), SU2, seed=5)
    assert a == b


def test_shape_guards():
    g = GraphX.ring(4)
    with pytest.raises(ShapeError):
        cov_deriv(g, U1, np.zeros((4, 1)), np.zeros((5, 1)))
    with pytest.raises(ShapeError):
        adjoint_cov_deriv(g, SU2, np.zeros((4, 3)), np.zeros((4, 1)))
