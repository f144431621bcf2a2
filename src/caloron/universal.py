"""Finite-graph model of the universal connection on the space of lattice connections.

A connection is an algebra-valued field on the oriented edges of a finite
connected graph; based gauge algebra elements are vertex fields vanishing at
the basepoint.  The covariant derivative uses the midpoint-averaged bracket and
its adjoint is the exact matrix transpose with the basepoint row removed.

The Green's operator inverts the based Laplacian d_w* d_w by a direct factor
that follows the graph's breadth-first levels from the basepoint.  An edge
joins vertices whose distances differ by at most one, so with the based
vertices in level order d_w* d_w is block tridiagonal (Cuthill & McKee, 1969).
Consecutive levels are merged into blocks of at least _MIN_BLOCK unknowns; the
diagonal and coupling blocks are summed straight from per-edge blocks and
factored by block Cholesky (George & Liu, 1981), so storage grows with the sum
of squared block sizes, not with n^2.  Each solve is 2K matrix-vector
products over the K blocks, checked against adjoint_cov_deriv of cov_deriv.
Graphs are capped at MAX_VERTICES vertices before any edge list is built, and
at MAX_FACTOR_BYTES of factor before any block is allocated.

Algebra values are stored in real coordinates: 1 per point for u(1)
(coefficient of i) and 3 for su(2) (coefficients of i*sigma_j); the invariant
inner product is the Euclidean dot product on these coordinates.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, SingularOperatorError
from .lattice import SU2, U1, check_group, group_exp, su2_coords, su2_from_coords
from .scene import Check

MAX_VERTICES = 2 ** 16

# bytes of the Green factor: the one buffer of D_k and E_k blocks, which C_k^{-1}
# and W_k overwrite, and the temporaries of factoring its largest block
MAX_FACTOR_BYTES = 2 ** 30

# relative residual a Green solve must meet: |L x - b| <= SOLVE_TOLERANCE max(|b|, 1)
SOLVE_TOLERANCE = 1e-10

# fewest unknowns per factor block; consecutive levels merge until a block has them
_MIN_BLOCK = 32

ALG_DIM = {U1: 1, SU2: 3}


def alg_dim(group: str) -> int:
    """Real coordinates of one `group` algebra value; ConfigError for another group."""
    check_group(group)
    return ALG_DIM[group]


def alg_bracket(group: str, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coordinate bracket: zero for u(1); [i a.sigma, i b.sigma] = i(-2 a x b).sigma."""
    if group == U1:
        return np.zeros(np.broadcast(x, y).shape)
    # np.cross's component differences, in its order, without its axis moves
    x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
    y0, y1, y2 = y[..., 0], y[..., 1], y[..., 2]
    out = np.empty(np.broadcast_shapes(x.shape, y.shape))
    np.subtract(x1 * y2, x2 * y1, out=out[..., 0])
    np.subtract(x2 * y0, x0 * y2, out=out[..., 1])
    np.subtract(x0 * y1, x1 * y0, out=out[..., 2])
    out *= -2.0
    return out


@dataclass(frozen=True)
class GraphX:
    """Finite connected oriented graph with a basepoint."""

    n_vertices: int
    edges: tuple  # ((tail, head), ...)
    basepoint: int = 0
    plaquettes: tuple = ()  # ((e_bottom, e_right, e_top, e_left) ids per face, unused on rings)

    def __post_init__(self):
        _check_vertex_count(self.n_vertices)
        if not 0 <= self.basepoint < self.n_vertices:
            raise ConfigError("basepoint outside vertex range")
        if sum(map(len, self.levels)) != self.n_vertices:
            raise ConfigError("graph is not connected")

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def levels(self) -> tuple:
        """Vertices reached from the basepoint, grouped by breadth-first
        distance: level 0 is the basepoint alone, each level an index-sorted
        array.  An edge joins vertices of the same or adjacent levels."""
        adj = [[] for _ in range(self.n_vertices)]
        for t, h in self.edges:
            adj[t].append(h)
            adj[h].append(t)
        seen = [False] * self.n_vertices
        seen[self.basepoint] = True
        levels, frontier = [], [self.basepoint]
        while frontier:
            levels.append(np.sort(np.array(frontier, dtype=np.intp)))
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        nxt.append(w)
            frontier = nxt
        return tuple(levels)

    @cached_property
    def tails(self) -> np.ndarray:
        return np.array([t for t, _ in self.edges], dtype=np.intp)

    @cached_property
    def heads(self) -> np.ndarray:
        return np.array([h for _, h in self.edges], dtype=np.intp)

    @cached_property
    def ends(self) -> np.ndarray:
        """Each edge's head, then each edge's tail: where _vertex_sums adds
        a pair of edge fields."""
        return np.concatenate((self.heads, self.tails))

    @classmethod
    def ring(cls, n: int) -> "GraphX":
        _check_vertex_count(n)
        return cls(n, tuple((i, (i + 1) % n) for i in range(n)))

    @classmethod
    def torus(cls, nx: int, ny: int) -> "GraphX":
        """Grid graph on a torus; x-edges first, then y-edges.  The torus is
        ring:nx x ring:ny, so each side needs at least 3 vertices."""
        for name, side in (("nx", nx), ("ny", ny)):
            if side < 3:
                raise ConfigError(f"torus side {name} needs >= 3 vertices, got {side}")
        n = nx * ny
        _check_vertex_count(n)

        def vid(i, j):
            return (i % nx) * ny + (j % ny)

        cells = [(i, j) for i in range(nx) for j in range(ny)]
        edges = [(vid(i, j), vid(i + 1, j)) for i, j in cells]
        edges += [(vid(i, j), vid(i, j + 1)) for i, j in cells]
        # the x-edge from cell (i, j) is edge vid(i, j), its y-edge n + vid(i, j)
        plaq = tuple((vid(i, j), n + vid(i + 1, j), vid(i, j + 1), n + vid(i, j))
                     for i, j in cells)
        return cls(n, tuple(edges), plaquettes=plaq)


def _check_vertex_count(n: int) -> None:
    """Reject a size before any edge list is built for it."""
    if n < 3:
        raise ConfigError(f"graph needs >= 3 vertices, got {n}")
    if n > MAX_VERTICES:
        raise ConfigError(f"graph has {n} vertices, above the cap of {MAX_VERTICES}")


def parse_graph(spec: str) -> GraphX:
    """Parse 'ring:n' or 'torus:nx:ny', sizes in canonical decimal.  int() alone
    would also read "+5", " 5", "05", "1_000" and non-ASCII digits, so one
    graph would have several specs, and reports several hashes."""
    kind, *sizes = spec.split(":")
    if (kind, len(sizes)) not in (("ring", 1), ("torus", 2)):
        raise ConfigError(f"unknown graph spec {spec!r}")
    try:
        sizes = [int(x) for x in sizes]
    except ValueError:
        raise ConfigError(f"graph spec {spec!r}: sizes must be integers") from None
    canonical = ":".join([kind, *map(str, sizes)])
    if canonical != spec:
        raise ConfigError(f"graph spec {spec!r} must be written {canonical!r}")
    return GraphX.ring(*sizes) if kind == "ring" else GraphX.torus(*sizes)


def _check_shape(graph: GraphX, group: str, x: np.ndarray, kind: str) -> np.ndarray:
    """x as a float array of one algebra value per vertex or per edge of
    `graph`, as `kind` says; any other shape is a ConfigError."""
    x = np.asarray(x, dtype=float)
    want = (graph.n_vertices if kind == "vertex" else graph.n_edges, alg_dim(group))
    if x.shape != want:
        raise ConfigError(f"{kind} field shape {x.shape}, expected {want}")
    return x


def project_based(graph: GraphX, mu: np.ndarray) -> np.ndarray:
    out = np.array(mu, dtype=float)
    out[graph.basepoint] = 0.0
    return out


def cov_deriv(graph: GraphX, group: str, omega: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """(d_w mu)(e) = mu(head) - mu(tail) + [w(e), (mu(head)+mu(tail))/2]."""
    omega = _check_shape(graph, group, omega, "edge")
    mu = _check_shape(graph, group, mu, "vertex")
    mu_h, mu_t = mu[graph.heads], mu[graph.tails]
    return mu_h - mu_t + alg_bracket(group, omega, 0.5 * (mu_h + mu_t))


def green_blocks(graph: GraphX, group: str) -> list:
    """The based vertices in the blocks of the Green factor.

    A block is a run of consecutive breadth-first levels, merged until it holds
    at least _MIN_BLOCK unknowns (the last block may hold fewer), with its
    vertices in index order.  Raises ConfigError, before any block is
    allocated, when the factor over these blocks would take more than
    MAX_FACTOR_BYTES.
    """
    g = alg_dim(group)
    blocks, run, count = [], [], 0
    for level in graph.levels[1:]:
        run.append(level)
        count += g * len(level)
        if count >= _MIN_BLOCK:
            blocks.append(np.sort(np.concatenate(run)))
            run, count = [], 0
    if run:
        blocks.append(np.sort(np.concatenate(run)))
    sizes = [g * len(b) for b in blocks]
    # S_k, C_k, inv(C_k) and the W_k update, each at most b x b for the largest b
    nbytes = 8 * (sum(b * b for b in sizes) + sum(b * c for b, c in zip(sizes, sizes[1:]))
                  + 4 * max(sizes, default=0) ** 2)
    if nbytes > MAX_FACTOR_BYTES:
        raise ConfigError(f"Green factor of {nbytes / 2**20:.0f} MiB exceeds the limit "
                          f"of {MAX_FACTOR_BYTES / 2**20:.0f} MiB")
    return blocks


def _laplacian_blocks(graph: GraphX, group: str, omega: np.ndarray,
                      blocks: list) -> tuple:
    """d_w* d_w over the blocks: the diagonal blocks D_k and the coupling blocks
    E_k (rows in block k+1, columns in block k), summed from per-edge blocks.

    (d_w mu)(e) = Ah mu(head) + At mu(tail) with Ah = I + B_e/2, At = -I + B_e/2
    and B_e the matrix of x -> [w(e), x], so edge e adds Ah^T Ah at (head, head),
    At^T At at (tail, tail), Ah^T At at (head, tail) and At^T Ah at (tail, head).
    Ends at the basepoint drop out, and so does the coupling above the
    diagonal, the transpose of the one below.  All blocks share one buffer,
    filled by a single scatter.
    """
    g = alg_dim(group)
    sizes = np.array([g * len(b) for b in blocks])
    blk = np.full(graph.n_vertices, -1)
    pos = np.zeros(graph.n_vertices, dtype=np.intp)
    for k, b in enumerate(blocks):
        blk[b] = k
        pos[b] = np.arange(len(b))
    # buffer layout: D_0 .. D_{K-1}, then E_0 .. E_{K-2}, each row-major
    d_off = np.concatenate(([0], np.cumsum(sizes * sizes)))
    e_off = d_off[-1] + np.concatenate(([0], np.cumsum(sizes[1:] * sizes[:-1])))
    eye = np.eye(g)
    # column j of B_e is [w(e), e_j]
    B = alg_bracket(group, omega[:, None, :], eye).transpose(0, 2, 1)
    ends = ((graph.heads, eye + 0.5 * B), (graph.tails, -eye + 0.5 * B))
    comp = np.arange(g)
    index, value = [], []
    for rows, A_row in ends:
        for cols, A_col in ends:
            kr, kc = blk[rows], blk[cols]
            ok = (kc >= 0) & ((kr == kc) | (kr == kc + 1))
            kr, kc = kr[ok], kc[ok]
            # both D_k and E_k have the column block's width, sizes[kc]
            start = np.where(kr == kc, d_off[kc], e_off[kc])
            r0 = (start + g * pos[rows[ok]] * sizes[kc] + g * pos[cols[ok]])[:, None, None]
            index.append((r0 + comp[:, None] * sizes[kc][:, None, None] + comp).ravel())
            value.append((A_row[ok].transpose(0, 2, 1) @ A_col[ok]).ravel())
    flat = np.bincount(np.concatenate(index), np.concatenate(value), minlength=e_off[-1])
    D = [flat[d_off[k]:d_off[k + 1]].reshape(b, b) for k, b in enumerate(sizes)]
    E = [flat[e_off[k]:e_off[k + 1]].reshape(sizes[k + 1], sizes[k])
         for k in range(len(blocks) - 1)]
    return D, E


def adjoint_cov_deriv(graph: GraphX, group: str, omega: np.ndarray,
                      xi: np.ndarray) -> np.ndarray:
    """Exact inner-product adjoint of cov_deriv, projected to based fields."""
    omega = _check_shape(graph, group, omega, "edge")
    xi = _check_shape(graph, group, xi, "edge")
    # <d mu, xi> = sum_e <mu_h - mu_t, xi_e> + <(mu_h+mu_t)/2, -[w_e, xi_e]>
    br = -0.5 * alg_bracket(group, omega, xi)
    return project_based(graph, _vertex_sums(graph, (xi, -xi), (br, br)))


def _vertex_sums(graph: GraphX, *pairs) -> np.ndarray:
    """Add each (at_heads, at_tails) pair of edge fields into the vertex rows:
    row e of at_heads into edge e's head, row e of at_tails into its tail.
    One np.bincount per component over graph.ends, once per pair: each vertex
    sums its values in the order given from 0.0, as np.add.at, term after
    term, would."""
    values = np.concatenate([x for pair in pairs for x in pair])
    index = np.concatenate([graph.ends] * len(pairs))
    out = np.empty((graph.n_vertices, values.shape[1]))
    for c in range(values.shape[1]):
        out[:, c] = np.bincount(index, values[:, c], minlength=graph.n_vertices)
    return out


class GreenOperator:
    """Inverse of the based covariant Laplacian d_w* d_w for one omega.

    d_w* d_w is block tridiagonal over green_blocks.  It is factored once by
    block Cholesky: S_k = D_k - W_{k-1} W_{k-1}^T, C_k = chol(S_k), and the
    factor keeps C_k^{-1} and W_k = E_k C_k^{-T}, written over D_k and E_k.
    Each solve is a forward and a back sweep of matrix-vector products,
    checked by its residual against adjoint_cov_deriv of cov_deriv."""

    def __init__(self, graph: GraphX, group: str, omega: np.ndarray):
        self.graph = graph
        self.group = group
        self.omega = _check_shape(graph, group, omega, "edge")
        blocks = green_blocks(graph, group)
        self._order = np.concatenate(blocks)
        bounds = np.cumsum([0] + [alg_dim(group) * len(b) for b in blocks])
        self._slices = [slice(s, e) for s, e in zip(bounds[:-1], bounds[1:])]
        # each D_k is overwritten by C_k^{-1} and each E_k by W_k: a second
        # buffer, with the first one freed, fragments the heap and raises peak RSS
        self._cinv, self._W = _laplacian_blocks(graph, group, self.omega, blocks)
        for k, block in enumerate(self._cinv):
            S = block - self._W[k - 1] @ self._W[k - 1].T if k else block
            try:
                C = np.linalg.cholesky(S)
            except np.linalg.LinAlgError:
                raise SingularOperatorError(
                    f"based Laplacian not SPD: block {k} of {len(blocks)} has smallest "
                    f"Schur-complement eigenvalue {np.linalg.eigvalsh(S)[0]:.3e}") from None
            block[...] = np.linalg.inv(C)
            if k < len(self._W):
                self._W[k][...] = self._W[k] @ block.T

    def solve(self, v: np.ndarray) -> np.ndarray:
        """u with (d* d) u = v on based fields; relative residual checked."""
        v = _check_shape(self.graph, self.group, v, "vertex")
        rhs = v[self._order].ravel()
        y, x = np.empty_like(rhs), np.empty_like(rhs)
        rs, ys, xs = ([a[s] for s in self._slices] for a in (rhs, y, x))
        cinv, W = self._cinv, self._W
        np.matmul(cinv[0], rs[0], out=ys[0])
        for c, w, r, y_prev, y_k in zip(cinv[1:], W, rs[1:], ys, ys[1:]):
            np.matmul(c, r - w @ y_prev, out=y_k)
        np.matmul(cinv[-1].T, ys[-1], out=xs[-1])
        for c, w, y_k, x_next, x_k in zip(cinv[-2::-1], W[::-1], ys[-2::-1],
                                          xs[::-1], xs[-2::-1]):
            np.matmul(c.T, y_k - w.T @ x_next, out=x_k)
        out = np.zeros((self.graph.n_vertices, alg_dim(self.group)))
        out[self._order] = x.reshape(len(self._order), -1)
        graph, group, omega = self.graph, self.group, self.omega
        lx = adjoint_cov_deriv(graph, group, omega, cov_deriv(graph, group, omega, out))
        res = np.linalg.norm(lx[self._order].ravel() - rhs)
        if res > SOLVE_TOLERANCE * max(np.linalg.norm(rhs), 1.0):
            raise SingularOperatorError(f"Green solve residual {res:.3e} above tolerance")
        return out


def connection_form(gop: GreenOperator, xi: np.ndarray) -> np.ndarray:
    """G_w d_w* xi: the universal connection at gop.omega applied to a tangent
    edge field."""
    return gop.solve(adjoint_cov_deriv(gop.graph, gop.group, gop.omega, xi))


def horizontal_project(gop: GreenOperator, xi: np.ndarray) -> np.ndarray:
    """xi - d_w (G_w d_w* xi): orthogonal projection onto ker d_w* at gop.omega."""
    graph, group = gop.graph, gop.group
    mu = connection_form(gop, xi)
    return _check_shape(graph, group, xi, "edge") - cov_deriv(graph, group, gop.omega, mu)


def ad_star(graph: GraphX, group: str, xi1: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Adjoint of mu -> [xi1, mu_avg]; closed form -1/2 sum_{e at v} [xi1(e), eta(e)],
    basepoint row zeroed.  Antisymmetric in (xi1, eta)."""
    xi1 = _check_shape(graph, group, xi1, "edge")
    eta = _check_shape(graph, group, eta, "edge")
    br = -0.5 * alg_bracket(group, xi1, eta)
    return project_based(graph, _vertex_sums(graph, (br, br)))


# largest |d_w* xi| of an edge field taken as horizontal
_HORIZONTAL_TOLERANCE = 1e-8


def _require_horizontal(gop: GreenOperator, xi: np.ndarray) -> None:
    res = np.max(np.abs(adjoint_cov_deriv(gop.graph, gop.group, gop.omega, xi)))
    if res > _HORIZONTAL_TOLERANCE:
        raise ConfigError(f"edge field is not horizontal: |d* xi| = {res:.3e} > "
                          f"{_HORIZONTAL_TOLERANCE}")


def universal_curvature_FA(gop: GreenOperator, xi1: np.ndarray,
                           xi2: np.ndarray) -> np.ndarray:
    """G_w ad*_{xi1}(xi2) on horizontal edge fields at gop.omega; identically
    zero for u(1)."""
    _require_horizontal(gop, xi1)
    _require_horizontal(gop, xi2)
    if gop.group == U1:
        return np.zeros((gop.graph.n_vertices, 1))
    return gop.solve(ad_star(gop.graph, gop.group, xi1, xi2))


def run_property_suite(graph: GraphX, group: str, seed: int = 0) -> list:
    """Residuals for the full property battery on seeded random data.

    Returns a Check per property, each judged against its tolerance;
    deterministic per seed.
    """
    rng = np.random.default_rng(seed)
    g = alg_dim(group)
    omega = rng.standard_normal((graph.n_edges, g))
    gop = GreenOperator(graph, group, omega)
    mu = project_based(graph, rng.standard_normal((graph.n_vertices, g)))
    xi = rng.standard_normal((graph.n_edges, g))
    eta = rng.standard_normal((graph.n_edges, g))

    results = []

    def check(name, residual, tol):
        residual = float(residual)
        results.append(Check(name, residual, tol, residual <= tol))

    # exact matrix adjoint
    lhs = np.sum(cov_deriv(graph, group, omega, mu) * xi)
    rhs = np.sum(mu * adjoint_cov_deriv(graph, group, omega, xi))
    check("adjoint_identity", abs(lhs - rhs), 1e-12)

    # Green inverse
    v = adjoint_cov_deriv(graph, group, omega, cov_deriv(graph, group, omega, mu))
    check("green_inverse", np.max(np.abs(gop.solve(v) - mu)), 1e-9)

    # connection form reproduces vertical generators
    vert = cov_deriv(graph, group, omega, mu)
    check("vertical_reproduction", np.max(np.abs(connection_form(gop, vert) - mu)), 1e-9)

    # horizontal projector: image in ker d*, idempotent, norm non-increasing
    ph = horizontal_project(gop, xi)
    check("projector_horizontal",
          np.max(np.abs(adjoint_cov_deriv(graph, group, omega, ph))), 1e-10)
    ph2 = horizontal_project(gop, ph)
    check("projector_idempotent", np.max(np.abs(ph2 - ph)), 1e-10)
    check("projector_contraction",
          max(np.linalg.norm(ph) - np.linalg.norm(xi), 0.0), 1e-12)

    # ad* antisymmetry and defining pairing
    check("ad_star_antisymmetry",
          np.max(np.abs(ad_star(graph, group, xi, eta) + ad_star(graph, group, eta, xi))),
          1e-12)
    pair_lhs = np.sum(ad_star(graph, group, xi, eta) * mu)
    bracket_term = alg_bracket(group, xi, 0.5 * (mu[graph.heads] + mu[graph.tails]))
    pair_rhs = np.sum(eta * bracket_term)
    check("ad_star_pairing", abs(pair_lhs - pair_rhs), 1e-12)

    # curvature checks on horizontal fields; ph is the horizontal part of xi
    h1, h2 = ph, horizontal_project(gop, eta)
    f12 = universal_curvature_FA(gop, h1, h2)
    if group == U1:
        check("abelian_FA_vanishing", np.max(np.abs(f12)), 0.0)
        f21 = f12  # the zero field of universal_curvature_FA(h2, h1)
    else:
        # universal_curvature_FA(gop, h2, h1), whose fields the call above checked
        f21 = gop.solve(ad_star(graph, group, h2, h1))
        check("FA_antisymmetry", np.max(np.abs(f12 + f21)), 1e-10)

    # a fiber point (vertex, group element) and two tangents (edge, magnitude)
    vertex = 1 % graph.n_vertices
    if group == U1:
        element = np.exp(0.3j)
    else:
        element = group_exp(SU2, su2_from_coords(np.array([0.2, -0.1, 0.4])))
    z1, z2 = (0, 1.0), (1 % graph.n_edges, -0.5)
    full12 = _curvature_full(gop, vertex, element, f12, h1, z1, h2, z2)
    full21 = _curvature_full(gop, vertex, element, f21, h2, z2, h1, z1)
    check("full_curvature_antisymmetry", np.max(np.abs(full12 + full21)), 1e-10)

    return results


def _ad_inverse(group: str, element, value: np.ndarray) -> np.ndarray:
    """Ad_{U^{-1}} on algebra coordinates."""
    if group == U1:
        return value
    U = np.asarray(element, dtype=complex)
    X = su2_from_coords(value)
    return su2_coords(np.conj(U.T) @ X @ U)


def _omega_plaquette_curvature(graph: GraphX, group: str, omega: np.ndarray, element,
                               z1: tuple, z2: tuple) -> np.ndarray:
    """F_w(z1, z2) at a fiber point over the group element `element`, from the
    plaquette containing the two tangents' edges; z1 and z2 are (edge,
    magnitude).  Identically zero on graphs without faces (rings)."""
    (e1, m1), (e2, m2) = z1, z2
    if not graph.plaquettes:
        return np.zeros(alg_dim(group))
    for face in graph.plaquettes:
        if e1 in face and e2 in face:
            break
    else:
        return np.zeros(alg_dim(group))
    # forward-difference curl + bracket on the face (x-like edges bottom/top,
    # y-like edges left/right, all oriented positively)
    e_b, e_r, e_t, e_l = face[0], face[1], face[2], face[3]
    curl = (omega[e_r] - omega[e_l]) - (omega[e_t] - omega[e_b])
    curl = curl + alg_bracket(group, omega[e_b], omega[e_l])
    x_like, y_like = (e_b, e_t), (e_l, e_r)
    if e1 in x_like and e2 in y_like:
        sign = 1.0
    elif e1 in y_like and e2 in x_like:
        sign = -1.0
    else:
        return np.zeros(alg_dim(group))
    val = sign * m1 * m2 * curl
    return _ad_inverse(group, element, val)


def _curvature_full(gop: GreenOperator, vertex: int, element, fa: np.ndarray,
                    xi1: np.ndarray, z1: tuple, xi2: np.ndarray, z2: tuple) -> np.ndarray:
    """Total universal curvature at the fiber point (vertex, element) on two
    vectors, each an edge field xi and a horizontal fiber tangent z = (edge,
    magnitude): G_w ad*_{xi1}(xi2) there, plus F_w(z1, z2), plus the mixed
    term (xi1(z2) - xi2(z1)) / 2, where xi(z) is xi's value at z's edge
    times z's magnitude, conjugated to the fiber point.  fa is the first
    term's vertex field, universal_curvature_FA(gop, xi1, xi2), which the
    caller already holds.  A fiber tangent has no vertical part, so the
    bracket of vertical parts in that term is zero and left out."""
    graph, group = gop.graph, gop.group
    xi1 = _check_shape(graph, group, xi1, "edge")
    xi2 = _check_shape(graph, group, xi2, "edge")
    (e1, m1), (e2, m2) = z1, z2
    term1 = _ad_inverse(group, element, fa[vertex])
    term2 = _omega_plaquette_curvature(graph, group, gop.omega, element, z1, z2)
    term3 = 0.5 * (_ad_inverse(group, element, m2 * xi1[e2])
                   - _ad_inverse(group, element, m1 * xi2[e1]))
    return term1 + term2 + term3
