"""Aggregation of equation blocks into the global sparse system, Schur-based
Cartesian stiffness extraction, loaded solves and model diagnostics.

Unknowns are ordered as all node wrenches followed by all node deflections
(6 columns each). Rows follow the model catalogue: links, platforms,
connections, supports, loads. Before factorization each column is scaled
by `GlobalSystem.col_scale`: moment-wrench and translation-deflection ones
by a link length, deflection ones over a link stiffness in newtons. Every
row is then homogeneous in its units, so the row-equilibrated system does
not depend on units. Results are reported in physical units.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Hashable, Mapping

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from . import boundary as _boundary
from . import elements as _elements
from . import joints as _joints
from .core import Wrench, _as_vector
from .equations import EquationBlock, layout
from .errors import ModelError
from .model import Model, PlatformSpec, SupportSpec

# LU pivot ratio below which a block counts as singular and is bordered; also
# the null-space cutoff of the border block (rows are equilibrated to 1).
PIVOT_RTOL = 1e-10
# Diagonal shift that locates the singular rows and columns of a block whose
# LU met an exactly zero pivot; far below PIVOT_RTOL.
PIVOT_SHIFT = 1e-13
# Seed of the random right-hand sides and borders of the bordered solve.
BORDER_SEED = 0
# Share of a mechanism below which a node is not named as taking part in it.
MECHANISM_SHARE = 1e-6
# Relative tolerance for the Cartesian stiffness symmetry gate.
KC_SYM_RTOL = 1e-8
# Relative singular-value cutoff when classifying Kc mechanisms.
KC_RANK_RTOL = 1e-9
# Normwise backward error accepted from a solve.
RESIDUAL_RTOL = 1e-9


def _emit_blocks(model: Model) -> list:
    """All equation blocks of a model, in the canonical row order."""
    blocks: list[EquationBlock] = []
    P = model.positions
    for link in model.flexible_links:
        i, j = link.nodes
        blocks.append(_elements.flexible_link_equations(link, P[j] - P[i]))
    for i, j in model.rigid_links:
        blocks.append(_elements.rigid_link_equations(P[j] - P[i], (i, j)))
    for platform in model.platforms:
        blocks.append(_platform_block(model, platform))
    for spec in model.connections:
        blocks.append(_connection_block(spec))
    for support in model.supports.values():
        blocks.append(_support_block(support))
    for end, incident in model.load_points.items():
        blocks.append(_boundary.external_load_equations(incident, end))
    return blocks


def _platform_block(model: Model, platform: PlatformSpec) -> EquationBlock:
    offsets = [model.positions[platform.end] - model.positions[c] for c in platform.clamps]
    if platform.kind == "rigid":
        return _elements.rigid_platform_equations(zip(platform.clamps, offsets), platform.end)
    return _elements.flexible_platform_equations(zip(platform.stiffnesses, offsets), platform.end)


def _connection_block(spec: _joints.JointSpec) -> EquationBlock:
    label = "junction" if spec.kind == "junction" else "joint"
    source = f"{label}<{','.join(map(str, spec.nodes))}>"
    return _joints.connection_equations(spec.carrier, spec.attachments, source)


def _support_block(support: SupportSpec) -> EquationBlock:
    return _boundary.support_equations(support.node, support.basis or _boundary.CLAMP,
                                       support.stiffness)


@dataclass(eq=False)
class GlobalSystem:
    """Assembled sparse block system over stacked wrench and deflection unknowns.

    Queries keep one analysis (partition and factorization) per end node, so
    the matrix must not change once the system has been queried.
    """

    nodes: list
    positions: dict
    matrix: scipy.sparse.csr_matrix
    rhs: np.ndarray
    load_rows: dict                  # load node -> ndarray of 6 row indices
    row_meta: list                   # (source, kind) per row
    support_nodes: tuple
    end_effector: Hashable | None
    col_scale: np.ndarray            # factor per column of the factored system
    connectivity: dict               # node -> number of blocks that touch it

    def __post_init__(self):
        self._index = {node: k for k, node in enumerate(self.nodes)}
        self._analyses: dict = {}

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def shape(self) -> tuple:
        return self.matrix.shape

    def wrench_cols(self, node) -> slice:
        k = self._index[node]
        return slice(6 * k, 6 * k + 6)

    def deflection_cols(self, node) -> slice:
        k = self._index[node]
        base = 6 * self.n_nodes
        return slice(base + 6 * k, base + 6 * k + 6)

    def block_row_counts(self) -> dict:
        """Rows per class: link, compat, wrench, mixed, load."""
        counts = {"link": 0, "compat": 0, "wrench": 0, "mixed": 0, "load": 0}
        for _, kind in self.row_meta:
            counts[kind] += 1
        return counts

    def rows_by_source(self) -> dict:
        out: dict = {}
        for source, _ in self.row_meta:
            out[source] = out.get(source, 0) + 1
        return out


def _link_length(model: Model) -> float:
    """Median length of the model's links, platform links included; 1 with none."""
    pairs = [link.nodes for link in model.flexible_links] + model.rigid_links
    pairs += [link.nodes for p in model.platforms for link in p.stiffnesses or ()]
    d = np.array([model.positions[j] - model.positions[i] for i, j in pairs]).reshape(-1, 3)
    lengths = np.linalg.norm(d, axis=1)[np.any(d, axis=1)]
    return float(np.median(lengths)) if lengths.size else 1.0


def _build_system(model: Model, blocks: list) -> GlobalSystem:
    """Aggregate the blocks, laid out in one pass over stacked arrays."""
    nodes = list(model.positions.keys())
    n = len(nodes)
    col_of = {(kind, node): base + 6 * k for kind, base in (("W", 0), ("t", 6 * n))
              for k, node in enumerate(nodes)}
    try:
        rows, cols, values, entry_block, entry_col, kinds = layout(blocks, col_of)
    except KeyError as exc:
        var = exc.args[0]
        source = next(b.source for b in blocks if var in b.variables)
        raise ModelError(f"{source}: unknown node id {var[1]!r}") from None

    block_rows = np.array([b.rows for b in blocks], dtype=np.intp)
    row_base = np.cumsum(block_rows) - block_rows
    n_rows = int(block_rows.sum())

    # Moment and translation columns times a length; deflection columns over
    # the largest link entry in newtons (link moment rows over the length),
    # since joint springs may be orders of magnitude away by design.
    ell = _link_length(model)
    col_scale = np.ones((2, n, 2, 3))            # (W or t, node, first or last three)
    col_scale[0, :, 1] = col_scale[1, :, 0] = ell
    col_scale = col_scale.reshape(-1)
    deflection = cols >= 6 * n
    peak = np.abs(values * col_scale[cols])[deflection]
    d_rows = rows[deflection]
    in_link = np.repeat(np.array([b.category == "link" for b in blocks], dtype=bool),
                        block_rows)[d_rows]
    local_row = np.arange(n_rows) - np.repeat(row_base, block_rows)
    moment_row = local_row[d_rows][in_link] % 6 >= 3
    link_peak = np.where(moment_row, peak[in_link] / ell, peak[in_link]).max(initial=0.0)
    col_scale[6 * n:] /= max(float(link_peak) or float(peak.max(initial=0.0)), 1.0)

    # Blocks touching each node, each block counted once per node.
    touched = np.unique(entry_block * n + entry_col // 6 % n)
    counts = np.bincount(touched % n, minlength=n)

    keep = values != 0.0
    matrix = scipy.sparse.coo_matrix(
        (values[keep], (rows[keep], cols[keep])), shape=(n_rows, 12 * n)
    ).tocsr()
    load_rows = {b.load_node: np.arange(base, base + b.rows)
                 for b, base in zip(blocks, row_base.tolist()) if b.category == "load"}
    return GlobalSystem(
        nodes=nodes,
        positions=dict(model.positions),
        matrix=matrix,
        rhs=np.concatenate([b.rhs for b in blocks] or [np.zeros(0)]),
        load_rows=load_rows,
        row_meta=list(zip((b.source for b in blocks for _ in range(b.rows)), kinds)),
        support_nodes=tuple(model.supports.keys()),
        end_effector=model.end_effector,
        col_scale=col_scale,
        connectivity=dict(zip(nodes, counts.tolist())),
    )


def assemble(model: Model) -> GlobalSystem:
    """Validate the model structurally and aggregate its equation blocks.

    Raises ModelError for dangling nodes, a row/column mismatch (the error
    carries a per-source row breakdown to make miscounts findable), a node
    that two connections claim, a node that only one block touches (a
    free link end: its wrench rows are missing even where the count closes)
    or a support on a node that no link or platform touches (its wrench
    would be the connection's effort, not the reaction).
    """
    if not model.positions:
        raise ModelError("model has no nodes")
    blocks = _emit_blocks(model)
    system = _build_system(model, blocks)
    dangling = [node for node, count in system.connectivity.items() if count == 0]
    if dangling:
        raise ModelError(f"nodes with no equations: {dangling!r}")
    rows, cols = system.shape
    if rows != cols:
        breakdown = ", ".join(f"{src}: {cnt}" for src, cnt in system.rows_by_source().items())
        raise ModelError(
            f"system is not square: {rows} equations for {cols} unknowns ({breakdown})")
    first = len(model.flexible_links) + len(model.rigid_links) + len(model.platforms)
    owner: dict = {}
    for spec, block in zip(model.connections, blocks[first:]):
        for node in spec.nodes:
            if node in owner:
                raise ModelError(
                    f"node {node!r} belongs to both {owner[node]} and {block.source}; "
                    "join three or more link ends at one point with add_junction")
            owner[node] = block.source
    loose = [node for node, count in system.connectivity.items() if count == 1]
    if loose:
        raise ModelError(f"nodes touched by one block only: {loose!r}; "
                         "give each a connection, a support or a load point")
    link_ends = {var[1] for block in blocks[:first] for _, var, _ in block.entries}
    unlinked = [node for node in model.supports if node not in link_ends]
    if unlinked:
        raise ModelError(f"supports on nodes that no link or platform touches: {unlinked!r}; "
                         "support a link end instead")
    return system


@dataclass(eq=False)
class PartitionedSystem:
    """Global system split around the end-node deflection columns.

    A holds every row except the end load rows, over wrench and internal
    deflection columns; B and D hold the end-node deflection columns; C holds
    the end load rows. `row_perm` and `col_perm` list the original rows and
    columns in that order (A's first), so the split is reversible.
    """

    A: scipy.sparse.csr_matrix
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    b: np.ndarray
    row_perm: np.ndarray
    col_perm: np.ndarray
    end_node: Hashable
    shape: tuple


def _split(system: GlobalSystem, end: Hashable | None, values: np.ndarray) -> PartitionedSystem:
    """Partition the entries `values` of system.matrix (in its CSR order) by
    one row map and one column map that move the end node's load rows and
    deflection columns, each a run of six, last; with no end node A is the
    whole matrix."""
    M = system.matrix
    (rows, cols), k = M.shape, 0 if end is None else 6
    r0 = 0 if end is None else int(system.load_rows[end][0])
    c0 = 0 if end is None else system.deflection_cols(end).start
    row_perm = np.r_[:r0, r0 + k:rows, r0:r0 + k]
    col_perm = np.r_[:c0, c0 + k:cols, c0:c0 + k]
    r = np.argsort(row_perm)[np.repeat(np.arange(rows), np.diff(M.indptr))]
    c = np.argsort(col_perm)[M.indices]
    ra, ca = rows - k, cols - k
    in_a = (r < ra) & (c < ca)
    # The maps keep A's rows and columns in order, so its entries stay in CSR order.
    indptr = np.concatenate([[0], np.cumsum(np.bincount(r[in_a], minlength=ra))])
    A = scipy.sparse.csr_matrix((values[in_a], c[in_a], indptr), shape=(ra, ca))
    right, bottom = np.zeros((rows, k)), np.zeros((k, cols))    # B over D, C beside D
    right[r[c >= ca], c[c >= ca] - ca] = values[c >= ca]
    bottom[r[r >= ra] - ra, c[r >= ra]] = values[r >= ra]
    return PartitionedSystem(A=A, B=right[:ra], C=bottom[:, :ca], D=right[ra:],
                             b=system.rhs[row_perm[:ra]], row_perm=row_perm, col_perm=col_perm,
                             end_node=end, shape=(rows, cols))


def _end_node(system: GlobalSystem, end_node: Hashable | None) -> Hashable:
    end = system.end_effector if end_node is None else end_node
    if end is None:
        raise ModelError("no end node given and the system has no end effector")
    if end not in system.load_rows:
        raise ModelError(f"end node {end!r} has no external load rows")
    return end


def partition(system: GlobalSystem, end_node: Hashable | None = None) -> PartitionedSystem:
    """The system's blocks around an end node, in physical units."""
    return _split(system, _end_node(system, end_node), system.matrix.data)


@dataclass(eq=False)
class SolverDiagnostics:
    a_size: int
    a_rank: int
    pseudo_inverse: bool
    condition_estimate: float
    kc_rank: int = 6
    mechanisms: int = 0
    mechanism_directions: np.ndarray | None = None
    locked: bool = False
    locked_directions: np.ndarray | None = None
    infinite: bool = False

    def as_dict(self) -> dict:
        """Every field, in order, with arrays as nested lists."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in out.items()}


@dataclass(eq=False)
class CartesianStiffness:
    """6x6 end-point stiffness with solver diagnostics."""

    kc: np.ndarray
    diagnostics: SolverDiagnostics


def _lu(M: scipy.sparse.csc_matrix) -> tuple:
    """splu of M and its number of pivots below PIVOT_RTOL; (None, 0) when
    SuperLU breaks down on an exactly zero pivot, and without calling it when
    M has an empty row or column (SuperLU can crash on such a matrix)."""
    n = M.shape[0]
    if not (np.diff(M.indptr).all() and np.bincount(M.indices, minlength=n).all()):
        return None, 0
    try:
        lu = scipy.sparse.linalg.splu(M)
    except RuntimeError:
        return None, 0
    u = np.abs(lu.U.diagonal())
    return lu, int(np.sum(~(u > PIVOT_RTOL * u.max(initial=0.0))))


def _peaks(Y: np.ndarray) -> np.ndarray:
    """Indices of the rows of Y that a column-pivoted QR of Y^T picks first:
    where the directions spanned by Y's columns are largest and distinct."""
    _, order = scipy.linalg.qr(Y.T, mode="r", pivoting=True, check_finite=False)
    return order[:Y.shape[1]]


class _Factorization:
    """Row-equilibrated sparse LU of a square block: the one factorization of
    an `_Analysis`, shared by the stiffness, solve and audit paths. Row
    scaling never changes solutions.

    A block whose LU breaks down or leaves k pivots below PIVOT_RTOL is
    bordered instead (Keller's bordering; T. F. Chan, SIAM J. Numer. Anal.
    21, 1984): M = [A U; V^T 0]. One solve of k random right-hand sides
    through the tiny pivots is a step of inverse iteration towards the null
    vectors of A and A^T; unit borders go where those peak, so M keeps A's
    sparsity. Should M still not factor cleanly, random dense borders take
    their place, k growing until it does. The trailing k x k block T of M^-1
    is singular exactly where A is, and its null vectors map to orthonormal
    bases of null(A) and null(A^T). Solves then return the minimum-norm
    least-squares solution from the same LU.
    """

    def __init__(self, A: scipy.sparse.csr_matrix):
        self.n = A.shape[0]
        row = np.repeat(np.arange(self.n), np.diff(A.indptr))
        row_max = np.zeros(self.n)
        np.maximum.at(row_max, row, np.abs(A.data))
        row_max[row_max == 0.0] = 1.0
        self._row_scale = 1.0 / row_max
        self._A = self._M = scipy.sparse.csr_matrix(
            (A.data * self._row_scale[row], A.indices, A.indptr), shape=A.shape).tocsc()
        self._lu, tiny = _lu(self._A)
        self.pseudo_inverse = self._lu is None or tiny > 0
        self.null_right = self.null_left = np.zeros((self.n, 0))
        if self.pseudo_inverse:
            self._border(tiny)
        self.rank = self.n - self.null_right.shape[1]
        u = np.abs(self._lu.U.diagonal())
        self.condition_estimate = float(u.max() / u.min())

    def _border(self, k: int) -> None:
        A, n, lu = self._A, self.n, self._lu
        if lu is None:   # an exactly zero pivot: a tiny shift exposes it
            lu, k = _lu((A + PIVOT_SHIFT * scipy.sparse.eye(n, format="csc")).tocsc())
        k = max(k, 1)
        rng = np.random.default_rng(BORDER_SEED)
        at_peaks = lu is not None
        while True:
            if at_peaks:
                R = rng.standard_normal((n, k))
                U, V = (scipy.sparse.csc_matrix((np.ones(k), (_peaks(Y), np.arange(k))),
                                                shape=(n, k))
                        for Y in (lu.solve(R, trans="T"), lu.solve(R)))
            else:
                U, V = (scipy.sparse.csc_matrix(np.linalg.qr(rng.standard_normal((n, k)))[0])
                        for _ in range(2))
            M = scipy.sparse.bmat([[A, U], [V.T, None]], format="csc")
            lu, tiny = _lu(M)
            if lu is not None and tiny == 0:
                break
            if not at_peaks:
                if k == n:
                    raise ModelError("the bordered LU of a singular block did not factor")
                k = min(n, k + max(tiny, 1))
            at_peaks = False
        self._lu, self._M = lu, M
        E = np.zeros((n + k, k))
        E[n:] = np.eye(k)
        X, Y = self._refined(E), self._refined(E, trans="T")
        W, s, Zt = np.linalg.svd(X[n:])
        null = s <= PIVOT_RTOL
        self._Q = X[:n]
        self._T_pinv = (Zt[~null].T / s[~null]) @ W[:, ~null].T
        if null.any():
            self.null_right = np.linalg.qr(X[:n] @ Zt[null].T)[0]
            self.null_left = np.linalg.qr(Y[:n] @ W[:, null])[0]

    def _refined(self, R: np.ndarray, trans: str = "N") -> np.ndarray:
        """LU solve with the factored matrix (or its transpose), plus one
        step of iterative refinement."""
        M = self._M if trans == "N" else self._M.T
        X = self._lu.solve(R, trans=trans)
        return X + self._lu.solve(R - M @ X, trans=trans)

    def _scale_rhs(self, B: np.ndarray) -> np.ndarray:
        return B * (self._row_scale[:, None] if B.ndim == 2 else self._row_scale)

    def outside_range(self, B: np.ndarray) -> np.ndarray:
        """L^T B over the row-equilibrated block: the part of B that no
        solution reaches (empty when the block is nonsingular)."""
        return self.null_left.T @ self._scale_rhs(B)

    def solve(self, B: np.ndarray) -> np.ndarray:
        """Minimum-norm least-squares solution of A X = B."""
        Bs = self._scale_rhs(B)
        if not self.pseudo_inverse:
            return self._refined(Bs)
        L, N, n = self.null_left, self.null_right, self.n
        Bs = Bs - L @ (L.T @ Bs)
        pad = np.zeros((self._M.shape[0] - n,) + Bs.shape[1:])
        Y = self._refined(np.concatenate([Bs, pad]))
        # Borders beyond the nullity leave a component of the range on U;
        # the non-null part of T takes it back.
        X = Y[:n] - self._Q @ (self._T_pinv @ Y[n:])
        return X - N @ (N.T @ X)


# Share of a load outside the system's range above which it is not resisted.
UNRESISTED_RTOL = 1e-6


class _Analysis:
    """A system partitioned around one end node, with one factorization of
    its internal block that serves Kc and every loaded solve.

    In scaled units, and with the end node's load rows and deflection
    columns last, the system reads [A B; C D] [z; t] = [b_o; b_e]. With
    Q = A^+ B, S = D - C Q is the Schur complement (Kc = S / end col_scale).
    Every z = A^+ (b_o - B t) + N c solves the held rows when their
    right-hand side lies in range(A), where N and L are the null bases of A
    and A^T (empty when A is regular). That leaves a (6 + d) system in
    (t, c): [S  C N; L^T B  0] [t; c] = [b_e - C A^+ b_o; L^T b_o]. A load
    that this small system cannot meet is not resisted. With no end node,
    A is the whole matrix and the small system is L^T b_o alone.

    By the rank identity of Marsaglia and Styan (Linear Multilinear Algebra
    2, 1974), rank [A B; C D] = rank(A) + rank(K) for that small matrix K.
    K's rank uses the cutoff of its pseudo-inverse, so a direction the rank
    misses is exactly one in which a load is not resisted.
    """

    def __init__(self, system: GlobalSystem, end: Hashable | None):
        M = system.matrix
        values = M.data * system.col_scale[M.indices]
        self._M = scipy.sparse.csr_matrix((values, M.indices, M.indptr), shape=M.shape)
        self.parts = p = _split(system, end, values)
        self.fac = fac = _Factorization(p.A)
        self.Q = fac.solve(p.B)
        self.S = p.D - p.C @ self.Q
        self.LtB = fac.outside_range(p.B)
        N = fac.null_right
        self._K = np.block([[self.S, p.C @ N],
                            [self.LtB, np.zeros((N.shape[1], N.shape[1]))]])
        u, s, vt = np.linalg.svd(self._K, full_matrices=False)
        large = s > PIVOT_RTOL * s.max(initial=0.0)
        self._K_pinv = (vt[large].T / s[large]) @ u[:, large].T
        self.rank = fac.rank + int(large.sum())

    def _block_solve(self, b: np.ndarray) -> tuple:
        """Solution of the scaled system by block back-substitution, and the
        residual of the small system with its scale, the largest entry of
        the row-equilibrated right-hand side."""
        p, fac = self.parts, self.fac
        b_o, b_e = b[p.row_perm[:fac.n]], b[p.row_perm[fac.n:]]
        y = fac.solve(b_o)
        rhs = np.concatenate([b_e - p.C @ y, fac.outside_range(b_o)])
        tc = self._K_pinv @ rhs
        t, c = tc[:b_e.size], tc[b_e.size:]
        x = np.empty_like(b)
        x[p.col_perm] = np.concatenate([y - self.Q @ t + fac.null_right @ c, t])
        scale = max(float(np.max(np.abs(fac._scale_rhs(b_o)), initial=0.0)),
                    float(np.max(np.abs(b_e), initial=0.0)))
        return x, self._K @ tc - rhs, scale

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Scaled solution of the system with right-hand side `b`, refined
        once on the scaled matrix; ModelError when the load is not resisted."""
        x, outside, scale = self._block_solve(b)
        share = float(np.max(np.abs(outside), initial=0.0)) / max(scale, 1e-300)
        if share > UNRESISTED_RTOL:
            raise ModelError(
                "load is not resisted by the structure (unresisted direction: "
                f"{share:.3e} of the load lies outside the system's range)")
        # Exact equilibrium rows leave one plain refinement step enough.
        return x + self._block_solve(b - self._M @ x)[0]


def _analysis(system: GlobalSystem, end: Hashable | None) -> _Analysis:
    """The system's analysis around `end`, built on first use."""
    rows, cols = system.shape
    if rows != cols:
        raise ModelError(f"system is not square ({rows} rows, {cols} columns)")
    if end not in system._analyses:
        system._analyses[end] = _Analysis(system, end)
    return system._analyses[end]


def cartesian_stiffness(system: GlobalSystem,
                        end_node: Hashable | None = None) -> CartesianStiffness:
    """End-point stiffness by eliminating all internal unknowns.

    Uses sparse LU on the internal block; if that block is singular a
    bordered LU gives its pseudo-inverse and the diagnostics say so.
    Directions in which the end node is rigidly tied to ground come back as
    an infinite-stiffness sentinel rather than numeric overflow.
    """
    end = _end_node(system, end_node)
    analysis = _analysis(system, end)
    fac = analysis.fac
    scale = system.col_scale[system.deflection_cols(end)]
    kc = analysis.S / scale

    diag = SolverDiagnostics(
        a_size=fac.n,
        a_rank=fac.rank,
        pseudo_inverse=fac.pseudo_inverse,
        condition_estimate=fac.condition_estimate,
    )

    if fac.rank < fac.n:
        # End-point motions whose forcing lies outside range(A) are held by
        # rigid constraints: those directions are locked.
        lock_scale = max(float(np.max(np.abs(fac._scale_rhs(analysis.parts.B) / scale))), 1e-300)
        _, s, vt = np.linalg.svd(analysis.LtB / scale, full_matrices=False)
        locked = _signed(vt[s > 1e-8 * lock_scale])
        if locked.shape[0] > 0:
            diag.locked, diag.locked_directions = True, locked
        if locked.shape[0] == 6:
            diag.infinite = True
            return CartesianStiffness(kc=np.full((6, 6), np.inf), diagnostics=diag)

    # G Kc G with G = diag(1, 1, 1, 1/l, 1/l, 1/l), up to a factor: one unit.
    g = scale[:, None] * kc * scale
    norm = np.linalg.norm(g)
    asym = np.linalg.norm(g - g.T)
    if norm > 0.0 and not diag.locked and asym > KC_SYM_RTOL * norm:
        raise ModelError(
            f"Cartesian stiffness asymmetry {asym / norm:.3e} exceeds the gate; "
            "the model is inconsistent")
    kc = 0.5 * (kc + kc.T)

    _, s, vt = np.linalg.svd(kc)
    s_max = float(s[0]) if s.size else 0.0
    rank = int(np.sum(s > KC_RANK_RTOL * s_max)) if s_max > 0.0 else 0
    diag.kc_rank = rank
    diag.mechanisms = 6 - rank
    if rank < 6:
        diag.mechanism_directions = _signed(vt[rank:])
    return CartesianStiffness(kc=kc, diagnostics=diag)


def _signed(rows: np.ndarray) -> np.ndarray:
    """Unit rows from an SVD, each flipped so that its largest-magnitude
    component is positive: the same direction then reads the same."""
    peak = rows[np.arange(rows.shape[0]), np.argmax(np.abs(rows), axis=1)]
    return rows * np.copysign(1.0, peak)[:, None]


@dataclass(eq=False)
class State:
    """Full solved configuration: per-node deflections and wrenches."""

    system: GlobalSystem
    deflections: dict
    wrenches: dict
    applied_loads: dict
    residual: float

    def deflection_at(self, node) -> np.ndarray:
        return self.deflections[node]

    def wrench_at(self, node) -> np.ndarray:
        return self.wrenches[node]

    def position_of(self, node) -> np.ndarray:
        return self.system.positions[node]

    @property
    def support_nodes(self) -> tuple:
        return self.system.support_nodes

    @property
    def end_deflection(self) -> np.ndarray | None:
        end = self.system.end_effector
        return None if end is None else self.deflections[end]


def _normalize_loads(system: GlobalSystem, loads) -> dict:
    if loads is None:
        return {}
    if isinstance(loads, Wrench):
        loads = loads.array
    if isinstance(loads, Mapping):
        items = loads.items()
    else:
        if system.end_effector is None:
            raise ModelError("a bare wrench needs an end effector to apply to")
        items = [(system.end_effector, loads)]
    out = {}
    for node, w in items:
        if node not in system.load_rows:
            raise ModelError(f"node {node!r} has no load rows; declare a load point for it")
        w = w.array if isinstance(w, Wrench) else _as_vector(w, 6, f"load at {node!r}")
        out[node] = w
    return out


def solve_loaded(system: GlobalSystem, loads=None) -> State:
    """Solve the assembled system under the given external wrenches.

    `loads` may be a single wrench (applied at the end effector) or a mapping
    from load-point nodes to wrenches; the returned state's normwise backward
    error, ||Mx - b|| / (||M|| ||x|| + ||b||) in the infinity norm, is at most
    RESIDUAL_RTOL and is reported as `residual`.
    """
    applied = _normalize_loads(system, loads)
    b = system.rhs.copy()
    for node, w in applied.items():
        b[system.load_rows[node]] += w

    x = _analysis(system, system.end_effector).solve(b) * system.col_scale
    n = 6 * system.n_nodes

    # Normwise backward error (Rigal-Gaches): the smallest relative change to
    # M and b that x solves exactly, so the gate does not grow with the size
    # of the stiffness terms or of the model.
    M = system.matrix
    r = float(np.max(np.abs(M @ x - b)))
    m_norm = float(abs(M).sum(axis=1).max())
    denom = m_norm * float(np.max(np.abs(x))) + float(np.max(np.abs(b)))
    residual = r / denom if denom > 0.0 else 0.0
    if residual > RESIDUAL_RTOL:
        raise ModelError(f"solve backward error {residual:.3e} exceeds tolerance")

    # One small array per node: a kept node result must not hold all of x.
    deflections = {node: t.copy() for node, t in zip(system.nodes, x[n:].reshape(-1, 6))}
    wrenches = {node: w.copy() for node, w in zip(system.nodes, x[:n].reshape(-1, 6))}
    return State(system=system, deflections=deflections, wrenches=wrenches,
                 applied_loads=applied, residual=residual)


@dataclass(eq=False)
class ModelReport:
    """Structural audit of a model: equation accounting, rank, mechanisms."""

    nodes: int
    unknowns: int
    rows: int
    rows_by_source: dict
    rows_by_kind: dict
    square: bool
    rank: int
    mechanisms: int
    redundant: int
    dangling: list
    connectivity: dict
    mechanism_nodes: list            # nodes that move in a mechanism of the held structure
    self_stress: int = 0             # wrench-only null vectors of the held structure

    @property
    def well_posed(self) -> bool:
        return self.square and self.mechanisms == 0 and not self.dangling

    def summary(self) -> str:
        return (f"{self.rows} equations / {self.unknowns} unknowns, "
                f"{self.mechanisms} mechanisms, {self.redundant} redundant constraints")


def _square(system: GlobalSystem) -> GlobalSystem:
    """The system padded to square with zero rows or columns at the end; the
    rank is unchanged."""
    M = system.matrix
    size, pad = max(M.shape), max(M.shape) - M.shape[0]
    indptr = np.concatenate([M.indptr, np.full(pad, M.indptr[-1])])
    matrix = scipy.sparse.csr_matrix((M.data, M.indices, indptr), shape=(size, size))
    return replace(system, matrix=matrix, rhs=np.concatenate([system.rhs, np.zeros(pad)]),
                   col_scale=np.concatenate([system.col_scale, np.ones(size - M.shape[1])]))


def _mechanism_nodes(system: GlobalSystem, null: np.ndarray, cols: np.ndarray) -> list:
    """Nodes whose deflection columns carry more than MECHANISM_SHARE of the
    null space spanned by the orthonormal rows `null` over columns `cols`.
    The diagonal of N N^T, and so the result, does not depend on the basis."""
    weight = np.zeros(system.shape[1])
    weight[cols] = np.sum(null ** 2, axis=1)
    floor = MECHANISM_SHARE * null.shape[1]
    return [node for node in system.nodes if weight[system.deflection_cols(node)].sum() > floor]


def check_model(model: Model) -> ModelReport:
    """Audit a model without requiring it to be solvable.

    The audit reads the same analysis, and so the same factorization, that
    serves Kc and the loaded solve; non-square systems are first padded to
    square with zero rows or columns. The rank of the whole system is the
    analysis's rank (see `_Analysis`). The null space of the internal block
    (the structure with the end effector held; the whole matrix for models
    with no end effector) splits into mechanisms, the rank of its deflection
    part, and states of self-stress, null vectors that move no deflection
    and only leave reactions indeterminate. A direction counts as moving
    when more than MECHANISM_SHARE of its squared norm lies on deflections.
    """
    system = _build_system(model, _emit_blocks(model))
    rows, unknowns = system.shape
    dangling = [node for node, count in system.connectivity.items() if count == 0]

    rank = self_stress = 0
    mechanisms = unknowns
    mechanism_nodes: list = []
    if rows and unknowns:
        analysis = _analysis(_square(system), system.end_effector)
        rank, fac = analysis.rank, analysis.fac
        cols = analysis.parts.col_perm[:fac.n]
        real = cols < unknowns               # padding columns carry no unknown
        null, cols = fac.null_right[real], cols[real]
        moving = np.linalg.svd(null[cols >= 6 * system.n_nodes], compute_uv=False)
        mechanisms = int(np.sum(moving ** 2 > MECHANISM_SHARE))
        self_stress = cols.size - fac.rank - mechanisms
        mechanism_nodes = _mechanism_nodes(system, null, cols)
    return ModelReport(
        nodes=system.n_nodes,
        unknowns=unknowns,
        rows=rows,
        rows_by_source=system.rows_by_source(),
        rows_by_kind=system.block_row_counts(),
        square=(rows == unknowns),
        rank=rank,
        mechanisms=mechanisms,
        redundant=rows - rank,
        dangling=dangling,
        connectivity=system.connectivity,
        mechanism_nodes=mechanism_nodes,
        self_stress=self_stress,
    )
