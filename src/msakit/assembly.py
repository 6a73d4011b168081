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

import collections
from dataclasses import dataclass, field, fields, replace
from itertools import chain
from typing import Hashable, Mapping

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from scipy.sparse.csgraph import maximum_bipartite_matching

from . import boundary as _boundary
from . import elements as _elements
from . import joints as _joints
from .core import Wrench, _as_vector
from .equations import EquationBlock, layout
from .errors import ModelError
from .model import Model

# LU pivot ratio below which a block counts as singular and is bordered; also
# the null-space cutoff of the border block (rows are equilibrated to 1).
PIVOT_RTOL = 1e-10
# Diagonal shift that locates the singular rows and columns of a block whose
# LU met an exactly zero pivot; far below PIVOT_RTOL.
PIVOT_SHIFT = 1e-13
# Seed of the random right-hand sides whose solves place the borders that
# the matching does not.
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
    """All equation blocks of a model, one per family of records that share
    a row layout, each record indexed by its place in the canonical row
    order: links, rigid links, platforms, connections, supports, loads."""
    P, E, B = model.positions, _elements, _boundary

    def offsets(pairs):
        return np.array([P[j] - P[i] for i, j in pairs])

    def platforms(group):
        emit = (E.rigid_platform_equations if group[0].kind == "rigid"
                else E.flexible_platform_equations)
        return emit([list(zip(p.stiffnesses or p.clamps, [P[p.end] - P[c] for c in p.clamps]))
                     for p in group], [p.end for p in group])

    def connections(group):                    # (carrier, attachments, source) records
        return _joints.connection_equations(*zip(*group))

    def attached(record):                      # carrier size, (r, spring or pin) per attachment
        return len(record[0]), tuple((b.r, k is None) for _, b, k in record[1])

    families = (  # records, the layout of a record (p = 6 - r), the family's emitter
        (model.flexible_links, None,
         lambda g: E.flexible_link_equations(g, offsets([link.nodes for link in g]))),
        (model.rigid_links, None, lambda g: E.rigid_link_equations(offsets(g), g)),
        (model.platforms, lambda p: (p.kind, len(p.clamps)), platforms),
        ([(c.carrier, c.attachments, _connection_source(c)) for c in model.connections],
         attached, connections),
        ([((), ((s.node, s.basis or B.CLAMP, s.stiffness),), f"support@{s.node}")
          for s in model.supports.values()], attached, connections),     # the ground as carrier
        (model.load_points, None, B.external_load_equations),
    )
    blocks: list[EquationBlock] = []
    start = 0                                  # catalogue position of the next records
    for records, key, emit in families:
        groups: dict = {}
        for k, record in enumerate(records):
            groups.setdefault(key and key(record), []).append(k)
        for members in groups.values():
            blocks.append(emit([records[k] for k in members]))
            blocks[-1].index = start + np.array(members)
        start += len(records)
    return blocks


def _connection_source(spec: _joints.JointSpec) -> str:
    label = "junction" if spec.kind == "junction" else "joint"
    return f"{label}<{','.join(map(str, spec.nodes))}>"


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
    support_nodes: tuple
    end_effector: Hashable | None
    col_scale: np.ndarray            # factor per column of the factored system
    connectivity: dict               # node -> number of records that touch it
    _rows: list = field(repr=False)  # (sources, first rows, row kinds) per block

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
        return {kind: sum(len(sources) * kinds.count(kind) for sources, _, kinds in self._rows)
                for kind in ("link", "compat", "wrench", "mixed", "load")}

    def rows_by_source(self) -> dict:
        """Rows per source, in the order of its first row; a repeated source adds up."""
        counts: dict = {}
        for _, source, rows in sorted((first, source, len(kinds)) for sources, base, kinds
                                      in self._rows for source, first in zip(sources, base)):
            counts[source] = counts.get(source, 0) + rows   # sorted by first rows, all distinct
        return counts


def _link_length(model: Model) -> float:
    """Median length of the model's links, platform links included; 1 with none."""
    pairs = [link.nodes for link in model.flexible_links] + list(model.rigid_links)
    pairs += [link.nodes for p in model.platforms for link in p.stiffnesses or ()]
    d = np.array([model.positions[j] - model.positions[i] for i, j in pairs]).reshape(-1, 3)
    lengths = np.linalg.norm(d, axis=1)[np.any(d, axis=1)]
    return float(np.median(lengths)) if lengths.size else 1.0


def _build_system(model: Model, blocks: list) -> GlobalSystem:
    """Aggregate the blocks, laid out in one step per family."""
    nodes = list(model.positions.keys())
    n = len(nodes)
    rows, cols, values, bases = layout(blocks, {node: k for k, node in enumerate(nodes)})
    n_rows = sum(len(b.nodes) * b.rows for b in blocks)

    # Moment and translation columns times a length; deflection columns over
    # the largest link entry in newtons (link moment rows over the length),
    # since joint springs may be orders of magnitude away by design.
    ell = _link_length(model)
    scale = np.array([ell, ell, ell, 1.0, 1.0, 1.0])
    rhs, first, peak, link_peak = np.zeros(n_rows), {}, 0.0, 0.0
    for block, base in zip(blocks, bases):
        rhs[(base[:, None] + np.arange(block.rows)).ravel()] = block.rhs.ravel()
        first.update(zip(block.load_nodes or (), base.tolist()))
        for row, kind, _, sub in block.entries:
            if kind == "t":
                value = np.abs(sub) * scale
                peak = max(peak, value.max())
                if block.category == "link":
                    moment = np.arange(row, row + sub.shape[-2])[:, None] % 6 >= 3
                    link_peak = max(link_peak, np.where(moment, value / ell, value).max())
    col_scale = np.ones((2, n, 2, 3))            # (W or t, node, first or last three)
    col_scale[0, :, 1] = col_scale[1, :, 0] = ell
    col_scale = col_scale.reshape(-1)
    col_scale[6 * n:] /= max(float(link_peak or peak), 1.0)

    keep = values != 0.0
    matrix = scipy.sparse.coo_matrix(
        (values[keep], (rows[keep], cols[keep])), shape=(n_rows, 12 * n)
    ).tocsr()
    touched = collections.Counter(chain.from_iterable(chain.from_iterable(b.nodes for b in blocks)))
    return GlobalSystem(
        nodes=nodes,
        positions=dict(model.positions),
        matrix=matrix,
        rhs=rhs,
        load_rows={node: first[node] + np.arange(6) for node in model.load_points},
        support_nodes=tuple(model.supports.keys()),
        end_effector=model.end_effector,
        col_scale=col_scale,
        connectivity={node: touched[node] for node in nodes},   # a record's nodes are distinct
        _rows=[(b.sources, base, b.row_kinds()) for b, base in zip(blocks, bases)],
    )


def _system(model: Model, square: bool = False) -> GlobalSystem:
    """The model's one system, or with `square` that system padded to square
    (see `_square`), kept on the model so that Kc, the loaded solve and the
    audit share their analyses; records are read-only and only ever appended,
    so counts date it."""
    key = (model.end_effector, len(model.positions), len(model.flexible_links),
           len(model.rigid_links), len(model.platforms), len(model.connections),
           len(model.supports), len(model.load_points))
    if model._system is None or model._system[0] != key:
        system = _build_system(model, _emit_blocks(model))
        model._system = (key, system, _square(system))
    return model._system[2 if square else 1]


# A finding that keeps `assemble` from accepting a model, and the message it raises.
Fault = collections.namedtuple("Fault", "kind names message")


def _faults(model: Model, system: GlobalSystem) -> list:
    """A model's structural findings, in the order `assemble` raises them. A
    free link end is loose: its wrench rows are missing even where the count
    closes; a support or load point off the links gets a connection's effort."""
    faults = [] if model.positions else [Fault("empty", (), "model has no nodes")]
    dangling = [node for node, count in system.connectivity.items() if count == 0]
    if dangling:
        faults.append(Fault("dangling", tuple(dangling), f"nodes with no equations: {dangling!r}"))
    rows, cols = system.shape
    if rows != cols:
        breakdown = ", ".join(f"{src}: {cnt}" for src, cnt in system.rows_by_source().items())
        faults.append(Fault("not square", (), f"system is not square: {rows} equations for "
                            f"{cols} unknowns ({breakdown})"))
    owner: dict = {}
    for spec in model.connections:
        source = _connection_source(spec)
        for node in spec.nodes:
            if node in owner:
                faults.append(Fault("shared", (node, owner[node], source),
                                    f"node {node!r} belongs to both {owner[node]} and {source}; "
                                    "join three or more link ends at one point with add_junction"))
            owner.setdefault(node, source)
    loose = [node for node, count in system.connectivity.items() if count == 1]
    if loose:
        faults.append(Fault("loose", tuple(loose), f"nodes touched by one block only: {loose!r}; "
                            "give each a connection, a support or a load point"))
    link_ends = {node for link in model.flexible_links for node in link.nodes}
    link_ends.update(*model.rigid_links, *(p.clamps + (p.end,) for p in model.platforms))
    unlinked = [node for node in (*model.supports, *model.load_points) if node not in link_ends]
    if unlinked:
        faults.append(Fault("unlinked", tuple(unlinked),
                            "supports or load points on nodes that no link or platform touches: "
                            f"{unlinked!r}; support or load a link end instead"))
    return faults


def assemble(model: Model) -> GlobalSystem:
    """The model's one system (see `_system`), once it passes the structural
    gate: ModelError with the message of its first fault (see `_faults`)."""
    system = _system(model)
    if faults := _faults(model, system):
        raise ModelError(faults[0].message)
    return system


@dataclass(eq=False)
class PartitionedSystem:
    """A matrix split by `_split` around an end node's deflection columns.

    A holds every row except the end load rows, over wrench and internal
    deflection columns; B and D hold the end-node deflection columns; C holds
    the end load rows. `row_perm` and `col_perm` list the original rows and
    columns in that order (A's first), so the split is reversible.
    """

    A: scipy.sparse.csr_matrix
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    row_perm: np.ndarray
    col_perm: np.ndarray


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
                             row_perm=row_perm, col_perm=col_perm)


def _end_node(system: GlobalSystem, end_node: Hashable | None) -> Hashable:
    end = system.end_effector if end_node is None else end_node
    if end is None:
        raise ModelError("no end node given and the system has no end effector")
    if end not in system.load_rows:
        raise ModelError(f"end node {end!r} has no external load rows")
    return end


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
    SuperLU breaks down on an exactly zero pivot."""
    try:
        lu = scipy.sparse.linalg.splu(M)
    except RuntimeError:
        return None, 0
    u = np.abs(lu.U.diagonal())
    return lu, int(np.sum(~(u > PIVOT_RTOL * u.max(initial=0.0))))


def _peaks(Y: np.ndarray, taken: np.ndarray) -> np.ndarray:
    """Indices of the rows of Y, outside `taken`, that a column-pivoted QR of
    Y^T picks first: where the directions spanned by Y's columns are largest
    and distinct."""
    free = np.ones(len(Y), dtype=bool)
    free[taken] = False
    free = np.flatnonzero(free)
    _, order = scipy.linalg.qr(Y[free].T, mode="r", pivoting=True, check_finite=False)
    return free[order[:Y.shape[1]]]


def _bordered(A: scipy.sparse.csr_matrix, rows: np.ndarray, cols: np.ndarray):
    """M = [A U; V^T 0] in CSC, with unit borders U at `rows` and V at `cols`;
    A itself when there are none."""
    if not rows.size:
        return A.tocsc()
    n, k, A = A.shape[0], len(rows), A.tocoo()
    return scipy.sparse.csc_matrix((np.r_[A.data, np.ones(2 * k)], (
        np.r_[A.row, rows, n:n + k], np.r_[A.col, n:n + k, cols])), shape=(n + k, n + k))


class _Factorization:
    """Row-equilibrated sparse LU of a square block: the one factorization of
    an `_Analysis`, shared by the stiffness, solve and audit paths. Row
    scaling never changes solutions.

    The block A is bordered (Keller's bordering; T. F. Chan, SIAM J. Numer.
    Anal. 21, 1984) at the rows and columns that a maximum matching of its
    pattern leaves unmatched (Dulmage-Mendelsohn; Pothen and Fan, ACM TOMS
    16, 1990): M = [A U; V^T 0] with unit borders, which is A itself when
    the matching is perfect, is factored. When that LU breaks down or leaves
    pivots below PIVOT_RTOL, A is singular in its numbers too: more borders
    go where solves with M (or M + PIVOT_SHIFT I after a breakdown) through
    the tiny pivots, a step of inverse iteration, peak, and M is factored
    once more. The trailing k x k block T of M^-1 is singular exactly where
    A is; its null vectors map to orthonormal bases of null(A) and null(A^T).
    Solves then return the minimum-norm least-squares solution from the same
    LU.
    """

    def __init__(self, A: scipy.sparse.csr_matrix):
        self.n = n = A.shape[0]
        row = np.repeat(np.arange(n), np.diff(A.indptr))
        row_max = np.zeros(n)
        np.maximum.at(row_max, row, np.abs(A.data))
        row_max[row_max == 0.0] = 1.0
        self._row_scale = 1.0 / row_max
        A = scipy.sparse.csr_matrix((A.data * self._row_scale[row], A.indices, A.indptr), A.shape)
        match = maximum_bipartite_matching(A, perm_type="column")
        matched = np.zeros(n, dtype=bool)
        matched[match[match >= 0]] = True
        rows, cols = np.flatnonzero(match < 0), np.flatnonzero(~matched)
        M = _bordered(A, rows, cols)
        lu, tiny = _lu(M)
        if lu is None or tiny > 0:
            if lu is None:                           # a zero pivot: a shift exposes it
                lu, tiny = _lu(M + PIVOT_SHIFT * scipy.sparse.eye(M.shape[0], format="csc"))
            if lu is not None:
                R = np.random.default_rng(BORDER_SEED).standard_normal((M.shape[0], max(tiny, 1)))
                rows = np.r_[rows, _peaks(lu.solve(R, trans="T")[:n], rows)]
                cols = np.r_[cols, _peaks(lu.solve(R)[:n], cols)]
                M = _bordered(A, rows, cols)
                lu, tiny = _lu(M)
            if lu is None or tiny > 0:
                raise ModelError("the bordered LU of a singular block did not factor")
        self._lu, self._M = lu, M
        self.pseudo_inverse = rows.size > 0
        self.null_right = self.null_left = np.zeros((n, 0))
        if self.pseudo_inverse:
            E = np.eye(n + rows.size, rows.size, -n)
            X, Y = self._refined(E), self._refined(E, trans="T")
            W, s, Zt = np.linalg.svd(X[n:])
            null = s <= PIVOT_RTOL
            self._Q = X[:n]
            self._T_pinv = (Zt[~null].T / s[~null]) @ W[:, ~null].T
            if null.any():
                self.null_right = np.linalg.qr(X[:n] @ Zt[null].T)[0]
                self.null_left = np.linalg.qr(Y[:n] @ W[:, null])[0]
        self.rank = n - self.null_right.shape[1]
        u = np.abs(lu.U.diagonal())
        self.condition_estimate = float(u.max() / u.min())

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
        locked = _directions(vt[s > 1e-8 * lock_scale])
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
        diag.mechanism_directions = _directions(vt[rank:])
    return CartesianStiffness(kc=kc, diagnostics=diag)


def _directions(rows: np.ndarray) -> np.ndarray:
    """Orthonormal rows from an SVD, each flipped so that its largest-magnitude
    component is positive. An SVD may turn two or more rows by any rotation
    in their span, so those are rebuilt from their span alone: Gram-Schmidt
    (twice) of the projector's columns in index order, a column joining while
    more than 0.1 of its squared norm is new (the residual projector keeps a
    trace of at least one until all k have joined). The projector is rounded
    to 1e-12 first, so a rounding-level change, which could flip a row whose
    largest components tie, leaves the rows bitwise alike."""
    if rows.shape[0] > 1:
        P, basis = np.round(rows.T @ rows, 12), np.zeros((0, rows.shape[1]))
        for col in P.T:
            for _ in range(2):
                col = col - basis.T @ (basis @ col)
            if len(basis) < rows.shape[0] and col @ col > 0.1:
                basis = np.vstack([basis, col / np.linalg.norm(col)])
        rows = basis
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
    starts = M.indptr[:-1][M.indptr[:-1] < M.indptr[1:]]      # of the rows with entries
    m_norm = float(np.add.reduceat(np.abs(M.data), starts).max(initial=0.0))
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
    connectivity: dict
    mechanism_nodes: list            # nodes that move in a mechanism of the held structure
    faults: list                     # the findings that keep `assemble` from accepting it
    self_stress: int = 0             # wrench-only null vectors of the held structure

    @property
    def well_posed(self) -> bool:
        return not self.faults and self.mechanisms == 0

    def summary(self) -> str:
        return (f"{self.rows} equations / {self.unknowns} unknowns, "
                f"{self.mechanisms} mechanisms, {self.redundant} redundant constraints")


def _square(system: GlobalSystem) -> GlobalSystem:
    """The system itself when square, else padded to square with zero rows or
    columns at the end; the rank is unchanged."""
    M = system.matrix
    if M.shape[0] == M.shape[1]:
        return system
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

    The audit reads the model's one system and so the analysis that serves
    Kc and the loaded solve; a non-square system is first padded to square
    with zero rows or columns. The rank of the whole system is the
    analysis's rank (see `_Analysis`). The null space of the internal block
    (the structure with the end effector held; the whole matrix for models
    with no end effector) splits into mechanisms, the rank of its deflection
    part, and states of self-stress, null vectors that move no deflection
    and only leave reactions indeterminate. A direction counts as moving
    when more than MECHANISM_SHARE of its squared norm lies on deflections.
    """
    system = _system(model)
    rows, unknowns = system.shape
    faults = _faults(model, system)

    rank = self_stress = 0
    mechanisms = unknowns
    mechanism_nodes: list = []
    if rows and unknowns:
        analysis = _analysis(_system(model, square=True), system.end_effector)
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
        connectivity=system.connectivity,
        mechanism_nodes=mechanism_nodes,
        faults=faults,
        self_stress=self_stress,
    )
