"""Aggregation of equation blocks into the global sparse system, Schur-based
Cartesian stiffness extraction, loaded solves and model diagnostics.

Unknowns are ordered as all node wrenches followed by all node deflections
(6 columns each). Rows follow the model catalogue: links, platforms,
connections, supports, loads. Deflection columns are rescaled by a single
stiffness magnitude before factorization so wrench and deflection entries
are comparable; results are reported in physical units.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from . import boundary as _boundary
from . import elements as _elements
from . import joints as _joints
from .core import Wrench, _as_vector
from .equations import EquationBlock
from .errors import ModelError
from .model import JunctionSpec, Model, PlatformSpec

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
    for link in model.flexible_links:
        blocks.append(_elements.flexible_link_equations(link))
    for i, j in model.rigid_links:
        d = model.positions[j] - model.positions[i]
        blocks.append(_elements.rigid_link_equations(d, (i, j)))
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
    if platform.kind == "rigid":
        end_pos = model.positions[platform.end]
        clamps = [(c, end_pos - model.positions[c]) for c in platform.clamps]
        return _elements.rigid_platform_equations(clamps, platform.end)
    return _elements.flexible_platform_equations(platform.stiffnesses, platform.end)


def _connection_block(spec) -> EquationBlock:
    if isinstance(spec, JunctionSpec):
        return _joints.junction_equations(spec.rigid_nodes, spec.passive_nodes)
    if spec.kind == "rigid":
        return _joints.rigid_joint_equations(spec.nodes)
    if spec.kind == "passive":
        return _joints.passive_joint_equations(spec.basis, spec.nodes)
    if spec.kind == "elastic":
        return _joints.elastic_joint_equations(spec.basis, spec.stiffness, spec.nodes)
    return _joints.actuated_joint_equations(spec)


def _support_block(support) -> EquationBlock:
    if support.kind == "rigid":
        return _boundary.rigid_support_equations(support.node)
    if support.kind == "passive":
        return _boundary.passive_support_equations(support.node, support.basis)
    return _boundary.elastic_support_equations(support.node, support.basis, support.stiffness)


@dataclass(eq=False)
class GlobalSystem:
    """Assembled sparse block system over stacked wrench and deflection unknowns."""

    nodes: list
    positions: dict
    matrix: scipy.sparse.csr_matrix
    rhs: np.ndarray
    load_rows: dict                  # load node -> ndarray of 6 row indices
    load_incidents: dict             # load node -> incident node tuple
    row_meta: list                   # (source, kind) per row
    support_nodes: tuple
    end_effector: Hashable | None
    stiff_scale: float

    def __post_init__(self):
        self._index = {node: k for k, node in enumerate(self.nodes)}

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

    def coefficient_blocks(self) -> dict:
        """The four aggregated blocks: wrench/deflection columns split across
        constraint rows (S, K) and load rows (E, F)."""
        n = 6 * self.n_nodes
        load = np.zeros(self.matrix.shape[0], dtype=bool)
        for rows in self.load_rows.values():
            load[rows] = True
        M = self.matrix
        return {
            "S": M[~load][:, :n], "K": M[~load][:, n:],
            "E": M[load][:, :n], "F": M[load][:, n:],
        }

    def rows_by_source(self) -> dict:
        out: dict = {}
        for source, _ in self.row_meta:
            out[source] = out.get(source, 0) + 1
        return out

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def _scaled_matrix(self) -> scipy.sparse.csr_matrix:
        n = 6 * self.n_nodes
        scale = np.ones(2 * n)
        scale[n:] = 1.0 / self.stiff_scale
        return (self.matrix @ scipy.sparse.diags(scale)).tocsr()


def _build_system(model: Model, blocks: list) -> GlobalSystem:
    nodes = list(model.positions.keys())
    index = {node: k for k, node in enumerate(nodes)}
    n = len(nodes)
    col_of = {}
    for node, k in index.items():
        col_of[("W", node)] = 6 * k
        col_of[("t", node)] = 6 * n + 6 * k

    rows_total = sum(b.rows for b in blocks)
    data, ri, ci = [], [], []
    rhs = np.zeros(rows_total)
    row_meta: list = []
    load_rows: dict = {}
    link_scale = 0.0
    any_scale = 0.0

    base = 0
    for block in blocks:
        for row, var, sub in block.entries:
            if var[1] not in index:
                raise ModelError(f"{block.source}: unknown node id {var[1]!r}")
            r0 = base + row
            c0 = col_of[var]
            rr, cc = np.nonzero(sub)
            data.extend(sub[rr, cc])
            ri.extend(r0 + rr)
            ci.extend(c0 + cc)
            if var[0] == "t":
                peak = float(np.max(np.abs(sub)))
                any_scale = max(any_scale, peak)
                if block.category == "link":
                    link_scale = max(link_scale, peak)
        rhs[base:base + block.rows] = block.rhs
        row_meta.extend((block.source, kind) for kind in block.row_kinds())
        if block.category == "load":
            load_rows[block.load_node] = np.arange(base, base + block.rows)
        base += block.rows
    # Deflection columns are rescaled by a representative link stiffness; joint
    # springs may be orders of magnitude away by design and must not set it.
    stiff_scale = max(link_scale or any_scale, 1.0)

    matrix = scipy.sparse.coo_matrix(
        (data, (ri, ci)), shape=(rows_total, 12 * n)
    ).tocsr()
    return GlobalSystem(
        nodes=nodes,
        positions=dict(model.positions),
        matrix=matrix,
        rhs=rhs,
        load_rows=load_rows,
        load_incidents=dict(model.load_points),
        row_meta=row_meta,
        support_nodes=tuple(model.supports.keys()),
        end_effector=model.end_effector,
        stiff_scale=stiff_scale,
    )


def assemble(model: Model) -> GlobalSystem:
    """Validate the model structurally and aggregate its equation blocks.

    Raises ModelError for dangling nodes or a row/column mismatch; the error
    carries a per-source row breakdown to make miscounts findable.
    """
    if not model.positions:
        raise ModelError("model has no nodes")
    blocks = _emit_blocks(model)
    touched: set = set()
    for block in blocks:
        touched |= block.nodes()
    dangling = [node for node in model.positions if node not in touched]
    if dangling:
        raise ModelError(f"nodes with no equations: {dangling!r}")
    system = _build_system(model, blocks)
    rows, cols = system.shape
    if rows != cols:
        breakdown = ", ".join(f"{src}: {cnt}" for src, cnt in system.rows_by_source().items())
        raise ModelError(
            f"system is not square: {rows} equations for {cols} unknowns ({breakdown})")
    return system


@dataclass(eq=False)
class PartitionedSystem:
    """Global system split around the end-node deflection columns.

    A holds every row except the end load rows, over wrench and internal
    deflection columns; B and D hold the end-node deflection columns; C holds
    the end load rows. Permutations are kept so the split is reversible.
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


def partition(system: GlobalSystem, end_node: Hashable | None = None) -> PartitionedSystem:
    end = system.end_effector if end_node is None else end_node
    if end is None:
        raise ModelError("no end node given and the system has no end effector")
    if end not in system.load_rows:
        raise ModelError(f"end node {end!r} has no external load rows")
    rows, cols = system.shape
    end_rows = system.load_rows[end]
    other_rows = np.setdiff1d(np.arange(rows), end_rows)
    end_cols = np.arange(cols)[system.deflection_cols(end)]
    other_cols = np.setdiff1d(np.arange(cols), end_cols)
    M = system.matrix
    return PartitionedSystem(
        A=M[other_rows][:, other_cols].tocsr(),
        B=M[other_rows][:, end_cols].toarray(),
        C=M[end_rows][:, other_cols].toarray(),
        D=M[end_rows][:, end_cols].toarray(),
        b=system.rhs[other_rows],
        row_perm=np.concatenate([other_rows, end_rows]),
        col_perm=np.concatenate([other_cols, end_cols]),
        end_node=end,
        shape=(rows, cols),
    )


def departition(ps: PartitionedSystem) -> scipy.sparse.csr_matrix:
    """Reassemble the global matrix from a partition (bookkeeping identity)."""
    top = scipy.sparse.hstack([ps.A, scipy.sparse.csr_matrix(ps.B)])
    bottom = scipy.sparse.hstack([scipy.sparse.csr_matrix(ps.C), scipy.sparse.csr_matrix(ps.D)])
    permuted = scipy.sparse.vstack([top, bottom]).tocsr()
    rows, cols = ps.shape
    row_inv = np.empty(rows, dtype=int)
    row_inv[ps.row_perm] = np.arange(rows)
    col_inv = np.empty(cols, dtype=int)
    col_inv[ps.col_perm] = np.arange(cols)
    return permuted[row_inv][:, col_inv].tocsr()


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
        return {
            "a_size": self.a_size,
            "a_rank": self.a_rank,
            "pseudo_inverse": self.pseudo_inverse,
            "condition_estimate": float(self.condition_estimate),
            "kc_rank": self.kc_rank,
            "mechanisms": self.mechanisms,
            "mechanism_directions": None if self.mechanism_directions is None
            else self.mechanism_directions.tolist(),
            "locked": self.locked,
            "locked_directions": None if self.locked_directions is None
            else self.locked_directions.tolist(),
            "infinite": self.infinite,
        }


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


def _peaks(Y: np.ndarray) -> np.ndarray:
    """Indices of the rows of Y that a column-pivoted QR of Y^T picks first:
    where the directions spanned by Y's columns are largest and distinct."""
    _, order = scipy.linalg.qr(Y.T, mode="r", pivoting=True, check_finite=False)
    return order[:Y.shape[1]]


class _Factorization:
    """Row-equilibrated sparse LU of a square block, shared by the stiffness,
    solve and audit paths. Row scaling never changes solutions.

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

    def __init__(self, A: scipy.sparse.spmatrix):
        A = A.tocsc()
        self.n = A.shape[0]
        row_max = abs(A).max(axis=1).toarray().ravel()
        row_max[row_max == 0.0] = 1.0
        self._row_scale = 1.0 / row_max
        self._A = self._M = (scipy.sparse.diags(self._row_scale) @ A).tocsc()
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


def cartesian_stiffness(system: GlobalSystem,
                        end_node: Hashable | None = None) -> CartesianStiffness:
    """End-point stiffness by eliminating all internal unknowns.

    Uses sparse LU on the internal block; if that block is singular a
    bordered LU gives its pseudo-inverse and the diagnostics say so.
    Directions in which the end node is rigidly tied to ground come back as
    an infinite-stiffness sentinel rather than numeric overflow.
    """
    rows, cols = system.shape
    if rows != cols:
        raise ModelError(f"system is not square ({rows} rows, {cols} columns)")
    end = system.end_effector if end_node is None else end_node
    kappa = system.stiff_scale
    M = system._scaled_matrix()
    end_rows = system.load_rows.get(end)
    if end is None or end_rows is None:
        raise ModelError(f"end node {end!r} has no external load rows")
    end_cols = np.arange(cols)[system.deflection_cols(end)]
    other_rows = np.setdiff1d(np.arange(rows), end_rows)
    other_cols = np.setdiff1d(np.arange(cols), end_cols)
    A = M[other_rows][:, other_cols]
    B = M[other_rows][:, end_cols].toarray()
    C = M[end_rows][:, other_cols].toarray()
    D = M[end_rows][:, end_cols].toarray()

    fac = _Factorization(A)
    kc = kappa * (D - C @ fac.solve(B))

    diag = SolverDiagnostics(
        a_size=fac.n,
        a_rank=fac.rank,
        pseudo_inverse=fac.pseudo_inverse,
        condition_estimate=fac.condition_estimate,
    )

    if fac.rank < fac.n:
        # End-point motions whose forcing lies outside range(A) are held by
        # rigid constraints: those directions are locked.
        lock_scale = max(float(np.max(np.abs(fac._scale_rhs(B)))), 1e-300)
        _, s, vt = np.linalg.svd(fac.outside_range(B), full_matrices=False)
        locked = vt[s > 1e-8 * lock_scale]
        if locked.shape[0] == 6:
            diag.infinite = True
            diag.locked = True
            diag.locked_directions = locked
            diag.kc_rank = 6
            return CartesianStiffness(kc=np.full((6, 6), np.inf), diagnostics=diag)
        if locked.shape[0] > 0:
            diag.locked = True
            diag.locked_directions = locked

    norm = np.linalg.norm(kc)
    asym = np.linalg.norm(kc - kc.T)
    if norm > 0.0 and not diag.locked:
        if asym > KC_SYM_RTOL * norm:
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
        diag.mechanism_directions = vt[rank:]
    return CartesianStiffness(kc=kc, diagnostics=diag)


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
    rows, cols = system.shape
    if rows != cols:
        raise ModelError(f"system is not square ({rows} rows, {cols} columns)")
    applied = _normalize_loads(system, loads)
    b = system.rhs.copy()
    for node, w in applied.items():
        b[system.load_rows[node]] += w

    fac = _Factorization(system._scaled_matrix())
    if fac.rank < fac.n:
        outside = float(np.max(np.abs(fac.outside_range(b))))
        scale = max(float(np.max(np.abs(fac._scale_rhs(b)))), 1e-300)
        if outside > 1e-6 * scale:
            raise ModelError(
                "load is not resisted by the structure (unresisted direction: "
                f"{outside / scale:.3e} of the load lies outside the system's range)")
    x = fac.solve(b)
    n = 6 * system.n_nodes
    x[n:] /= system.stiff_scale

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

    @property
    def well_posed(self) -> bool:
        return self.square and self.mechanisms == 0 and not self.dangling

    def summary(self) -> str:
        return (f"{self.rows} equations / {self.unknowns} unknowns, "
                f"{self.mechanisms} mechanisms, {self.redundant} redundant constraints")


def _square(M: scipy.sparse.spmatrix) -> scipy.sparse.csc_matrix:
    """M padded to square with zero rows or columns; the rank is unchanged."""
    size = max(M.shape)
    M = M.tocoo()
    return scipy.sparse.csc_matrix((M.data, (M.row, M.col)), shape=(size, size))


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

    Mechanisms count the zero-energy freedoms left when the end effector is
    held (nullity of the internal block); for models with no end effector
    they are the nullity of the whole matrix. Non-square systems are padded
    to square with zero rows or columns, so one factorization route serves
    every model.
    """
    blocks = _emit_blocks(model)
    nodes = list(model.positions.keys())
    rows = sum(b.rows for b in blocks)
    unknowns = 12 * len(nodes)

    rows_by_source: dict = {}
    rows_by_kind = {"link": 0, "compat": 0, "wrench": 0, "mixed": 0, "load": 0}
    connectivity = {node: 0 for node in nodes}
    for block in blocks:
        rows_by_source[block.source] = rows_by_source.get(block.source, 0) + block.rows
        for kind in block.row_kinds():
            rows_by_kind[kind] += 1
        for node in block.nodes():
            if node in connectivity:
                connectivity[node] += 1
    dangling = [node for node, count in connectivity.items() if count == 0]

    rank = 0
    mechanisms = unknowns
    mechanism_nodes: list = []
    if blocks and unknowns:
        system = _build_system(model, blocks)
        M = system._scaled_matrix()
        full = _Factorization(_square(M))
        rank = full.rank
        end = system.end_effector
        if end is not None and end in system.load_rows:
            keep_rows = np.setdiff1d(np.arange(rows), system.load_rows[end])
            keep_cols = np.setdiff1d(np.arange(unknowns),
                                     np.arange(unknowns)[system.deflection_cols(end)])
            held = _Factorization(_square(M[keep_rows][:, keep_cols]))
        else:
            keep_cols, held = np.arange(unknowns), full
        mechanisms = keep_cols.size - held.rank
        mechanism_nodes = _mechanism_nodes(system, held.null_right[:keep_cols.size], keep_cols)
    return ModelReport(
        nodes=len(nodes),
        unknowns=unknowns,
        rows=rows,
        rows_by_source=rows_by_source,
        rows_by_kind=rows_by_kind,
        square=(rows == unknowns),
        rank=rank,
        mechanisms=mechanisms,
        redundant=rows - rank,
        dangling=dangling,
        connectivity=connectivity,
        mechanism_nodes=mechanism_nodes,
    )
