"""Shared builders and block-evaluation utilities for the test suite."""
from __future__ import annotations

import numpy as np
import scipy.linalg

import msakit

STEEL = {"E": 210e9, "G": 80.77e9}


def section_kwargs(**overrides) -> dict:
    base = {"E": 210e9, "G": 80.77e9, "A": 1e-3, "Iy": 2e-6, "Iz": 1e-6, "J": 3e-6}
    base.update(overrides)
    return base


def beam_link(p=(0.0, 0.0, 0.0), q=(1.0, 0.0, 0.0), nodes=("i", "j"), **overrides):
    """The LinkStiffness that `add_beam` returns for a beam from p to q,
    bound to `nodes`, on a two-node model of its own."""
    m = msakit.Model()
    m.add_node(nodes[0], p)
    m.add_node(nodes[1], q)
    return m.add_beam(*nodes, **section_kwargs(**overrides))


def cantilever(L: float = 1.0, **overrides):
    """Single beam clamped at 'a', loaded end 'b'; returns (model, link)."""
    m = msakit.Model()
    m.add_node("a", [0.0, 0.0, 0.0])
    m.add_node("b", [L, 0.0, 0.0])
    link = m.add_beam("a", "b", **section_kwargs(**overrides))
    m.add_support("a", "rigid")
    m.set_end_effector("b")
    return m, link


def random_section(rng) -> dict:
    E = rng.uniform(70e9, 210e9)
    return {
        "E": E,
        "G": E / 2.6,
        "A": rng.uniform(1e-4, 5e-3),
        "Iy": rng.uniform(1e-8, 1e-5),
        "Iz": rng.uniform(1e-8, 1e-5),
        "J": rng.uniform(1e-8, 1e-5),
    }


def random_chain(rng, n_links: int, joint_stiffness: float | None = None,
                 length_unit: float = 1.0) -> msakit.Model:
    """Serial chain of beams with a clamped base. Inter-link joints are rigid,
    or, given a joint stiffness (N*m/rad), elastic revolute joints about a
    random global axis. The model is built in a length unit of 1/length_unit
    metres (1e3 for mm; forces stay in N): the same draws give the same
    structure in any unit."""
    u = length_unit
    presets = [msakit.joint_basis_preset(f"revolute_{axis}") for axis in "xyz"]
    m = msakit.Model()
    p = np.zeros(3)
    prev_far = None
    for k in range(n_links):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        q = p + rng.uniform(0.3, 1.2) * direction
        m.add_node(f"a{k}", u * p)
        m.add_node(f"b{k}", u * q)
        sec = random_section(rng)
        m.add_beam(f"a{k}", f"b{k}", E=sec["E"] / u**2, G=sec["G"] / u**2, A=sec["A"] * u**2,
                   Iy=sec["Iy"] * u**4, Iz=sec["Iz"] * u**4, J=sec["J"] * u**4)
        if prev_far is not None and joint_stiffness is None:
            m.add_joint("rigid", (prev_far, f"a{k}"))
        elif prev_far is not None:
            m.add_joint("elastic", (prev_far, f"a{k}"), basis=presets[rng.integers(3)],
                        stiffness=[[joint_stiffness * u]])
        prev_far = f"b{k}"
        p = q
    m.add_support("a0", "rigid")
    m.set_end_effector(f"b{n_links - 1}")
    return m


def flexible_platform_model() -> msakit.Model:
    """A platform on two virtual beam links, clamped at both clamp nodes."""
    m = msakit.Model()
    m.add_node("c0", [1.0, 0, 0])
    m.add_node("c1", [-1.0, 0, 0])
    m.add_node("e", [0.0, 0, 0])
    m.add_flexible_platform({clamp: beam_link(m.position_of(clamp), m.position_of("e"))
                             for clamp in ("c0", "c1")}, "e")
    m.add_support("c0", "rigid")
    m.add_support("c1", "rigid")
    m.set_end_effector("e")
    return m


def sprung_model() -> msakit.Model:
    """Two beams on a preloaded torsion joint, on a universal elastic support."""
    m = msakit.Model()
    m.add_node("a", [0, 0, 0])
    m.add_node("b", [0.5, 0, 0])
    m.add_node("c", [0.5, 0, 0])
    m.add_node("d", [1.0, 0, 0])
    m.add_beam("a", "b", **section_kwargs())
    m.add_beam("c", "d", **section_kwargs())
    m.add_joint("elastic", ("b", "c"), basis=msakit.joint_basis_preset("revolute_z"),
                stiffness=[[123.0]], preload=[0, 0, 0, 0, 0, 1.0])
    m.add_support("a", "elastic", basis=msakit.joint_basis_preset("universal"),
                  stiffness=np.diag([10.0, 20.0]))
    m.set_end_effector("d")
    return m


def free_link_end() -> msakit.Model:
    """Two welded beams with the far end d left free, beside a clamped stub
    that carries the end effector: 66 equations for 72 unknowns."""
    m = msakit.Model()
    for node, position in (("a", [0, 0, 0]), ("b", [1.0, 0, 0]), ("c", [1.0, 0, 0]),
                           ("d", [2.0, 0, 0]), ("h", [0, 1.0, 0]), ("e", [1.0, 1.0, 0])):
        m.add_node(node, position)
    for i, j in (("a", "b"), ("c", "d"), ("h", "e")):
        m.add_beam(i, j, **section_kwargs())
    m.add_joint("rigid", ("b", "c"))
    m.add_support("a", "rigid")
    m.add_support("h", "rigid")
    m.set_end_effector("e")
    return m


def loaded_junction(end) -> tuple:
    """Beam a-b clamped at a, and beam c-d with d a free load point; b, c and
    j are welded in a junction. The end effector is j itself, or e, which a
    rigid link ties to j."""
    m = msakit.Model()
    for node, position in (("a", [0, 0, 0]), ("b", [1.0, 0, 0]), ("c", [1.0, 0, 0]),
                           ("j", [1.0, 0, 0]), ("d", [1.0, 0.8, 0])):
        m.add_node(node, position)
    link = m.add_beam("a", "b", **section_kwargs())
    m.add_beam("c", "d", **section_kwargs())
    m.add_support("a", "rigid")
    m.add_junction(("b", "c", "j"))
    m.add_load_point("d")
    if end == "e":
        m.add_node("e", [1.3, 0.2, 0.1])
        m.add_rigid_link("j", "e")
    m.set_end_effector(end)
    return m, link


def first_fault(model):
    """The first structural fault of a model's audit, after checking that it
    is the one `assemble` raises and that the audit calls the model not
    well-posed."""
    try:
        model.assemble()
    except msakit.ModelError as exc:
        raised = str(exc)
    else:
        raise AssertionError("assemble accepted the model")
    report = model.check()
    assert not report.well_posed and report.faults, report.summary()
    assert report.faults[0].message == raised
    return report.faults[0]


def wrench_var(node):
    """Key of a node's wrench in the entries of a block: ("W", node)."""
    return ("W", node)


def deflection_var(node):
    """Key of a node's deflection in the entries of a block: ("t", node)."""
    return ("t", node)


def row_meta(system) -> list:
    """(source, kind) of every row of an assembled system, from its block layout."""
    meta: list = [None] * system.matrix.shape[0]
    for sources, base, kinds in system._rows:
        for source, first in zip(sources, base.tolist()):
            meta[first:first + len(kinds)] = [(source, kind) for kind in kinds]
    return meta


def record_entries(block):
    """(row, variable, sub-block) of every record's entries, rows counted
    from the block's first record: a plain loop over the family."""
    for k, record in enumerate(block.nodes):
        for row, kind, slot, sub in block.entries:
            yield block.rows * k + row, (kind, record[slot]), sub if sub.ndim == 2 else sub[k]


def entries_dense(block, variables) -> np.ndarray:
    """A block's rows scattered entry by entry from its records' entries."""
    col = {var: 6 * k for k, var in enumerate(variables)}
    M = np.zeros((len(block.nodes) * block.rows, 6 * len(variables)))
    for row, var, sub in record_entries(block):
        M[row:row + sub.shape[0], col[var]:col[var] + 6] += sub
    return M


def block_residual(block, values: dict) -> np.ndarray:
    """Evaluate a block's rows at {("W"|"t", node): 6-vector}; zero means satisfied."""
    r = -block.rhs.ravel()
    for row, var, sub in record_entries(block):
        v = np.asarray(values.get(var, np.zeros(6)), dtype=float)
        r[row:row + sub.shape[0]] += sub @ v
    return r


def connection_block(spec):
    """The rows of one connection record, from the family emitter."""
    from msakit.joints import connection_equations
    return connection_equations([spec.carrier], [spec.attachments], [f"{spec.kind}{spec.nodes}"])


def rel_fro(a, b) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


# ---------------------------------------------------------------------------
# Dense SVD oracle for singular models: a rank-revealing dense route, the
# reference for the library's sparse bordered solve.
# ---------------------------------------------------------------------------

ORACLE_RTOL = 1e-10


def _row_scale(M: np.ndarray) -> np.ndarray:
    """Factors that scale every row of M to a largest entry of one."""
    norm = np.max(np.abs(M), axis=1)
    norm[norm == 0.0] = 1.0
    return 1.0 / norm[:, None]


def _svd_rank(M: np.ndarray) -> int:
    s = scipy.linalg.svdvals(M * _row_scale(M))
    return int(np.sum(s > ORACLE_RTOL * s[0])) if s.size and s[0] > 0.0 else 0


def _null_basis(M: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the null space of M, by dense SVD of
    the row-equilibrated matrix."""
    _, s, vt = scipy.linalg.svd(M * _row_scale(M))
    rank = int(np.sum(s > ORACLE_RTOL * s[0])) if s.size and s[0] > 0.0 else 0
    return vt[rank:].T


def dense_audit(model) -> dict:
    """Ranks, mechanisms, states of self-stress, locked directions and Kc of
    a model by dense SVD and complete orthogonal decomposition (`gelsy`) of
    the row-equilibrated system, its columns scaled by the library's own
    `col_scale` so that both rank the same matrix. Mechanisms are the rank of the
    deflection rows of the held block's null basis (a direction moves when
    more than 1e-6 of its squared norm lies on deflections); the other null
    vectors are states of self-stress. With no end effector the held block
    is the whole matrix."""
    from msakit import assembly

    system = assembly._build_system(model, assembly._emit_blocks(model))
    M = system.matrix.toarray() * system.col_scale
    rows, cols = M.shape
    n = 6 * system.n_nodes
    end = system.end_effector
    end_rows = [] if end is None else system.load_rows[end]
    end_cols = [] if end is None else np.arange(cols)[system.deflection_cols(end)]
    keep_rows = np.setdiff1d(np.arange(rows), end_rows)
    keep_cols = np.setdiff1d(np.arange(cols), end_cols)
    A = M[np.ix_(keep_rows, keep_cols)]
    rank, a_rank = _svd_rank(M), _svd_rank(A)
    null = _null_basis(A)
    moving = scipy.linalg.svdvals(null[keep_cols >= n])
    mechanisms = int(np.sum(moving ** 2 > 1e-6))
    out = {"rank": rank, "redundant": rows - rank, "a_rank": a_rank,
           "mechanisms": mechanisms, "self_stress": null.shape[1] - mechanisms}
    if rows != cols or end is None:
        return out
    scale = _row_scale(A)
    A, B = A * scale, M[np.ix_(keep_rows, end_cols)] * scale
    X = scipy.linalg.lstsq(A, B, cond=ORACLE_RTOL, lapack_driver="gelsy")[0]
    # Locked directions in physical coordinates, as the library reports them.
    end_scale = system.col_scale[end_cols]
    _, s, vt = np.linalg.svd((A @ X - B) / end_scale)
    B_max = max(float(np.max(np.abs(B / end_scale))), 1e-300)
    locked = vt[s > 1e-8 * B_max * np.sqrt(A.shape[0])]
    out["locked"] = locked.shape[0]
    out["infinite"] = locked.shape[0] == 6
    C, D = M[np.ix_(end_rows, keep_cols)], M[np.ix_(end_rows, end_cols)]
    out["kc"] = (D - C @ X) / end_scale
    return out
