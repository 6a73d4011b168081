"""Joint models: rigid, passive, elastic (optionally preloaded) and actuated.

Every two-node connection contributes exactly 12 scalar rows; an n-node
rigid connection contributes 6n. Wrenches here are the efforts the joint
applies to each connected link end, so equilibrium rows sum them to zero
and Hooke rows use the restoring sign.

`JointSpec` and `Model.add_junction` check each connection once, when the
model records it; the emitters trust their input and raise nothing.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .core import JointBasis, JointStiffness, _joint_stiffness
from .equations import EYE6, NEG_EYE6, EquationBlock, deflection_var, wrench_var

JOINT_KINDS = ("rigid", "passive", "elastic", "actuated")
ACTUATION_IDEALIZATIONS = ("as-rigid", "as-elastic")


@dataclass(frozen=True, eq=False)
class JointSpec:
    """Declarative description of an inter-link connection."""

    kind: str
    nodes: tuple
    basis: JointBasis | None = None
    stiffness: JointStiffness | None = None
    idealization: str | None = None

    def __post_init__(self):
        if self.kind not in JOINT_KINDS:
            raise ValueError(f"unknown joint kind {self.kind!r}")
        nodes = tuple(self.nodes)
        if len(nodes) < 2:
            raise ValueError("a joint connects at least two nodes")
        if len(set(nodes)) != len(nodes):
            raise ValueError("duplicate node ids in joint")
        object.__setattr__(self, "nodes", nodes)
        if self.kind == "rigid":
            return
        if len(nodes) != 2:
            raise ValueError(f"{self.kind} joints connect exactly two nodes; "
                             "chain pairwise joints for larger groups")
        if self.kind == "actuated":
            if self.idealization not in ACTUATION_IDEALIZATIONS:
                raise ValueError("actuated joint needs an idealization: 'as-rigid' or 'as-elastic'")
            if self.idealization == "as-elastic":
                _check_spring(self.basis, self.stiffness, "connection")
            return
        if self.basis is None:
            raise ValueError(f"{self.kind} joint needs a direction basis")
        if self.kind == "passive" and self.basis.p < 1:
            raise ValueError("passive joint needs at least one free direction (use a rigid joint)")
        if self.kind == "elastic":
            _check_spring(self.basis, self.stiffness, "connection")


def _check_spring(basis: JointBasis | None, stiffness: JointStiffness | None, what: str) -> None:
    """Check that an elastic connection or support has a basis with at least
    one elastic direction and a spring matrix over exactly those directions."""
    if basis is None:
        raise ValueError(f"elastic {what} needs a direction basis")
    if basis.p < 1:
        raise ValueError(f"elastic {what} needs at least one elastic direction")
    if stiffness is None:
        raise ValueError(f"elastic {what} needs a joint stiffness")
    if stiffness.e != basis.p:
        raise ValueError(f"{what} stiffness must be {basis.p}x{basis.p} for this basis, "
                         f"got {stiffness.matrix.shape}")


def rigid_joint_equations(nodes: Sequence[Hashable]) -> EquationBlock:
    """Weld of n coincident link ends: equal deflections, wrenches summing to zero."""
    nodes = list(nodes)
    last = nodes[-1]
    entries = []
    for k, node in enumerate(nodes[:-1]):
        entries.append((6 * k, deflection_var(node), EYE6))
        entries.append((6 * k, deflection_var(last), NEG_EYE6))
    row_w = 6 * (len(nodes) - 1)
    for node in nodes:
        entries.append((row_w, wrench_var(node), EYE6))
    return EquationBlock(
        source=f"joint<{','.join(map(str, nodes))}>",
        rows=6 * len(nodes),
        entries=entries,
    )


def passive_joint_equations(basis: JointBasis, nodes) -> EquationBlock:
    """Frictionless joint: rigid-direction compatibility and equilibrium, plus
    zero transmitted effort along each free direction on both sides."""
    i, j = nodes
    r, p = basis.r, basis.p
    lr, lp = basis.lambda_rigid, basis.lambda_free
    entries = []
    if r:
        entries.append((0, deflection_var(i), lr))
        entries.append((0, deflection_var(j), -lr))
        entries.append((r, wrench_var(i), lr))
        entries.append((r, wrench_var(j), lr))
    entries.append((2 * r, wrench_var(i), lp))
    entries.append((2 * r + p, wrench_var(j), lp))
    return EquationBlock(
        source=f"joint<{i},{j}>",
        rows=2 * r + 2 * p,
        entries=entries,
    )


def elastic_joint_equations(basis: JointBasis, stiffness, nodes, preload=None) -> EquationBlock:
    """Spring-loaded joint: compatibility along rigid directions, full wrench
    balance, and Hooke rows over the elastic directions.

    The Hooke rows read Ke Le (dt_i - dt_j) + Le W_i = Le W0 with Le the
    elastic-direction rows, so the springs resist relative deflection and
    carry the preload W0 at zero relative deflection.
    """
    i, j = nodes
    Ke, w0 = _spring(basis, stiffness, preload, f"joint<{i},{j}>")
    r, e = basis.r, basis.p
    lr, le = basis.lambda_rigid, basis.lambda_free
    entries = []
    if r:
        entries.append((0, deflection_var(i), lr))
        entries.append((0, deflection_var(j), -lr))
    entries.append((r, wrench_var(i), EYE6))
    entries.append((r, wrench_var(j), EYE6))
    row_h = r + 6
    hooke = Ke @ le
    entries.append((row_h, deflection_var(i), hooke))
    entries.append((row_h, deflection_var(j), -hooke))
    entries.append((row_h, wrench_var(i), le))
    rhs = np.zeros(r + 6 + e)
    rhs[row_h:] = le @ w0
    return EquationBlock(
        source=f"joint<{i},{j}>",
        rows=r + 6 + e,
        entries=entries,
        rhs=rhs,
    )


def _spring(basis: JointBasis, stiffness, preload, source: str) -> tuple:
    """(Ke, W0) of an elastic joint or support: its spring matrix over the
    basis' elastic directions and its preload (zero when it has none). The
    shape was checked by `_check_spring` when the model recorded it."""
    stiffness = _joint_stiffness(stiffness, preload)
    Ke, w0 = stiffness.matrix, stiffness.preload
    if w0 is None:
        return Ke, np.zeros(6)
    if basis.r:
        rigid_part = np.linalg.norm(basis.lambda_rigid @ w0)
        if rigid_part > 1e-12 * max(np.linalg.norm(w0), 1.0):
            warnings.warn(
                f"{source}: preload components along rigid directions are statically "
                "indeterminate and are ignored",
                stacklevel=3,
            )
    return Ke, w0


def actuated_joint_equations(spec: JointSpec) -> EquationBlock:
    """Actuated connection treated per its idealization (rigid or elastic)."""
    if spec.idealization == "as-rigid":
        return rigid_joint_equations(spec.nodes)
    return elastic_joint_equations(spec.basis, spec.stiffness, spec.nodes)


def junction_equations(rigid_nodes: Sequence[Hashable],
                       passive_attachments: Sequence = ()) -> EquationBlock:
    """Compound connection: a welded carrier group plus pinned attachments.

    The carrier nodes are mutually rigid; each attachment (node, basis)
    connects to the carrier through its own passive joint. Equilibrium covers
    the junction as a whole, so an n-node junction always contributes 6n rows.
    When every attachment shares one basis the wrench rows are grouped as
    rigid-direction total equilibrium, free-direction carrier equilibrium and
    per-attachment zero transmission; otherwise a plain wrench sum is used.
    """
    rigid_nodes = list(rigid_nodes)
    attachments = [(node, basis) for node, basis in passive_attachments]
    all_nodes = rigid_nodes + [n for n, _ in attachments]
    source = f"junction<{','.join(map(str, all_nodes))}>"

    entries = []
    row = 0
    rep = rigid_nodes[0]
    for node, basis in attachments:
        lr = basis.lambda_rigid
        if basis.r:
            entries.append((row, deflection_var(rep), lr))
            entries.append((row, deflection_var(node), -lr))
            row += basis.r
    last = rigid_nodes[-1]
    for node in rigid_nodes[:-1]:
        entries.append((row, deflection_var(node), EYE6))
        entries.append((row, deflection_var(last), NEG_EYE6))
        row += 6

    homogeneous = bool(attachments) and all(
        np.array_equal(attachments[0][1].u_rigid, b.u_rigid)
        and np.array_equal(attachments[0][1].u_free, b.u_free)
        for _, b in attachments
    )
    if homogeneous:
        basis = attachments[0][1]
        lr, lp = basis.lambda_rigid, basis.lambda_free
        if basis.r:
            for node in all_nodes:
                entries.append((row, wrench_var(node), lr))
            row += basis.r
        for node in rigid_nodes:
            entries.append((row, wrench_var(node), lp))
        row += basis.p
        for node, _ in attachments:
            entries.append((row, wrench_var(node), lp))
            row += basis.p
    else:
        for node in all_nodes:
            entries.append((row, wrench_var(node), EYE6))
        row += 6
        for node, basis in attachments:
            entries.append((row, wrench_var(node), basis.lambda_free))
            row += basis.p

    return EquationBlock(source=source, rows=row, entries=entries)
