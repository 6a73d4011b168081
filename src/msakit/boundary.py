"""Supports and external load equilibrium rows.

A support grounds one link end through the connection template of the
joints module, with the ground as carrier: its basis splits the six
directions into rigid ones, held at zero deflection, and free ones, whose
rows read Lf W_j + Ke Lf dt_j = Lf W0 (no spring term for a pin). A clamp
is the all-rigid basis `CLAMP`. Every support contributes six rows. Support
wrenches are the efforts the ground applies to the supported link end.

`Model.add_support` and `Model.add_load_point` check each support and load
point once, when the model records it; the emitters trust their input and
raise nothing.
"""
from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from .core import JointBasis, JointStiffness, Wrench, shift_wrench
from .equations import EYE6, EquationBlock, deflection_var, wrench_var
from .errors import ModelError

SUPPORT_KINDS = ("rigid", "passive", "elastic")

# Basis of a clamp: all six directions rigid.
CLAMP = JointBasis(EYE6, np.zeros((0, 6)))


def support_equations(node: Hashable, basis: JointBasis,
                      stiffness: JointStiffness | None) -> EquationBlock:
    """Lr dt_j = 0 along the rigid directions, and Lf W_j + Ke Lf dt_j = Lf W0
    along the free ones (no Ke term when `stiffness` is None)."""
    r, lf = basis.r, basis.lambda_free
    entries = [(0, deflection_var(node), basis.lambda_rigid)] if r else []
    rhs = np.zeros(6)
    if basis.p:
        if stiffness is not None:
            entries.append((r, deflection_var(node), stiffness.matrix @ lf))
            if stiffness.preload is not None:
                rhs[r:] = lf @ stiffness.preload
        entries.append((r, wrench_var(node), lf))
    return EquationBlock(source=f"support@{node}", rows=6, entries=entries, rhs=rhs)


def external_load_equations(nodes: Sequence[Hashable], end_node: Hashable) -> EquationBlock:
    """Equilibrium of a loaded junction: incident wrenches sum to the applied wrench.

    The right-hand side is the external wrench slot keyed by `end_node`,
    bound to an actual value at solve time (zero when unloaded).
    """
    entries = [(0, wrench_var(node), EYE6) for node in nodes]
    return EquationBlock(
        source=f"load@{end_node}",
        rows=6,
        entries=entries,
        category="load",
        load_node=end_node,
    )


def support_reaction(state, node: Hashable) -> Wrench:
    """Wrench the support applies to the structure at `node`, from a solved state."""
    if node not in state.support_nodes:
        raise ModelError(f"node {node!r} is not a support")
    return Wrench.from_array(state.wrench_at(node))


def equilibrium_residual(state) -> float:
    """Norm of (support reactions + external loads) transported to the origin.

    Zero for any solvable model; the caller normalizes by load magnitude.
    """
    total = np.zeros(6)
    for node in state.support_nodes:
        total += shift_wrench(state.wrench_at(node), state.position_of(node))
    for node, w in state.applied_loads.items():
        total += shift_wrench(w, state.position_of(node))
    return float(np.linalg.norm(total))
