"""Supports (rigid, passive, elastic) and external load equilibrium rows.

Every support contributes exactly six scalar rows. Support wrenches are the
efforts the ground applies to the supported link end, so elastic supports use
the restoring Hooke sign: Le W_j + Ke Le dt_j = Le W0.

`Model.add_support` and `Model.add_load_point` check each support and load
point once, when the model records it; the emitters trust their input and
raise nothing.
"""
from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from .core import JointBasis, Wrench, shift_wrench
from .equations import EYE6, EquationBlock, deflection_var, wrench_var
from .joints import _spring

SUPPORT_KINDS = ("rigid", "passive", "elastic")


def rigid_support_equations(node: Hashable) -> EquationBlock:
    """Clamp: all six deflection components pinned to zero."""
    return EquationBlock(
        source=f"support@{node}",
        rows=6,
        entries=[(0, deflection_var(node), EYE6)],
    )


def passive_support_equations(node: Hashable, basis: JointBasis) -> EquationBlock:
    """Pinned support: rigid directions blocked, free directions transmit nothing."""
    entries = [
        (0, deflection_var(node), basis.lambda_rigid),
        (basis.r, wrench_var(node), basis.lambda_free),
    ]
    return EquationBlock(source=f"support@{node}", rows=6, entries=entries)


def elastic_support_equations(node: Hashable, basis: JointBasis,
                              stiffness, preload=None) -> EquationBlock:
    """Sprung support: rigid directions blocked, elastic directions obey
    Le W_j + Ke Le dt_j = Le W0."""
    Ke, w0 = _spring(basis, stiffness, preload, f"support@{node}")
    r, le = basis.r, basis.lambda_free
    entries = []
    if r:
        entries.append((0, deflection_var(node), basis.lambda_rigid))
    entries.append((r, deflection_var(node), Ke @ le))
    entries.append((r, wrench_var(node), le))
    rhs = np.zeros(6)
    rhs[r:] = le @ w0
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
        raise ValueError(f"node {node!r} is not a support")
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
