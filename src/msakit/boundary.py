"""Supports, load points and reaction recovery.

A support grounds one link end through the connection template of the
joints module, with the ground, an empty carrier, on the other side: its
basis splits the six directions into rigid ones, held at zero deflection,
and free ones, whose rows read Lf W_j + Ke Lf dt_j = Lf W0 (no spring term
for a pin). A clamp is the all-rigid basis `CLAMP`. Every support
contributes six rows. Support wrenches are the efforts the ground applies to
the supported link end. A load point is one link-end node whose wrench
equals the applied one.

`Model.add_support` and `Model.add_load_point` check each support and load
point once, when the model records it; the emitter trusts its input and
raises nothing.
"""
from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from .core import JointBasis, Wrench, shift_wrench
from .equations import EYE6, EquationBlock
from .errors import ModelError

SUPPORT_KINDS = ("rigid", "passive", "elastic")

# Basis of a clamp: all six directions rigid.
CLAMP = JointBasis(EYE6, np.zeros((0, 6)))


def external_load_equations(nodes: Sequence[Hashable]) -> EquationBlock:
    """Load points: W_node = w at each of `nodes`, the applied wrench a
    right-hand side bound at solve time (zero when unloaded)."""
    return EquationBlock([f"load@{node}" for node in nodes], 6, [(node,) for node in nodes],
                         [(0, "W", 0, EYE6)], category="load", load_nodes=list(nodes))


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
