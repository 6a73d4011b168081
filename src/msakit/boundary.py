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

from .core import JointBasis, Wrench, shift_wrench
from .equations import EYE6, EquationBlock
from .errors import ModelError

SUPPORT_KINDS = ("rigid", "passive", "elastic")

# Basis of a clamp: all six directions rigid.
CLAMP = JointBasis(EYE6, np.zeros((0, 6)))


def support_equations(nodes: Sequence[Hashable], bases: Sequence[JointBasis],
                      stiffnesses: Sequence) -> EquationBlock:
    """Supports that share one (r, p, spring or pin) layout: Lr dt_j = 0
    along the rigid directions, and Lf W_j + Ke Lf dt_j = Lf W0 along the
    free ones (no Ke term where the stiffness is None)."""
    r, rhs = bases[0].r, np.zeros((len(nodes), 6))
    entries = [(0, "t", 0, np.stack([basis.lambda_rigid for basis in bases]))] if r else []
    if bases[0].p:
        lf = np.stack([basis.lambda_free for basis in bases])
        if stiffnesses[0] is not None:
            entries.append((r, "t", 0, np.stack([s.matrix for s in stiffnesses]) @ lf))
            for k, (basis, stiffness) in enumerate(zip(bases, stiffnesses)):
                if stiffness.preload is not None:
                    rhs[k, r:] = basis.lambda_free @ stiffness.preload
        entries.append((r, "W", 0, lf))
    return EquationBlock([f"support@{node}" for node in nodes], 6,
                         [(node,) for node in nodes], entries, rhs)


def external_load_equations(nodes: Sequence[Sequence[Hashable]],
                            end_nodes: Sequence[Hashable]) -> EquationBlock:
    """Equilibrium of loaded junctions with one number of incident nodes: the
    wrenches at `nodes[k]` sum to the wrench applied at `end_nodes[k]`, a
    right-hand side bound at solve time (zero when unloaded)."""
    return EquationBlock([f"load@{end}" for end in end_nodes], 6, [tuple(n) for n in nodes],
                         [(0, "W", s, EYE6) for s in range(len(nodes[0]))],
                         category="load", load_nodes=list(end_nodes))


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
