"""Connections: one equation template for every joint and junction.

A connection welds a carrier group of coincident link ends and ties
attachments to the carrier's first node c. Each attachment splits its six
directions by its basis: rigid directions carry compatibility, free
directions a spring, of zero stiffness for a pin. A rigid joint is a carrier
alone; a passive, elastic or actuated-as-elastic joint (i, j) attaches i to
the carrier (j,). An n-node connection contributes 6n rows. Wrenches are the
efforts the connection applies to each link end, so the wrench rows sum them
to zero and the spring rows use the restoring sign.

`JointSpec` and `Model.add_junction` check each connection once, when the
model records it; the emitter trusts its input and raises nothing.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .core import JointBasis, JointStiffness
from .equations import EYE6, NEG_EYE6, EquationBlock, deflection_var, wrench_var
from .errors import ModelError

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
            raise ModelError(f"unknown joint kind {self.kind!r}")
        nodes = tuple(self.nodes)
        if len(nodes) < 2:
            raise ModelError("a joint connects at least two nodes")
        if len(set(nodes)) != len(nodes):
            raise ModelError("duplicate node ids in joint")
        object.__setattr__(self, "nodes", nodes)
        if self.kind == "rigid":
            return
        if len(nodes) != 2:
            raise ModelError(f"{self.kind} joints connect exactly two nodes; "
                             "chain pairwise joints for larger groups")
        if self.kind == "actuated":
            if self.idealization not in ACTUATION_IDEALIZATIONS:
                raise ModelError("actuated joint needs an idealization: 'as-rigid' or 'as-elastic'")
            if self.idealization == "as-elastic":
                _check_spring(self.basis, self.stiffness, "connection")
            return
        if self.basis is None:
            raise ModelError(f"{self.kind} joint needs a direction basis")
        if self.kind == "passive" and self.basis.p < 1:
            raise ModelError("passive joint needs at least one free direction (use a rigid joint)")
        if self.kind == "elastic":
            _check_spring(self.basis, self.stiffness, "connection")


def _check_spring(basis: JointBasis | None, stiffness: JointStiffness | None, what: str) -> None:
    """Check that an elastic connection or support has a basis with at least
    one elastic direction and a spring matrix over exactly those directions,
    and warn of a preload along its rigid directions."""
    if basis is None:
        raise ModelError(f"elastic {what} needs a direction basis")
    if basis.p < 1:
        raise ModelError(f"elastic {what} needs at least one elastic direction")
    if stiffness is None:
        raise ModelError(f"elastic {what} needs a joint stiffness")
    if stiffness.e != basis.p:
        raise ModelError(f"{what} stiffness must be {basis.p}x{basis.p} for this basis, "
                         f"got {stiffness.matrix.shape}")
    w0 = stiffness.preload
    if w0 is not None and np.linalg.norm(basis.lambda_rigid @ w0) > 1e-12 * max(
            np.linalg.norm(w0), 1.0):
        warnings.warn(f"elastic {what}: preload components along rigid directions are "
                      "statically indeterminate and are ignored", stacklevel=3)


def connection_equations(carrier: Sequence[Hashable], attachments: Sequence,
                         source: str) -> EquationBlock:
    """Rows of a carrier group of welded nodes plus attachments
    (node, basis, JointStiffness or None for a pin) tied to its first node c:

    - Lr (dt_a - dt_c) = 0 for each attachment a;
    - dt_k - dt_last = 0 for every other carrier node k;
    - one six-row sum of all wrenches;
    - Lf W_a + Ke Lf (dt_a - dt_c) = Lf W0 for each attachment, with Lr and
      Lf the rigid and free directions of its basis, Ke its spring matrix
      (no term for a pin) and W0 its preload.
    """
    c, last = carrier[0], carrier[-1]
    entries = []
    row = 0
    for node, basis, _ in attachments:
        if basis.r:
            entries.append((row, deflection_var(node), basis.lambda_rigid))
            entries.append((row, deflection_var(c), -basis.lambda_rigid))
            row += basis.r
    for node in carrier[:-1]:
        entries.append((row, deflection_var(node), EYE6))
        entries.append((row, deflection_var(last), NEG_EYE6))
        row += 6
    for node in [node for node, _, _ in attachments] + list(carrier):
        entries.append((row, wrench_var(node), EYE6))
    row += 6
    rhs = np.zeros(row + sum(basis.p for _, basis, _ in attachments))
    for node, basis, stiffness in attachments:
        lf = basis.lambda_free
        if stiffness is not None:
            hooke = stiffness.matrix @ lf
            entries.append((row, deflection_var(node), hooke))
            entries.append((row, deflection_var(c), -hooke))
            if stiffness.preload is not None:
                rhs[row:row + basis.p] = lf @ stiffness.preload
        entries.append((row, wrench_var(node), lf))
        row += basis.p
    return EquationBlock(source=source, rows=row, entries=entries, rhs=rhs)
