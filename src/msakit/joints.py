"""Connections: one equation template for every joint, junction and support.

A connection welds a carrier group of coincident link ends and ties
attachments to the carrier's first node c. Each attachment splits its six
directions by its basis: rigid directions carry compatibility, free
directions a spring, of zero stiffness for a pin. A rigid joint is a carrier
alone; a passive, elastic or actuated-as-elastic joint (i, j) attaches i to
the carrier (j,). A support attaches its node to an empty carrier, the
ground, which has no deflection and no wrench sum; a clamp's basis has no
free direction. An n-node connection contributes 6n rows. Wrenches are the
efforts the connection applies to each link end, so the wrench rows sum them
to zero and the spring rows use the restoring sign.

Every joint and junction is one `JointSpec` record in these terms: its
carrier and its attachments. `joint_spec` checks a joint and maps its kind
onto the template, and it rejects a field the kind ignores;
`Model.add_junction` checks and records a junction. `_check_attachment`
holds the basis and spring rules that joints and supports share. The emitter
trusts its input and raises nothing.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .core import JointBasis, JointStiffness
from .equations import EYE6, NEG_EYE6, EquationBlock
from .errors import ModelError

JOINT_KINDS = ("rigid", "passive", "elastic", "actuated")
ACTUATION_IDEALIZATIONS = ("as-rigid", "as-elastic")


@dataclass(frozen=True, eq=False)
class JointSpec:
    """One connection in the template's terms: a joint kind or "junction",
    the nodes in the caller's order, the carrier group of welded nodes, the
    attachments (node, basis, JointStiffness or None for a pin) tied to the
    carrier's first node, and an actuated joint's idealization."""

    kind: str
    nodes: tuple
    carrier: tuple
    attachments: tuple = ()
    idealization: str | None = None


def joint_spec(kind: str, nodes: Sequence[Hashable], basis: JointBasis | None = None,
               stiffness: JointStiffness | None = None,
               idealization: str | None = None) -> JointSpec:
    """Check a joint and map it onto the template: a rigid or as-rigid joint
    is a carrier alone; any other joint (i, j) attaches i to the carrier
    (j,), with no spring for a passive joint. A field the kind ignores is an
    error."""
    if kind not in JOINT_KINDS:
        raise ModelError(f"unknown joint kind {kind!r}")
    nodes = tuple(nodes)
    if len(nodes) < 2:
        raise ModelError("a joint connects at least two nodes")
    if len(set(nodes)) != len(nodes):
        raise ModelError("duplicate node ids in joint")
    if kind != "rigid" and len(nodes) != 2:
        raise ModelError(f"{kind} joints connect exactly two nodes; "
                         "chain pairwise joints for larger groups")
    acts_as = kind
    if kind == "actuated":
        if idealization not in ACTUATION_IDEALIZATIONS:
            raise ModelError("actuated joint needs an idealization, 'as-rigid' or 'as-elastic'; "
                             f"got {idealization!r}")
        acts_as = idealization.removeprefix("as-")
    elif idealization is not None:
        raise ModelError(f"a {kind} joint takes no idealization; only an actuated joint has one")
    _check_attachment(acts_as, basis, stiffness, "connection")
    if acts_as == "rigid":
        return JointSpec(kind, nodes, carrier=nodes, idealization=idealization)
    i, j = nodes
    return JointSpec(kind, nodes, carrier=(j,), attachments=((i, basis, stiffness),),
                     idealization=idealization)


def _check_attachment(kind: str, basis: JointBasis | None, stiffness: JointStiffness | None,
                      what: str) -> None:
    """Check the basis and spring of a connection or support (`what`) that
    acts as a rigid, passive or elastic `kind`, and warn of an elastic
    preload along its rigid directions."""
    if kind != "elastic" and stiffness is not None:
        raise ModelError(f"a {kind} {what} takes no stiffness; use an elastic {what}")
    if kind == "rigid":
        if basis is not None:
            raise ModelError(f"a rigid {what} takes no basis; it holds all six directions")
        return
    if basis is None:
        raise ModelError(f"{kind} {what} needs a direction basis")
    if basis.p < 1:
        raise ModelError(f"{kind} {what} needs at least one "
                         f"{'free' if kind == 'passive' else 'elastic'} direction "
                         f"(use a rigid {what})")
    if kind == "passive":
        return
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


def connection_equations(carriers: Sequence, attachments: Sequence,
                         sources: Sequence[str]) -> EquationBlock:
    """Rows of connections of one layout, carriers of welded nodes of one size
    and attachments (node, basis, JointStiffness or None for a pin) of one
    (r, p, spring or pin) each, tied to the carrier's first node c:

    - Lr (dt_a - dt_c) = 0 for each attachment a;
    - dt_k - dt_last = 0 for every other carrier node k;
    - one six-row sum of all wrenches;
    - Lf W_a + Ke Lf (dt_a - dt_c) = Lf W0 for each attachment, with Lr and
      Lf the rigid and free directions of its basis, Ke its spring matrix
      (no term for a pin) and W0 its preload.

    An empty carrier is the ground (a support): it has no dt_c term and no
    wrench sum, and a clamp's attachment (p = 0) no free rows.
    """
    first, row, entries = attachments[0], 0, []
    c, last = len(first), len(first) + len(carriers[0]) - 1
    ties = [c] if carriers[0] else []          # the ground has no deflection
    for s, (_, basis, _) in enumerate(first):
        if basis.r:
            lr = np.stack([record[s][1].lambda_rigid for record in attachments])
            entries += [(row, "t", s, lr)] + [(row, "t", k, -lr) for k in ties]
            row += basis.r
    for s in range(c, last):
        entries += [(row, "t", s, EYE6), (row, "t", last, NEG_EYE6)]
        row += 6
    if carriers[0]:
        entries += [(row, "W", s, EYE6) for s in range(last + 1)]
        row += 6
    rhs = np.zeros((len(carriers), row + sum(basis.p for _, basis, _ in first)))
    for s, (_, basis, stiffness) in enumerate(first):
        if not basis.p:
            continue
        lf = np.stack([record[s][1].lambda_free for record in attachments])
        if stiffness is not None:
            hooke = np.stack([record[s][2].matrix for record in attachments]) @ lf
            entries += [(row, "t", s, hooke)] + [(row, "t", k, -hooke) for k in ties]
            for k, (_, b, spring) in enumerate(record[s] for record in attachments):
                if spring.preload is not None:
                    rhs[k, row:row + basis.p] = b.lambda_free @ spring.preload
        entries.append((row, "W", s, lf))
        row += basis.p
    nodes = [tuple(a[0] for a in att) + tuple(car) for car, att in zip(carriers, attachments)]
    return EquationBlock(list(sources), row, nodes, entries, rhs)
