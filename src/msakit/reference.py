"""Built-in validation structures: the NaVaRo planar parallel manipulator and
two independent Cartesian-stiffness oracles (classical merged assembly and
serial compliance superposition).

NaVaRo: three identical parallelogram legs on coaxial double-crank bases,
driven through elastic motor transmissions, carrying a rigid three-segment
platform. The numeric defaults below (lengths, tube section, transmission
stiffness) are repository defaults chosen to be physically sane; the leg
topology itself is the modeled structure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Hashable

import numpy as np

from .core import (JointStiffness, _rotate_blocks, _transport6, block_rotation,
                   joint_basis_preset, rotation_matrix)
from .elements import LinkStiffness
from .errors import ModelError
from .model import Model, PlatformSpec


def tube_properties(outer_diameter: float, wall: float) -> tuple:
    """(A, I, J) of a circular tube; I is the bending second moment."""
    ro = outer_diameter / 2.0
    ri = ro - wall
    if not (0.0 < ri < ro):
        raise ModelError("tube wall must be positive and thinner than the radius")
    A = math.pi * (ro**2 - ri**2)
    I = math.pi / 4.0 * (ro**4 - ri**4)
    return A, I, 2.0 * I


@dataclass(frozen=True)
class NavaroParams:
    """Geometry, section and drive parameters for the NaVaRo builders.

    All values are repository defaults, not published data: equal
    parallelogram links of 0.4 m, a steel tube section, and a 1e4 N*m/rad
    motor transmission stiffness.
    """

    crank_length: float = 0.4        # base crank links (m)
    coupler_length: float = 0.4      # coupler side of the parallelogram (m)
    extension_length: float = 0.4    # distal extension to the leg tip (m)
    coupler_angle: float = -0.35     # coupler direction from the x-axis (rad)
    platform_radius: float = 0.15    # platform clamp circle (m)
    E: float = 210e9                 # Young's modulus (Pa)
    G: float = 80.77e9               # shear modulus (Pa)
    tube_outer: float = 0.040        # tube outer diameter (m)
    tube_wall: float = 0.003         # tube wall thickness (m)
    motor_stiffness: float = 1e4     # transmission stiffness (N*m/rad)

    def __post_init__(self):
        for name in ("crank_length", "coupler_length", "extension_length",
                     "platform_radius", "E", "G", "tube_outer", "tube_wall",
                     "motor_stiffness"):
            if getattr(self, name) <= 0.0:
                raise ModelError(f"NaVaRo parameter {name} must be positive")

    def section_kwargs(self) -> dict:
        A, I, J = tube_properties(self.tube_outer, self.tube_wall)
        return {"E": self.E, "G": self.G, "A": A, "Iy": I, "Iz": I, "J": J}


def _leg_points(params: NavaroParams) -> dict:
    """Leg geometry in its local frame: coaxial base pivots at the origin.

    Cranks run along +y, the coupler along a generic in-plane direction
    (a radial coupler would put the whole manipulator in a singular pose
    where platform rotation is unresisted).
    """
    crank = params.crank_length * np.array([0.0, 1.0, 0.0])
    coupler = params.coupler_length * np.array(
        [math.cos(params.coupler_angle), math.sin(params.coupler_angle), 0.0])
    if np.linalg.norm(np.cross(crank, coupler)) < 1e-9:
        raise ModelError("degenerate parallelogram: crank and coupler are parallel")
    ext = params.extension_length * np.array([0.0, 1.0, 0.0])
    return {
        "base": np.zeros(3),
        "p2": crank,
        "p4": crank + coupler,
        "p6": coupler,
        "tip": coupler - ext,
    }


def _add_leg(model: Model, params: NavaroParams, prefix: str,
             transform=None) -> dict:
    """Add one leg's nodes, links, joints and base connections to a model.

    The leg is a parallelogram linkage: two coaxial cranks at the base (one
    motor-driven through an elastic transmission, one passive), a coupler,
    and a distal bar split into two rigidly connected halves where the second
    crank and the tip extension meet. Returns the node-id map.
    """
    pts = _leg_points(params)
    if transform is not None:
        pts = {k: transform(v) for k, v in pts.items()}
    at = {
        "1": pts["base"], "2": pts["p2"],
        "3": pts["p2"], "4": pts["p4"],
        "5": pts["p4"], "6": pts["p6"],
        "7": pts["p6"], "8": pts["base"],
        "9": pts["p6"], "e": pts["tip"],
    }
    ids = {name: f"{prefix}{name}" for name in at}
    for name, pos in at.items():
        model.add_node(ids[name], pos)

    section = params.section_kwargs()
    for i, j in [("1", "2"), ("3", "4"), ("5", "6"), ("7", "8"), ("9", "e")]:
        model.add_beam(ids[i], ids[j], **section)

    rz = joint_basis_preset("revolute_z")
    model.add_joint("passive", (ids["2"], ids["3"]), basis=rz)
    model.add_joint("passive", (ids["4"], ids["5"]), basis=rz)
    model.add_junction((ids["6"], ids["9"]), [(ids["7"], rz)])

    model.add_support(ids["1"], "elastic", basis=rz,
                      stiffness=JointStiffness([[params.motor_stiffness]]))
    model.add_support(ids["8"], "passive", basis=rz)
    return ids


def build_navaro_leg(params: NavaroParams | None = None) -> Model:
    """Standalone leg model, loaded at its tip node."""
    params = params or NavaroParams()
    model = Model()
    ids = _add_leg(model, params, prefix="")
    model.set_end_effector(ids["e"])
    return model


def build_navaro(params: NavaroParams | None = None, legs: int = 3) -> Model:
    """Full manipulator: up to three legs on a fixed 120-degree triangle,
    clamped to a rigid platform.

    Leg tips connect to platform clamp nodes through passive revolute joints;
    the platform ties the clamps rigidly to its center, which carries the
    external load. `legs` < 3 populates the first slots of the same triangle,
    so a two-leg build is exactly the three-leg build minus one leg.
    """
    params = params or NavaroParams()
    if not (1 <= legs <= 3):
        raise ModelError("the manipulator has three leg slots; legs must be 1..3")
    model = Model()
    rz = joint_basis_preset("revolute_z")
    # Position leg 0 so its tip lands on the platform circle at angle 0.
    local_tip = _leg_points(params)["tip"]
    shift = np.array([params.platform_radius, 0.0, 0.0]) - local_tip
    clamp_ids = []
    for k in range(legs):
        R = rotation_matrix([0.0, 0.0, 1.0], 2.0 * math.pi * k / 3.0)
        ids = _add_leg(model, params, prefix=f"L{k}.",
                       transform=lambda p, R=R: R @ (p + shift))
        clamp = f"P{k}"
        model.add_node(clamp, model.position_of(ids["e"]))
        model.add_joint("passive", (ids["e"], clamp), basis=rz)
        clamp_ids.append(clamp)
    model.add_node("E", np.zeros(3))
    model.add_rigid_platform(clamp_ids, "E")
    model.set_end_effector("E")
    return model


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def _merged_groups(model: Model):
    """Union-find over rigid-joint groups; returns node -> group root."""
    parent = {node: node for node in model.positions}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for spec in model.connections:
        for a, b in zip(spec.nodes[:-1], spec.nodes[1:]):
            union(a, b)
    return {node: find(node) for node in model.positions}


def oracle_merged_msa(model: Model, end: Hashable | None = None) -> np.ndarray:
    """Classical direct-stiffness condensation for flexible-link models.

    Shares DOFs across rigid joints, superposes element matrices, removes
    clamped rows and columns, and condenses the free internal DOFs onto the
    end node. Only flexible links, rigid joints and rigid supports are
    supported; anything else is rejected.
    """
    end = model.end_effector if end is None else end
    if end is None:
        raise ModelError("no end node for the merged-assembly oracle")
    if model.rigid_links or model.platforms:
        raise ModelError("merged-assembly oracle handles flexible links only")
    for spec in model.connections:
        if getattr(spec, "kind", None) != "rigid":
            raise ModelError("merged-assembly oracle handles rigid joints only")
    for support in model.supports.values():
        if support.kind != "rigid":
            raise ModelError("merged-assembly oracle handles rigid supports only")

    root_of = _merged_groups(model)
    groups = sorted(set(root_of.values()), key=lambda g: list(model.positions).index(g))
    gidx = {g: k for k, g in enumerate(groups)}
    K = np.zeros((6 * len(groups), 6 * len(groups)))
    for link in model.flexible_links:
        i, j = link.nodes
        gi, gj = gidx[root_of[i]], gidx[root_of[j]]
        si, sj = slice(6 * gi, 6 * gi + 6), slice(6 * gj, 6 * gj + 6)
        K[si, si] += link.K11
        K[si, sj] += link.K12
        K[sj, si] += link.K21
        K[sj, sj] += link.K22

    clamped = {gidx[root_of[node]] for node in model.supports}
    g_end = gidx[root_of[end]]
    if g_end in clamped:
        raise ModelError("end node is clamped; its condensed stiffness is unbounded")
    free = [g for g in range(len(groups)) if g not in clamped]
    internal = [g for g in free if g != g_end]

    def cols(gs):
        return np.concatenate([np.arange(6 * g, 6 * g + 6) for g in gs]) if gs else np.array([], dtype=int)

    ce, cm = cols([g_end]), cols(internal)
    K_ee = K[np.ix_(ce, ce)]
    if internal:
        K_mm = K[np.ix_(cm, cm)]
        K_me = K[np.ix_(cm, ce)]
        return K_ee - K_me.T @ np.linalg.solve(K_mm, K_me)
    return K_ee


def oracle_serial_vjm(model: Model, end: Hashable | None = None) -> np.ndarray:
    """Compliance superposition for a serial chain of flexible links.

    Each element is condensed to its far-node compliance (base clamped), the
    compliances are transported to the end node and summed, and the sum is
    inverted. Requires a strictly serial topology with rigid inter-link
    joints and a single rigid base support.
    """
    end = model.end_effector if end is None else end
    if end is None:
        raise ModelError("no end node for the serial-chain oracle")
    if model.rigid_links or model.platforms:
        raise ModelError("serial-chain oracle handles flexible links only")
    if len(model.supports) != 1:
        raise ModelError("serial-chain oracle needs exactly one base support")
    support = next(iter(model.supports.values()))
    if support.kind != "rigid":
        raise ModelError("serial-chain oracle needs a rigid base support")
    for spec in model.connections:
        if getattr(spec, "kind", None) != "rigid" or len(spec.nodes) != 2:
            raise ModelError("serial-chain oracle handles pairwise rigid joints only")

    next_of = {}
    for spec in model.connections:
        a, b = spec.nodes
        next_of[a] = b
        next_of[b] = a
    by_near = {link.nodes[0]: link for link in model.flexible_links}
    by_far = {link.nodes[1]: link for link in model.flexible_links}

    chain = []
    node = support.node
    seen = set()
    while True:
        link = by_near.get(node) or by_far.get(node)
        if link is None or link in seen:
            raise ModelError("model is not a serial chain from the base support")
        seen.add(link)
        far = link.nodes[1] if link.nodes[0] == node else link.nodes[0]
        if link.nodes[0] != node:
            raise ModelError("serial-chain oracle expects links oriented base to tip")
        chain.append(link)
        if far == end:
            break
        if far not in next_of:
            raise ModelError("chain does not reach the end node")
        node = next_of[far]
    if len(seen) != len(model.flexible_links):
        raise ModelError("model has links outside the serial chain")

    p_end = model.positions[end]
    C = np.zeros((6, 6))
    for link in chain:
        tip = link.nodes[1]
        T = _transport6(p_end - model.positions[tip])
        C += T @ np.linalg.inv(link.K22) @ T.T
    return np.linalg.inv(C)


# ---------------------------------------------------------------------------
# Frame-change helper
# ---------------------------------------------------------------------------

def rotated_model(model: Model, R) -> Model:
    """The same structure expressed in a frame rotated by R.

    Node positions, link matrices, joint bases, support bases and preloads
    are all conjugated; platform offsets follow the positions automatically.
    """
    R = np.asarray(R, dtype=float)
    out = Model()
    for node, pos in model.positions.items():
        out.add_node(node, R @ pos)
    for link in model.flexible_links:
        out.flexible_links.append(LinkStiffness(_rotate_blocks(link.K, R), link.nodes))
    out.rigid_links = list(model.rigid_links)
    for platform in model.platforms:
        if platform.kind == "rigid":
            out.platforms.append(platform)
        else:
            rotated = tuple(LinkStiffness(_rotate_blocks(k.K, R), k.nodes)
                            for k in platform.stiffnesses)
            out.platforms.append(PlatformSpec(kind="flexible", clamps=platform.clamps,
                                              end=platform.end, stiffnesses=rotated))
    for spec in model.connections:
        if hasattr(spec, "rigid_nodes"):
            rotated_passive = tuple((n, b.rotated(R)) for n, b in spec.passive_nodes)
            out.add_junction(spec.rigid_nodes, rotated_passive)
        else:
            out.connections.append(_rotated_spring(spec, R))
    for support in model.supports.values():
        out.supports[support.node] = _rotated_spring(support, R)
    out.load_points = dict(model.load_points)
    out.end_effector = model.end_effector
    return out


def _rotated_spring(spec, R):
    """A joint or support spec with its basis and preload rotated by R."""
    basis = None if spec.basis is None else spec.basis.rotated(R)
    stiff = spec.stiffness
    if stiff is not None and stiff.preload is not None:
        stiff = JointStiffness(stiff.matrix, block_rotation(R, 2) @ stiff.preload)
    return replace(spec, basis=basis, stiffness=stiff)
