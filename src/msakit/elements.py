"""Element models: flexible links, rigid links, and rigid/flexible platforms.

Each emitter returns an EquationBlock over the wrench and deflection
unknowns of the touched nodes. Flexible elements contribute stiffness rows
-W + K dt = 0; rigid elements contribute compatibility and equilibrium
constraints built from transport operators.

The model builder checks each element once, when it records it, and binds
every flexible link to its node pair; the emitters trust their input and
raise nothing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .core import _as_vector, _freeze, _rotate_blocks, _transport6
from .equations import EYE6, NEG_EYE6, EquationBlock, deflection_var, wrench_var
from .errors import ModelError

# Relative symmetry tolerance for user-supplied 12x12 matrices (CAD-extracted
# matrices carry numerical asymmetry); worse than this is rejected.
USER_MATRIX_SYM_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class BeamSection:
    """Uniform beam data: material, cross-section, length and axis direction."""

    E: float          # Young's modulus (Pa)
    G: float          # shear modulus (Pa)
    A: float          # cross-section area (m^2)
    L: float          # length (m)
    Iy: float         # second moment about local y (m^4)
    Iz: float         # second moment about local z (m^4)
    J: float          # torsion constant (m^4)
    axis: np.ndarray  # unit vector from first to second node

    def __post_init__(self):
        for name in ("E", "G", "A", "L", "Iy", "Iz", "J"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ModelError(f"beam section {name} must be positive, got {value}")
        axis = _as_vector(self.axis, 3, "axis")
        n = np.linalg.norm(axis)
        if abs(n - 1.0) > 1e-6:
            raise ModelError(f"beam axis must be unit-norm, |axis| = {n}")
        object.__setattr__(self, "axis", _freeze(axis / n))


@dataclass(frozen=True, eq=False)
class LinkStiffness:
    """12x12 two-node stiffness matrix in the global frame."""

    K: np.ndarray
    nodes: tuple | None = None

    def __post_init__(self):
        K = np.asarray(self.K, dtype=float)
        if K.shape != (12, 12):
            raise ModelError(f"link stiffness must be 12x12, got {K.shape}")
        if not np.all(np.isfinite(K)):
            raise ModelError("link stiffness has non-finite entries")
        object.__setattr__(self, "K", _freeze(K))
        if self.nodes is not None:
            i, j = self.nodes
            if i == j:
                raise ModelError("link end nodes must differ")
            object.__setattr__(self, "nodes", (i, j))

    @classmethod
    def from_matrix(cls, K, nodes=None, sym_tol: float = USER_MATRIX_SYM_TOL) -> "LinkStiffness":
        """Accept a user matrix after a symmetry check, then symmetrize."""
        K = cls(K).K                     # checks the shape and finiteness
        scale = max(np.max(np.abs(K)), 1.0)
        if np.max(np.abs(K - K.T)) > sym_tol * scale:
            raise ModelError("link stiffness asymmetry exceeds the accepted tolerance")
        K = 0.5 * (K + K.T)
        if np.min(np.linalg.eigvalsh(K)) < -1e-7 * scale:
            raise ModelError("link stiffness must be positive semidefinite")
        return cls(K, nodes)

    def with_nodes(self, i: Hashable, j: Hashable) -> "LinkStiffness":
        return LinkStiffness(self.K, (i, j))

    @property
    def K11(self) -> np.ndarray:
        return self.K[:6, :6]

    @property
    def K12(self) -> np.ndarray:
        return self.K[:6, 6:]

    @property
    def K21(self) -> np.ndarray:
        return self.K[6:, :6]

    @property
    def K22(self) -> np.ndarray:
        return self.K[6:, 6:]


def _local_beam_matrix(E, G, A, L, Iy, Iz, J) -> np.ndarray:
    """Classical 12x12 space-frame element in local axes (x along the beam)."""
    k = np.zeros((12, 12))

    ea = E * A / L
    k[0, 0] = k[6, 6] = ea
    k[0, 6] = k[6, 0] = -ea

    gj = G * J / L
    k[3, 3] = k[9, 9] = gj
    k[3, 9] = k[9, 3] = -gj

    # Bending about local z (displacement y, rotation about z).
    a = 12.0 * E * Iz / L**3
    b = 6.0 * E * Iz / L**2
    c = 4.0 * E * Iz / L
    d = 2.0 * E * Iz / L
    k[1, 1] = k[7, 7] = a
    k[1, 7] = k[7, 1] = -a
    k[1, 5] = k[5, 1] = k[1, 11] = k[11, 1] = b
    k[5, 7] = k[7, 5] = k[7, 11] = k[11, 7] = -b
    k[5, 5] = k[11, 11] = c
    k[5, 11] = k[11, 5] = d

    # Bending about local y (displacement z, rotation about y); signs flip.
    a = 12.0 * E * Iy / L**3
    b = 6.0 * E * Iy / L**2
    c = 4.0 * E * Iy / L
    d = 2.0 * E * Iy / L
    k[2, 2] = k[8, 8] = a
    k[2, 8] = k[8, 2] = -a
    k[2, 4] = k[4, 2] = k[2, 10] = k[10, 2] = -b
    k[4, 8] = k[8, 4] = k[8, 10] = k[10, 8] = b
    k[4, 4] = k[10, 10] = c
    k[4, 10] = k[10, 4] = d

    return k


def beam_frame(axis) -> np.ndarray:
    """Right-handed local frame with x along `axis` (columns are local axes)."""
    x = _as_vector(axis, 3, "axis")
    a, b, c = (x / math.sqrt(x.dot(x))).tolist()
    # y = ref x axis with ref = z, or y when the axis is nearly along z.
    y = np.array([-b, a, 0.0] if abs(c) <= 1.0 - 1e-9 else [c, 0.0, -a])
    ya, yb, yc = (y / math.sqrt(y.dot(y))).tolist()
    return np.array([[a, ya, b * yc - c * yb],
                     [b, yb, c * ya - a * yc],
                     [c, yc, a * yb - b * ya]])


def beam_stiffness(section: BeamSection, nodes: tuple | None = None) -> LinkStiffness:
    """Global-frame 12x12 stiffness of a uniform beam element (on `nodes`, if given)."""
    k_local = _local_beam_matrix(section.E, section.G, section.A, section.L,
                                 section.Iy, section.Iz, section.J)
    k = _rotate_blocks(k_local, beam_frame(section.axis))
    return LinkStiffness(0.5 * (k + k.T), nodes)  # drop rotation roundoff asymmetry


def flexible_link_equations(link: LinkStiffness) -> EquationBlock:
    """Stiffness rows -W_i - W_j + K [dt_i; dt_j] = 0 for a two-node link."""
    i, j = link.nodes
    return EquationBlock(
        source=f"link({i},{j})",
        rows=12,
        category="link",
        entries=[
            (0, wrench_var(i), NEG_EYE6),
            (6, wrench_var(j), NEG_EYE6),
            (0, deflection_var(i), link.K11),
            (0, deflection_var(j), link.K12),
            (6, deflection_var(i), link.K21),
            (6, deflection_var(j), link.K22),
        ],
    )


def rigid_link_equations(d, nodes) -> EquationBlock:
    """Rigid-link constraints: transported compatibility plus static equilibrium.

    Six rows carry D dt_i - dt_j = 0 and six rows carry W_i + D^T W_j = 0,
    where D is the transport operator for the offset d from node i to node j.
    """
    i, j = nodes
    D = _transport6(d)
    return EquationBlock(
        source=f"rigid_link({i},{j})",
        rows=12,
        entries=[
            (0, deflection_var(i), D),
            (0, deflection_var(j), NEG_EYE6),
            (6, wrench_var(i), EYE6),
            (6, wrench_var(j), D.T),
        ],
    )


def rigid_platform_equations(clamps: Sequence, end: Hashable) -> EquationBlock:
    """Rigid platform tying clamp nodes to the end node.

    `clamps` is a sequence of (node, d) pairs where d points from the clamp
    to the end reference point. Each clamp contributes six compatibility rows;
    one six-row equilibrium equation sums the transported clamp wrenches with
    the end-node wrench.
    """
    clamps = list(clamps)
    n = len(clamps)
    entries = []
    for k, (node, d) in enumerate(clamps):
        D = _transport6(d)
        entries.append((6 * k, deflection_var(node), D))
        entries.append((6 * k, deflection_var(end), NEG_EYE6))
    row_w = 6 * n
    for node, d in clamps:
        # Equilibrium about the end point: transport uses the end-to-clamp offset.
        D_back = _transport6(-np.asarray(d, dtype=float))
        entries.append((row_w, wrench_var(node), D_back.T))
    entries.append((row_w, wrench_var(end), EYE6))
    return EquationBlock(
        source=f"rigid_platform({','.join(str(c) for c, _ in clamps)};{end})",
        rows=6 * n + 6,
        entries=entries,
    )


def flexible_platform_equations(clamp_links: Sequence[LinkStiffness], end: Hashable) -> EquationBlock:
    """Platform approximated by virtual flexible links sharing the end node.

    Emits stiffness rows with one diagonal block per clamp and the end-node
    block equal to the sum of the per-link far-end blocks.
    """
    links = list(clamp_links)
    n = len(links)
    entries = []
    k22_sum = np.zeros((6, 6))
    row_e = 6 * n
    for k, link in enumerate(links):
        clamp = link.nodes[0]
        entries.append((6 * k, wrench_var(clamp), NEG_EYE6))
        entries.append((6 * k, deflection_var(clamp), link.K11))
        entries.append((6 * k, deflection_var(end), link.K12))
        entries.append((row_e, deflection_var(clamp), link.K21))
        k22_sum = k22_sum + link.K22
    entries.append((row_e, wrench_var(end), NEG_EYE6))
    entries.append((row_e, deflection_var(end), k22_sum))
    return EquationBlock(
        source=f"flexible_platform({','.join(str(link.nodes[0]) for link in links)};{end})",
        rows=6 * n + 6,
        category="link",
        entries=entries,
    )
