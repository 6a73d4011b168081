"""Element models: flexible links, rigid links, and rigid/flexible platforms.

Each emitter turns a family of elements of one kind and layout into one
EquationBlock. Every element states its equilibrium exactly, W_i + D^T W_j
= 0 with D the transport operator (about the end point, for a platform);
flexible elements add stiffness rows -W + K dt = 0, rigid ones transported
compatibility. The model builder checks each element once, a flexible one
for being a free body about its node positions, and binds every flexible
link to its node pair; the emitters raise nothing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import _freeze, _rotate_blocks, _transports
from .equations import EYE6, NEG_EYE6, EquationBlock
from .errors import ModelError

# Relative symmetry tolerance for user-supplied 12x12 matrices (CAD-extracted
# matrices carry numerical asymmetry); worse than this is rejected.
USER_MATRIX_SYM_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class LinkStiffness:
    """12x12 two-node stiffness matrix in the global frame."""

    K: np.ndarray
    nodes: tuple | None = None

    def __post_init__(self):
        K = np.asarray(self.K, dtype=float)
        if K.shape != (12, 12):
            raise ModelError(f"link stiffness must be 12x12, got {K.shape}")
        if not np.isfinite(K).all():
            raise ModelError("link stiffness has non-finite entries")
        object.__setattr__(self, "K", _freeze(K))
        if self.nodes is not None:
            i, j = self.nodes
            if i == j:
                raise ModelError("link end nodes must differ")
            object.__setattr__(self, "nodes", (i, j))

    @classmethod
    def from_matrix(cls, K, nodes=None) -> "LinkStiffness":
        """Accept a user matrix after a symmetry check, then symmetrize."""
        link = cls(K, nodes)             # checks the shape, finiteness and nodes
        K = link.K
        scale = max(np.max(np.abs(K)), 1.0)
        if np.max(np.abs(K - K.T)) > USER_MATRIX_SYM_TOL * scale:
            raise ModelError("link stiffness asymmetry exceeds the accepted tolerance")
        K = 0.5 * (K + K.T)
        if np.min(np.linalg.eigvalsh(K)) < -1e-7 * scale:
            raise ModelError("link stiffness must be positive semidefinite")
        object.__setattr__(link, "K", _freeze(K))
        return link

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


def _check_section(**values) -> None:
    """Each beam section value must be finite and positive."""
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0.0):
            raise ModelError(f"beam section {name} must be positive, got {value}")


def _beam_matrix(E, G, A, L, Iy, Iz, J, axis) -> np.ndarray:
    """Global-frame 12x12 matrix of a uniform beam along `axis` (a nonzero
    3-array of any length), for a checked section: the local element rotated by one block-diagonal
    product into the right-handed frame with x along `axis` (y = z x axis,
    or y x axis when the axis is nearly along z), then symmetrized to drop
    the rotation's roundoff asymmetry."""
    a, b, c = axis.tolist()
    n = math.sqrt(a * a + b * b + c * c)
    a, b, c = a / n, b / n, c / n
    ya, yb, yc = (-b, a, 0.0) if abs(c) <= 1.0 - 1e-9 else (c, 0.0, -a)
    n = math.sqrt(ya * ya + yb * yb + yc * yc)
    ya, yb, yc = ya / n, yb / n, yc / n
    R = np.array([[a, ya, b * yc - c * yb], [b, yb, c * ya - a * yc], [c, yc, a * yb - b * ya]])
    k = _rotate_blocks(_local_beam_matrix(E, G, A, L, Iy, Iz, J), R)
    return 0.5 * (k + k.T)


def flexible_link_equations(links: Sequence[LinkStiffness], d) -> EquationBlock:
    """Links, each bound to its node pair (i, j), with d the (m, 3) offsets
    from i to j: equilibrium W_i + D^T W_j = 0 (D the transport for d) and
    far-end rows -W_j + K21 dt_i + K22 dt_j = 0."""
    K, nodes = np.stack([link.K for link in links]), [link.nodes for link in links]
    return EquationBlock([f"link({i},{j})" for i, j in nodes], 12, nodes, category="link", entries=[
        (0, "W", 0, EYE6), (0, "W", 1, _transports(d).swapaxes(1, 2)), (6, "W", 1, NEG_EYE6),
        (6, "t", 0, K[:, 6:, :6]), (6, "t", 1, K[:, 6:, 6:])])


def rigid_link_equations(d, nodes: Sequence[tuple]) -> EquationBlock:
    """Rigid links: rows D dt_i - dt_j = 0 (compatibility) and W_i + D^T W_j
    = 0 (equilibrium), D the transport for the offset d from node i to node
    j, one offset per node pair of `nodes`."""
    D = _transports(d)
    return EquationBlock([f"rigid_link({i},{j})" for i, j in nodes], 12, list(nodes), entries=[
        (0, "t", 0, D), (0, "t", 1, NEG_EYE6), (6, "W", 0, EYE6), (6, "W", 1, D.swapaxes(1, 2))])


def _platforms(kind: str, clamps: Sequence, ends: Sequence, clamp_rows) -> EquationBlock:
    """Platforms, `clamps[k]` platform k's (clamp, d) pairs with d from the
    clamp node to the end `ends[k]`: each clamp's rows `clamp_rows(k, c, D)`
    (D the transports for the (m, c, 3) offsets d; clamps in slots 0..c-1,
    the end in slot c), then W_end + sum_k transport(-d_k)^T W_k = 0."""
    d = np.array([[offset for _, offset in record] for record in clamps], dtype=float)
    m, c = len(clamps), len(clamps[0])
    D, T = (_transports(x).reshape(m, c, 6, 6) for x in (d, -d))
    entries = [entry for k in range(c) for entry in clamp_rows(k, c, D)]
    entries += [(6 * c, "W", k, T[:, k].swapaxes(1, 2)) for k in range(c)]
    nodes = [tuple(node for node, _ in record) + (end,) for record, end in zip(clamps, ends)]
    return EquationBlock(
        [f"{kind}_platform({','.join(map(str, n[:-1]))};{n[-1]})" for n in nodes],
        6 * c + 6, nodes, entries + [(6 * c, "W", c, EYE6)],
        category="link" if kind == "flexible" else "constraint")


def rigid_platform_equations(clamps: Sequence, ends: Sequence) -> EquationBlock:
    """Rigid platforms with one number of clamps, `clamps[k]` platform k's
    (node, d) pairs with d from the clamp to its end node `ends[k]`: six
    compatibility rows per clamp, and the equilibrium about the end point."""
    return _platforms("rigid", clamps, ends, lambda k, c, D: [
        (6 * k, "t", k, D[:, k]), (6 * k, "t", c, NEG_EYE6)])


def flexible_platform_equations(clamps: Sequence, ends: Sequence) -> EquationBlock:
    """Platforms of virtual flexible links sharing their end node, with one
    number of clamps, `clamps[k]` platform k's (link, d) pairs, each link
    bound to (clamp, `ends[k]`): each link's near-end rows -W_c + K11 dt_c +
    K12 dt_end = 0, and the equilibrium about the end point."""
    K = np.array([[link.K[:6] for link, _ in record] for record in clamps])
    clamps = [[(link.nodes[0], d) for link, d in record] for record in clamps]
    return _platforms("flexible", clamps, ends, lambda k, c, D: [
        (6 * k, "W", k, NEG_EYE6), (6 * k, "t", k, K[:, k, :, :6]),
        (6 * k, "t", c, K[:, k, :, 6:])])
