"""Screw-algebra primitives: wrenches, transport operators, rotations, joint bases.

All 6-vectors are ordered (translation; rotation) for deflections and
(force; moment) for wrenches, and every quantity lives in the global frame.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
import numpy as np

from .errors import ModelError

# Orthonormality tolerance for joint direction bases.
ORTHONORMAL_TOL = 1e-12
# Tolerance for rotation-matrix checks (R^T R = I, det R = +1).
ROTATION_TOL = 1e-9


def _as_vector(v, size: int, name: str = "vector") -> np.ndarray:
    a = np.asarray(v, dtype=float).reshape(-1)
    if a.shape != (size,):
        raise ModelError(f"{name} must have {size} components, got shape {np.shape(v)}")
    if not np.isfinite(a).all():
        raise ModelError(f"{name} has non-finite entries")
    return a


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def skew(v) -> np.ndarray:
    """3x3 matrix S(v) with S(v) @ w = v x w."""
    x, y, z = _as_vector(v, 3, "v")
    return np.array([
        [0.0, -z, y],
        [z, 0.0, -x],
        [-y, x, 0.0],
    ])


def rotation_matrix(axis, angle: float) -> np.ndarray:
    """Rotation by `angle` (rad) about `axis` (Rodrigues formula)."""
    a = _as_vector(axis, 3, "axis")
    n = np.linalg.norm(a)
    if n == 0.0:
        raise ModelError("rotation axis must be nonzero")
    a = a / n
    s = skew(a)
    return np.eye(3) + np.sin(angle) * s + (1.0 - np.cos(angle)) * (s @ s)


def is_rotation(R, tol: float = ROTATION_TOL) -> bool:
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        return False
    return (np.linalg.norm(R.T @ R - np.eye(3)) <= tol) and (np.linalg.det(R) > 0.0)


def block_rotation(R, copies: int = 2) -> np.ndarray:
    """Block-diagonal stack of `copies` copies of the 3x3 rotation R."""
    Q = np.zeros((3 * copies, 3 * copies))
    for k in range(0, 3 * copies, 3):
        Q[k:k + 3, k:k + 3] = R
    return Q


def shift_wrench(w, r) -> np.ndarray:
    """Equivalent wrench at a point offset by -r: force kept, moment picks up r x F.

    `r` is the vector from the new reference point to the point of application.
    """
    w = _as_vector(w, 6, "wrench")
    r = _as_vector(r, 3, "r")
    out = w.copy()
    out[3:] += np.cross(r, w[:3])
    return out


@dataclass(frozen=True, eq=False)
class Wrench:
    """Node wrench: force F (N) and moment M (N*m)."""

    force: np.ndarray
    moment: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "force", _freeze(_as_vector(self.force, 3, "force")))
        object.__setattr__(self, "moment", _freeze(_as_vector(self.moment, 3, "moment")))

    @property
    def array(self) -> np.ndarray:
        return np.concatenate([self.force, self.moment])

    @classmethod
    def from_array(cls, a) -> "Wrench":
        a = _as_vector(a, 6, "wrench")
        return cls(a[:3], a[3:])


def transport_matrix(d) -> np.ndarray:
    """6x6 rigid transport operator [I, skew(d)^T; 0, I] for the offset d
    (first point to second). Applied to a deflection at the first point it
    yields the deflection the second point inherits; its transpose
    propagates wrenches the other way."""
    return _transports(_as_vector(d, 3, "d"))[0]


def _transports(d) -> np.ndarray:
    """The (m, 6, 6) stack of `transport_matrix` for an (m, 3) array of offsets."""
    d = np.asarray(d, dtype=float).reshape(-1, 3)
    D = np.zeros((len(d), 36))
    D[:, ::7] = 1.0
    D[:, [4, 5, 9, 11, 15, 16]] = d[:, [2, 1, 2, 0, 1, 0]] * [1.0, -1.0, -1.0, 1.0, 1.0, -1.0]
    return D.reshape(-1, 6, 6)


def rotate_link_stiffness(K, R) -> np.ndarray:
    """Rotate a 12x12 two-node stiffness matrix into a new frame.

    R maps local axes to global axes; the result is Q K Q^T with
    Q = blockdiag(R, R, R, R).
    """
    K = np.asarray(K, dtype=float)
    if K.shape != (12, 12):
        raise ModelError(f"stiffness matrix must be 12x12, got {K.shape}")
    if not is_rotation(R):
        raise ModelError("R must be a proper rotation matrix (orthonormal, det +1)")
    return _rotate_blocks(K, np.asarray(R, dtype=float))


def _rotate_blocks(K: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Q K Q^T for Q = blockdiag(R, ..., R), as one block-diagonal product."""
    Q = block_rotation(R, K.shape[0] // 3)
    return Q @ K @ Q.T


@dataclass(frozen=True, eq=False)
class JointBasis:
    """Orthonormal 6-vector basis split into rigid and free directions.

    The first group (r vectors) spans directions along which a connection
    transmits effort and enforces compatibility; the second group
    (p = 6 - r vectors) spans the free or elastic directions.
    """

    lambda_rigid: np.ndarray  # (r, 6), rows are the rigid directions
    lambda_free: np.ndarray   # (p, 6), rows are the free or elastic directions

    def __post_init__(self):
        for name in ("lambda_rigid", "lambda_free"):
            rows = getattr(self, name)
            rows = np.asarray(rows, dtype=float).reshape(-1, 6) if np.size(rows) else np.zeros((0, 6))
            object.__setattr__(self, name, _freeze(rows))
        stacked = np.vstack([self.lambda_rigid, self.lambda_free])
        if stacked.shape[0] != 6:
            raise ModelError(f"joint basis needs exactly 6 vectors, got {stacked.shape[0]}")
        if not np.isfinite(stacked).all():
            raise ModelError("joint basis has non-finite entries")
        gram = stacked @ stacked.T
        if np.max(np.abs(gram - np.eye(6))) > ORTHONORMAL_TOL:
            raise ModelError("joint basis vectors are not orthonormal to 1e-12")

    @property
    def r(self) -> int:
        return self.lambda_rigid.shape[0]

    @property
    def p(self) -> int:
        return self.lambda_free.shape[0]

    def rotated(self, R) -> "JointBasis":
        """Basis expressed after rotating the global frame by R."""
        if not is_rotation(R):
            raise ModelError("R must be a proper rotation matrix")
        Q = block_rotation(R, 2)
        return JointBasis(self.lambda_rigid @ Q.T, self.lambda_free @ Q.T)


def make_joint_basis(u_rigid, u_free) -> JointBasis:
    """Build a JointBasis from explicit rigid and free 6-vectors.

    The combined set must contain exactly six mutually orthonormal vectors;
    nothing is re-orthonormalized silently.
    """
    ur = [_as_vector(u, 6, "u_rigid entry") for u in u_rigid]
    uf = [_as_vector(u, 6, "u_free entry") for u in u_free]
    ur_m = np.array(ur).reshape(-1, 6) if ur else np.zeros((0, 6))
    uf_m = np.array(uf).reshape(-1, 6) if uf else np.zeros((0, 6))
    return JointBasis(ur_m, uf_m)


# Free axes of each named lower-pair basis; the other axes are rigid.
_PRESET_FREE_AXES = {
    "revolute_x": [3], "revolute_y": [4], "revolute_z": [5],
    "prismatic_x": [0], "prismatic_y": [1], "prismatic_z": [2],
    "spherical": [3, 4, 5], "universal": [3, 4], "free": [0, 1, 2, 3, 4, 5],
}
JOINT_BASIS_PRESETS = tuple(_PRESET_FREE_AXES)


@functools.cache
def joint_basis_preset(name: str) -> JointBasis:
    """Named lower-pair bases: revolute_*, prismatic_*, spherical, universal,
    free; each is built once and shared, as a basis is read-only."""
    if name not in _PRESET_FREE_AXES:
        raise ModelError(f"unknown joint basis preset {name!r}; one of {', '.join(_PRESET_FREE_AXES)}")
    free = _PRESET_FREE_AXES[name]
    eye = np.eye(6)
    return JointBasis(eye[[i for i in range(6) if i not in free]], eye[free])


@dataclass(frozen=True, eq=False)
class JointStiffness:
    """Spring matrix over the elastic directions, with optional preload wrench.

    `matrix` is e x e symmetric positive definite where e is the number of
    elastic directions; `preload` is the 6-vector wrench the springs apply to
    the first connected node at zero relative deflection.
    """

    matrix: np.ndarray
    preload: np.ndarray | None = None

    def __post_init__(self):
        Ke = np.asarray(self.matrix, dtype=float)
        if Ke.ndim == 0:
            Ke = Ke.reshape(1, 1)
        if Ke.ndim != 2 or Ke.shape[0] != Ke.shape[1] or not (1 <= Ke.shape[0] <= 6):
            raise ModelError(f"joint stiffness must be e x e with 1 <= e <= 6, got {Ke.shape}")
        if not np.isfinite(Ke).all():
            raise ModelError("joint stiffness matrix has non-finite entries")
        # A 1x1 spring is symmetric, and definite when its one entry is positive.
        if Ke.shape[0] > 1 and abs(Ke - Ke.T).max() > 1e-12 * max(abs(Ke).max(), 1.0):
            raise ModelError("joint stiffness matrix must be symmetric to 1e-12")
        if not (Ke[0, 0] > 0.0 if Ke.shape[0] == 1 else np.linalg.eigvalsh(Ke)[0] > 0.0):
            raise ModelError("joint stiffness matrix must be positive definite")
        object.__setattr__(self, "matrix", _freeze(Ke))
        if self.preload is not None:
            object.__setattr__(self, "preload", _freeze(_as_vector(self.preload, 6, "preload")))

    @property
    def e(self) -> int:
        return self.matrix.shape[0]
