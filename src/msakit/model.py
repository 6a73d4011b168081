"""Model container: nodes plus the element, joint, boundary and load catalogue.

A Model is a mutable builder; assembly, stiffness extraction and solving live
in the assembly module and treat the model as read-only. Every invariant of
an element, connection, support or load point is checked once, by the
`add_*` call that records it (for joints, by `JointSpec`); the emitters
trust the model.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import numpy as np

from .boundary import SUPPORT_KINDS
from .core import JointBasis, JointStiffness, _as_vector, _joint_stiffness
from .elements import BeamSection, LinkStiffness, beam_stiffness
from .errors import ModelError
from .joints import JointSpec, _check_spring

# Absolute slack, scaled by model extent, for "these joint nodes coincide".
COINCIDENT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SupportSpec:
    node: Hashable
    kind: str
    basis: JointBasis | None = None
    stiffness: JointStiffness | None = None


@dataclass(frozen=True, eq=False)
class PlatformSpec:
    kind: str                      # "rigid" | "flexible"
    clamps: tuple
    end: Hashable
    stiffnesses: tuple | None = None  # per-clamp LinkStiffness for flexible platforms


@dataclass(frozen=True, eq=False)
class JunctionSpec:
    rigid_nodes: tuple
    passive_nodes: tuple           # of (node, JointBasis)

    @property
    def nodes(self) -> tuple:
        return self.rigid_nodes + tuple(n for n, _ in self.passive_nodes)


class Model:
    """Stiffness model under construction.

    Nodes carry positions; links, platforms, joints, supports and load points
    reference them by id. Insertion order is preserved so assembled systems
    are reproducible.
    """

    def __init__(self):
        self.positions: dict = {}
        self.flexible_links: list[LinkStiffness] = []
        self.rigid_links: list[tuple] = []
        self.platforms: list[PlatformSpec] = []
        self.connections: list = []          # JointSpec | JunctionSpec, in insertion order
        self.supports: dict = {}             # node -> SupportSpec
        self.load_points: dict = {}          # end node -> tuple of incident nodes
        self.end_effector: Hashable | None = None
        self._extent = 1.0                   # max(1, largest |coordinate| of any node)

    # -- nodes ----------------------------------------------------------

    def add_node(self, node: Hashable, position) -> None:
        if node in self.positions:
            raise ModelError(f"node {node!r} already declared")
        self.positions[node] = p = _as_vector(position, 3, f"position of {node!r}")
        self._extent = max(self._extent, float(np.abs(p).max()))

    def position_of(self, node: Hashable) -> np.ndarray:
        self._require_nodes([node])
        return self.positions[node]

    def _require_nodes(self, nodes) -> None:
        for node in nodes:
            if node not in self.positions:
                raise ModelError(f"unknown node id {node!r}")

    def _require_coincident(self, nodes, what: str) -> None:
        pts = [self.positions[n] for n in nodes]
        spread = max(np.linalg.norm(p - pts[0]) for p in pts)
        if spread > COINCIDENT_TOL * self._extent:
            raise ModelError(f"{what} nodes must be coincident (offset {spread:.3e}); "
                             "use a rigid link to bridge distinct points")

    # -- links and platforms ---------------------------------------------

    def add_flexible_link(self, i: Hashable, j: Hashable, K) -> LinkStiffness:
        """Attach a 12x12 global-frame stiffness between nodes i and j."""
        self._require_nodes([i, j])
        if isinstance(K, LinkStiffness):
            link = K if K.nodes == (i, j) else K.with_nodes(i, j)
        else:
            link = LinkStiffness.from_matrix(K, (i, j))
        self.flexible_links.append(link)
        return link

    def add_beam(self, i: Hashable, j: Hashable, *, E, G, A, Iy, Iz, J) -> LinkStiffness:
        """Generate a uniform beam element between two nodes.

        Length and axis come from the node coordinates; the local matrix is
        rotated into the global frame before it is stored.
        """
        self._require_nodes([i, j])
        d = self.positions[j] - self.positions[i]
        L = float(np.linalg.norm(d))
        if L <= 0.0:
            raise ModelError(f"beam ({i!r},{j!r}) has zero length")
        section = BeamSection(E=E, G=G, A=A, L=L, Iy=Iy, Iz=Iz, J=J, axis=d / L)
        return self.add_flexible_link(i, j, beam_stiffness(section, (i, j)))

    def add_rigid_link(self, i: Hashable, j: Hashable) -> None:
        self._require_nodes([i, j])
        if i == j:
            raise ModelError("rigid link end nodes must differ")
        self.rigid_links.append((i, j))

    def add_rigid_platform(self, clamps: Sequence[Hashable], end: Hashable) -> None:
        clamps = tuple(clamps)
        self._require_nodes(list(clamps) + [end])
        if not clamps:
            raise ModelError("rigid platform needs at least one clamp node")
        if len(set(clamps)) != len(clamps):
            raise ModelError("duplicate clamp node ids on rigid platform")
        if end in clamps:
            raise ModelError("platform end node cannot also be a clamp")
        self.platforms.append(PlatformSpec(kind="rigid", clamps=clamps, end=end))

    def add_flexible_platform(self, clamp_stiffness: Mapping, end: Hashable) -> None:
        """Platform from virtual flexible links: {clamp node: 12x12 matrix}."""
        clamps = tuple(clamp_stiffness.keys())
        self._require_nodes(list(clamps) + [end])
        if not clamps:
            raise ModelError("flexible platform needs at least one virtual link")
        links = tuple(
            K if isinstance(K, LinkStiffness) and K.nodes == (c, end)
            else LinkStiffness.from_matrix(K.K if isinstance(K, LinkStiffness) else K, (c, end))
            for c, K in clamp_stiffness.items()
        )
        self.platforms.append(PlatformSpec(kind="flexible", clamps=clamps, end=end,
                                           stiffnesses=links))

    @staticmethod
    def _stiffness(stiffness, preload) -> JointStiffness | None:
        if stiffness is None:
            if preload is not None:
                raise ModelError("a preload needs an elastic stiffness to act through")
            return None
        return _joint_stiffness(stiffness, preload)

    # -- joints -----------------------------------------------------------

    def add_joint(self, kind: str, nodes: Sequence[Hashable], basis: JointBasis | None = None,
                  stiffness=None, preload=None, idealization: str | None = None) -> JointSpec:
        self._require_nodes(nodes)
        stiffness = self._stiffness(stiffness, preload)
        spec = JointSpec(kind=kind, nodes=tuple(nodes), basis=basis,
                         stiffness=stiffness, idealization=idealization)
        self._require_coincident(spec.nodes, f"joint {spec.nodes}")
        self.connections.append(spec)
        return spec

    def add_junction(self, rigid_nodes: Sequence[Hashable],
                     passive_nodes: Sequence = ()) -> JunctionSpec:
        """Compound connection: welded carrier nodes plus pinned attachments."""
        passive = tuple((n, b) for n, b in passive_nodes)
        all_nodes = list(rigid_nodes) + [n for n, _ in passive]
        self._require_nodes(all_nodes)
        if not rigid_nodes:
            raise ModelError("junction needs at least one carrier node")
        if len(set(all_nodes)) != len(all_nodes):
            raise ModelError("duplicate node ids in junction")
        if len(all_nodes) < 2:
            raise ModelError("junction must connect at least two nodes")
        if any(basis.p < 1 for _, basis in passive):
            raise ModelError("junction attachments must be passive (p >= 1); "
                             "weld extra nodes into the carrier group instead")
        self._require_coincident(all_nodes, "junction")
        spec = JunctionSpec(rigid_nodes=tuple(rigid_nodes), passive_nodes=passive)
        self.connections.append(spec)
        return spec

    # -- boundary ----------------------------------------------------------

    def add_support(self, node: Hashable, kind: str = "rigid",
                    basis: JointBasis | None = None, stiffness=None, preload=None) -> None:
        self._require_nodes([node])
        if node in self.supports:
            raise ModelError(f"node {node!r} already carries a support; "
                             "compose behaviors through an intermediate node and a joint")
        if node in self.load_points:
            raise ModelError(f"node {node!r} is a load point and cannot also be supported")
        if kind not in SUPPORT_KINDS:
            raise ModelError(f"unknown support kind {kind!r}")
        if kind != "rigid" and basis is None:
            raise ModelError(f"{kind} support needs a direction basis")
        stiffness = self._stiffness(stiffness, preload)
        if kind == "passive":
            if basis.p < 1:
                raise ModelError("passive support needs at least one free direction "
                                 "(use a rigid support)")
            if basis.r < 1:
                raise ModelError("a support with no rigid direction constrains nothing; "
                                 "model a free end with a load node instead")
        if kind == "elastic":
            if stiffness is None:
                raise ModelError("elastic support needs a stiffness matrix")
            _check_spring(basis, stiffness, "support")
        self.supports[node] = SupportSpec(node=node, kind=kind, basis=basis, stiffness=stiffness)

    def add_load_point(self, end_node: Hashable, incident_nodes: Sequence[Hashable] | None = None) -> None:
        """Declare a node where an external wrench may be applied.

        `incident_nodes` are the link ends meeting at the loaded junction and
        default to the node itself.
        """
        nodes = tuple(incident_nodes) if incident_nodes is not None else (end_node,)
        self._require_nodes(list(nodes) + [end_node])
        if not nodes:
            raise ModelError("a load point needs at least one incident node")
        if len(set(nodes)) != len(nodes):
            raise ModelError("duplicate node ids at load point")
        if end_node in self.supports:
            raise ModelError(f"node {end_node!r} is supported and cannot carry a load point")
        if end_node in self.load_points:
            raise ModelError(f"node {end_node!r} already is a load point")
        self.load_points[end_node] = nodes

    def set_end_effector(self, node: Hashable,
                         incident_nodes: Sequence[Hashable] | None = None) -> None:
        self._require_nodes([node])
        if self.end_effector is not None:
            raise ModelError("end effector already set")
        self.end_effector = node
        if node not in self.load_points:
            self.add_load_point(node, incident_nodes)

    # -- analysis conveniences (delegating to assembly) ---------------------

    def assemble(self):
        from . import assembly
        return assembly.assemble(self)

    def check(self):
        from . import assembly
        return assembly.check_model(self)

    def cartesian_stiffness(self, end: Hashable | None = None):
        """End-point stiffness query; see assembly.cartesian_stiffness.

        Querying a supported node analyses the variant with that support
        replaced by a load point, which is the stiffness felt at the
        attachment with the rest of the structure holding it.
        """
        from . import assembly
        end = self.end_effector if end is None else end
        if end is None:
            raise ModelError("no end effector set and no query node given")
        variant = self._query_variant(end)
        return assembly.cartesian_stiffness(variant.assemble(), end)

    def solve(self, loads=None):
        from . import assembly
        return assembly.solve_loaded(self.assemble(), loads)

    def _query_variant(self, end: Hashable) -> "Model":
        self._require_nodes([end])
        if end in self.load_points and end not in self.supports:
            return self
        m = self.copy()
        m.supports.pop(end, None)
        if end not in m.load_points:
            m.load_points[end] = (end,)
        return m

    def copy(self) -> "Model":
        m = Model()
        m.positions = dict(self.positions)
        m.flexible_links = list(self.flexible_links)
        m.rigid_links = list(self.rigid_links)
        m.platforms = list(self.platforms)
        m.connections = list(self.connections)
        m.supports = dict(self.supports)
        m.load_points = dict(self.load_points)
        m.end_effector = self.end_effector
        m._extent = self._extent
        return m
