"""Model container: nodes plus the element, joint, boundary and load catalogue.

A Model is a builder; assembly, stiffness extraction and solving live in the
assembly module. Every invariant of a node, element, connection, support or
load point is checked once, by the `add_*` call that records it (the basis
and spring of joints and supports alike by `joints._check_attachment`), and
a field that a joint's or support's kind would ignore is an error there; the
document reader and the emitters trust the model, whose records are
read-only. Joints and junctions alike are recorded as one `JointSpec` each,
in the terms of the connection template; a flexible link must be a free body
about its node positions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Hashable, Mapping, Sequence

import numpy as np

from .boundary import SUPPORT_KINDS
from .core import JointBasis, JointStiffness, _as_vector, _freeze, transport_matrix
from .elements import LinkStiffness, _beam_matrix, _check_section
from .errors import ModelError
from .joints import JointSpec, _check_attachment, joint_spec

# Absolute slack, scaled by model extent, for "these joint nodes coincide".
COINCIDENT_TOL = 1e-9
# Largest ||K[:6] + D^T K[6:]|| / ||K|| of a free-body link (D the transport of
# its node offset); long chains and loops amplify the defect, so it is tight.
FREE_BODY_RTOL = 1e-12
# Record lists: `add_*` appends in O(1), and each read returns a tuple copy.
_LISTS = ("flexible_links", "rigid_links", "platforms", "connections")


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


class Model:
    """Stiffness model under construction.

    Nodes carry positions; links, platforms, joints, supports and load points
    reference them by id. Insertion order is preserved so assembled systems
    are reproducible. Records are appended by `add_*` alone; every other
    caller reads them as tuples, read-only mappings and frozen positions.
    """

    def __init__(self):
        self._positions: dict = {}           # node -> position
        self._supports: dict = {}            # node -> SupportSpec
        self._load_points: dict = {}         # load node -> None, for O(1) lookup
        self._lists = {name: [] for name in _LISTS}     # records in insertion order
        self._end_effector: Hashable | None = None
        self._extent = 1.0                   # max(1, largest |coordinate| of any node)
        self._system = None                  # (counts, system, padded system) of assembly._system

    positions = property(lambda self: MappingProxyType(self._positions))
    supports = property(lambda self: MappingProxyType(self._supports))
    load_points = property(lambda self: tuple(self._load_points))
    end_effector = property(lambda self: self._end_effector)
    flexible_links = property(lambda self: tuple(self._lists["flexible_links"]))
    rigid_links = property(lambda self: tuple(self._lists["rigid_links"]))
    platforms = property(lambda self: tuple(self._lists["platforms"]))
    connections = property(lambda self: tuple(self._lists["connections"]))

    # -- nodes ----------------------------------------------------------

    def add_node(self, node: Hashable, position) -> None:
        if node in self._positions:
            raise ModelError(f"node {node!r} already declared")
        self._positions[node] = p = _freeze(_as_vector(position, 3, f"position of {node!r}"))
        self._extent = max(self._extent, *map(abs, p.tolist()))

    def position_of(self, node: Hashable) -> np.ndarray:
        self._require_nodes([node])
        return self._positions[node]

    def _require_nodes(self, nodes) -> None:
        for node in nodes:
            if node not in self._positions:
                raise ModelError(f"unknown node id {node!r}")

    def _require_coincident(self, nodes, what: str) -> None:
        pts = [self._positions[n].tolist() for n in nodes]
        spread = max(math.dist(p, pts[0]) for p in pts)
        if spread > COINCIDENT_TOL * self._extent:
            raise ModelError(f"{what} nodes must be coincident (offset {spread:.3e}); "
                             "use a rigid link to bridge distinct points")

    # -- links and platforms ---------------------------------------------

    def _require_free_body(self, link: LinkStiffness) -> None:
        i, j = link.nodes
        D = transport_matrix(self._positions[j] - self._positions[i])
        norm = float(np.linalg.norm(link.K))
        defect = float(np.linalg.norm(link.K[:6] + D.T @ link.K[6:]))
        if defect > FREE_BODY_RTOL * norm:
            raise ModelError(f"link({i},{j}) is not a free body about its node positions "
                             f"(relative defect {defect / norm:.3e}); model a foundation "
                             "as an elastic support instead")

    def add_flexible_link(self, i: Hashable, j: Hashable, K) -> LinkStiffness:
        """Attach a 12x12 global-frame free-body stiffness (a matrix or a
        LinkStiffness) between nodes i and j."""
        self._require_nodes([i, j])
        link = LinkStiffness.from_matrix(getattr(K, "K", K), (i, j))
        self._require_free_body(link)
        self._lists["flexible_links"].append(link)
        return link

    def add_beam(self, i: Hashable, j: Hashable, *, E, G, A, Iy, Iz, J) -> LinkStiffness:
        """Generate a uniform beam element between two nodes.

        Length and axis come from the node coordinates; the local matrix is
        rotated into the global frame before it is stored.
        """
        self._require_nodes([i, j])
        d = self._positions[j] - self._positions[i]
        L = math.sqrt(d.dot(d))
        if L <= 0.0:
            raise ModelError(f"beam ({i!r},{j!r}) has zero length")
        _check_section(E=E, G=G, A=A, L=L, Iy=Iy, Iz=Iz, J=J)
        link = LinkStiffness(_beam_matrix(E, G, A, L, Iy, Iz, J, d), (i, j))   # a free body
        self._lists["flexible_links"].append(link)
        return link

    def add_rigid_link(self, i: Hashable, j: Hashable) -> None:
        self._require_nodes([i, j])
        if i == j:
            raise ModelError("rigid link end nodes must differ")
        self._lists["rigid_links"].append((i, j))

    def add_rigid_platform(self, clamps: Sequence[Hashable], end: Hashable) -> None:
        clamps = tuple(clamps)
        self._require_nodes(list(clamps) + [end])
        if not clamps:
            raise ModelError("rigid platform needs at least one clamp node")
        if len(set(clamps)) != len(clamps):
            raise ModelError("duplicate clamp node ids on rigid platform")
        if end in clamps:
            raise ModelError("platform end node cannot also be a clamp")
        self._lists["platforms"].append(PlatformSpec(kind="rigid", clamps=clamps, end=end))

    def add_flexible_platform(self, clamp_stiffness: Mapping, end: Hashable) -> None:
        """Platform from free-body virtual links: {clamp node: 12x12 matrix
        or LinkStiffness}."""
        clamps = tuple(clamp_stiffness.keys())
        self._require_nodes(list(clamps) + [end])
        if not clamps:
            raise ModelError("flexible platform needs at least one virtual link")
        links = tuple(LinkStiffness.from_matrix(getattr(K, "K", K), (c, end))
                      for c, K in clamp_stiffness.items())
        for link in links:
            self._require_free_body(link)
        self._lists["platforms"].append(PlatformSpec(kind="flexible", clamps=clamps, end=end,
                                                     stiffnesses=links))

    @staticmethod
    def _stiffness(stiffness, preload) -> JointStiffness | None:
        """`stiffness` (None, a JointStiffness or a matrix) as a JointStiffness;
        a given preload replaces the one it carries."""
        if stiffness is None:
            if preload is not None:
                raise ModelError("a preload needs an elastic stiffness to act through")
            return None
        if isinstance(stiffness, JointStiffness) and preload is None:
            return stiffness
        return JointStiffness(getattr(stiffness, "matrix", stiffness), preload)

    # -- joints -----------------------------------------------------------

    def add_joint(self, kind: str, nodes: Sequence[Hashable], basis: JointBasis | None = None,
                  stiffness=None, preload=None, idealization: str | None = None) -> JointSpec:
        self._require_nodes(nodes)
        spec = joint_spec(kind, nodes, basis, self._stiffness(stiffness, preload), idealization)
        self._require_coincident(spec.nodes, f"joint {spec.nodes}")
        self._lists["connections"].append(spec)
        return spec

    def add_junction(self, rigid_nodes: Sequence[Hashable],
                     passive_nodes: Sequence = ()) -> JointSpec:
        """Compound connection: welded carrier nodes plus pinned attachments."""
        carrier = tuple(rigid_nodes)
        attachments = tuple((n, b, None) for n, b in passive_nodes)
        nodes = carrier + tuple(n for n, _, _ in attachments)
        self._require_nodes(nodes)
        if not carrier:
            raise ModelError("junction needs at least one carrier node")
        if len(set(nodes)) != len(nodes):
            raise ModelError("duplicate node ids in junction")
        if len(nodes) < 2:
            raise ModelError("junction must connect at least two nodes")
        if any(basis.p < 1 for _, basis, _ in attachments):
            raise ModelError("junction attachments must be passive (p >= 1); "
                             "weld extra nodes into the carrier group instead")
        self._require_coincident(nodes, "junction")
        spec = JointSpec("junction", nodes, carrier, attachments)
        self._lists["connections"].append(spec)
        return spec

    # -- boundary ----------------------------------------------------------

    def add_support(self, node: Hashable, kind: str = "rigid",
                    basis: JointBasis | None = None, stiffness=None, preload=None) -> None:
        self._require_nodes([node])
        if node in self._supports:
            raise ModelError(f"node {node!r} already carries a support; "
                             "compose behaviors through an intermediate node and a joint")
        if node in self._load_points:
            raise ModelError(f"node {node!r} is a load point and cannot also be supported")
        if kind not in SUPPORT_KINDS:
            raise ModelError(f"unknown support kind {kind!r}")
        stiffness = self._stiffness(stiffness, preload)
        _check_attachment(kind, basis, stiffness, "support")
        if kind == "passive" and basis.r < 1:
            raise ModelError("a support with no rigid direction constrains nothing; "
                             "model a free end with a load node instead")
        self._supports[node] = SupportSpec(node=node, kind=kind, basis=basis, stiffness=stiffness)

    def add_load_point(self, node: Hashable) -> None:
        """Declare a link-end node where an external wrench may be applied."""
        self._require_nodes([node])
        if node in self._supports:
            raise ModelError(f"node {node!r} is supported and cannot carry a load point")
        if node in self._load_points:
            raise ModelError(f"node {node!r} already is a load point")
        self._load_points[node] = None

    def set_end_effector(self, node: Hashable) -> None:
        if self._end_effector is not None:
            raise ModelError("end effector already set")
        if node not in self._load_points:
            self.add_load_point(node)
        self._end_effector = node

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
        if end in self._load_points and end not in self._supports:
            return self
        m = self.copy()
        m._supports.pop(end, None)
        m._load_points[end] = None
        return m

    def copy(self) -> "Model":
        m = Model()
        m._positions, m._supports = dict(self._positions), dict(self._supports)
        m._load_points = dict(self._load_points)
        m._lists = {name: list(records) for name, records in self._lists.items()}
        m._end_effector, m._extent = self._end_effector, self._extent
        return m
