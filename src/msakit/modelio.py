"""Declarative model documents: JSON parsing, validation and serialization.

Documents use SI units throughout and row-major nested lists for matrices.
Node ids are strings. Parse errors carry the path of the offending field.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import Any

import numpy as np

from .boundary import SUPPORT_KINDS
from .core import JOINT_BASIS_PRESETS, JointStiffness, joint_basis_preset, make_joint_basis
from .elements import LinkStiffness
from .errors import FormatError
from .joints import ACTUATION_IDEALIZATIONS, JOINT_KINDS
from .model import Model

_LINK_TYPES = ("beam", "flexible", "rigid")


@dataclass
class ModelDocument:
    """Validated, normalized model description (plain lists and dicts)."""

    nodes: list = field(default_factory=list)
    links: list = field(default_factory=list)
    platforms: list = field(default_factory=list)
    joints: list = field(default_factory=list)
    supports: list = field(default_factory=list)
    loads: list = field(default_factory=list)
    end_effector: str = ""

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_model(self) -> Model:
        """Materialize the document as an analyzable Model.

        A builder error is raised as a FormatError at the entry that caused
        it, such as `$.joints[2]`.
        """
        m = Model()
        for entry in self.nodes:
            m.add_node(entry["id"], entry["position"])
        path = "$"
        try:
            for k, entry in enumerate(self.links):
                path = f"$.links[{k}]"
                kind = entry["type"]
                i, j = entry["nodes"]
                if kind == "beam":
                    m.add_beam(i, j, **entry["section"])
                elif kind == "flexible":
                    m.add_flexible_link(i, j, np.array(entry["stiffness"]))
                else:
                    m.add_rigid_link(i, j)
            for k, entry in enumerate(self.platforms):
                path = f"$.platforms[{k}]"
                if entry["type"] == "rigid":
                    m.add_rigid_platform(entry["clamps"], entry["end"])
                else:
                    stiff = {c: np.array(K) for c, K in zip(entry["clamps"], entry["stiffness"])}
                    m.add_flexible_platform(stiff, entry["end"])
            for k, entry in enumerate(self.joints):
                path = f"$.joints[{k}]"
                if entry["type"] == "junction":
                    passive = [(p["node"], _basis_object(p["basis"]))
                               for p in entry["passive_nodes"]]
                    m.add_junction(entry["rigid_nodes"], passive)
                    continue
                basis = _basis_object(entry["basis"]) if entry.get("basis") else None
                stiffness = np.array(entry["stiffness"]) if entry.get("stiffness") else None
                m.add_joint(entry["type"], entry["nodes"], basis=basis, stiffness=stiffness,
                            preload=entry.get("preload"), idealization=entry.get("idealization"))
            for k, entry in enumerate(self.supports):
                path = f"$.supports[{k}]"
                basis = _basis_object(entry["basis"]) if entry.get("basis") else None
                stiffness = np.array(entry["stiffness"]) if entry.get("stiffness") else None
                m.add_support(entry["node"], entry["type"], basis=basis,
                              stiffness=stiffness, preload=entry.get("preload"))
            for k, entry in enumerate(self.loads):
                path = f"$.loads[{k}]"
                if entry["node"] != self.end_effector:
                    m.add_load_point(entry["node"])
            path = "$.end_effector"
            m.set_end_effector(self.end_effector)
        except ValueError as exc:
            raise FormatError(path, str(exc)) from exc
        return m

    def load_values(self) -> dict:
        """Wrenches bound by the document, keyed by node id."""
        return {entry["node"]: np.array(entry["wrench"]) for entry in self.loads}


def _basis_object(spec):
    if isinstance(spec, str):
        return joint_basis_preset(spec)
    return make_joint_basis(spec["rigid"], spec["free"])


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

class _Reader:
    """Validating walker over parsed JSON with path-carrying errors."""

    def __init__(self, data: Any, path: str = "$"):
        self.data = data
        self.path = path

    def fail(self, message: str):
        raise FormatError(self.path, message)

    def require_keys(self, allowed, required):
        if not isinstance(self.data, dict):
            self.fail(f"expected an object, got {type(self.data).__name__}")
        for key in required:
            if key not in self.data:
                self.fail(f"missing required field {key!r}")
        for key in self.data:
            if key not in allowed:
                self.fail(f"unknown field {key!r}")

    def child(self, key) -> "_Reader":
        return _Reader(self.data[key], f"{self.path}.{key}")

    def items(self):
        if not isinstance(self.data, list):
            self.fail(f"expected an array, got {type(self.data).__name__}")
        for k, item in enumerate(self.data):
            yield _Reader(item, f"{self.path}[{k}]")

    def string(self) -> str:
        if not isinstance(self.data, str):
            self.fail("expected a string")
        return self.data

    def number(self) -> float:
        if not isinstance(self.data, (int, float)) or isinstance(self.data, bool):
            self.fail("expected a number")
        if not math.isfinite(self.data):
            self.fail("expected a finite number")
        return float(self.data)

    def vector(self, size: int) -> list:
        if not isinstance(self.data, list) or len(self.data) != size:
            self.fail(f"expected a {size}-vector")
        return [_Reader(x, f"{self.path}[{k}]").number() for k, x in enumerate(self.data)]

    def matrix(self, rows: int | None = None, cols: int | None = None) -> list:
        if not isinstance(self.data, list) or not self.data:
            self.fail("expected a matrix as nested arrays")
        n = len(self.data)
        if rows is not None and n != rows:
            self.fail(f"expected {rows} matrix rows, got {n}")
        width = cols
        out = []
        for k, row in enumerate(self.data):
            r = _Reader(row, f"{self.path}[{k}]")
            if width is None:
                if not isinstance(row, list):
                    r.fail("expected a matrix row")
                width = len(row)
            out.append(r.vector(width))
        return out


def _parse_basis(reader: _Reader):
    if isinstance(reader.data, str):
        name = reader.string()
        if name not in JOINT_BASIS_PRESETS:
            reader.fail(f"unknown joint basis preset {name!r}; "
                        f"one of {', '.join(JOINT_BASIS_PRESETS)}")
        return name
    reader.require_keys(allowed=("rigid", "free"), required=("rigid", "free"))
    rigid = [r.vector(6) for r in reader.child("rigid").items()]
    free = [r.vector(6) for r in reader.child("free").items()]
    try:
        make_joint_basis(rigid, free)
    except ValueError as exc:
        reader.fail(str(exc))
    return {"rigid": rigid, "free": free}


def _read_spring(r: _Reader, entry: dict) -> dict:
    """`entry` with the basis, spring matrix (checked as JointStiffness checks
    it) and preload of a joint or support, where the document gives them."""
    if "basis" in r.data:
        entry["basis"] = _parse_basis(r.child("basis"))
    if "stiffness" in r.data:
        entry["stiffness"] = r.child("stiffness").matrix()
        try:
            JointStiffness(np.array(entry["stiffness"]))
        except ValueError as exc:
            r.child("stiffness").fail(str(exc))
    if "preload" in r.data:
        entry["preload"] = r.child("preload").vector(6)
    return entry


def parse_model(text: str) -> ModelDocument:
    """Parse and validate a model document; raises FormatError with a path."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError("$", f"invalid JSON: {exc}") from exc
    root = _Reader(data)
    root.require_keys(
        allowed=("nodes", "links", "platforms", "joints", "supports", "loads", "end_effector"),
        required=("nodes", "end_effector"),
    )
    doc = ModelDocument()
    node_ids: set = set()
    for r in root.child("nodes").items():
        r.require_keys(allowed=("id", "position"), required=("id", "position"))
        nid = r.child("id").string()
        if nid in node_ids:
            r.fail(f"duplicate node id {nid!r}")
        node_ids.add(nid)
        doc.nodes.append({"id": nid, "position": r.child("position").vector(3)})

    def known(r: _Reader, nid) -> str:
        if nid not in node_ids:
            r.fail(f"unknown node id {nid!r}")
        return nid

    if "links" in data:
        for r in root.child("links").items():
            r.require_keys(allowed=("type", "nodes", "section", "stiffness"),
                           required=("type", "nodes"))
            kind = r.child("type").string()
            if kind not in _LINK_TYPES:
                r.child("type").fail(f"unknown link type {kind!r}")
            nr = r.child("nodes")
            if not isinstance(nr.data, list) or len(nr.data) != 2:
                nr.fail("expected a pair of node ids")
            nodes = [known(nr, n.string()) for n in nr.items()]
            entry = {"type": kind, "nodes": nodes}
            if kind == "beam":
                sr = r.child("section")
                sr.require_keys(allowed=("E", "G", "A", "Iy", "Iz", "J"),
                                required=("E", "G", "A", "Iy", "Iz", "J"))
                entry["section"] = {k: sr.child(k).number() for k in ("E", "G", "A", "Iy", "Iz", "J")}
            elif kind == "flexible":
                if "stiffness" not in r.data:
                    r.fail("flexible link needs a 12x12 stiffness matrix")
                K = r.child("stiffness").matrix(12, 12)
                try:
                    LinkStiffness.from_matrix(np.array(K))
                except ValueError as exc:
                    r.child("stiffness").fail(str(exc))
                entry["stiffness"] = K
            doc.links.append(entry)

    if "platforms" in data:
        for r in root.child("platforms").items():
            r.require_keys(allowed=("type", "clamps", "end", "stiffness"),
                           required=("type", "clamps", "end"))
            kind = r.child("type").string()
            if kind not in ("rigid", "flexible"):
                r.child("type").fail(f"unknown platform type {kind!r}")
            clamps = [known(r, c.string()) for c in r.child("clamps").items()]
            entry = {"type": kind, "clamps": clamps, "end": known(r, r.child("end").string())}
            if kind == "flexible":
                if "stiffness" not in r.data:
                    r.fail("flexible platform needs one 12x12 matrix per clamp")
                mats = [m.matrix(12, 12) for m in r.child("stiffness").items()]
                if len(mats) != len(clamps):
                    r.child("stiffness").fail("need exactly one matrix per clamp")
                entry["stiffness"] = mats
            doc.platforms.append(entry)

    if "joints" in data:
        for r in root.child("joints").items():
            if not isinstance(r.data, dict) or "type" not in r.data:
                r.fail("joint entry needs a type")
            kind = r.child("type").string()
            if kind not in JOINT_KINDS + ("junction",):
                r.child("type").fail(f"unknown joint type {kind!r}")
            if kind == "junction":
                r.require_keys(allowed=("type", "rigid_nodes", "passive_nodes"),
                               required=("type", "rigid_nodes"))
                rigid = [known(r, n.string()) for n in r.child("rigid_nodes").items()]
                passive = []
                if "passive_nodes" in r.data:
                    for p in r.child("passive_nodes").items():
                        p.require_keys(allowed=("node", "basis"), required=("node", "basis"))
                        passive.append({"node": known(p, p.child("node").string()),
                                        "basis": _parse_basis(p.child("basis"))})
                doc.joints.append({"type": kind, "rigid_nodes": rigid, "passive_nodes": passive})
                continue
            r.require_keys(allowed=("type", "nodes", "basis", "stiffness", "preload",
                                    "idealization"),
                           required=("type", "nodes"))
            nodes = [known(r, n.string()) for n in r.child("nodes").items()]
            entry = _read_spring(r, {"type": kind, "nodes": nodes})
            if "idealization" in r.data:
                ideal = r.child("idealization").string()
                if ideal not in ACTUATION_IDEALIZATIONS:
                    r.child("idealization").fail(f"unknown idealization {ideal!r}")
                entry["idealization"] = ideal
            doc.joints.append(entry)

    if "supports" in data:
        for r in root.child("supports").items():
            r.require_keys(allowed=("node", "type", "basis", "stiffness", "preload"),
                           required=("node", "type"))
            kind = r.child("type").string()
            if kind not in SUPPORT_KINDS:
                r.child("type").fail(f"unknown support type {kind!r}")
            doc.supports.append(_read_spring(
                r, {"node": known(r, r.child("node").string()), "type": kind}))

    if "loads" in data:
        for r in root.child("loads").items():
            r.require_keys(allowed=("node", "wrench"), required=("node", "wrench"))
            doc.loads.append({"node": known(r, r.child("node").string()),
                              "wrench": r.child("wrench").vector(6)})

    doc.end_effector = known(root.child("end_effector"), root.child("end_effector").string())
    return doc


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def serialize_model(doc: ModelDocument) -> str:
    """Document as JSON text; floats keep full round-trip precision."""
    return json.dumps(doc.as_dict(), indent=2)


def document_from_model(model: Model) -> ModelDocument:
    """Describe an in-memory model as a document (node ids must be strings)."""
    doc = ModelDocument()
    for node, pos in model.positions.items():
        if not isinstance(node, str):
            raise FormatError("$.nodes", f"documents need string node ids, got {node!r}")
        doc.nodes.append({"id": node, "position": pos.tolist()})
    for link in model.flexible_links:
        doc.links.append({"type": "flexible", "nodes": list(link.nodes),
                          "stiffness": link.K.tolist()})
    for i, j in model.rigid_links:
        doc.links.append({"type": "rigid", "nodes": [i, j]})
    for platform in model.platforms:
        entry = {"type": platform.kind, "clamps": list(platform.clamps), "end": platform.end}
        if platform.kind == "flexible":
            entry["stiffness"] = [k.K.tolist() for k in platform.stiffnesses]
        doc.platforms.append(entry)
    for spec in model.connections:
        if hasattr(spec, "rigid_nodes"):
            doc.joints.append({
                "type": "junction",
                "rigid_nodes": list(spec.rigid_nodes),
                "passive_nodes": [{"node": n, "basis": _basis_dict(b)}
                                  for n, b in spec.passive_nodes],
            })
            continue
        entry = _write_spring(spec, {"type": spec.kind, "nodes": list(spec.nodes)})
        if spec.idealization is not None:
            entry["idealization"] = spec.idealization
        doc.joints.append(entry)
    for support in model.supports.values():
        doc.supports.append(_write_spring(support, {"node": support.node, "type": support.kind}))
    if model.end_effector is None:
        raise FormatError("$.end_effector", "model has no end effector")
    for node in model.load_points:
        if node != model.end_effector:
            doc.loads.append({"node": node, "wrench": [0.0] * 6})
    doc.end_effector = model.end_effector
    return doc


def _write_spring(spec, entry: dict) -> dict:
    """`entry` with the basis, spring matrix and preload of a joint or support
    spec, where it has them; the inverse of `_read_spring`."""
    if spec.basis is not None:
        entry["basis"] = _basis_dict(spec.basis)
    if spec.stiffness is not None:
        entry["stiffness"] = spec.stiffness.matrix.tolist()
        if spec.stiffness.preload is not None:
            entry["preload"] = spec.stiffness.preload.tolist()
    return entry


def _basis_dict(basis) -> dict:
    return {"rigid": basis.u_rigid.tolist(), "free": basis.u_free.tolist()}
