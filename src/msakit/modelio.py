"""Declarative model documents: JSON parsing and serialization.

Documents use SI units throughout and row-major nested lists for matrices.
Node ids are strings. The table `_SCHEMA` gives each entry type's fields and
builder call: the reader takes exactly those fields and checks their structure
and types, with the path of the offending field in its error; the builder
checks everything else once, as `ModelDocument.to_model` builds the model, and
its error carries the path of the entry, such as `$.joints[2]`.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import Any

import numpy as np

from .core import joint_basis_preset, make_joint_basis
from .errors import FormatError, ModelError
from .model import Model


@dataclass
class ModelDocument:
    """Normalized model description (plain lists and dicts) of a well-formed
    document; its semantics are checked by `to_model`."""

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
        path = "$"
        try:
            for name, types in _SCHEMA.items():
                entries = list(enumerate(getattr(self, name)))
                if name == "loads":     # the end effector's load point is the last one
                    entries.sort(key=lambda ke: ke[1]["node"] == self.end_effector)
                for k, entry in entries:
                    path = f"$.{name}[{k}]"
                    _row(types, entry.get("type"))[0](m, entry)
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
    """Walker over parsed JSON that checks structure and types, with path-carrying errors."""

    def __init__(self, data: Any, path: str = "$"):
        self.data = data
        self.path = path

    def fail(self, message: str):
        raise FormatError(self.path, message)

    def require_keys(self, required, allowed=None):
        """An object with every `required` field and, unless `allowed` is
        None, no field outside `allowed`."""
        if not isinstance(self.data, dict):
            self.fail(f"expected an object, got {type(self.data).__name__}")
        for key in required:
            if key not in self.data:
                self.fail(f"missing required field {key!r}")
        for key in self.data if allowed is not None else ():
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


def _fields(r: _Reader, required: dict, optional: dict) -> dict:
    """Object `r` read field by field: every `required` field and any `optional`
    one, each dict mapping a field to its reader; no other field is allowed."""
    readers = {**required, **optional}
    r.require_keys(required, allowed=readers)
    return {key: read(r.child(key)) for key, read in readers.items() if key in r.data}


def _ids(r: _Reader) -> list:
    return [n.string() for n in r.items()]


def _pair(r: _Reader) -> list:
    if not isinstance(r.data, list) or len(r.data) != 2:
        r.fail("expected a pair of node ids")
    return _ids(r)


def _basis(r: _Reader):
    """A preset name, or the rows of an explicit basis."""
    if isinstance(r.data, str):
        return r.data
    return _fields(r, dict.fromkeys(("rigid", "free"),
                                    lambda rows: [v.vector(6) for v in rows.items()]), {})


_SECTION = dict.fromkeys(("E", "G", "A", "Iy", "Iz", "J"), _Reader.number)
_SPRING = {"basis": _basis, "stiffness": _Reader.matrix, "preload": lambda r: r.vector(6)}
_PASSIVE_NODE = {"node": _Reader.string, "basis": _basis}
_LINK = {"type": _Reader.string, "nodes": _pair}
_PLATFORM = {"type": _Reader.string, "clamps": _ids, "end": _Reader.string}


def _spring(entry: dict) -> dict:
    """The basis, spring matrix and preload keywords of a joint or support."""
    return {"basis": _basis_object(entry["basis"]) if "basis" in entry else None,
            "stiffness": entry.get("stiffness"), "preload": entry.get("preload")}


def _add_flexible_platform(m: Model, entry: dict) -> None:
    # A {clamp: matrix} mapping would drop a repeated clamp.
    stiffness = dict(zip(entry["clamps"], entry["stiffness"]))
    if len(stiffness) != len(entry["clamps"]):
        raise ModelError("duplicate clamp node ids on flexible platform")
    m.add_flexible_platform(stiffness, entry["end"])


# Each list of a document: its entry types by `type` (None: any type, which the
# builder judges) as (builder call, required fields, optional fields), each
# field with its reader. A list with a named type dispatches on `type`.
_SCHEMA = {
    "nodes": {None: (lambda m, e: m.add_node(e["id"], e["position"]),
                     {"id": _Reader.string, "position": lambda r: r.vector(3)}, {})},
    "links": {
        "beam": (lambda m, e: m.add_beam(*e["nodes"], **e["section"]),
                 {**_LINK, "section": lambda r: _fields(r, _SECTION, {})}, {}),
        "flexible": (lambda m, e: m.add_flexible_link(*e["nodes"], e["stiffness"]),
                     {**_LINK, "stiffness": lambda r: r.matrix(12, 12)}, {}),
        "rigid": (lambda m, e: m.add_rigid_link(*e["nodes"]), _LINK, {}),
    },
    "platforms": {
        "rigid": (lambda m, e: m.add_rigid_platform(e["clamps"], e["end"]), _PLATFORM, {}),
        "flexible": (_add_flexible_platform, {
            **_PLATFORM, "stiffness": lambda r: [k.matrix(12, 12) for k in r.items()]}, {}),
    },
    "joints": {
        "junction": (lambda m, e: m.add_junction(e["rigid_nodes"], [
                         (p["node"], _basis_object(p["basis"]))
                         for p in e.get("passive_nodes", ())]),
                     {"type": _Reader.string, "rigid_nodes": _ids},
                     {"passive_nodes": lambda r: [_fields(p, _PASSIVE_NODE, {})
                                                  for p in r.items()]}),
        None: (lambda m, e: m.add_joint(e["type"], e["nodes"], **_spring(e),
                                        idealization=e.get("idealization")),
               {"type": _Reader.string, "nodes": _ids},
               {**_SPRING, "idealization": _Reader.string}),
    },
    "supports": {None: (lambda m, e: m.add_support(e["node"], e["type"], **_spring(e)),
                        {"node": _Reader.string, "type": _Reader.string}, _SPRING)},
    "loads": {None: (lambda m, e: m.add_load_point(e["node"]),
                     {"node": _Reader.string, "wrench": lambda r: r.vector(6)}, {})},
}


def _row(types: dict, kind):
    """The table row of entry type `kind`: its own, else the one for any type."""
    return types.get(kind, types.get(None))


def _entry(r: _Reader, name: str) -> dict:
    """One entry of list `name`, read by the table row of its type."""
    types = _SCHEMA[name]
    kind = None
    if any(types):
        r.require_keys(("type",))
        kind = r.child("type").string()
    row = _row(types, kind)
    if row is None:
        r.child("type").fail(f"unknown {name[:-1]} type {kind!r}")
    entry = _fields(r, row[1], row[2])
    if (name, kind) == ("platforms", "flexible") and (
            len(entry["stiffness"]) != len(entry["clamps"])):
        r.child("stiffness").fail("need exactly one matrix per clamp")
    return entry


def parse_model(text: str) -> ModelDocument:
    """Parse a model document and check its structure and types; raises
    FormatError with the path of the offending field. The model's semantics
    are checked by `ModelDocument.to_model`."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError("$", f"invalid JSON: {exc}") from exc
    root = _Reader(data)
    root.require_keys(("nodes", "end_effector"), allowed=(*_SCHEMA, "end_effector"))
    doc = ModelDocument(**{name: [_entry(r, name) for r in root.child(name).items()]
                           for name in _SCHEMA if name in data})
    doc.end_effector = root.child("end_effector").string()
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
        if spec.kind == "junction":
            doc.joints.append({
                "type": "junction",
                "rigid_nodes": list(spec.carrier),
                "passive_nodes": [{"node": n, "basis": _basis_dict(b)}
                                  for n, b, _ in spec.attachments],
            })
            continue
        entry = {"type": spec.kind, "nodes": list(spec.nodes)}
        for _, basis, stiffness in spec.attachments:
            _write_spring(entry, basis, stiffness)
        if spec.idealization is not None:
            entry["idealization"] = spec.idealization
        doc.joints.append(entry)
    for support in model.supports.values():
        doc.supports.append(_write_spring({"node": support.node, "type": support.kind},
                                          support.basis, support.stiffness))
    if model.end_effector is None:
        raise FormatError("$.end_effector", "model has no end effector")
    for node in model.load_points:
        if node != model.end_effector:
            doc.loads.append({"node": node, "wrench": [0.0] * 6})
    doc.end_effector = model.end_effector
    return doc


def _write_spring(entry: dict, basis, stiffness) -> dict:
    """`entry` with a joint's or support's basis, spring matrix and preload,
    where it has them: the `_SPRING` fields of the table."""
    if basis is not None:
        entry["basis"] = _basis_dict(basis)
    if stiffness is not None:
        entry["stiffness"] = stiffness.matrix.tolist()
        if stiffness.preload is not None:
            entry["preload"] = stiffness.preload.tolist()
    return entry


def _basis_dict(basis) -> dict:
    return {"rigid": basis.lambda_rigid.tolist(), "free": basis.lambda_free.tolist()}
