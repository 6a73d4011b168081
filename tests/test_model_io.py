"""Model documents, round-trips and the command-line interface."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import msakit
from msakit.cli import main

from helpers import (beam_link, flexible_platform_model, free_link_end, loaded_junction,
                     section_kwargs, sprung_model)


def cantilever_doc(load=None) -> dict:
    doc = {
        "nodes": [
            {"id": "a", "position": [0.0, 0.0, 0.0]},
            {"id": "b", "position": [1.0, 0.0, 0.0]},
        ],
        "links": [{
            "type": "beam",
            "nodes": ["a", "b"],
            "section": section_kwargs(),
        }],
        "supports": [{"node": "a", "type": "rigid"}],
        "end_effector": "b",
    }
    if load is not None:
        doc["loads"] = [{"node": "b", "wrench": list(load)}]
    return doc


class TestParse:
    def test_minimal_cantilever_parses_and_analyzes(self):
        doc = msakit.parse_model(json.dumps(cantilever_doc()))
        model = doc.to_model()
        kc = model.cartesian_stiffness().kc
        sec = section_kwargs()
        assert kc[0, 0] == pytest.approx(sec["E"] * sec["A"], rel=1e-12)

    def test_unknown_node_in_joint_has_field_path(self):
        data = cantilever_doc()
        data["joints"] = [{"type": "rigid", "nodes": ["a", "zz"]}]
        with pytest.raises(msakit.FormatError, match="unknown node id 'zz'") as err:
            msakit.parse_model(json.dumps(data)).to_model()
        assert err.value.path == "$.joints[0]"

    def test_unknown_preset_rejected(self):
        data = cantilever_doc()
        data["supports"][0] = {"node": "a", "type": "passive", "basis": "helical_z"}
        with pytest.raises(msakit.FormatError,
                           match="unknown joint basis preset 'helical_z'") as err:
            msakit.parse_model(json.dumps(data)).to_model()
        assert err.value.path == "$.supports[0]"

    def test_wrong_matrix_shape_rejected(self):
        data = cantilever_doc()
        data["links"][0] = {"type": "flexible", "nodes": ["a", "b"],
                            "stiffness": [[1.0, 2.0], [2.0, 1.0]]}
        with pytest.raises(msakit.FormatError) as err:
            msakit.parse_model(json.dumps(data))
        assert "stiffness" in err.value.path

    @pytest.mark.parametrize("field, value", [
        ("stiffness", [[float("nan")]]),
        ("stiffness", [[float("inf")]]),
        ("basis", {"rigid": [[float("nan"), 0, 0, 0, 0, 0]] + np.eye(6)[1:5].tolist(),
                   "free": [[0, 0, 0, 0, 0, 1.0]]}),
    ], ids=["nan-stiffness", "inf-stiffness", "nan-basis"])
    def test_non_finite_joint_data_rejected(self, field, value):
        data = cantilever_doc()
        data["nodes"].append({"id": "c", "position": [1.0, 0.0, 0.0]})
        joint = {"type": "elastic", "nodes": ["b", "c"], "basis": "revolute_z",
                 "stiffness": [[100.0]]}
        data["joints"] = [{**joint, field: value}]
        with pytest.raises(msakit.FormatError) as err:
            msakit.parse_model(json.dumps(data))
        assert err.value.path.startswith(f"$.joints[0].{field}")

    @pytest.mark.parametrize("where, entry, matrix, cause", [
        ("joints", {"type": "elastic", "nodes": ["b", "c"], "basis": "universal"},
         [[1.0, 2.0], [0.0, 1.0]], "must be symmetric"),
        ("joints", {"type": "elastic", "nodes": ["b", "c"], "basis": "revolute_z"}, [[-5.0]],
         "must be positive definite"),
        ("supports", {"node": "c", "type": "elastic", "basis": "universal"},
         [[1.0, 2.0], [2.0, 1.0]], "must be positive definite"),
    ], ids=["asymmetric-joint", "negative-joint", "indefinite-support"])
    def test_spring_matrix_checked_when_the_model_is_built(self, where, entry, matrix, cause):
        data = cantilever_doc()
        data["nodes"].append({"id": "c", "position": [1.0, 0.0, 0.0]})
        data[where] = data.get(where, []) + [{**entry, "stiffness": matrix}]
        with pytest.raises(msakit.FormatError, match=f"joint stiffness matrix {cause}") as err:
            msakit.parse_model(json.dumps(data)).to_model()
        index = len(data[where]) - 1
        assert err.value.path == f"$.{where}[{index}]"

    def test_asymmetric_matrix_rejected(self):
        K = beam_link().K.copy()
        K[0, 1] += 0.01 * np.abs(K).max()
        data = cantilever_doc()
        data["links"][0] = {"type": "flexible", "nodes": ["a", "b"], "stiffness": K.tolist()}
        with pytest.raises(msakit.FormatError, match="link stiffness asymmetry") as err:
            msakit.parse_model(json.dumps(data)).to_model()
        assert err.value.path == "$.links[0]"

    def test_link_off_its_nodes_is_a_format_error_at_its_entry(self):
        # A 1 m beam matrix between nodes 1.01 m apart is not a free body there.
        K = beam_link().K
        data = cantilever_doc()
        data["nodes"][1]["position"] = [1.01, 0.0, 0.0]
        data["links"][0] = {"type": "flexible", "nodes": ["a", "b"], "stiffness": K.tolist()}
        with pytest.raises(msakit.FormatError) as err:
            msakit.parse_model(json.dumps(data)).to_model()
        assert err.value.path == "$.links[0]"

    def test_preset_basis_expands(self):
        data = cantilever_doc()
        data["nodes"].append({"id": "c", "position": [1.0, 0.0, 0.0]})
        data["nodes"].append({"id": "d", "position": [2.0, 0.0, 0.0]})
        data["links"].append({"type": "beam", "nodes": ["c", "d"],
                              "section": section_kwargs()})
        data["joints"] = [{"type": "passive", "nodes": ["b", "c"], "basis": "revolute_z"}]
        doc = msakit.parse_model(json.dumps(data))
        data["end_effector"] = "d"
        model = msakit.parse_model(json.dumps(data)).to_model()
        (_, basis, _), = model.connections[0].attachments
        assert basis.p == 1

    def test_invalid_json_reported(self):
        with pytest.raises(msakit.FormatError):
            msakit.parse_model("{nope")

    def test_duplicate_node_ids_rejected(self):
        data = cantilever_doc()
        data["nodes"].append({"id": "a", "position": [2.0, 0.0, 0.0]})
        with pytest.raises(msakit.FormatError, match="node 'a' already declared") as err:
            msakit.parse_model(json.dumps(data)).to_model()
        assert err.value.path == "$.nodes[2]"

    @pytest.mark.parametrize("kind", ["rigid", "flexible"])
    def test_repeated_clamp_rejected(self, kind):
        # A flexible platform's {clamp: matrix} mapping would drop the repeat.
        data = msakit.document_from_model(flexible_platform_model()).as_dict()
        stiffness = data["platforms"][0]["stiffness"][0]
        data["platforms"][0] = {"type": kind, "clamps": ["c0", "c0"], "end": "e"}
        if kind == "flexible":
            data["platforms"][0]["stiffness"] = [stiffness, stiffness]
        with pytest.raises(msakit.FormatError,
                           match=f"duplicate clamp node ids on {kind} platform") as err:
            msakit.parse_model(json.dumps(data)).to_model()
        assert err.value.path == "$.platforms[0]"


# Joints and supports that carry a field their kind ignores: (the add call,
# the document list and entry that describe the same input).
IGNORED_FIELDS = {
    "passive joint, stiffness": (
        lambda m, rz: m.add_joint("passive", ("b", "c"), basis=rz, stiffness=[[7.0]]),
        "joints", {"type": "passive", "nodes": ["b", "c"], "basis": "revolute_z",
                   "stiffness": [[7.0]]}),
    "rigid joint, basis": (
        lambda m, rz: m.add_joint("rigid", ("b", "c"), basis=rz),
        "joints", {"type": "rigid", "nodes": ["b", "c"], "basis": "revolute_z"}),
    "passive joint, idealization": (
        lambda m, rz: m.add_joint("passive", ("b", "c"), basis=rz, idealization="as-rigid"),
        "joints", {"type": "passive", "nodes": ["b", "c"], "basis": "revolute_z",
                   "idealization": "as-rigid"}),
    "as-rigid actuated joint, basis and stiffness": (
        lambda m, rz: m.add_joint("actuated", ("b", "c"), basis=rz, stiffness=[[7.0]],
                                  idealization="as-rigid"),
        "joints", {"type": "actuated", "nodes": ["b", "c"], "basis": "revolute_z",
                   "stiffness": [[7.0]], "idealization": "as-rigid"}),
    "passive support, stiffness": (
        lambda m, rz: m.add_support("a", "passive", basis=rz, stiffness=[[5.0]]),
        "supports", {"node": "a", "type": "passive", "basis": "revolute_z",
                     "stiffness": [[5.0]]}),
    "rigid support, basis": (
        lambda m, rz: m.add_support("a", "rigid", basis=rz),
        "supports", {"node": "a", "type": "rigid", "basis": "revolute_z"}),
}


@pytest.mark.parametrize("name", IGNORED_FIELDS)
def test_field_the_kind_ignores_is_rejected(name):
    add, where, entry = IGNORED_FIELDS[name]
    m = msakit.Model()
    for node, x in (("a", 0.0), ("b", 1.0), ("c", 1.0)):
        m.add_node(node, [x, 0, 0])
    with pytest.raises(msakit.ModelError):
        add(m, msakit.joint_basis_preset("revolute_z"))
    data = cantilever_doc()
    data["nodes"] += [{"id": "c", "position": [1.0, 0.0, 0.0]},
                      {"id": "d", "position": [2.0, 0.0, 0.0]}]
    data["links"].append({"type": "beam", "nodes": ["c", "d"], "section": section_kwargs()})
    data["joints"] = [{"type": "rigid", "nodes": ["b", "c"]}]
    data["end_effector"] = "d"
    msakit.parse_model(json.dumps(data)).to_model()
    data[where][0] = entry
    with pytest.raises(msakit.FormatError) as err:
        msakit.parse_model(json.dumps(data)).to_model()
    assert err.value.path == f"$.{where}[0]"


def full_doc() -> dict:
    """A document with an entry of every type in every list, which builds."""
    positions = {"a": 0, "b": 1, "c": 1, "d": 2, "e": 2, "f": 3, "g": 3, "h": 4, "k": 5}

    def link_matrix(i, j):
        return beam_link((positions[i], 0, 0), (positions[j], 0, 0)).K.tolist()
    return {
        "nodes": [{"id": n, "position": [float(x), 0.0, 0.0]} for n, x in positions.items()],
        "links": [{"type": "beam", "nodes": ["a", "b"], "section": section_kwargs()},
                  {"type": "flexible", "nodes": ["c", "d"], "stiffness": link_matrix("c", "d")},
                  {"type": "rigid", "nodes": ["e", "f"]}],
        "platforms": [{"type": "rigid", "clamps": ["g"], "end": "h"},
                      {"type": "flexible", "clamps": ["h"], "end": "k",
                       "stiffness": [link_matrix("h", "k")]}],
        "joints": [{"type": "elastic", "nodes": ["b", "c"], "basis": "revolute_z",
                    "stiffness": [[100.0]], "preload": [0, 0, 0, 0, 0, 1.0]},
                   {"type": "junction", "rigid_nodes": ["d"],
                    "passive_nodes": [{"node": "e", "basis": "revolute_z"}]},
                   {"type": "actuated", "nodes": ["f", "g"], "basis": "revolute_z",
                    "stiffness": [[1e3]], "idealization": "as-elastic"}],
        "supports": [{"node": "a", "type": "elastic", "basis": "universal",
                      "stiffness": [[10.0, 0.0], [0.0, 20.0]]}],
        "loads": [{"node": "h", "wrench": [0.0, 1.0, 0.0, 0.0, 0.0, 0.0]}],
        "end_effector": "k",
    }


NAN, INF = float("nan"), float("inf")
SECTION = section_kwargs()
Z12 = [[0.0] * 12] * 12
DROP = object()     # an edit value that removes its field

# Malformed documents: (list, index, edit) of `full_doc` -> the (stage, path,
# message) of the error it raises. The edit replaces the entry, or, as a
# dict, sets its fields (at "$", the document's); the stage says whether
# `parse_model` or `ModelDocument.to_model` raises it.
MALFORMED = {
    "root, not an object": ("$", None, [1],
        ("parse", "$", "expected an object, got list")),
    "root, missing nodes": ("$", None, {"nodes": DROP},
        ("parse", "$", "missing required field 'nodes'")),
    "root, missing end_effector": ("$", None, {"end_effector": DROP},
        ("parse", "$", "missing required field 'end_effector'")),
    "root, unknown field": ("$", None, {"extra": 1},
        ("parse", "$", "unknown field 'extra'")),
    "root, links not an array": ("$", None, {"links": {"type": "rigid"}},
        ("parse", "$.links", "expected an array, got dict")),
    "end_effector, wrong type": ("$", None, {"end_effector": 3},
        ("parse", "$.end_effector", "expected a string")),
    "end_effector, unknown node": ("$", None, {"end_effector": "zz"},
        ("build", "$.end_effector", "unknown node id 'zz'")),
    # nodes
    "node, not an object": ("nodes", 0, 5,
        ("parse", "$.nodes[0]", "expected an object, got int")),
    "node, missing id": ("nodes", 0, {"id": DROP},
        ("parse", "$.nodes[0]", "missing required field 'id'")),
    "node, missing position": ("nodes", 0, {"position": DROP},
        ("parse", "$.nodes[0]", "missing required field 'position'")),
    "node, unknown field": ("nodes", 0, {"mass": 1.0},
        ("parse", "$.nodes[0]", "unknown field 'mass'")),
    "node, id wrong type": ("nodes", 0, {"id": 1},
        ("parse", "$.nodes[0].id", "expected a string")),
    "node, short position": ("nodes", 0, {"position": [0.0, 0.0]},
        ("parse", "$.nodes[0].position", "expected a 3-vector")),
    "node, nan position": ("nodes", 0, {"position": [0.0, NAN, 0.0]},
        ("parse", "$.nodes[0].position[1]", "expected a finite number")),
    "node, boolean position": ("nodes", 0, {"position": [0.0, True, 0.0]},
        ("parse", "$.nodes[0].position[1]", "expected a number")),
    "node, duplicate id": ("nodes", 2, {"id": "a"},
        ("build", "$.nodes[2]", "node 'a' already declared")),
    # links
    "link, not an object": ("links", 0, "beam",
        ("parse", "$.links[0]", "expected an object, got str")),
    "link, missing type": ("links", 0, {"type": DROP},
        ("parse", "$.links[0]", "missing required field 'type'")),
    "link, missing nodes": ("links", 2, {"nodes": DROP},
        ("parse", "$.links[2]", "missing required field 'nodes'")),
    "link, unknown field": ("links", 2, {"length": 1.0},
        ("parse", "$.links[2]", "unknown field 'length'")),
    "link, type wrong type": ("links", 0, {"type": 1},
        ("parse", "$.links[0].type", "expected a string")),
    "link, unknown type": ("links", 0, {"type": "cable"},
        ("parse", "$.links[0].type", "unknown link type 'cable'")),
    "link, three nodes": ("links", 2, {"nodes": ["e", "f", "g"]},
        ("parse", "$.links[2].nodes", "expected a pair of node ids")),
    "link, nodes not an array": ("links", 2, {"nodes": "ef"},
        ("parse", "$.links[2].nodes", "expected a pair of node ids")),
    "link, node id wrong type": ("links", 2, {"nodes": ["e", 6]},
        ("parse", "$.links[2].nodes[1]", "expected a string")),
    "link, unknown node": ("links", 2, {"nodes": ["e", "zz"]},
        ("build", "$.links[2]", "unknown node id 'zz'")),
    "link, rigid on one node": ("links", 2, {"nodes": ["e", "e"]},
        ("build", "$.links[2]", "rigid link end nodes must differ")),
    "beam, missing section": ("links", 0, {"section": DROP},
        ("parse", "$.links[0]", "missing required field 'section'")),
    "beam, section not an object": ("links", 0, {"section": [1.0]},
        ("parse", "$.links[0].section", "expected an object, got list")),
    "beam, section missing field": ("links", 0,
                                    {"section": {k: v for k, v in SECTION.items() if k != "J"}},
        ("parse", "$.links[0].section", "missing required field 'J'")),
    "beam, section unknown field": ("links", 0, {"section": {**SECTION, "rho": 7800.0}},
        ("parse", "$.links[0].section", "unknown field 'rho'")),
    "beam, boolean section": ("links", 0, {"section": {**SECTION, "E": True}},
        ("parse", "$.links[0].section.E", "expected a number")),
    "beam, infinite section": ("links", 0, {"section": {**SECTION, "A": INF}},
        ("parse", "$.links[0].section.A", "expected a finite number")),
    "beam, zero area": ("links", 0, {"section": {**SECTION, "A": 0.0}},
        ("build", "$.links[0]", "beam section A must be positive, got 0.0")),
    "flexible link, missing stiffness": ("links", 1, {"stiffness": DROP},
        ("parse", "$.links[1]", "missing required field 'stiffness'")),
    "flexible link, stiffness not a matrix": ("links", 1, {"stiffness": 1.0},
        ("parse", "$.links[1].stiffness", "expected a matrix as nested arrays")),
    "flexible link, 11 rows": ("links", 1, {"stiffness": Z12[:11]},
        ("parse", "$.links[1].stiffness", "expected 12 matrix rows, got 11")),
    "flexible link, ragged row": ("links", 1, {"stiffness": Z12[:3] + [[0.0] * 11] + Z12[4:]},
        ("parse", "$.links[1].stiffness[3]", "expected a 12-vector")),
    "flexible link, nan entry": ("links", 1, {"stiffness": [[NAN] + [0.0] * 11] + Z12[1:]},
        ("parse", "$.links[1].stiffness[0][0]", "expected a finite number")),
    # platforms
    "platform, not an object": ("platforms", 0, None,
        ("parse", "$.platforms[0]", "expected an object, got NoneType")),
    "platform, missing type": ("platforms", 0, {"type": DROP},
        ("parse", "$.platforms[0]", "missing required field 'type'")),
    "platform, missing clamps": ("platforms", 0, {"clamps": DROP},
        ("parse", "$.platforms[0]", "missing required field 'clamps'")),
    "platform, missing end": ("platforms", 1, {"end": DROP},
        ("parse", "$.platforms[1]", "missing required field 'end'")),
    "platform, unknown field": ("platforms", 0, {"mass": 1.0},
        ("parse", "$.platforms[0]", "unknown field 'mass'")),
    "platform, unknown type": ("platforms", 0, {"type": "elastic"},
        ("parse", "$.platforms[0].type", "unknown platform type 'elastic'")),
    "platform, clamps not an array": ("platforms", 0, {"clamps": "g"},
        ("parse", "$.platforms[0].clamps", "expected an array, got str")),
    "platform, clamp id wrong type": ("platforms", 0, {"clamps": [7]},
        ("parse", "$.platforms[0].clamps[0]", "expected a string")),
    "platform, end wrong type": ("platforms", 0, {"end": ["h"]},
        ("parse", "$.platforms[0].end", "expected a string")),
    "platform, end among clamps": ("platforms", 0, {"end": "g"},
        ("build", "$.platforms[0]", "platform end node cannot also be a clamp")),
    "flexible platform, missing stiffness": ("platforms", 1, {"stiffness": DROP},
        ("parse", "$.platforms[1]", "missing required field 'stiffness'")),
    "flexible platform, stiffness not an array": ("platforms", 1, {"stiffness": {"h": []}},
        ("parse", "$.platforms[1].stiffness", "expected an array, got dict")),
    "flexible platform, two matrices for one clamp": ("platforms", 1, {"stiffness": [Z12, Z12]},
        ("parse", "$.platforms[1].stiffness", "need exactly one matrix per clamp")),
    "flexible platform, 2 rows": ("platforms", 1, {"stiffness": [[[1.0, 0.0], [0.0, 1.0]]]},
        ("parse", "$.platforms[1].stiffness[0]", "expected 12 matrix rows, got 2")),
    "flexible platform, repeated clamp": ("platforms", 1,
                                          {"clamps": ["h", "h"], "stiffness": [Z12, Z12]},
        ("build", "$.platforms[1]", "duplicate clamp node ids on flexible platform")),
    # joints
    "joint, not an object": ("joints", 0, 4,
        ("parse", "$.joints[0]", "expected an object, got int")),
    "joint, missing type": ("joints", 0, {"type": DROP},
        ("parse", "$.joints[0]", "missing required field 'type'")),
    "joint, type wrong type": ("joints", 0, {"type": ["elastic"]},
        ("parse", "$.joints[0].type", "expected a string")),
    "joint, missing nodes": ("joints", 0, {"nodes": DROP},
        ("parse", "$.joints[0]", "missing required field 'nodes'")),
    "joint, unknown field": ("joints", 0, {"damping": 1.0},
        ("parse", "$.joints[0]", "unknown field 'damping'")),
    "joint, unknown kind": ("joints", 0, {"type": "spherical"},
        ("build", "$.joints[0]", "unknown joint kind 'spherical'")),
    "joint, unknown node": ("joints", 0, {"nodes": ["b", "zz"]},
        ("build", "$.joints[0]", "unknown node id 'zz'")),
    "joint, basis wrong type": ("joints", 0, {"basis": 3},
        ("parse", "$.joints[0].basis", "expected an object, got int")),
    "joint, unknown preset": ("joints", 0, {"basis": "helical_z"},
        ("build", "$.joints[0]", "unknown joint basis preset 'helical_z'; one of revolute_x, "
         "revolute_y, revolute_z, prismatic_x, prismatic_y, prismatic_z, spherical, universal, "
         "free")),
    "joint, basis missing free": ("joints", 0, {"basis": {"rigid": [[1, 0, 0, 0, 0, 0]]}},
        ("parse", "$.joints[0].basis", "missing required field 'free'")),
    "joint, basis unknown field": ("joints", 0, {"basis": {"rigid": [], "free": [], "p": 1}},
        ("parse", "$.joints[0].basis", "unknown field 'p'")),
    "joint, short basis vector": ("joints", 0, {"basis": {"rigid": [[1, 0, 0, 0, 0]], "free": []}},
        ("parse", "$.joints[0].basis.rigid[0]", "expected a 6-vector")),
    "joint, basis rows not an array": ("joints", 0, {"basis": {"rigid": 1, "free": []}},
        ("parse", "$.joints[0].basis.rigid", "expected an array, got int")),
    "joint, ragged stiffness": ("joints", 0, {"stiffness": [[1.0, 0.0], [0.0]]},
        ("parse", "$.joints[0].stiffness[1]", "expected a 2-vector")),
    "joint, empty stiffness": ("joints", 0, {"stiffness": []},
        ("parse", "$.joints[0].stiffness", "expected a matrix as nested arrays")),
    "joint, stiffness row not an array": ("joints", 0, {"stiffness": [1.0]},
        ("parse", "$.joints[0].stiffness[0]", "expected a matrix row")),
    "joint, nan stiffness": ("joints", 0, {"stiffness": [[NAN]]},
        ("parse", "$.joints[0].stiffness[0][0]", "expected a finite number")),
    "joint, short preload": ("joints", 0, {"preload": [0.0] * 5},
        ("parse", "$.joints[0].preload", "expected a 6-vector")),
    "joint, boolean preload": ("joints", 0, {"preload": [False] + [0.0] * 5},
        ("parse", "$.joints[0].preload[0]", "expected a number")),
    "joint, idealization wrong type": ("joints", 2, {"idealization": 1},
        ("parse", "$.joints[2].idealization", "expected a string")),
    "joint, unknown idealization": ("joints", 2, {"idealization": "as-soft"},
        ("build", "$.joints[2]",
         "actuated joint needs an idealization, 'as-rigid' or 'as-elastic'; got 'as-soft'")),
    "junction, missing rigid_nodes": ("joints", 1, {"rigid_nodes": DROP},
        ("parse", "$.joints[1]", "missing required field 'rigid_nodes'")),
    "junction, unknown field": ("joints", 1, {"nodes": ["d", "e"]},
        ("parse", "$.joints[1]", "unknown field 'nodes'")),
    "junction, rigid node wrong type": ("joints", 1, {"rigid_nodes": [None]},
        ("parse", "$.joints[1].rigid_nodes[0]", "expected a string")),
    "junction, passive node not an object": ("joints", 1, {"passive_nodes": ["e"]},
        ("parse", "$.joints[1].passive_nodes[0]", "expected an object, got str")),
    "junction, passive node missing basis": ("joints", 1, {"passive_nodes": [{"node": "e"}]},
        ("parse", "$.joints[1].passive_nodes[0]", "missing required field 'basis'")),
    "junction, passive node unknown field": ("joints", 1, {"passive_nodes": [
        {"node": "e", "basis": "revolute_z", "stiffness": [[1.0]]}]},
        ("parse", "$.joints[1].passive_nodes[0]", "unknown field 'stiffness'")),
    "junction, passive node bad basis": ("joints", 1, {"passive_nodes": [
        {"node": "e", "basis": {"rigid": [[1, 0, 0, 0, 0, 0]], "free": [[0, 0, 0, 0, 0, INF]]}}]},
        ("parse", "$.joints[1].passive_nodes[0].basis.free[0][5]", "expected a finite number")),
    # supports
    "support, not an object": ("supports", 0, [1],
        ("parse", "$.supports[0]", "expected an object, got list")),
    "support, missing node": ("supports", 0, {"node": DROP},
        ("parse", "$.supports[0]", "missing required field 'node'")),
    "support, missing type": ("supports", 0, {"type": DROP},
        ("parse", "$.supports[0]", "missing required field 'type'")),
    "support, unknown field": ("supports", 0, {"idealization": "as-rigid"},
        ("parse", "$.supports[0]", "unknown field 'idealization'")),
    "support, node wrong type": ("supports", 0, {"node": 0},
        ("parse", "$.supports[0].node", "expected a string")),
    "support, type wrong type": ("supports", 0, {"type": None},
        ("parse", "$.supports[0].type", "expected a string")),
    "support, unknown kind": ("supports", 0, {"type": "actuated"},
        ("build", "$.supports[0]", "unknown support kind 'actuated'")),
    "support, unknown node": ("supports", 0, {"node": "zz"},
        ("build", "$.supports[0]", "unknown node id 'zz'")),
    "support, on a load point": ("supports", 0, {"node": "h"},
        ("build", "$.loads[0]", "node 'h' is supported and cannot carry a load point")),
    "support, bad basis": ("supports", 0, {"basis": ["universal"]},
        ("parse", "$.supports[0].basis", "expected an object, got list")),
    "support, short preload": ("supports", 0, {"preload": [0.0]},
        ("parse", "$.supports[0].preload", "expected a 6-vector")),
    "support, wrong stiffness size": ("supports", 0, {"stiffness": [[1.0]]},
        ("build", "$.supports[0]", "support stiffness must be 2x2 for this basis, got (1, 1)")),
    # loads
    "load, not an object": ("loads", 0, "h",
        ("parse", "$.loads[0]", "expected an object, got str")),
    "load, missing node": ("loads", 0, {"node": DROP},
        ("parse", "$.loads[0]", "missing required field 'node'")),
    "load, missing wrench": ("loads", 0, {"wrench": DROP},
        ("parse", "$.loads[0]", "missing required field 'wrench'")),
    "load, unknown field": ("loads", 0, {"frame": "global"},
        ("parse", "$.loads[0]", "unknown field 'frame'")),
    "load, node wrong type": ("loads", 0, {"node": 1},
        ("parse", "$.loads[0].node", "expected a string")),
    "load, short wrench": ("loads", 0, {"wrench": [0.0] * 5},
        ("parse", "$.loads[0].wrench", "expected a 6-vector")),
    "load, infinite wrench": ("loads", 0, {"wrench": [0.0] * 5 + [-INF]},
        ("parse", "$.loads[0].wrench[5]", "expected a finite number")),
    "load, boolean wrench": ("loads", 0, {"wrench": [0.0] * 5 + [True]},
        ("parse", "$.loads[0].wrench[5]", "expected a number")),
    "load, unknown node": ("loads", 0, {"node": "zz"},
        ("build", "$.loads[0]", "unknown node id 'zz'")),
    "load, on a support": ("loads", 0, {"node": "a"},
        ("build", "$.loads[0]", "node 'a' is supported and cannot carry a load point")),
}


def _edited(value, edit):
    if not isinstance(edit, dict) or not isinstance(value, dict):
        return edit
    return {key: v for key, v in {**value, **edit}.items() if v is not DROP}


def _failure(data) -> tuple | None:
    try:
        doc = msakit.parse_model(json.dumps(data))
    except msakit.FormatError as exc:
        return "parse", exc.path, exc.reason
    try:
        doc.to_model()
    except msakit.FormatError as exc:
        return "build", exc.path, exc.reason
    return None


def test_full_doc_builds():
    assert _failure(full_doc()) is None


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_document_fails_at_its_path(name):
    where, k, edit, expected = MALFORMED[name]
    data = full_doc()
    if where == "$":
        data = _edited(data, edit)
    else:
        data[where][k] = _edited(data[where][k], edit)
    assert _failure(data) == expected


# Links and platforms that carry a field their type does not take. No builder
# call takes such an argument, so the reader alone rejects them.
@pytest.mark.parametrize("where, k, field, value", [
    ("links", 0, "stiffness", [[1, 2], [3]]),
    ("links", 2, "stiffness", Z12),
    ("links", 1, "section", SECTION),
    ("links", 2, "section", SECTION),
    ("platforms", 0, "stiffness", "garbage"),
], ids=["beam, stiffness", "rigid link, stiffness", "flexible link, section",
        "rigid link, section", "rigid platform, stiffness"])
def test_field_the_link_or_platform_type_ignores_is_rejected(where, k, field, value):
    data = full_doc()
    data[where][k][field] = value
    assert _failure(data) == ("parse", f"$.{where}[{k}]", f"unknown field {field!r}")


@pytest.mark.parametrize("node", ["h", "k"], ids=["load point", "end effector"])
def test_repeated_load_entry_is_rejected_at_the_second(node):
    # The end effector k is a load point with no entry, so it takes two to repeat.
    data = full_doc()
    data["loads"] += [{"node": node, "wrench": [0.0] * 6}] * (2 if node == "k" else 1)
    index = len(data["loads"]) - 1
    assert _failure(data) == ("build", f"$.loads[{index}]",
                              f"node {node!r} already is a load point")


def test_end_effector_load_point_stays_last():
    # A load entry on the end effector does not move its load point: assembled
    # systems do not depend on where the document lists it.
    data = full_doc()
    data["loads"].insert(0, {"node": "k", "wrench": [0.0, 2.0, 0.0, 0.0, 0.0, 0.0]})
    assert msakit.parse_model(json.dumps(data)).to_model().load_points == ("h", "k")


class TestRoundTrip:
    def test_document_round_trip_is_identity(self):
        doc = msakit.parse_model(json.dumps(cantilever_doc(load=[0, 1, 0, 0, 0, 0])))
        text = msakit.serialize_model(doc)
        again = msakit.parse_model(text)
        assert again == doc
        assert msakit.serialize_model(again) == text

    def test_navaro_leg_round_trip(self):
        leg = msakit.build_navaro_leg()
        doc = msakit.document_from_model(leg)
        again = msakit.parse_model(msakit.serialize_model(doc))
        assert again == doc
        s1, s2 = leg.assemble(), again.to_model().assemble()
        assert (s1.matrix != s2.matrix).nnz == 0
        np.testing.assert_array_equal(s1.rhs, s2.rhs)

    def test_rich_model_round_trip(self):
        m = sprung_model()
        doc = msakit.document_from_model(m)
        again = msakit.parse_model(msakit.serialize_model(doc))
        assert again == doc
        kc1 = m.cartesian_stiffness().kc
        kc2 = again.to_model().cartesian_stiffness().kc
        np.testing.assert_array_equal(kc1, kc2)

    def test_full_manipulator_round_trip(self):
        nav = msakit.build_navaro()
        doc = msakit.document_from_model(nav)
        again = msakit.parse_model(msakit.serialize_model(doc))
        assert again == doc
        s1, s2 = nav.assemble(), again.to_model().assemble()
        assert (s1.matrix != s2.matrix).nnz == 0

    def test_flexible_platform_document(self):
        m = flexible_platform_model()
        doc = msakit.document_from_model(m)
        again = msakit.parse_model(msakit.serialize_model(doc))
        assert again == doc
        kc1 = m.cartesian_stiffness().kc
        kc2 = again.to_model().cartesian_stiffness().kc
        np.testing.assert_array_equal(kc1, kc2)

    def test_full_precision_floats(self):
        ugly = 0.1 + 0.2  # not representable prettily; must survive verbatim
        data = cantilever_doc()
        data["nodes"][1]["position"][0] = ugly
        doc = msakit.parse_model(json.dumps(data))
        again = msakit.parse_model(msakit.serialize_model(doc))
        assert again.nodes[1]["position"][0] == ugly


class TestCli:
    def _write(self, tmp_path, data, name="model.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    def test_analyze_with_load(self, tmp_path, capsys):
        path = self._write(tmp_path, cantilever_doc())
        out = tmp_path / "result.json"
        code = main(["analyze", path, "--load", "0,100,0,0,0,0", "--out", str(out)])
        assert code == 0
        result = json.loads(out.read_text())
        sec = section_kwargs()
        tip = result["state"]["deflections"]["b"][1]
        assert tip == pytest.approx(100 * 1.0**3 / (3 * sec["E"] * sec["Iz"]), rel=1e-10)
        assert result["support_reactions"]["a"][1] == pytest.approx(-100.0)
        assert result["equilibrium_relative"] <= 1e-9

    def test_analyze_load_with_negative_first_component(self, tmp_path):
        path = self._write(tmp_path, cantilever_doc())
        out = tmp_path / "result.json"
        assert main(["analyze", path, "--load", "-0.5,100,0,0,0,0", "--out", str(out)]) == 0
        result = json.loads(out.read_text())
        assert result["support_reactions"]["a"][:2] == pytest.approx([0.5, -100.0])

    def test_analyze_without_load_omits_state(self, tmp_path, capsys):
        path = self._write(tmp_path, cantilever_doc())
        assert main(["analyze", path]) == 0
        result = json.loads(capsys.readouterr().out)
        assert "cartesian_stiffness" in result and "state" not in result

    def test_analyze_document_loads_apply(self, tmp_path):
        path = self._write(tmp_path, cantilever_doc(load=[0, 50.0, 0, 0, 0, 0]))
        out = tmp_path / "result.json"
        assert main(["analyze", path, "--out", str(out)]) == 0
        result = json.loads(out.read_text())
        assert "state" in result

    def test_analyze_parse_error_is_machine_readable(self, tmp_path, capsys):
        data = cantilever_doc()
        data["end_effector"] = "zz"
        path = self._write(tmp_path, data)
        assert main(["analyze", path]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "format"
        assert "end_effector" in record["path"]

    def test_analyze_beam_without_section_is_one_error_record(self, tmp_path, capsys):
        data = cantilever_doc()
        del data["links"][0]["section"]
        assert main(["analyze", self._write(tmp_path, data)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert (record["error"], record["path"]) == ("format", "$.links[0]")

    def test_check_well_posed(self, tmp_path, capsys):
        path = self._write(tmp_path, cantilever_doc())
        assert main(["check", path]) == 0
        assert "24 equations / 24 unknowns" in capsys.readouterr().out

    def test_check_names_a_structural_fault(self, tmp_path, capsys):
        # The load point j sits in a junction that no link touches: check
        # prints the fault that analyze raises, and exits 1.
        path = tmp_path / "model.json"
        path.write_text(msakit.serialize_model(msakit.document_from_model(loaded_junction("j")[0])))
        assert main(["check", str(path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("60 equations / 60 unknowns, 0 mechanisms")
        assert lines[-1] == ("  fault (unlinked): supports or load points on nodes that no link "
                             "or platform touches: ['j']; support or load a link end instead")
        assert main(["analyze", str(path)]) == 1
        assert "no link or platform touches: ['j']" in capsys.readouterr().err

    def test_check_flags_mechanisms(self, tmp_path, capsys):
        data = cantilever_doc()
        data["supports"] = []
        path = self._write(tmp_path, data)
        assert main(["check", path]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "6 mechanisms" in lines[0]
        assert lines[1] == "  mechanism nodes: a"

    def test_check_counts_self_stress_apart_from_mechanisms(self, tmp_path, capsys):
        # A rigid link from a clamp to the end effector: its reactions are
        # indeterminate, but nothing moves.
        data = {
            "nodes": [{"id": "a", "position": [0, 0, 0]},
                      {"id": "b", "position": [1.0, 0, 0]}],
            "links": [{"type": "rigid", "nodes": ["a", "b"]}],
            "supports": [{"node": "a", "type": "rigid"}],
            "end_effector": "b",
        }
        path = self._write(tmp_path, data)
        assert main(["check", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "0 mechanisms" in lines[0]
        assert lines[1] == "  states of self-stress: 6"

    def test_check_survives_rows_fewer_than_unknowns(self, tmp_path):
        # Padded to square, this audit's held block has empty rows, on which
        # SuperLU used to crash the process; each run is its own process so
        # that a crash fails this test alone.
        path = tmp_path / "model.json"
        path.write_text(msakit.serialize_model(msakit.document_from_model(free_link_end())))
        env = dict(os.environ, PYTHONPATH=str(Path(msakit.__file__).resolve().parents[1]))
        for _ in range(5):
            run = subprocess.run([sys.executable, "-m", "msakit.cli", "check", str(path)],
                                 capture_output=True, text=True, env=env, timeout=120)
            assert run.returncode == 1, run.stderr
            assert "6 mechanisms" in run.stdout.splitlines()[0]

    @pytest.mark.parametrize("section, entry", [
        ("joints", {"type": "elastic", "nodes": ["b", "c"], "basis": "revolute_z",
                    "stiffness": [[1.0, 0.0], [0.0, 1.0]]}),
        ("supports", {"node": "a", "type": "passive", "basis": "free"}),
    ], ids=["elastic joint, 2x2 on revolute_z", "passive support, free basis"])
    def test_builder_error_carries_its_path(self, tmp_path, capsys, section, entry):
        data = cantilever_doc()
        data["nodes"].append({"id": "c", "position": [1.0, 0.0, 0.0]})
        data[section] = [entry]
        assert main(["check", self._write(tmp_path, data)]) == 1
        record = json.loads(capsys.readouterr().err)
        assert (record["error"], record["path"]) == ("format", f"$.{section}[0]")

    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent/m.json"]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "io"

    def test_singular_stiffness_reported_with_directions(self, tmp_path, capsys):
        data = cantilever_doc()
        data["supports"] = [{"node": "a", "type": "passive", "basis": "revolute_z"}]
        path = self._write(tmp_path, data)
        assert main(["analyze", path]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["diagnostics"]["kc_rank"] == 5
        assert result["compliance_pseudo_inverse"] is True
        assert len(result["diagnostics"]["mechanism_directions"]) == 1

    def test_navaro_leg_only(self, tmp_path, capsys):
        assert main(["navaro", "--leg-only", "--out", str(tmp_path)]) == 0
        result = json.loads((tmp_path / "navaro_leg_result.json").read_text())
        assert result["leg_audit"]["equations"] == 120
        assert result["leg_audit"]["blocks"] == {
            "link": 60, "compat": 31, "wrench": 22, "mixed": 1, "load": 6}
        # The generated model file re-parses and re-assembles identically.
        doc = msakit.parse_model((tmp_path / "navaro_leg_model.json").read_text())
        assert doc.to_model().assemble().shape == (120, 120)
        # The compliance of a stiffness with a mechanism is PSD, of Kc's rank.
        eig = np.linalg.eigvalsh(np.array(result["compliance"]))
        scale = np.abs(eig).max()
        assert eig.min() >= -1e-12 * scale
        assert np.sum(eig > 1e-9 * scale) == result["diagnostics"]["kc_rank"]

    def test_compliance_drops_what_kc_rank_drops(self, tmp_path, capsys, monkeypatch):
        # A mechanism whose stiffness is noise 1e-12 below the largest: above
        # numpy's default pinv cutoff, below the one that sets kc_rank.
        kc = np.diag([1e6, 5e5, 2e5, 1e3, 5e2, 1e-6])
        diag = msakit.assembly.SolverDiagnostics(a_size=0, a_rank=0, pseudo_inverse=False,
                                                 condition_estimate=1.0, kc_rank=5, mechanisms=1)
        monkeypatch.setattr(msakit.assembly, "cartesian_stiffness",
                            lambda system: msakit.assembly.CartesianStiffness(kc, diag))
        assert main(["analyze", self._write(tmp_path, cantilever_doc())]) == 0
        compliance = np.array(json.loads(capsys.readouterr().out)["compliance"])
        np.testing.assert_allclose(compliance, np.diag([1e-6, 2e-6, 5e-6, 1e-3, 2e-3, 0.0]),
                                   rtol=1e-12, atol=0)

    def test_navaro_full_run(self, tmp_path):
        assert main(["navaro", "--out", str(tmp_path)]) == 0
        result = json.loads((tmp_path / "navaro_full_result.json").read_text())
        assert result["diagnostics"]["kc_rank"] == 6

    def test_navaro_motor_sweep_monotone(self, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"motor_stiffness": [5e3, 1e4, 2e4]}))
        assert main(["navaro", "--leg-only", "--params", str(params),
                     "--out", str(tmp_path)]) == 0
        twist = []
        for k in (1, 2, 3):
            result = json.loads((tmp_path / f"navaro_leg_result_{k}.json").read_text())
            twist.append(result["cartesian_stiffness"][5][5])
        assert twist[0] < twist[1] < twist[2]

    def test_navaro_bad_params(self, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"unknown_field": 1.0}))
        assert main(["navaro", "--params", str(params)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "model"

    @pytest.mark.parametrize("params", [
        {"crank_length": "long"}, {"coupler_angle": None}, {"motor_stiffness": []},
        {"crank_length": True}, {"motor_stiffness": [5e3, True]},
        {"coupler_angle": float("inf")},
    ], ids=["string", "null", "empty sweep", "bool", "bool in sweep", "infinite"])
    def test_navaro_bad_param_values(self, tmp_path, capsys, params):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params))
        assert main(["navaro", "--params", str(path), "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        error = json.loads(captured.err)
        assert error["error"] == "model" and next(iter(params)) in error["detail"]

    def test_malformed_load_option(self, tmp_path, capsys):
        path = self._write(tmp_path, cantilever_doc())
        assert main(["analyze", path, "--load", "1,2,3"]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "model"

    def test_rigidly_locked_model_serializes_cleanly(self, tmp_path, capsys):
        data = {
            "nodes": [{"id": "a", "position": [0, 0, 0]},
                      {"id": "b", "position": [1.0, 0, 0]}],
            "links": [{"type": "rigid", "nodes": ["a", "b"]}],
            "supports": [{"node": "a", "type": "rigid"}],
            "end_effector": "b",
        }
        path = self._write(tmp_path, data)
        assert main(["analyze", path]) == 0
        result = json.loads(capsys.readouterr().out)   # strict JSON must parse
        assert result["diagnostics"]["infinite"] is True
        assert result["cartesian_stiffness"][0][0] is None
        assert result["compliance"] is None
