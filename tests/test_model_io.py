"""Model documents, round-trips and the command-line interface."""
import json

import numpy as np
import pytest

import msakit
from msakit.cli import main

from helpers import flexible_platform_model, section_kwargs, sprung_model


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
        with pytest.raises(msakit.FormatError) as err:
            msakit.parse_model(json.dumps(data))
        assert "$.joints[0]" in err.value.path

    def test_unknown_preset_rejected(self):
        data = cantilever_doc()
        data["supports"][0] = {"node": "a", "type": "passive", "basis": "helical_z"}
        with pytest.raises(msakit.FormatError) as err:
            msakit.parse_model(json.dumps(data))
        assert "basis" in err.value.path

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

    @pytest.mark.parametrize("where, entry, matrix", [
        ("joints", {"type": "elastic", "nodes": ["b", "c"], "basis": "universal"},
         [[1.0, 2.0], [0.0, 1.0]]),
        ("joints", {"type": "elastic", "nodes": ["b", "c"], "basis": "revolute_z"}, [[-5.0]]),
        ("supports", {"node": "c", "type": "elastic", "basis": "universal"},
         [[1.0, 2.0], [2.0, 1.0]]),
    ], ids=["asymmetric-joint", "negative-joint", "indefinite-support"])
    def test_spring_matrix_checked_at_parse_time(self, where, entry, matrix):
        data = cantilever_doc()
        data["nodes"].append({"id": "c", "position": [1.0, 0.0, 0.0]})
        data[where] = data.get(where, []) + [{**entry, "stiffness": matrix}]
        with pytest.raises(msakit.FormatError) as err:
            msakit.parse_model(json.dumps(data))
        index = len(data[where]) - 1
        assert err.value.path == f"$.{where}[{index}].stiffness"

    def test_asymmetric_matrix_rejected(self):
        K = msakit.beam_stiffness(
            msakit.BeamSection(L=1.0, axis=[1, 0, 0], **section_kwargs())).K.copy()
        K[0, 1] += 0.01 * np.abs(K).max()
        data = cantilever_doc()
        data["links"][0] = {"type": "flexible", "nodes": ["a", "b"], "stiffness": K.tolist()}
        with pytest.raises(msakit.FormatError):
            msakit.parse_model(json.dumps(data))

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
        assert model.connections[0].basis.p == 1

    def test_invalid_json_reported(self):
        with pytest.raises(msakit.FormatError):
            msakit.parse_model("{nope")

    def test_duplicate_node_ids_rejected(self):
        data = cantilever_doc()
        data["nodes"].append({"id": "a", "position": [2.0, 0.0, 0.0]})
        with pytest.raises(msakit.FormatError):
            msakit.parse_model(json.dumps(data))


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

    def test_check_well_posed(self, tmp_path, capsys):
        path = self._write(tmp_path, cantilever_doc())
        assert main(["check", path]) == 0
        assert "24 equations / 24 unknowns" in capsys.readouterr().out

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
