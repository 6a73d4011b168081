"""Supports, external loads and reaction recovery."""
import numpy as np
import pytest

import msakit
from msakit.boundary import CLAMP, external_load_equations
from msakit.joints import connection_equations

from helpers import (block_residual, cantilever, deflection_var, entries_dense, first_fault,
                     flexible_platform_model, loaded_junction, record_entries, rel_fro,
                     section_kwargs, wrench_var)

RZ = msakit.joint_basis_preset("revolute_z")


def support_block(node, basis, stiffness=None):
    """One support's rows: its node attached to the ground, an empty carrier."""
    return connection_equations([()], [((node, basis, stiffness),)], [f"support@{node}"])


def rigid_support(node):
    return support_block(node, CLAMP)


def passive_support(node, basis):
    return support_block(node, basis)


def elastic_support(node, basis, stiffness, preload=None):
    return support_block(node, basis, msakit.JointStiffness(stiffness, preload))


class TestSupportRows:
    def test_rigid_support_pins_all_six(self):
        block = rigid_support("j")
        assert block.rows == 6
        assert {var for _, var, _ in record_entries(block)} == {deflection_var("j")}
        np.testing.assert_array_equal(entries_dense(block, [deflection_var("j")]), np.eye(6))

    def test_passive_support_counts(self):
        block = passive_support("j", RZ)
        assert block.rows == 6
        kinds = block.row_kinds()
        assert kinds.count("compat") == 5 and kinds.count("wrench") == 1

    def test_passive_support_allows_free_rotation_without_moment(self):
        block = passive_support("j", RZ)
        values = {deflection_var("j"): np.array([0, 0, 0, 0, 0, 0.25]),
                  wrench_var("j"): np.array([3.0, -1.0, 2.0, 0.5, -0.5, 0.0])}
        np.testing.assert_allclose(block_residual(block, values), np.zeros(6), atol=1e-15)

    def test_unconstrained_support_rejected(self):
        free = msakit.joint_basis_preset("free")
        m = msakit.Model()
        m.add_node("j", [0, 0, 0])
        with pytest.raises(ValueError):
            m.add_support("j", "passive", basis=free)

    def test_elastic_support_counts_and_hooke_sign(self):
        k = 400.0
        block = elastic_support("j", RZ, [[k]])
        assert block.rows == 6
        theta = 0.01
        # Restoring spring: ground pushes back with -k*theta about z.
        values = {deflection_var("j"): np.array([0, 0, 0, 0, 0, theta]),
                  wrench_var("j"): np.array([0, 0, 0, 0, 0, -k * theta])}
        np.testing.assert_allclose(block_residual(block, values), np.zeros(6), atol=1e-13)

    def test_elastic_support_preload_at_rest(self):
        w0 = np.array([0, 0, 0, 0, 0, 6.0])
        block = elastic_support("j", RZ, [[400.0]], preload=w0)
        values = {deflection_var("j"): np.zeros(6), wrench_var("j"): w0}
        np.testing.assert_allclose(block_residual(block, values), np.zeros(6), atol=1e-15)


class TestExternalLoadRows:
    def test_single_incident_node(self):
        block = external_load_equations(["e"])
        assert block.rows == 6 and block.load_nodes == ["e"]
        assert {var for _, var, _ in record_entries(block)} == {wrench_var("e")}
        np.testing.assert_array_equal(entries_dense(block, [wrench_var("e")]), np.eye(6))

    def test_zero_load_reduces_to_wrench_balance(self):
        # Unloaded, the row reads W_e = 0: the free link end carries no wrench.
        block = external_load_equations(["e"])
        w = np.array([1.0, -2.0, 3.0, 0.1, 0.2, -0.3])
        np.testing.assert_allclose(block_residual(block, {wrench_var("e"): np.zeros(6)}),
                                   np.zeros(6), atol=1e-15)
        np.testing.assert_array_equal(block_residual(block, {wrench_var("e"): w}), w)


class TestReactions:
    def test_cantilever_base_reaction(self):
        model, _ = cantilever(L=1.0)
        F = 100.0
        state = model.solve([0.0, F, 0.0, 0.0, 0.0, 0.0])
        reaction = msakit.support_reaction(state, "a")
        # Statics: base takes -F and the balancing moment -d x F.
        np.testing.assert_allclose(reaction.array, [0, -F, 0, 0, 0, -F], atol=1e-9 * F)

    def test_unloaded_structure_has_zero_reactions(self):
        model, _ = cantilever()
        state = model.solve()
        np.testing.assert_allclose(msakit.support_reaction(state, "a").array,
                                   np.zeros(6), atol=1e-12)

    def test_preloaded_support_reaction_equals_preload_projection(self):
        # Rigid link to a clamped far node holds the sprung node still, so the
        # elastic support carries exactly its preload.
        m = msakit.Model()
        m.add_node("j", [0, 0, 0])
        m.add_node("b", [1.0, 0, 0])
        m.add_rigid_link("j", "b")
        w0 = np.array([0, 0, 0, 0, 0, 2.5])
        m.add_support("j", "elastic", basis=RZ, stiffness=[[300.0]], preload=w0)
        m.add_support("b", "rigid")
        state = m.solve()
        np.testing.assert_allclose(state.deflection_at("j"), np.zeros(6), atol=1e-12)
        assert msakit.support_reaction(state, "j").array[5] == pytest.approx(2.5, rel=1e-10)

    def test_non_support_node_rejected(self):
        model, _ = cantilever()
        state = model.solve()
        with pytest.raises(ValueError):
            msakit.support_reaction(state, "b")


class TestEquilibrium:
    def test_reactions_balance_external_loads(self):
        model, _ = cantilever(L=0.8)
        w = np.array([10.0, -20.0, 30.0, 1.0, 2.0, -3.0])
        state = model.solve(w)
        assert msakit.equilibrium_residual(state) <= 1e-9 * np.linalg.norm(w)

    def test_flexible_platform_reactions_balance_the_load(self):
        w = np.array([3.0, -2.0, 5.0, 0.4, -0.7, 0.2])
        state = flexible_platform_model().solve(w)
        assert msakit.equilibrium_residual(state) <= 1e-9 * np.linalg.norm(w)

    def test_lever_on_elastic_support(self):
        k, L, F = 500.0, 0.7, 12.0
        m = msakit.Model()
        m.add_node("j", [0, 0, 0])
        m.add_node("b", [L, 0, 0])
        m.add_rigid_link("j", "b")
        m.add_support("j", "elastic", basis=RZ, stiffness=[[k]])
        m.set_end_effector("b")
        state = m.solve([0, F, 0, 0, 0, 0])
        # Moment-arm analysis: F*L = k*theta, tip deflection theta*L.
        assert state.end_deflection[1] == pytest.approx(F * L * L / k, rel=1e-10)
        assert state.end_deflection[5] == pytest.approx(F * L / k, rel=1e-10)
        state2 = m.solve([0, 0, 0, 0, 0, 3.0])
        assert state2.end_deflection[5] == pytest.approx(3.0 / k, rel=1e-10)
        assert msakit.equilibrium_residual(state) <= 1e-9 * F


class TestModelSupportRules:
    def test_double_support_rejected(self):
        model, _ = cantilever()
        with pytest.raises(msakit.ModelError):
            model.add_support("a", "passive", basis=RZ)

    def test_support_on_load_point_rejected(self):
        model, _ = cantilever()
        with pytest.raises(msakit.ModelError):
            model.add_support("b", "rigid")

    def test_supported_end_effector_rejected_without_a_trace(self):
        m = msakit.Model()
        m.add_node("a", [0, 0, 0])
        m.add_node("b", [1.0, 0, 0])
        m.add_beam("a", "b", **section_kwargs())
        m.add_support("a", "rigid")
        with pytest.raises(msakit.ModelError, match="is supported and cannot carry a load point"):
            m.set_end_effector("a")
        assert m.end_effector is None and m.load_points == ()
        m.set_end_effector("b")
        assert m.end_effector == "b"

    def test_support_off_the_links_rejected(self):
        # A beam welded to a grounded node that no link touches: the node's
        # wrench is the weld's effort, so it cannot report the reaction.
        m = msakit.Model()
        for node, x in (("g", 0.0), ("a", 0.0), ("b", 1.0)):
            m.add_node(node, [x, 0, 0])
        m.add_beam("a", "b", **section_kwargs())
        m.add_joint("rigid", ("a", "g"))
        m.add_support("g", "rigid")
        m.set_end_effector("b")
        with pytest.raises(msakit.ModelError, match=r"no link or platform touches: \['g'\]"):
            m.assemble()
        assert m.check().square
        assert first_fault(m)[:2] == ("unlinked", ("g",))

    def test_load_point_off_the_links_rejected(self):
        # The loaded node j sits in a junction and no link touches it: its
        # wrench is the junction's effort, so a load there is not balanced.
        m, _ = loaded_junction("j")
        with pytest.raises(msakit.ModelError, match=r"no link or platform touches: \['j'\]"):
            m.assemble()
        with pytest.raises(msakit.ModelError, match="load a link end instead"):
            m.cartesian_stiffness()
        # The audit reports that same fault, so the model is not well-posed.
        report = m.check()
        assert report.summary().startswith("60 equations / 60 unknowns, 0 mechanisms")
        assert [(f.kind, f.names) for f in report.faults] == [("unlinked", ("j",))]
        assert first_fault(m) == report.faults[0]

    def test_junction_loaded_through_a_rigid_link(self):
        m, link = loaded_junction("e")
        T = msakit.transport_matrix(m.position_of("b") - m.position_of("e"))
        assert rel_fro(m.cartesian_stiffness().kc, T.T @ link.K22 @ T) <= 1e-12
        w = np.array([10.0, -20.0, 30.0, 1.0, 2.0, -3.0])
        assert msakit.equilibrium_residual(m.solve(w)) <= 1e-12 * np.linalg.norm(w)

    def test_pinned_beam_without_other_constraints_is_a_mechanism(self):
        m = msakit.Model()
        m.add_node("a", [0, 0, 0])
        m.add_node("b", [1.0, 0, 0])
        m.add_beam("a", "b", **section_kwargs())
        m.add_support("a", "passive", basis=RZ)
        m.set_end_effector("b")
        result = m.cartesian_stiffness()
        assert result.diagnostics.mechanisms == 1
        assert result.diagnostics.kc_rank == 5
