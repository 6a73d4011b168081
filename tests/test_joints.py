"""Joint emitters: rigid, passive, elastic (preloaded) and actuated connections."""
import numpy as np
import pytest

import msakit
from msakit.equations import deflection_var, wrench_var
from msakit.joints import (actuated_joint_equations, elastic_joint_equations, junction_equations,
                           passive_joint_equations, rigid_joint_equations)

from helpers import block_residual

RZ = msakit.joint_basis_preset("revolute_z")


class TestRigidJoint:
    def test_two_node_rows(self):
        block = rigid_joint_equations(("i", "j"))
        assert block.rows == 12
        kinds = block.row_kinds()
        assert kinds.count("compat") == 6 and kinds.count("wrench") == 6

    def test_three_node_rows(self):
        block = rigid_joint_equations(("i", "j", "k"))
        assert block.rows == 18
        kinds = block.row_kinds()
        assert kinds.count("compat") == 12 and kinds.count("wrench") == 6

    def test_satisfied_by_shared_motion_and_balanced_wrenches(self):
        block = rigid_joint_equations(("i", "j", "k"))
        rng = np.random.default_rng(4)
        dt = rng.normal(size=6)
        w_i, w_j = rng.normal(size=6), rng.normal(size=6)
        values = {deflection_var(n): dt for n in "ijk"}
        values[wrench_var("i")] = w_i
        values[wrench_var("j")] = w_j
        values[wrench_var("k")] = -(w_i + w_j)
        np.testing.assert_allclose(block_residual(block, values), np.zeros(18), atol=1e-15)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            msakit.JointSpec(kind="rigid", nodes=("i", "i"))
        with pytest.raises(ValueError):
            msakit.JointSpec(kind="rigid", nodes=("i",))


class TestPassiveJoint:
    def test_revolute_row_structure(self):
        block = passive_joint_equations(RZ, ("i", "j"))
        assert block.rows == 12
        kinds = block.row_kinds()
        assert kinds[:5] == ["compat"] * 5 and kinds[5:] == ["wrench"] * 7

    def test_free_relative_rotation_transmits_nothing(self):
        block = passive_joint_equations(RZ, ("i", "j"))
        rng = np.random.default_rng(5)
        dt_i = rng.normal(size=6)
        dt_j = dt_i + np.array([0, 0, 0, 0, 0, 0.3])   # relative twist about z only
        w = rng.normal(size=6)
        w[5] = 0.0                                      # no transmitted z moment
        values = {deflection_var("i"): dt_i, deflection_var("j"): dt_j,
                  wrench_var("i"): w, wrench_var("j"): -w}
        np.testing.assert_allclose(block_residual(block, values), np.zeros(12), atol=1e-15)

    def test_transmitted_moment_about_axis_is_zero(self):
        block = passive_joint_equations(RZ, ("i", "j"))
        values = {deflection_var("i"): np.zeros(6), deflection_var("j"): np.zeros(6),
                  wrench_var("i"): np.array([0, 0, 0, 0, 0, 1.0]),
                  wrench_var("j"): np.array([0, 0, 0, 0, 0, -1.0])}
        r = block_residual(block, values)
        assert np.linalg.norm(r) > 0.5   # a z moment through the pin violates the rows

    def test_spherical_annihilates_pure_moments(self):
        spherical = msakit.joint_basis_preset("spherical")
        block = passive_joint_equations(spherical, ("i", "j"))
        assert block.rows == 12
        values = {deflection_var("i"): np.zeros(6), deflection_var("j"): np.zeros(6),
                  wrench_var("i"): np.array([0, 0, 0, 1.0, 2.0, 3.0]),
                  wrench_var("j"): np.array([0, 0, 0, -1.0, -2.0, -3.0])}
        r = block_residual(block, values)
        assert np.linalg.norm(r) > 1.0
        values[wrench_var("i")] = np.array([1.0, 2.0, 3.0, 0, 0, 0])
        values[wrench_var("j")] = -values[wrench_var("i")]
        np.testing.assert_allclose(block_residual(block, values), np.zeros(12), atol=1e-15)

    def test_rigid_compatible_solution(self):
        block = passive_joint_equations(RZ, ("i", "j"))
        rng = np.random.default_rng(6)
        dt = rng.normal(size=6)
        w = rng.normal(size=6)
        w[5] = 0.0
        values = {deflection_var("i"): dt, deflection_var("j"): dt,
                  wrench_var("i"): w, wrench_var("j"): -w}
        np.testing.assert_allclose(block_residual(block, values), np.zeros(12), atol=1e-15)

    def test_fully_rigid_basis_rejected(self):
        rigid6 = msakit.make_joint_basis(list(np.eye(6)), [])
        with pytest.raises(ValueError):
            msakit.JointSpec(kind="passive", nodes=("i", "j"), basis=rigid6)


class TestElasticJoint:
    def test_row_structure(self):
        block = elastic_joint_equations(RZ, [[100.0]], ("i", "j"))
        assert block.rows == 12
        kinds = block.row_kinds()
        assert kinds.count("compat") == 5
        assert kinds.count("wrench") == 6
        assert kinds.count("mixed") == 1

    def test_equal_deflections_give_no_elastic_force(self):
        block = elastic_joint_equations(RZ, [[100.0]], ("i", "j"))
        rng = np.random.default_rng(7)
        dt = rng.normal(size=6)
        w = rng.normal(size=6)
        w[5] = 0.0   # the Hooke row then requires zero transmitted z moment
        values = {deflection_var("i"): dt, deflection_var("j"): dt,
                  wrench_var("i"): w, wrench_var("j"): -w}
        np.testing.assert_allclose(block_residual(block, values), np.zeros(12), atol=1e-14)

    def test_relative_twist_transmits_spring_moment(self):
        k, theta = 300.0, 0.02
        block = elastic_joint_equations(RZ, [[k]], ("i", "j"))
        dt_i = np.zeros(6)
        dt_j = np.array([0, 0, 0, 0, 0, -theta])   # node i twisted + theta relative to j
        # Restoring spring: the joint pulls node i back with moment -k*theta.
        w_i = np.array([0, 0, 0, 0, 0, -k * theta])
        values = {deflection_var("i"): dt_i, deflection_var("j"): dt_j,
                  wrench_var("i"): w_i, wrench_var("j"): -w_i}
        np.testing.assert_allclose(block_residual(block, values), np.zeros(12), atol=1e-12)
        assert abs(w_i[5]) == pytest.approx(k * theta)

    def test_preload_carried_at_zero_relative_deflection(self):
        w0 = np.array([0, 0, 0, 0, 0, 4.5])
        block = elastic_joint_equations(RZ, [[100.0]], ("i", "j"), preload=w0)
        dt = np.array([1e-3, 0, 0, 0, 0, 2e-3])
        values = {deflection_var("i"): dt, deflection_var("j"): dt,
                  wrench_var("i"): w0, wrench_var("j"): -w0}
        np.testing.assert_allclose(block_residual(block, values), np.zeros(12), atol=1e-14)

    def test_zero_preload_matches_unpreloaded_rows_exactly(self):
        plain = elastic_joint_equations(RZ, [[75.0]], ("i", "j"))
        zeroed = elastic_joint_equations(RZ, [[75.0]], ("i", "j"), preload=np.zeros(6))
        assert plain.rows == zeroed.rows
        np.testing.assert_array_equal(plain.rhs, zeroed.rhs)
        for (r1, v1, b1), (r2, v2, b2) in zip(plain.entries, zeroed.entries):
            assert r1 == r2 and v1 == v2
            np.testing.assert_array_equal(b1, b2)

    def test_preload_along_rigid_directions_warns(self):
        w0 = np.array([1.0, 0, 0, 0, 0, 2.0])
        with pytest.warns(UserWarning):
            elastic_joint_equations(RZ, [[100.0]], ("i", "j"), preload=w0)

    def test_stiffness_shape_must_match_basis(self):
        with pytest.raises(ValueError, match=r"must be 1x1 for this basis, got \(2, 2\)"):
            msakit.JointSpec(kind="elastic", nodes=("i", "j"), basis=RZ,
                             stiffness=msakit.JointStiffness(np.eye(2)))

    def test_indefinite_stiffness_rejected(self):
        with pytest.raises(ValueError):
            elastic_joint_equations(RZ, [[-5.0]], ("i", "j"))


class TestActuatedJoint:
    def test_as_rigid_delegates(self):
        spec = msakit.JointSpec(kind="actuated", nodes=("i", "j"), idealization="as-rigid")
        block = actuated_joint_equations(spec)
        ref = rigid_joint_equations(("i", "j"))
        order = [deflection_var("i"), deflection_var("j"), wrench_var("i"), wrench_var("j")]
        np.testing.assert_array_equal(block.dense(order)[0], ref.dense(order)[0])

    def test_as_elastic_delegates(self):
        ks = msakit.JointStiffness([[1e4]])
        spec = msakit.JointSpec(kind="actuated", nodes=("i", "j"), basis=RZ,
                                stiffness=ks, idealization="as-elastic")
        block = actuated_joint_equations(spec)
        ref = elastic_joint_equations(RZ, ks, ("i", "j"))
        order = [deflection_var("i"), deflection_var("j"), wrench_var("i"), wrench_var("j")]
        np.testing.assert_array_equal(block.dense(order)[0], ref.dense(order)[0])

    def test_missing_stiffness_rejected(self):
        with pytest.raises(ValueError):
            msakit.JointSpec(kind="actuated", nodes=("i", "j"), basis=RZ,
                             idealization="as-elastic")

    def test_missing_idealization_rejected(self):
        with pytest.raises(ValueError):
            msakit.JointSpec(kind="actuated", nodes=("i", "j"))


class TestJointSpec:
    def test_pairwise_only_for_compliant_kinds(self):
        with pytest.raises(ValueError):
            msakit.JointSpec(kind="passive", nodes=("i", "j", "k"), basis=RZ)
        with pytest.raises(ValueError):
            msakit.JointSpec(kind="elastic", nodes=("i", "j", "k"), basis=RZ,
                             stiffness=msakit.JointStiffness([[1.0]]))

    def test_every_two_node_joint_emits_twelve_rows(self):
        blocks = [
            rigid_joint_equations(("i", "j")),
            passive_joint_equations(RZ, ("i", "j")),
            elastic_joint_equations(RZ, [[10.0]], ("i", "j")),
            actuated_joint_equations(
                msakit.JointSpec(kind="actuated", nodes=("i", "j"), idealization="as-rigid")),
        ]
        assert all(b.rows == 12 for b in blocks)


class TestJunction:
    def test_pin_and_weld_row_grouping(self):
        block = junction_equations(("6", "9"), [("7", RZ)])
        assert block.rows == 18
        kinds = block.row_kinds()
        assert kinds.count("compat") == 11   # 5 pinned + 6 welded
        assert kinds.count("wrench") == 7    # 5 shared + 1 carrier + 1 attachment

    def test_junction_without_attachments_matches_rigid_joint(self):
        block = junction_equations(("i", "j", "k"))
        ref = rigid_joint_equations(("i", "j", "k"))
        order = [deflection_var(n) for n in "ijk"] + [wrench_var(n) for n in "ijk"]
        np.testing.assert_array_equal(block.dense(order)[0], ref.dense(order)[0])

    def test_junction_statics_and_kinematics(self):
        block = junction_equations(("6", "9"), [("7", RZ)])
        rng = np.random.default_rng(8)
        dt = rng.normal(size=6)
        dt7 = dt + np.array([0, 0, 0, 0, 0, 0.1])    # pin frees relative z rotation
        w6, w9 = rng.normal(size=6), rng.normal(size=6)
        w7 = -(w6 + w9)
        w7[5] = 0.0                                   # pin transmits no z moment
        w9[5] = -w6[5]                                # weld pair balances it internally
        w7 = -(w6 + w9)
        values = {deflection_var("6"): dt, deflection_var("9"): dt, deflection_var("7"): dt7,
                  wrench_var("6"): w6, wrench_var("9"): w9, wrench_var("7"): w7}
        np.testing.assert_allclose(block_residual(block, values), np.zeros(18), atol=1e-14)

    def test_heterogeneous_bases_keep_row_count(self):
        ry = msakit.joint_basis_preset("revolute_y")
        block = junction_equations(("a",), [("b", RZ), ("c", ry)])
        assert block.rows == 18

    def test_rejects_non_passive_attachment(self):
        rigid6 = msakit.make_joint_basis(list(np.eye(6)), [])
        with pytest.raises(ValueError):
            _coincident("abc").add_junction(("a", "b"), [("c", rigid6)])

    def test_rejects_duplicates(self):
        with pytest.raises(msakit.ModelError):
            _coincident("ab").add_junction(("a", "b"), [("a", RZ)])


def _coincident(nodes) -> msakit.Model:
    m = msakit.Model()
    for node in nodes:
        m.add_node(node, [0, 0, 0])
    return m
