"""Connection rows of rigid, passive, elastic (preloaded) and actuated joints
and of junctions, each built through the one connection template."""
import warnings

import numpy as np
import pytest

import msakit
from msakit.assembly import _connection_block
from msakit.core import _joint_stiffness
from msakit.equations import deflection_var, wrench_var
from msakit.model import JunctionSpec

from helpers import block_residual, section_kwargs

RZ = msakit.joint_basis_preset("revolute_z")


def rigid_joint(nodes):
    return _connection_block(msakit.JointSpec(kind="rigid", nodes=nodes))


def passive_joint(basis, nodes):
    return _connection_block(msakit.JointSpec(kind="passive", nodes=nodes, basis=basis))


def elastic_joint(basis, stiffness, nodes, preload=None):
    stiffness = _joint_stiffness(stiffness, preload)
    return _connection_block(msakit.JointSpec(kind="elastic", nodes=nodes, basis=basis,
                                              stiffness=stiffness))


def junction(rigid_nodes, passive_nodes=()):
    return _connection_block(JunctionSpec(tuple(rigid_nodes), tuple(passive_nodes)))


class TestRigidJoint:
    def test_two_node_rows(self):
        block = rigid_joint(("i", "j"))
        assert block.rows == 12
        kinds = block.row_kinds()
        assert kinds.count("compat") == 6 and kinds.count("wrench") == 6

    def test_three_node_rows(self):
        block = rigid_joint(("i", "j", "k"))
        assert block.rows == 18
        kinds = block.row_kinds()
        assert kinds.count("compat") == 12 and kinds.count("wrench") == 6

    def test_satisfied_by_shared_motion_and_balanced_wrenches(self):
        block = rigid_joint(("i", "j", "k"))
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
        block = passive_joint(RZ, ("i", "j"))
        assert block.rows == 12
        kinds = block.row_kinds()
        assert kinds[:5] == ["compat"] * 5 and kinds[5:] == ["wrench"] * 7

    def test_free_relative_rotation_transmits_nothing(self):
        block = passive_joint(RZ, ("i", "j"))
        rng = np.random.default_rng(5)
        dt_i = rng.normal(size=6)
        dt_j = dt_i + np.array([0, 0, 0, 0, 0, 0.3])   # relative twist about z only
        w = rng.normal(size=6)
        w[5] = 0.0                                      # no transmitted z moment
        values = {deflection_var("i"): dt_i, deflection_var("j"): dt_j,
                  wrench_var("i"): w, wrench_var("j"): -w}
        np.testing.assert_allclose(block_residual(block, values), np.zeros(12), atol=1e-15)

    def test_transmitted_moment_about_axis_is_zero(self):
        block = passive_joint(RZ, ("i", "j"))
        values = {deflection_var("i"): np.zeros(6), deflection_var("j"): np.zeros(6),
                  wrench_var("i"): np.array([0, 0, 0, 0, 0, 1.0]),
                  wrench_var("j"): np.array([0, 0, 0, 0, 0, -1.0])}
        r = block_residual(block, values)
        assert np.linalg.norm(r) > 0.5   # a z moment through the pin violates the rows

    def test_spherical_annihilates_pure_moments(self):
        spherical = msakit.joint_basis_preset("spherical")
        block = passive_joint(spherical, ("i", "j"))
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
        block = passive_joint(RZ, ("i", "j"))
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
        block = elastic_joint(RZ, [[100.0]], ("i", "j"))
        assert block.rows == 12
        kinds = block.row_kinds()
        assert kinds.count("compat") == 5
        assert kinds.count("wrench") == 6
        assert kinds.count("mixed") == 1

    def test_equal_deflections_give_no_elastic_force(self):
        block = elastic_joint(RZ, [[100.0]], ("i", "j"))
        rng = np.random.default_rng(7)
        dt = rng.normal(size=6)
        w = rng.normal(size=6)
        w[5] = 0.0   # the Hooke row then requires zero transmitted z moment
        values = {deflection_var("i"): dt, deflection_var("j"): dt,
                  wrench_var("i"): w, wrench_var("j"): -w}
        np.testing.assert_allclose(block_residual(block, values), np.zeros(12), atol=1e-14)

    def test_relative_twist_transmits_spring_moment(self):
        k, theta = 300.0, 0.02
        block = elastic_joint(RZ, [[k]], ("i", "j"))
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
        block = elastic_joint(RZ, [[100.0]], ("i", "j"), preload=w0)
        dt = np.array([1e-3, 0, 0, 0, 0, 2e-3])
        values = {deflection_var("i"): dt, deflection_var("j"): dt,
                  wrench_var("i"): w0, wrench_var("j"): -w0}
        np.testing.assert_allclose(block_residual(block, values), np.zeros(12), atol=1e-14)

    def test_zero_preload_matches_unpreloaded_rows_exactly(self):
        plain = elastic_joint(RZ, [[75.0]], ("i", "j"))
        zeroed = elastic_joint(RZ, [[75.0]], ("i", "j"), preload=np.zeros(6))
        assert plain.rows == zeroed.rows
        np.testing.assert_array_equal(plain.rhs, zeroed.rhs)
        for (r1, v1, b1), (r2, v2, b2) in zip(plain.entries, zeroed.entries):
            assert r1 == r2 and v1 == v2
            np.testing.assert_array_equal(b1, b2)

    def test_preload_along_rigid_directions_warns(self):
        w0 = np.array([1.0, 0, 0, 0, 0, 2.0])
        m = msakit.Model()
        for node, x in (("a", 0.0), ("b", 1.0), ("c", 1.0), ("d", 2.0)):
            m.add_node(node, [x, 0, 0])
        m.add_beam("a", "b", **section_kwargs())
        m.add_beam("c", "d", **section_kwargs())
        with pytest.warns(UserWarning, match="elastic connection: preload"):
            m.add_joint("elastic", ("b", "c"), basis=RZ, stiffness=[[100.0]], preload=w0)
        with pytest.warns(UserWarning, match="elastic support: preload"):
            m.add_support("a", "elastic", basis=RZ, stiffness=[[100.0]], preload=w0)
        m.set_end_effector("d")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m.assemble()

    def test_stiffness_shape_must_match_basis(self):
        with pytest.raises(ValueError, match=r"must be 1x1 for this basis, got \(2, 2\)"):
            msakit.JointSpec(kind="elastic", nodes=("i", "j"), basis=RZ,
                             stiffness=msakit.JointStiffness(np.eye(2)))

    def test_indefinite_stiffness_rejected(self):
        with pytest.raises(ValueError):
            elastic_joint(RZ, [[-5.0]], ("i", "j"))


class TestActuatedJoint:
    def test_as_rigid_delegates(self):
        spec = msakit.JointSpec(kind="actuated", nodes=("i", "j"), idealization="as-rigid")
        block = _connection_block(spec)
        ref = rigid_joint(("i", "j"))
        order = [deflection_var("i"), deflection_var("j"), wrench_var("i"), wrench_var("j")]
        np.testing.assert_array_equal(block.dense(order)[0], ref.dense(order)[0])

    def test_as_elastic_delegates(self):
        ks = msakit.JointStiffness([[1e4]])
        spec = msakit.JointSpec(kind="actuated", nodes=("i", "j"), basis=RZ,
                                stiffness=ks, idealization="as-elastic")
        block = _connection_block(spec)
        ref = elastic_joint(RZ, ks, ("i", "j"))
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
            rigid_joint(("i", "j")),
            passive_joint(RZ, ("i", "j")),
            elastic_joint(RZ, [[10.0]], ("i", "j")),
            _connection_block(
                msakit.JointSpec(kind="actuated", nodes=("i", "j"), idealization="as-rigid")),
        ]
        assert all(b.rows == 12 for b in blocks)


class TestJunction:
    def test_pin_and_weld_row_grouping(self):
        block = junction(("6", "9"), [("7", RZ)])
        assert block.rows == 18
        kinds = block.row_kinds()
        assert kinds.count("compat") == 11   # 5 pinned + 6 welded
        assert kinds.count("wrench") == 7    # 5 shared + 1 carrier + 1 attachment

    def test_junction_without_attachments_matches_rigid_joint(self):
        block = junction(("i", "j", "k"))
        ref = rigid_joint(("i", "j", "k"))
        order = [deflection_var(n) for n in "ijk"] + [wrench_var(n) for n in "ijk"]
        np.testing.assert_array_equal(block.dense(order)[0], ref.dense(order)[0])

    def test_junction_statics_and_kinematics(self):
        block = junction(("6", "9"), [("7", RZ)])
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
        block = junction(("a",), [("b", RZ), ("c", ry)])
        assert block.rows == 18

    def test_rejects_non_passive_attachment(self):
        rigid6 = msakit.make_joint_basis(list(np.eye(6)), [])
        with pytest.raises(ValueError):
            _coincident("abc").add_junction(("a", "b"), [("c", rigid6)])

    def test_rejects_duplicates(self):
        with pytest.raises(msakit.ModelError):
            _coincident("ab").add_junction(("a", "b"), [("a", RZ)])


def _grouped_rows(carrier, attachments, basis, variables) -> np.ndarray:
    """The grouped layout of a pin or one-basis junction, densely: pinned
    compatibility, shared carrier deflection, rigid-direction balance of all
    wrenches, free-direction balance of the carrier and zero transmission
    per attachment."""
    col = {var: 6 * k for k, var in enumerate(variables)}
    lr, lf = basis.lambda_rigid, basis.lambda_free
    groups = []

    def group(terms):
        rows = np.zeros((terms[0][1].shape[0], 6 * len(variables)))
        for var, sub in terms:
            rows[:, col[var]:col[var] + 6] += sub
        groups.append(rows)

    for node in attachments:
        group([(deflection_var(carrier[0]), lr), (deflection_var(node), -lr)])
    for node in carrier[:-1]:
        group([(deflection_var(node), np.eye(6)), (deflection_var(carrier[-1]), -np.eye(6))])
    group([(wrench_var(node), lr) for node in list(carrier) + list(attachments)])
    group([(wrench_var(node), lf) for node in carrier])
    for node in attachments:
        group([(wrench_var(node), lf)])
    return np.vstack(groups)


@pytest.mark.parametrize("name", ["revolute pin", "spherical pin", "navaro leg junction"])
def test_template_spans_the_grouped_rows(name):
    if name == "navaro leg junction":
        spec = next(c for c in msakit.build_navaro_leg().connections
                    if isinstance(c, JunctionSpec))
        (node, basis), = spec.passive_nodes
        carrier, attachments = spec.rigid_nodes, (node,)
    else:
        basis = RZ if name == "revolute pin" else msakit.joint_basis_preset("spherical")
        spec = msakit.JointSpec(kind="passive", nodes=("i", "j"), basis=basis)
        carrier, attachments = ("j",), ("i",)
    block = _connection_block(spec)
    variables = [deflection_var(n) for n in spec.nodes] + [wrench_var(n) for n in spec.nodes]
    new = block.dense(variables)[0]
    old = _grouped_rows(carrier, attachments, basis, variables)
    assert old.shape == new.shape
    rank = np.linalg.matrix_rank
    assert rank(old) == rank(new) == rank(np.vstack([old, new])) == block.rows


def _coincident(nodes) -> msakit.Model:
    m = msakit.Model()
    for node in nodes:
        m.add_node(node, [0, 0, 0])
    return m
