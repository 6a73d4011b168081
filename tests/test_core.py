"""Screw-algebra primitives: skew operators, transport, rotations, joint bases."""
import numpy as np
import pytest

import msakit
from msakit.core import block_rotation


class TestSkew:
    def test_zero_vector(self):
        np.testing.assert_array_equal(msakit.skew([0, 0, 0]), np.zeros((3, 3)))

    def test_canonical_z(self):
        expected = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)
        np.testing.assert_array_equal(msakit.skew([0, 0, 1]), expected)

    def test_matches_cross_product(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v, w = rng.normal(size=3), rng.normal(size=3)
            np.testing.assert_allclose(msakit.skew(v) @ w, np.cross(v, w),
                                       atol=1e-15 * max(1.0, np.abs(np.cross(v, w)).max()))

    def test_antisymmetric(self):
        S = msakit.skew([1.5, -2.3, 0.7])
        np.testing.assert_array_equal(S.T, -S)


class TestTransportMatrix:
    def test_zero_offset_is_identity(self):
        np.testing.assert_array_equal(msakit.transport_matrix([0, 0, 0]).matrix, np.eye(6))

    def test_composition_adds_offsets(self):
        rng = np.random.default_rng(1)
        d1, d2 = rng.normal(size=3), rng.normal(size=3)
        lhs = msakit.transport_matrix(d1).matrix @ msakit.transport_matrix(d2).matrix
        rhs = msakit.transport_matrix(d1 + d2).matrix
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)

    def test_inverse_is_negated_offset(self):
        d = np.array([0.3, -1.2, 2.5])
        prod = msakit.transport_matrix(-d).matrix @ msakit.transport_matrix(d).matrix
        np.testing.assert_allclose(prod, np.eye(6), atol=1e-14)
        np.testing.assert_allclose(msakit.transport_matrix(d).inverse().matrix,
                                   msakit.transport_matrix(-d).matrix)

    def test_unit_determinant_and_block_structure(self):
        D = msakit.transport_matrix([0.4, 0.5, -0.6]).matrix
        assert np.isclose(np.linalg.det(D), 1.0)
        np.testing.assert_array_equal(D[3:, :3], np.zeros((3, 3)))

    def test_rigid_rotation_kinematics(self):
        # Offset (L,0,0) with base rotation theta about z moves the far point by theta*L in y.
        L, theta = 0.8, 0.01
        D = msakit.transport_matrix([L, 0.0, 0.0]).matrix
        far = D @ np.array([0, 0, 0, 0, 0, theta])
        np.testing.assert_allclose(far[:3], [0.0, theta * L, 0.0], atol=1e-16)
        np.testing.assert_allclose(far[3:], [0.0, 0.0, theta])


class TestRotateLinkStiffness:
    def _beam(self):
        section = msakit.BeamSection(E=210e9, G=80e9, A=1e-3, L=1.0,
                                     Iy=2e-6, Iz=1e-6, J=3e-6, axis=[1, 0, 0])
        return msakit.beam_stiffness(section).K

    def test_identity_rotation(self):
        K = self._beam()
        np.testing.assert_array_equal(msakit.rotate_link_stiffness(K, np.eye(3)), K)

    def test_rotation_round_trip(self):
        K = self._beam()
        R = msakit.rotation_matrix([0.3, -0.5, 0.8], 1.1)
        back = msakit.rotate_link_stiffness(msakit.rotate_link_stiffness(K, R), R.T)
        assert np.linalg.norm(back - K) <= 1e-12 * np.linalg.norm(K)

    def test_eigenvalues_preserved(self):
        K = self._beam()
        R = msakit.rotation_matrix([1.0, 2.0, -1.0], 0.7)
        w0 = np.linalg.eigvalsh(K)
        w1 = np.linalg.eigvalsh(msakit.rotate_link_stiffness(K, R))
        np.testing.assert_allclose(w1, w0, rtol=1e-10, atol=1e-10 * np.abs(w0).max())

    def test_quarter_turn_swaps_load_direction(self):
        # A cantilever rotated 90 deg about z is as stiff in y' as the original in y.
        K = self._beam()
        R = msakit.rotation_matrix([0, 0, 1], np.pi / 2)
        K_rot = msakit.rotate_link_stiffness(K, R)
        c_orig = np.linalg.inv(K[6:, 6:])
        c_rot = np.linalg.inv(K_rot[6:, 6:])
        # Original transverse y compliance equals the rotated frame's -x compliance.
        np.testing.assert_allclose(c_rot[0, 0], c_orig[1, 1], rtol=1e-12)

    def test_rejects_non_rotation(self):
        K = self._beam()
        with pytest.raises(ValueError):
            msakit.rotate_link_stiffness(K, 1.1 * np.eye(3))
        with pytest.raises(ValueError):
            msakit.rotate_link_stiffness(K, np.diag([1.0, 1.0, -1.0]))


class TestJointBasis:
    def test_revolute_z_preset_rows(self):
        basis = msakit.joint_basis_preset("revolute_z")
        np.testing.assert_array_equal(basis.lambda_rigid, np.eye(6)[:5])
        np.testing.assert_array_equal(basis.lambda_free, np.eye(6)[5:])
        assert basis.r == 5 and basis.p == 1

    def test_all_presets_are_orthonormal(self):
        for name in msakit.core.JOINT_BASIS_PRESETS:
            basis = msakit.joint_basis_preset(name)
            stacked = np.vstack([basis.lambda_rigid, basis.lambda_free])
            np.testing.assert_allclose(stacked @ stacked.T, np.eye(6), atol=1e-12)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            msakit.joint_basis_preset("helical_z")

    def test_fully_rigid_degenerate(self):
        basis = msakit.make_joint_basis(list(np.eye(6)), [])
        assert basis.r == 6 and basis.p == 0
        assert basis.lambda_free.shape == (0, 6)

    def test_rotated_basis_stays_orthogonal(self):
        rng = np.random.default_rng(2)
        basis = msakit.joint_basis_preset("universal")
        for _ in range(5):
            R = msakit.rotation_matrix(rng.normal(size=3), rng.uniform(-3, 3))
            rotated = basis.rotated(R)
            cross = rotated.lambda_rigid @ rotated.lambda_free.T
            assert np.max(np.abs(cross)) <= 1e-12

    def test_rejects_wrong_count(self):
        with pytest.raises(ValueError):
            msakit.make_joint_basis(list(np.eye(6)[:4]), [np.eye(6)[5]])

    def test_rejects_non_orthonormal(self):
        vecs = list(np.eye(6))
        vecs[0] = vecs[0] * 1.5
        with pytest.raises(ValueError):
            msakit.make_joint_basis(vecs[:5], vecs[5:])

    def test_rejects_rank_deficient(self):
        vecs = list(np.eye(6))
        vecs[1] = vecs[0]
        with pytest.raises(ValueError):
            msakit.make_joint_basis(vecs[:5], vecs[5:])

    def test_stacked_basis_is_orthogonal_matrix(self):
        basis = msakit.joint_basis_preset("spherical")
        stacked = np.vstack([basis.lambda_rigid, basis.lambda_free])
        np.testing.assert_allclose(stacked.T @ stacked, np.eye(6), atol=1e-12)


class TestJointStiffness:
    def test_scalar_spring(self):
        ks = msakit.JointStiffness([[250.0]])
        assert ks.e == 1 and ks.matrix[0, 0] == 250.0

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            msakit.JointStiffness([[1.0, 2.0], [1.0, 3.0]])

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            msakit.JointStiffness([[1.0, 0.0], [0.0, -2.0]])

    def test_preload_stored(self):
        ks = msakit.JointStiffness([[5.0]], preload=[0, 0, 0, 0, 0, 1.5])
        np.testing.assert_array_equal(ks.preload, [0, 0, 0, 0, 0, 1.5])


class TestWrenchDeflection:
    def test_array_round_trip(self):
        w = msakit.Wrench.from_array([1, 2, 3, 4, 5, 6])
        np.testing.assert_array_equal(w.array, [1, 2, 3, 4, 5, 6])
        d = msakit.Deflection.from_array([6, 5, 4, 3, 2, 1])
        np.testing.assert_array_equal(d.array, [6, 5, 4, 3, 2, 1])

    def test_shift_wrench_moment_arm(self):
        w = np.array([0.0, 10.0, 0.0, 0.0, 0.0, 0.0])
        shifted = msakit.shift_wrench(w, [2.0, 0.0, 0.0])
        np.testing.assert_allclose(shifted, [0, 10, 0, 0, 0, 20.0])

    def test_wrench_about_origin(self):
        w = msakit.Wrench(force=[0, 0, 5.0], moment=[0, 0, 0])
        np.testing.assert_allclose(w.about_origin([1.0, 0, 0]), [0, 0, 5, 0, -5.0, 0])


def test_block_rotation_shape():
    R = msakit.rotation_matrix([0, 0, 1], 0.5)
    Q = block_rotation(R, 4)
    assert Q.shape == (12, 12)
    np.testing.assert_allclose(Q @ Q.T, np.eye(12), atol=1e-14)


def _nan_basis():
    rigid = np.eye(6)[:5].copy()
    rigid[0, 0] = np.nan
    return msakit.JointBasis(rigid, np.eye(6)[5:])


@pytest.mark.parametrize("stiffness, basis", [
    (lambda: [[np.nan]], lambda: msakit.joint_basis_preset("revolute_z")),
    (lambda: [[np.inf]], lambda: msakit.joint_basis_preset("revolute_z")),
    (lambda: [[100.0]], _nan_basis),
], ids=["nan-stiffness", "inf-stiffness", "nan-basis"])
def test_non_finite_joint_data_rejected_when_added(stiffness, basis):
    # NaN fails every comparison, so each constructor tests finiteness itself.
    m = msakit.Model()
    m.add_node("b", [1.0, 0, 0])
    m.add_node("c", [1.0, 0, 0])
    with pytest.raises(ValueError, match="non-finite"):
        m.add_joint("elastic", ("b", "c"), basis=basis(), stiffness=stiffness())
    assert m.connections == []
