"""Element emitters: beam generator, flexible/rigid links, platforms."""
import numpy as np
import pytest

import msakit
from msakit.elements import (flexible_link_equations, flexible_platform_equations,
                             rigid_link_equations, rigid_platform_equations)

from helpers import (beam_link, block_residual, cantilever, deflection_var, entries_dense,
                     record_entries, section_kwargs, wrench_var)


class TestBeamStiffness:
    def test_axial_entry(self):
        s, L = section_kwargs(), 1.0
        K = beam_link(q=[L, 0, 0]).K
        np.testing.assert_allclose(K[0, 0], s["E"] * s["A"] / L, rtol=1e-12)

    def test_cantilever_tip_compliance(self):
        s, L = section_kwargs(), 1.0
        link = beam_link(q=[L, 0, 0])
        c = np.linalg.inv(link.K22)
        np.testing.assert_allclose(c[1, 1], L**3 / (3 * s["E"] * s["Iz"]), rtol=1e-12)
        np.testing.assert_allclose(c[2, 2], L**3 / (3 * s["E"] * s["Iy"]), rtol=1e-12)

    def test_rigid_body_modes_cost_nothing(self):
        axis = np.array([1.0, 2.0, -0.5]) / np.sqrt(5.25)
        L = 0.9
        K = beam_link(q=L * axis).K
        norm = np.linalg.norm(K)
        # Pure translation of both ends.
        for delta in np.eye(3):
            mode = np.concatenate([delta, np.zeros(3), delta, np.zeros(3)])
            assert np.linalg.norm(K @ mode) <= 1e-9 * norm
        # Rotation about the first node carries the far node along.
        d = L * axis
        for phi in np.eye(3):
            far = np.concatenate([np.cross(phi, d), phi])
            mode = np.concatenate([np.zeros(3), phi, far])
            assert np.linalg.norm(K @ mode) <= 1e-9 * norm

    def test_length_scaling_cubes_transverse_compliance(self):
        c1 = np.linalg.inv(beam_link(q=[1.0, 0, 0]).K22)[1, 1]
        c2 = np.linalg.inv(beam_link(q=[2.0, 0, 0]).K22)[1, 1]
        np.testing.assert_allclose(c2 / c1, 8.0, rtol=1e-12)

    def test_symmetric_psd_rank_six(self):
        K = beam_link(q=[0.0, 0.6, 0.8]).K
        np.testing.assert_array_equal(K, K.T)
        w = np.linalg.eigvalsh(K)
        assert w.min() >= -1e-9 * w.max()
        assert np.linalg.matrix_rank(K, tol=1e-10 * w.max()) == 6

    def test_degenerate_section_rejected(self):
        for field in ("E", "G", "A", "Iy", "Iz", "J"):
            with pytest.raises(ValueError, match=f"beam section {field} must be positive"):
                beam_link(**{field: 0.0})
        with pytest.raises(ValueError, match="zero length"):
            beam_link(q=[0.0, 0, 0])

    def test_matches_merged_oracle_on_cantilever(self):
        model, link = cantilever()
        oracle = msakit.oracle_merged_msa(model)
        np.testing.assert_allclose(link.K22, oracle, rtol=1e-10)


class TestLinkStiffness:
    def test_user_matrix_symmetrized(self):
        K = beam_link().K.copy()
        K[0, 1] += 1e-8 * np.abs(K).max() * 0  # keep symmetric first
        noisy = K + 1e-8 * np.abs(K).max() * np.triu(np.ones((12, 12)), 1)
        link = msakit.LinkStiffness.from_matrix(noisy, ("i", "j"))
        np.testing.assert_array_equal(link.K, link.K.T)

    def test_user_matrix_asymmetry_rejected(self):
        K = beam_link().K.copy()
        bad = K + 1e-3 * np.abs(K).max() * np.triu(np.ones((12, 12)), 1)
        with pytest.raises(ValueError):
            msakit.LinkStiffness.from_matrix(bad)

    def test_blocks(self):
        link = beam_link()
        np.testing.assert_array_equal(link.K11, link.K[:6, :6])
        np.testing.assert_array_equal(link.K12, link.K[:6, 6:])
        np.testing.assert_array_equal(link.K21, link.K[6:, :6])
        np.testing.assert_array_equal(link.K22, link.K[6:, 6:])


class TestFlexibleLinkEquations:
    def _block(self):
        link = beam_link()
        return link, flexible_link_equations([link], [[1.0, 0, 0]])

    def test_row_count_and_category(self):
        _, block = self._block()
        assert block.rows == 12
        assert block.row_kinds() == ["link"] * 12

    def test_zero_deflection_forces_zero_wrench(self):
        link, block = self._block()
        r = block_residual(block, {wrench_var("i"): np.zeros(6), wrench_var("j"): np.zeros(6)})
        np.testing.assert_array_equal(r, np.zeros(12))

    def test_random_states_from_stiffness_relation(self):
        link, block = self._block()
        rng = np.random.default_rng(3)
        norm = np.linalg.norm(link.K)
        for _ in range(100):
            dt = rng.normal(size=12)
            w = link.K @ dt
            r = block_residual(block, {
                deflection_var("i"): dt[:6], deflection_var("j"): dt[6:],
                wrench_var("i"): w[:6], wrench_var("j"): w[6:],
            })
            assert np.linalg.norm(r) <= 1e-12 * norm * np.linalg.norm(dt)

    def test_rigid_body_field_transmits_nothing(self):
        link, block = self._block()
        d = np.array([1.0, 0.0, 0.0])
        phi = np.array([0.1, -0.2, 0.3])
        dt_i = np.concatenate([[0.01, 0.02, 0.03], phi])
        dt_j = np.concatenate([dt_i[:3] + np.cross(phi, d), phi])
        r = block_residual(block, {deflection_var("i"): dt_i, deflection_var("j"): dt_j,
                                   wrench_var("i"): np.zeros(6), wrench_var("j"): np.zeros(6)})
        assert np.linalg.norm(r) <= 1e-9 * np.linalg.norm(link.K)

    def test_clamped_base_gives_far_block(self):
        link, block = self._block()
        dt_j = np.array([1e-3, -2e-3, 3e-3, 4e-4, 5e-4, -6e-4])
        r = block_residual(block, {
            deflection_var("j"): dt_j,
            wrench_var("i"): link.K12 @ dt_j,
            wrench_var("j"): link.K22 @ dt_j,
        })
        assert np.linalg.norm(r) <= 1e-12 * np.linalg.norm(link.K)

    def test_builder_binds_the_node_pair(self):
        # The emitter reads the link's node pair; every builder route sets it.
        m = msakit.Model()
        m.add_node("i", [0, 0, 0])
        m.add_node("j", [1.0, 0, 0])
        link = m.add_flexible_link("i", "j", beam_link(nodes=("p", "q")))
        assert link.nodes == ("i", "j")
        block = flexible_link_equations([link], [[1.0, 0, 0]])
        assert next(record_entries(block))[1] == wrench_var("i")


class TestFreeBodyGate:
    """A link matrix must be a free body about the positions of its nodes."""

    def _stretched(self):
        # A 1 m beam's matrix, its nodes 1% farther apart than its section length.
        m = msakit.Model()
        m.add_node("i", [0, 0, 0])
        m.add_node("j", [1.01, 0, 0])
        return m, beam_link()

    def test_flexible_link_rejected(self):
        m, link = self._stretched()
        with pytest.raises(msakit.ModelError, match=r"link\(i,j\).*elastic support"):
            m.add_flexible_link("i", "j", link)
        assert m.flexible_links == ()

    def test_flexible_platform_link_rejected(self):
        m, link = self._stretched()
        with pytest.raises(msakit.ModelError, match=r"link\(i,j\).*elastic support"):
            m.add_flexible_platform({"i": link}, "j")
        assert m.platforms == ()


class TestRigidLinkEquations:
    def test_row_split(self):
        block = rigid_link_equations([[1.0, 0, 0]], [("i", "j")])
        kinds = block.row_kinds()
        assert kinds[:6] == ["compat"] * 6
        assert kinds[6:] == ["wrench"] * 6

    def test_zero_offset_degenerates_to_equality(self):
        block = rigid_link_equations([[0, 0, 0]], [("i", "j")])
        dt = np.array([1.0, 2, 3, 4, 5, 6])
        w = np.array([-1.0, 2, -3, 4, -5, 6])
        r = block_residual(block, {deflection_var("i"): dt, deflection_var("j"): dt,
                                   wrench_var("i"): w, wrench_var("j"): -w})
        np.testing.assert_allclose(r, np.zeros(12), atol=1e-15)

    def test_rigid_field_satisfies_compatibility(self):
        d = np.array([0.7, -0.2, 0.5])
        block = rigid_link_equations([d], [("i", "j")])
        dt_i = np.array([0.01, 0.02, -0.01, 0.1, -0.2, 0.05])
        D = msakit.transport_matrix(d)
        r = block_residual(block, {deflection_var("i"): dt_i, deflection_var("j"): D @ dt_i,
                                   wrench_var("i"): np.zeros(6), wrench_var("j"): np.zeros(6)})
        np.testing.assert_allclose(r, np.zeros(12), atol=1e-15)

    def test_lever_equilibrium(self):
        d = np.array([2.0, 0.0, 0.0])
        block = rigid_link_equations([d], [("i", "j")])
        F = np.array([0.0, 30.0, 0.0])
        w_j = np.concatenate([F, np.zeros(3)])
        w_i = np.concatenate([-F, -np.cross(d, F)])
        r = block_residual(block, {deflection_var("i"): np.zeros(6), deflection_var("j"): np.zeros(6),
                                   wrench_var("i"): w_i, wrench_var("j"): w_j})
        np.testing.assert_allclose(r, np.zeros(12), atol=1e-12)

    def test_rank_twelve_over_24_unknowns(self):
        block = rigid_link_equations([[0.3, 0.4, 0.5]], [("i", "j")])
        M = entries_dense(block, [deflection_var("i"), deflection_var("j"),
                                  wrench_var("i"), wrench_var("j")])
        assert M.shape == (12, 24)
        s_max = np.linalg.svd(M, compute_uv=False)[0]
        assert np.linalg.matrix_rank(M, tol=1e-10 * s_max) == 12

    def test_same_node_rejected(self):
        m = msakit.Model()
        m.add_node("i", [0, 0, 0])
        with pytest.raises(msakit.ModelError):
            m.add_rigid_link("i", "i")


class TestRigidPlatformEquations:
    def _clamps(self):
        end = np.zeros(3)
        positions = [np.array([1.0, 0, 0]), np.array([-0.5, 0.8, 0]), np.array([-0.5, -0.8, 0])]
        return [(f"c{k}", end - p) for k, p in enumerate(positions)], positions

    def test_three_clamp_counts_and_rank(self):
        clamps, _ = self._clamps()
        block = rigid_platform_equations([clamps], ["e"])
        assert block.rows == 24
        nodes = ["c0", "c1", "c2", "e"]
        M = entries_dense(block, [deflection_var(n) for n in nodes] + [wrench_var(n) for n in nodes])
        assert M.shape == (24, 48)
        s_max = np.linalg.svd(M, compute_uv=False)[0]
        assert np.linalg.matrix_rank(M, tol=1e-10 * s_max) == 24

    def test_single_clamp_matches_rigid_link(self):
        d = np.array([0.4, 0.6, -0.1])
        platform = rigid_platform_equations([[("i", d)]], ["j"])
        link = rigid_link_equations([d], [("i", "j")])
        order = [deflection_var("i"), deflection_var("j"), wrench_var("i"), wrench_var("j")]
        P = entries_dense(platform, order)
        L = entries_dense(link, order)
        # Displacement rows coincide; equilibrium rows span the same constraints
        # (the platform states them about its end point).
        np.testing.assert_allclose(P[:6], L[:6], atol=1e-15)
        for stacked in (np.vstack([P, L]), P, L):
            s_max = np.linalg.svd(stacked, compute_uv=False)[0]
            assert np.linalg.matrix_rank(stacked, tol=1e-10 * s_max) == 12

    def test_rigid_body_motion_and_self_equilibrated_wrenches(self):
        clamps, positions = self._clamps()
        block = rigid_platform_equations([clamps], ["e"])
        dt_e = np.array([0.01, -0.02, 0.03, 0.004, 0.005, -0.006])
        phi = dt_e[3:]
        values = {deflection_var("e"): dt_e}
        for (name, d), p in zip(clamps, positions):
            # Clamp inherits the platform's rigid motion about the end point.
            values[deflection_var(name)] = np.concatenate([dt_e[:3] + np.cross(phi, p), phi])
        # Equal and opposite clamp forces, moment absorbed by the end wrench.
        F = np.array([5.0, -2.0, 1.0])
        values[wrench_var("c0")] = np.concatenate([F, np.zeros(3)])
        values[wrench_var("c1")] = np.concatenate([-F, np.zeros(3)])
        values[wrench_var("c2")] = np.zeros(6)
        m0 = np.cross(positions[0], F) + np.cross(positions[1], -F)
        values[wrench_var("e")] = -np.concatenate([np.zeros(3), m0])
        r = block_residual(block, values)
        np.testing.assert_allclose(r, np.zeros(24), atol=1e-12)

    def test_duplicate_clamps_rejected(self):
        m = msakit.Model()
        m.add_node("i", [0, 0, 0])
        m.add_node("e", [1.0, 1.0, 1.0])
        with pytest.raises(msakit.ModelError):
            m.add_rigid_platform(["i", "i"], "e")

    def test_needs_a_clamp(self):
        m = msakit.Model()
        m.add_node("e", [0, 0, 0])
        with pytest.raises(ValueError):
            m.add_rigid_platform([], "e")


class TestFlexiblePlatformEquations:
    def _clamps(self, n):
        """(link, d) pairs of 0.5 m beams on (c_k, e), d pointing from c_k to e."""
        out = []
        for k in range(n):
            axis = np.array([np.cos(2 * np.pi * k / max(n, 1)), np.sin(2 * np.pi * k / max(n, 1)), 0.4])
            axis /= np.linalg.norm(axis)
            out.append((beam_link(-0.5 * axis, [0, 0, 0], (f"c{k}", "e")), 0.5 * axis))
        return out

    def test_single_clamp_matches_flexible_link(self):
        (link, d), = self._clamps(1)
        kc = []
        for platform in (False, True):
            m = msakit.Model()
            m.add_node("c0", -d)
            m.add_node("e", [0, 0, 0])
            if platform:
                m.add_flexible_platform({"c0": link}, "e")
            else:
                m.add_flexible_link("c0", "e", link)
            m.add_support("c0", "rigid")
            m.set_end_effector("e")
            kc.append(m.cartesian_stiffness().kc)
        np.testing.assert_allclose(kc[1], kc[0], rtol=0, atol=1e-12 * np.linalg.norm(kc[0]))

    def test_satisfied_by_assembled_symmetric_stiffness(self):
        clamps = self._clamps(3)
        block = flexible_platform_equations([clamps], ["e"])
        # The platform's 24x24 stiffness over (c0, c1, c2, e), link by link.
        K_p = np.zeros((24, 24))
        for k, (link, _) in enumerate(clamps):
            idx = np.r_[6 * k:6 * k + 6, 18:24]
            K_p[np.ix_(idx, idx)] += link.K
        np.testing.assert_array_equal(K_p, K_p.T)
        nodes = ["c0", "c1", "c2", "e"]
        norm = max(np.linalg.norm(link.K) for link, _ in clamps)
        rng = np.random.default_rng(4)
        for _ in range(50):
            t = rng.normal(size=24)
            w = K_p @ t
            values = {}
            for k, node in enumerate(nodes):
                values[deflection_var(node)] = t[6 * k:6 * k + 6]
                values[wrench_var(node)] = w[6 * k:6 * k + 6]
            r = block_residual(block, values)
            assert np.linalg.norm(r) <= 1e-12 * norm * np.linalg.norm(t)

    def test_clamps_held_sum_far_blocks(self):
        clamps = self._clamps(3)
        links = [link for link, _ in clamps]
        block = flexible_platform_equations([clamps], ["e"])
        dt_e = np.array([1e-3, 2e-3, -1e-3, 1e-4, -2e-4, 3e-4])
        values = {deflection_var("e"): dt_e, wrench_var("e"): sum(l.K22 for l in links) @ dt_e}
        for link in links:
            values[wrench_var(link.nodes[0])] = link.K12 @ dt_e
        r = block_residual(block, values)
        assert np.linalg.norm(r) <= 1e-12 * max(np.linalg.norm(l.K) for l in links)

    def test_builder_binds_links_to_the_end_node(self):
        link = beam_link(nodes=("c0", "not_e"))
        m = msakit.Model()
        m.add_node("c0", [0, 0, 0])
        m.add_node("e", [1.0, 0, 0])
        m.add_flexible_platform({"c0": link}, "e")
        assert [k.nodes for k in m.platforms[0].stiffnesses] == [("c0", "e")]

    def test_row_category_is_link(self):
        block = flexible_platform_equations([self._clamps(2)], ["e"])
        assert block.rows == 18
        assert set(block.row_kinds()) == {"link"}
