"""Built-in manipulator builders and the independent stiffness oracles."""
import numpy as np
import pytest

import msakit
from msakit.core import block_rotation
from msakit.reference import tube_properties

from helpers import cantilever, random_chain, rel_fro, section_kwargs


class TestLegBuilder:
    def test_system_dimensions_and_blocks(self):
        leg = msakit.build_navaro_leg()
        system = leg.assemble()
        assert system.shape == (120, 120)
        assert system.block_row_counts() == {
            "link": 60, "compat": 31, "wrench": 22, "mixed": 1, "load": 6}

    def test_internal_block_size(self):
        leg = msakit.build_navaro_leg()
        ps = msakit.partition(leg.assemble(), "e")
        assert ps.A.shape == (114, 114)

    def test_aggregated_coefficient_blocks(self):
        # Wrench/deflection columns split across constraint rows (S, K) and
        # load rows (E, F).
        system = msakit.build_navaro_leg().assemble()
        M, n = system.matrix, 6 * system.n_nodes
        load = np.zeros(M.shape[0], dtype=bool)
        for rows in system.load_rows.values():
            load[rows] = True
        blocks = {"S": M[~load][:, :n], "K": M[~load][:, n:],
                  "E": M[load][:, :n], "F": M[load][:, n:]}
        assert blocks["S"].shape == (114, 60)
        assert blocks["K"].shape == (114, 60)
        assert blocks["E"].shape == (6, 60)
        assert blocks["F"].shape == (6, 60)
        assert blocks["F"].nnz == 0   # load rows carry no deflection coefficients

    def test_pairwise_pin_row_structure(self):
        # Each revolute pin between parallelogram nodes contributes
        # 5 compatibility + 5 equilibrium + 2 no-transmission rows.
        leg = msakit.build_navaro_leg()
        system = leg.assemble()
        assert system.rows_by_source()["joint<2,3>"] == 12
        assert system.rows_by_source()["joint<4,5>"] == 12
        assert system.rows_by_source()["junction<6,9,7>"] == 18

    def test_motor_support_rows(self):
        leg = msakit.build_navaro_leg()
        system = leg.assemble()
        sources = system.rows_by_source()
        assert sources["support@1"] == 6   # 5 pinned directions + 1 spring row
        assert sources["support@8"] == 6

    def test_check_reports_no_held_end_mechanisms(self):
        report = msakit.build_navaro_leg().check()
        assert report.square
        assert report.mechanisms == 0
        assert report.summary().startswith("120 equations / 120 unknowns, 0 mechanisms")

    def test_leg_tip_has_one_free_direction(self):
        # A parallelogram with one sprung crank keeps one zero-energy freedom.
        result = msakit.build_navaro_leg().cartesian_stiffness()
        assert result.diagnostics.kc_rank == 5
        assert result.diagnostics.mechanisms == 1

    def test_degenerate_geometry_rejected(self):
        with pytest.raises(ValueError):
            msakit.NavaroParams(crank_length=0.0)
        with pytest.raises(msakit.ModelError):
            msakit.build_navaro_leg(msakit.NavaroParams(coupler_angle=np.pi / 2))


class TestManipulatorBuilder:
    def test_full_model_is_square_and_well_posed(self):
        nav = msakit.build_navaro()
        report = nav.check()
        assert report.square and report.unknowns == 408
        assert report.mechanisms == 0

    def test_kc_symmetric_positive_definite(self):
        result = msakit.build_navaro().cartesian_stiffness()
        kc = result.kc
        assert np.linalg.norm(kc - kc.T) <= 1e-8 * np.linalg.norm(kc)
        assert np.linalg.eigvalsh(kc).min() > 0.0
        assert result.diagnostics.kc_rank == 6

    def test_symmetric_pose_invariant_under_leg_rotation(self):
        kc = msakit.build_navaro().cartesian_stiffness().kc
        Q = block_rotation(msakit.rotation_matrix([0, 0, 1], 2 * np.pi / 3), 2)
        assert rel_fro(Q @ kc @ Q.T, kc) <= 1e-8

    def test_removing_a_leg_never_adds_stiffness(self):
        k3 = msakit.build_navaro().cartesian_stiffness().kc
        k2 = msakit.build_navaro(legs=2).cartesian_stiffness().kc
        eigs = np.linalg.eigvalsh(k3 - k2)
        assert eigs.min() >= -1e-8 * np.linalg.norm(k3)

    def test_two_legs_leave_one_freedom(self):
        result = msakit.build_navaro(legs=2).cartesian_stiffness()
        assert result.diagnostics.kc_rank == 5

    def test_stiff_flexible_platform_matches_rigid(self):
        params = msakit.NavaroParams()
        nav = msakit.build_navaro(params)
        kc_rigid = nav.cartesian_stiffness().kc

        soft = nav.copy()
        platform = soft.platforms.pop()
        stiff = {}
        for clamp in platform.clamps:
            d = soft.position_of(platform.end) - soft.position_of(clamp)
            L = np.linalg.norm(d)
            section = msakit.BeamSection(L=L, axis=d / L,
                                         **{**section_kwargs(), "E": 2.1e13, "G": 8.1e12})
            stiff[clamp] = msakit.beam_stiffness(section).with_nodes(clamp, platform.end)
        soft.add_flexible_platform(stiff, platform.end)
        kc_soft = soft.cartesian_stiffness().kc
        assert rel_fro(kc_soft, kc_rigid) <= 1e-3

    def test_external_work_equals_stored_energy(self):
        # Independent physics check: work done through the platform must equal
        # the elastic energy in the beams and the motor springs.
        nav = msakit.build_navaro()
        w = np.array([80.0, -30.0, 45.0, 3.0, -2.0, 6.0])
        state = nav.solve(w)
        work = 0.5 * w @ state.end_deflection
        elastic = 0.0
        for link in nav.flexible_links:
            i, j = link.nodes
            dt = np.concatenate([state.deflection_at(i), state.deflection_at(j)])
            elastic += 0.5 * dt @ link.K @ dt
        for support in nav.supports.values():
            if support.kind == "elastic":
                q = support.basis.lambda_free @ state.deflection_at(support.node)
                elastic += 0.5 * q @ support.stiffness.matrix @ q
        assert elastic == pytest.approx(work, rel=1e-9)

    def test_leg_count_bounds(self):
        with pytest.raises(msakit.ModelError):
            msakit.build_navaro(legs=0)
        with pytest.raises(msakit.ModelError):
            msakit.build_navaro(legs=4)

    def test_tube_properties(self):
        A, I, J = tube_properties(0.04, 0.003)
        ro, ri = 0.02, 0.017
        assert A == pytest.approx(np.pi * (ro**2 - ri**2))
        assert I == pytest.approx(np.pi / 4 * (ro**4 - ri**4))
        assert J == pytest.approx(2 * I)
        with pytest.raises(ValueError):
            tube_properties(0.04, 0.03)


class TestMergedOracle:
    def test_cantilever_returns_far_block(self):
        model, link = cantilever()
        np.testing.assert_allclose(msakit.oracle_merged_msa(model), link.K22, rtol=1e-10)

    def test_two_collinear_beams_in_series(self):
        sec = section_kwargs()
        L = 0.7
        m = msakit.Model()
        m.add_node("a0", [0, 0, 0])
        m.add_node("b0", [L, 0, 0])
        m.add_node("a1", [L, 0, 0])
        m.add_node("b1", [2 * L, 0, 0])
        m.add_beam("a0", "b0", **sec)
        m.add_beam("a1", "b1", **sec)
        m.add_joint("rigid", ("b0", "a1"))
        m.add_support("a0", "rigid")
        m.set_end_effector("b1")
        kc = msakit.oracle_merged_msa(m)
        compliance = np.linalg.inv(kc)
        expected = (2 * L) ** 3 / (3 * sec["E"] * sec["Iz"])
        assert compliance[1, 1] == pytest.approx(expected, rel=1e-10)

    def test_rejects_unsupported_components(self):
        m = msakit.Model()
        m.add_node("a", [0, 0, 0])
        m.add_node("b", [1, 0, 0])
        m.add_rigid_link("a", "b")
        m.add_support("a", "rigid")
        m.set_end_effector("b")
        with pytest.raises(msakit.ModelError):
            msakit.oracle_merged_msa(m)


class TestSerialComplianceOracle:
    def test_single_link(self):
        model, link = cantilever()
        np.testing.assert_allclose(msakit.oracle_serial_vjm(model), link.K22, rtol=1e-10)

    def test_matches_merged_on_identical_pair(self):
        rng = np.random.default_rng(12)
        model = random_chain(rng, 2)
        assert rel_fro(msakit.oracle_serial_vjm(model), msakit.oracle_merged_msa(model)) <= 1e-8

    def test_near_rigid_link_is_transparent(self):
        sec = section_kwargs()
        stiff = {k: (v * 1e6 if k in ("E", "G") else v) for k, v in sec.items()}
        m = msakit.Model()
        m.add_node("a0", [0, 0, 0])
        m.add_node("b0", [0.5, 0, 0])
        m.add_node("a1", [0.5, 0, 0])
        m.add_node("b1", [1.0, 0.4, 0])
        m.add_beam("a0", "b0", **stiff)
        m.add_beam("a1", "b1", **sec)
        m.add_joint("rigid", ("b0", "a1"))
        m.add_support("a0", "rigid")
        m.set_end_effector("b1")
        kc = msakit.oracle_serial_vjm(m)
        # Only the flexible distal link should matter, transported to the tip.
        flexible = m.flexible_links[1]
        assert rel_fro(kc, flexible.K22) <= 1e-3

    def test_rejects_branched_topology(self):
        m = msakit.Model()
        m.add_node("a", [0, 0, 0])
        m.add_node("b", [1, 0, 0])
        m.add_node("c", [1, 0, 0])
        m.add_node("d", [2, 0, 0])
        m.add_node("f", [1, 0, 0])
        m.add_node("g", [1, 1, 0])
        for i, j in (("a", "b"), ("c", "d"), ("f", "g")):
            m.add_beam(i, j, **section_kwargs())
        m.add_joint("rigid", ("b", "c", "f"))
        m.add_support("a", "rigid")
        m.set_end_effector("d")
        with pytest.raises(msakit.ModelError):
            msakit.oracle_serial_vjm(m)


class TestTripleAgreement:
    def test_constraint_merged_and_compliance_routes_agree(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            model = random_chain(rng, int(rng.integers(2, 7)))
            kc = model.cartesian_stiffness().kc
            km = msakit.oracle_merged_msa(model)
            kv = msakit.oracle_serial_vjm(model)
            assert rel_fro(kc, km) <= 1e-8
            assert rel_fro(kc, kv) <= 1e-8
            assert rel_fro(km, kv) <= 1e-8


class TestRotatedModel:
    def test_leg_equivariance_with_bases(self):
        leg = msakit.build_navaro_leg()
        kc = leg.cartesian_stiffness().kc
        R = msakit.rotation_matrix([0.2, -0.4, 1.0], 0.8)
        kc_rot = msakit.rotated_model(leg, R).cartesian_stiffness().kc
        Q = block_rotation(R, 2)
        assert rel_fro(kc_rot, Q @ kc @ Q.T) <= 1e-8

    def test_full_manipulator_equivariance(self):
        nav = msakit.build_navaro()
        kc = nav.cartesian_stiffness().kc
        R = msakit.rotation_matrix([1.0, 0.3, -0.2], 1.4)
        kc_rot = msakit.rotated_model(nav, R).cartesian_stiffness().kc
        Q = block_rotation(R, 2)
        assert rel_fro(kc_rot, Q @ kc @ Q.T) <= 1e-8
