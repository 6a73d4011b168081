"""Acceptance suite: every criterion at its stated tolerance.

Each test prints a single PASS/FAIL line so the suite doubles as a checklist
(`pytest tests/test_acceptance.py -v -s`).
"""
import contextlib
import time

import numpy as np
import pytest

import msakit
from msakit.joints import connection_equations, joint_spec
from msakit.core import block_rotation
from msakit.elements import rigid_link_equations, rigid_platform_equations

from helpers import (cantilever, deflection_var, entries_dense, random_chain, rel_fro,
                     section_kwargs, wrench_var)

RZ = msakit.joint_basis_preset("revolute_z")


@contextlib.contextmanager
def criterion(n: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n} FAIL: {label}")
        raise
    print(f"ACCEPTANCE {n} PASS: {label}")


def test_criterion_1_leg_system_dimensions():
    with criterion(1, "leg system is 120x120 with block rows 31/22/1/1/6/6"):
        t0 = time.perf_counter()
        system = msakit.build_navaro_leg().assemble()
        elapsed = time.perf_counter() - t0
        assert system.shape == (120, 120)
        counts = system.block_row_counts()
        assert counts["compat"] == 31          # pure-deflection constraint rows
        assert counts["wrench"] == 22          # pure-wrench constraint rows
        assert counts["mixed"] == 1            # the spring row couples both: 1 + 1
        assert counts["load"] == 6             # load rows, deflection side all zero
        assert counts["link"] == 60
        assert elapsed < 1.0


def test_criterion_2_analytic_beam_oracle():
    with criterion(2, "cantilever matches Euler-Bernoulli closed forms"):
        t0 = time.perf_counter()
        sec = section_kwargs()
        L, F = 1.25, 180.0
        model, _ = cantilever(L=L)
        state = model.solve([0.0, F, 0.0, 0.0, 0.0, 0.0])
        EI = sec["E"] * sec["Iz"]
        assert state.end_deflection[1] == pytest.approx(F * L**3 / (3 * EI), rel=1e-10)
        assert state.end_deflection[5] == pytest.approx(F * L**2 / (2 * EI), rel=1e-10)
        kc = model.cartesian_stiffness().kc
        assert kc[0, 0] == pytest.approx(sec["E"] * sec["A"] / L, rel=1e-12)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_3_oracle_equivalence_on_random_chains():
    with criterion(3, "constraint, merged and compliance routes agree on 50 chains"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2024)
        for _ in range(50):
            model = random_chain(rng, int(rng.integers(2, 7)))
            kc = model.cartesian_stiffness().kc
            km = msakit.oracle_merged_msa(model)
            kv = msakit.oracle_serial_vjm(model)
            assert rel_fro(kc, km) <= 1e-8
            assert rel_fro(kc, kv) <= 1e-8
            assert rel_fro(km, kv) <= 1e-8
        assert time.perf_counter() - t0 < 10.0


def test_criterion_4_rank_claims():
    with criterion(4, "rigid link rank 12/24 and 3-clamp platform rank 24/48"):
        link = rigid_link_equations([[0.4, -0.2, 0.7]], [("i", "j")])
        M = entries_dense(link, [deflection_var("i"), deflection_var("j"),
                                 wrench_var("i"), wrench_var("j")])
        assert M.shape == (12, 24)
        s_max = np.linalg.svd(M, compute_uv=False)[0]
        assert np.linalg.matrix_rank(M, tol=1e-10 * s_max) == 12

        clamps = [("c0", np.array([1.0, 0, 0])), ("c1", np.array([-0.5, 0.8, 0])),
                  ("c2", np.array([-0.5, -0.8, 0.3]))]
        platform = rigid_platform_equations([clamps], ["e"])
        nodes = ["c0", "c1", "c2", "e"]
        P = entries_dense(platform, [deflection_var(n) for n in nodes] + [wrench_var(n) for n in nodes])
        assert P.shape == (24, 48)
        s_max = np.linalg.svd(P, compute_uv=False)[0]
        assert np.linalg.matrix_rank(P, tol=1e-10 * s_max) == 24


def _two_beam_chain(joint: str, stiffness=None):
    m = msakit.Model()
    m.add_node("a", [0, 0, 0])
    m.add_node("b", [0.6, 0, 0])
    m.add_node("c", [0.6, 0, 0])
    m.add_node("d", [1.1, 0.4, 0.2])
    m.add_beam("a", "b", **section_kwargs())
    m.add_beam("c", "d", **section_kwargs())
    if joint == "rigid":
        m.add_joint("rigid", ("b", "c"))
    else:
        m.add_joint("elastic", ("b", "c"), basis=msakit.joint_basis_preset("free"),
                    stiffness=stiffness)
    m.add_support("a", "rigid")
    m.set_end_effector("d")
    return m


def test_criterion_5_joint_limit_consistency():
    with criterion(5, "stiff springs reproduce rigid connections; free axes flagged"):
        # Elastic joint with Ke = 1e12 I against the rigid joint.
        kc_rigid = _two_beam_chain("rigid").cartesian_stiffness().kc
        kc_stiff = _two_beam_chain("elastic", 1e12 * np.eye(6)).cartesian_stiffness().kc
        assert rel_fro(kc_stiff, kc_rigid) <= 1e-3

        # Elastic support with Ke = 1e12 I against the rigid support.
        def supported(kind):
            m = msakit.Model()
            m.add_node("a", [0, 0, 0])
            m.add_node("b", [0.9, 0.2, 0.1])
            m.add_beam("a", "b", **section_kwargs())
            if kind == "rigid":
                m.add_support("a", "rigid")
            else:
                m.add_support("a", "elastic", basis=msakit.joint_basis_preset("free"),
                              stiffness=1e12 * np.eye(6))
            m.set_end_effector("b")
            return m.cartesian_stiffness().kc

        assert rel_fro(supported("elastic"), supported("rigid")) <= 1e-3

        # Passive support about z leaves a flagged singular direction.
        m = msakit.Model()
        m.add_node("a", [0, 0, 0])
        m.add_node("b", [1.0, 0, 0])
        m.add_beam("a", "b", **section_kwargs())
        m.add_support("a", "passive", basis=RZ)
        m.set_end_effector("b")
        result = m.cartesian_stiffness()
        assert result.diagnostics.kc_rank == 5 and result.diagnostics.mechanisms == 1
        free_twist = np.array([0.0, 1.0, 0.0, 0.0, 0.0, 1.0])  # z-rotation seen at the tip
        free_twist /= np.linalg.norm(free_twist)
        direction = result.diagnostics.mechanism_directions[0]
        assert abs(abs(direction @ free_twist) - 1.0) <= 1e-8


def test_criterion_6_preload_behavior():
    with criterion(6, "zero preload is bitwise neutral; locked preload stays internal"):
        # Preloaded rows with zero preload equal the unpreloaded rows exactly.
        plain, zeroed = (connection_equations([spec.carrier], [spec.attachments], ["joint<i,j>"])
                         for spec in (joint_spec(kind="elastic", nodes=("i", "j"), basis=RZ,
                                                 stiffness=msakit.JointStiffness([[75.0]], preload))
                                      for preload in (None, np.zeros(6))))
        np.testing.assert_array_equal(plain.rhs, zeroed.rhs)
        for (r1, k1, s1, b1), (r2, k2, s2, b2) in zip(plain.entries, zeroed.entries):
            assert r1 == r2 and (k1, s1) == (k2, s2)
            np.testing.assert_array_equal(b1, b2)

        # A preloaded spring bridging two grounded rigid arms: the preload is
        # self-equilibrated, the effector branch stays put, and the spring
        # carries exactly its preload.
        w0 = np.array([0, 0, 0, 0, 0, 7.5])
        m = msakit.Model()
        m.add_node("A", [0, 0, 0])
        m.add_node("B", [1, 0, 0])
        m.add_node("C", [1, 0, 0])
        m.add_node("D", [2, 0, 0])
        m.add_node("G", [2, 0, 0])
        m.add_node("H", [3, 0, 0])
        m.add_node("P", [2, 0, 0])
        m.add_node("F", [2, 1, 0])
        m.add_rigid_link("A", "B")
        m.add_rigid_link("C", "D")
        m.add_rigid_link("G", "H")
        m.add_rigid_link("P", "F")
        m.add_joint("elastic", ("B", "C"), basis=RZ, stiffness=[[300.0]], preload=w0)
        m.add_joint("rigid", ("D", "G", "P"))
        m.add_support("A", "rigid")
        m.add_support("H", "rigid")
        m.set_end_effector("F")
        state = m.solve()
        assert np.max(np.abs(state.end_deflection)) <= 1e-10
        assert state.wrench_at("B")[5] == pytest.approx(7.5, rel=1e-9)
        assert state.wrench_at("C")[5] == pytest.approx(-7.5, rel=1e-9)
        assert np.linalg.norm(state.wrench_at("B")) > 1.0


def test_criterion_7_frame_equivariance_and_symmetry():
    with criterion(7, "global rotations conjugate the stiffness; symmetry holds"):
        rng = np.random.default_rng(7)
        models = [cantilever()[0], random_chain(rng, 3), random_chain(rng, 5),
                  msakit.build_navaro_leg(), msakit.build_navaro()]
        for model in models:
            kc = model.cartesian_stiffness().kc
            assert np.linalg.norm(kc - kc.T) <= 1e-8 * np.linalg.norm(kc)
        for model in models[:4]:
            R = msakit.rotation_matrix(rng.normal(size=3), rng.uniform(0.2, 2.8))
            kc = model.cartesian_stiffness().kc
            kc_rot = msakit.rotated_model(model, R).cartesian_stiffness().kc
            Q = block_rotation(R, 2)
            assert rel_fro(kc_rot, Q @ kc @ Q.T) <= 1e-8


def test_criterion_8_global_equilibrium():
    with criterion(8, "support reactions balance external loads about the origin"):
        rng = np.random.default_rng(8)
        cases = []
        model, _ = cantilever(L=0.9)
        cases.append((model, np.array([10.0, -25.0, 5.0, 1.0, 0.5, -2.0])))
        cases.append((random_chain(rng, 4), rng.normal(size=6) * 30))
        cases.append((msakit.build_navaro(), np.array([40.0, -10.0, 60.0, 2.0, -1.0, 3.0])))
        for model, w in cases:
            state = model.solve(w)
            assert msakit.equilibrium_residual(state) <= 1e-9 * np.linalg.norm(w)


def test_criterion_9_full_manipulator_sanity():
    with criterion(9, "full manipulator: symmetric PSD, leg-monotone, pose-symmetric"):
        t0 = time.perf_counter()
        k3 = msakit.build_navaro().cartesian_stiffness().kc
        assert np.linalg.norm(k3 - k3.T) <= 1e-8 * np.linalg.norm(k3)
        assert np.linalg.eigvalsh(k3).min() >= -1e-8 * np.linalg.norm(k3)

        k2 = msakit.build_navaro(legs=2).cartesian_stiffness().kc
        assert np.linalg.eigvalsh(k3 - k2).min() >= -1e-8 * np.linalg.norm(k3)

        Q = block_rotation(msakit.rotation_matrix([0, 0, 1], 2 * np.pi / 3), 2)
        assert rel_fro(Q @ k3 @ Q.T, k3) <= 1e-8
        assert time.perf_counter() - t0 < 5.0
