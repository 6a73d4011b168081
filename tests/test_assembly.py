"""Global assembly, partitioning, stiffness extraction and loaded solves."""
import re

import numpy as np
import pytest
import scipy.sparse.linalg

import msakit
from msakit import assembly
from msakit.core import block_rotation
from msakit.equations import deflection_var, wrench_var

from helpers import (cantilever, dense_audit, entries_dense, flexible_platform_model,
                     free_link_end, random_chain, rel_fro, section_kwargs, sprung_model,
                     stack_dense)

RZ = msakit.joint_basis_preset("revolute_z")


def duplicated_joint():
    """Two beams joined twice at one point: twelve surplus rows."""
    m = msakit.Model()
    m.add_node("a", [0, 0, 0])
    m.add_node("b", [0.5, 0, 0])
    m.add_node("c", [0.5, 0, 0])
    m.add_node("d", [1.0, 0, 0])
    m.add_beam("a", "b", **section_kwargs())
    m.add_beam("c", "d", **section_kwargs())
    m.add_joint("rigid", ("b", "c"))
    m.add_joint("rigid", ("b", "c"))
    m.add_support("a", "rigid")
    m.set_end_effector("d")
    return m


def free_beam():
    """A beam with no support: fewer rows than unknowns."""
    m = msakit.Model()
    m.add_node("a", [0, 0, 0])
    m.add_node("b", [1.0, 0, 0])
    m.add_beam("a", "b", **section_kwargs())
    m.set_end_effector("b")
    return m


def locked_end():
    """A rigid link from a clamp to the end effector."""
    m = msakit.Model()
    m.add_node("a", [0, 0, 0])
    m.add_node("b", [1.0, 0, 0])
    m.add_rigid_link("a", "b")
    m.add_support("a", "rigid")
    m.set_end_effector("b")
    return m


def locked_lever():
    """A rigid lever on a torsion-spring support: one free direction at the end."""
    m = msakit.Model()
    m.add_node("j", [0, 0, 0])
    m.add_node("b", [0.5, 0, 0])
    m.add_rigid_link("j", "b")
    m.add_support("j", "elastic", basis=RZ, stiffness=[[100.0]])
    m.set_end_effector("b")
    return m


def coaxial_pin_chain(redundant):
    """Two beams joined by one pin, or by two pins on one axis that split
    their rotation indeterminately."""
    m = msakit.Model()
    m.add_node("a", [0, 0, 0])
    m.add_node("b", [0.5, 0, 0])
    m.add_beam("a", "b", **section_kwargs())
    if redundant:
        for n in ("c", "d", "e"):
            m.add_node(n, [0.5, 0, 0])
        m.add_node("f", [1.0, 0.2, 0])
        m.add_joint("passive", ("b", "c"), basis=RZ)
        m.add_rigid_link("c", "d")
        m.add_joint("passive", ("d", "e"), basis=RZ)
        m.add_beam("e", "f", **section_kwargs())
    else:
        m.add_node("e", [0.5, 0, 0])
        m.add_node("f", [1.0, 0.2, 0])
        m.add_joint("passive", ("b", "e"), basis=RZ)
        m.add_beam("e", "f", **section_kwargs())
    m.add_support("a", "rigid")
    m.set_end_effector("f")
    return m


def pendulum_chain(pendulums, beams=6, end_effector=True):
    """Clamped chain of rigidly joined beams; at each of the first interior
    points a free pendulum beam (nodes q<2j>, q<2j+1>) hangs from a pin about
    z, its far end only a load point, so each one is a mechanism. Without an
    end effector the chain's tip is a load point too."""
    m = msakit.Model()
    points = [np.array([0.3 * k, 0.05 * k * k, 0.0]) for k in range(beams + 1)]
    for k in range(beams):
        m.add_node(f"a{k}", points[k])
        m.add_node(f"b{k}", points[k + 1])
        m.add_beam(f"a{k}", f"b{k}", **section_kwargs())
    for k in range(1, beams):
        carriers = (f"b{k - 1}", f"a{k}")
        if k > pendulums:
            m.add_joint("rigid", carriers)
            continue
        hinge, tip = f"q{2 * k - 2}", f"q{2 * k - 1}"
        m.add_node(hinge, points[k])
        m.add_node(tip, points[k] + np.array([0.0, 0.2, 0.1 * k]))
        m.add_beam(hinge, tip, **section_kwargs())
        m.add_junction(carriers, [(hinge, RZ)])
        m.add_load_point(tip)
    m.add_support("a0", "rigid")
    if end_effector:
        m.set_end_effector(f"b{beams - 1}")
    else:
        m.add_load_point(f"b{beams - 1}")
    return m


class TestAssemble:
    def test_cantilever_row_accounting(self):
        model, _ = cantilever()
        system = model.assemble()
        assert system.shape == (24, 24)
        assert system.rows_by_source() == {"link(a,b)": 12, "support@a": 6, "load@b": 6}

    def test_dangling_node_rejected(self):
        model, _ = cantilever()
        model.add_node("ghost", [5.0, 5.0, 5.0])
        with pytest.raises(msakit.ModelError, match="ghost"):
            model.assemble()

    def test_non_square_rejected_with_breakdown(self):
        with pytest.raises(msakit.ModelError, match="not square"):
            duplicated_joint().assemble()

    def test_node_claimed_by_two_connections_rejected(self):
        # A pinned branch e-f hung from node b, which the weld b-c already
        # claims: square, and it used to assemble and shift Kc silently.
        m = msakit.Model()
        for node, x, y in (("a", 0, 0), ("b", 0.5, 0), ("c", 0.5, 0), ("d", 1.0, 0),
                           ("e", 0.5, 0), ("f", 0.5, 0.4)):
            m.add_node(node, [x, y, 0])
        for i, j in (("a", "b"), ("c", "d"), ("e", "f")):
            m.add_beam(i, j, **section_kwargs())
        m.add_joint("rigid", ("b", "c"))
        m.add_joint("passive", ("b", "e"), basis=RZ)
        m.add_support("a", "rigid")
        m.set_end_effector("d")
        with pytest.raises(msakit.ModelError,
                           match=r"node 'b' belongs to both joint<b,c> and joint<b,e>.*add_junction"):
            m.assemble()
        report = m.check()
        assert report.square and report.rows == 72

    def test_link_end_touched_by_one_block_rejected(self):
        # A junction supplies the rows of a pinned branch e-f whose far end f
        # is left free: square, but singular, and Kc used to shift by 0.36%.
        m = msakit.Model()
        for node, y in (("a", 0.0), ("b", 0.0), ("e", 0.0), ("f", 0.5)):
            m.add_node(node, [0.0 if node == "a" else 1.0, y, 0])
        m.add_beam("a", "b", **section_kwargs())
        m.add_beam("e", "f", **section_kwargs())
        m.add_support("a", "rigid")
        m.set_end_effector("b")
        m.add_junction(("b",), [("e", RZ)])
        with pytest.raises(msakit.ModelError, match=r"one block only: \['f'\]"):
            m.assemble()
        report = m.check()
        assert report.square and report.rows == 48
        assert report.connectivity["f"] == 1

    def test_joint_nodes_must_coincide(self):
        model, _ = cantilever()
        with pytest.raises(msakit.ModelError, match="coincident"):
            model.add_joint("passive", ("a", "b"), basis=RZ)

    def test_column_layout(self):
        model, _ = cantilever()
        system = model.assemble()
        assert system.wrench_cols("a") == slice(0, 6)
        assert system.wrench_cols("b") == slice(6, 12)
        assert system.deflection_cols("a") == slice(12, 18)
        assert system.deflection_cols("b") == slice(18, 24)


RIGID6 = msakit.make_joint_basis(list(np.eye(6)), [])

# Inputs the builder once accepted and only `assemble` rejected, each with
# the message it raised there.
INVALID_INPUTS = {
    "passive support, free basis": (
        lambda m: m.add_support("a", "passive", basis=msakit.joint_basis_preset("free")),
        "a support with no rigid direction constrains nothing"),
    "passive support, all-rigid basis": (
        lambda m: m.add_support("a", "passive", basis=RIGID6),
        "passive support needs at least one free direction (use a rigid support)"),
    "elastic support, 2x2 stiffness on revolute_z": (
        lambda m: m.add_support("a", "elastic", basis=RZ, stiffness=np.eye(2)),
        "support stiffness must be 1x1 for this basis, got (2, 2)"),
    "junction with one node": (
        lambda m: m.add_junction(("b",)), "junction must connect at least two nodes"),
    "junction, all-rigid attachment": (
        lambda m: m.add_junction(("b", "c"), [("d", RIGID6)]),
        "junction attachments must be passive (p >= 1)"),
    "rigid platform, end is a clamp": (
        lambda m: m.add_rigid_platform(["a", "e"], "e"),
        "platform end node cannot also be a clamp"),
    "rigid platform, no clamps": (
        lambda m: m.add_rigid_platform([], "e"), "rigid platform needs at least one clamp node"),
    "load point, no incident nodes": (
        lambda m: m.add_load_point("e", []), "a load point needs at least one incident node"),
    "load point, repeated incident node": (
        lambda m: m.add_load_point("e", ["b", "b"]), "duplicate node ids at load point"),
}


@pytest.mark.parametrize("name", INVALID_INPUTS)
def test_invalid_input_raises_at_its_add_call(name):
    add, message = INVALID_INPUTS[name]
    m = msakit.Model()
    for node, x in (("a", 0.0), ("b", 1.0), ("c", 1.0), ("d", 1.0), ("e", 2.0)):
        m.add_node(node, [x, 0, 0])
    with pytest.raises(msakit.ModelError, match=re.escape(message)):
        add(m)


def test_builder_errors_are_model_errors():
    with pytest.raises(msakit.ModelError, match="position of 'a' has non-finite entries"):
        msakit.Model().add_node("a", [0.0, np.nan, 0.0])
    assert issubclass(msakit.ModelError, ValueError)


class TestPartition:
    @pytest.mark.parametrize("build, end", [(lambda: cantilever()[0], "b"),
                                            (msakit.build_navaro, None),
                                            (lambda: pendulum_chain(2), "q1")],
                             ids=["cantilever", "navaro", "pendulum tip"])
    def test_blocks_are_slices_of_the_matrix(self, build, end):
        system = build().assemble()
        ps = msakit.partition(system, end)
        end = system.end_effector if end is None else end
        M = system.matrix.toarray()
        rows, cols = ps.row_perm, ps.col_perm
        assert np.array_equal(np.sort(rows), np.arange(M.shape[0]))
        assert np.array_equal(np.sort(cols), np.arange(M.shape[1]))
        np.testing.assert_array_equal(rows[-6:], system.load_rows[end])
        np.testing.assert_array_equal(cols[-6:], np.arange(M.shape[1])[system.deflection_cols(end)])
        inner_rows, inner_cols = rows[:-6], cols[:-6]
        np.testing.assert_array_equal(ps.A.toarray(), M[np.ix_(inner_rows, inner_cols)])
        np.testing.assert_array_equal(ps.B, M[np.ix_(inner_rows, cols[-6:])])
        np.testing.assert_array_equal(ps.C, M[np.ix_(rows[-6:], inner_cols)])
        np.testing.assert_array_equal(ps.D, M[np.ix_(rows[-6:], cols[-6:])])
        np.testing.assert_array_equal(ps.b, system.rhs[inner_rows])
        assert ps.A.nnz == np.count_nonzero(ps.A.toarray())

    def test_cantilever_blocks(self):
        model, link = cantilever()
        system = model.assemble()
        ps = msakit.partition(system, "b")
        assert ps.A.shape == (18, 18)
        np.testing.assert_array_equal(ps.D, np.zeros((6, 6)))
        X = np.linalg.solve(ps.A.toarray(), ps.B)
        np.testing.assert_allclose(ps.C @ X, -link.K22, rtol=1e-10)

    def test_missing_load_rows_rejected(self):
        model, _ = cantilever()
        system = model.assemble()
        with pytest.raises(msakit.ModelError):
            msakit.partition(system, "a")


class TestCartesianStiffness:
    def test_cantilever_equals_far_block(self):
        model, link = cantilever()
        result = model.cartesian_stiffness()
        np.testing.assert_allclose(result.kc, link.K22, rtol=1e-10)
        assert not result.diagnostics.pseudo_inverse
        assert result.diagnostics.kc_rank == 6

    def test_symmetric_psd_on_random_chains(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            model = random_chain(rng, int(rng.integers(2, 6)))
            kc = model.cartesian_stiffness().kc
            assert np.linalg.norm(kc - kc.T) <= 1e-8 * np.linalg.norm(kc)
            assert np.linalg.eigvalsh(kc).min() >= -1e-10 * np.linalg.norm(kc)

    def test_frame_equivariance(self):
        rng = np.random.default_rng(10)
        model = random_chain(rng, 3)
        kc = model.cartesian_stiffness().kc
        R = msakit.rotation_matrix(rng.normal(size=3), 0.9)
        kc_rot = msakit.rotated_model(model, R).cartesian_stiffness().kc
        Q = block_rotation(R, 2)
        assert rel_fro(kc_rot, Q @ kc @ Q.T) <= 1e-8

    def test_rigidly_locked_end_gives_infinite_sentinel(self):
        result = locked_end().cartesian_stiffness()
        assert result.diagnostics.infinite
        assert np.all(np.isinf(result.kc))

    def test_partially_locked_lever_is_flagged(self):
        result = locked_lever().cartesian_stiffness()
        assert result.diagnostics.pseudo_inverse
        assert result.diagnostics.locked and not result.diagnostics.infinite
        assert result.diagnostics.locked_directions.shape[0] == 5

    def test_elastic_joint_saturates_to_rigid(self):
        def chain(kind):
            m = msakit.Model()
            m.add_node("a", [0, 0, 0])
            m.add_node("b", [0.6, 0, 0])
            m.add_node("c", [0.6, 0, 0])
            m.add_node("d", [1.2, 0.3, 0])
            m.add_beam("a", "b", **section_kwargs())
            m.add_beam("c", "d", **section_kwargs())
            if kind == "rigid":
                m.add_joint("rigid", ("b", "c"))
            else:
                m.add_joint("elastic", ("b", "c"),
                            basis=msakit.joint_basis_preset("free"),
                            stiffness=1e12 * np.eye(6))
            m.add_support("a", "rigid")
            m.set_end_effector("d")
            return m.cartesian_stiffness().kc

        assert rel_fro(chain("elastic"), chain("rigid")) <= 1e-3

    def test_redundant_coaxial_pins_use_pseudo_inverse(self):
        # The internal block of the two-pin chain is singular, the bordered
        # solve engages, and the stiffness matches the single-pin chain.
        single = coaxial_pin_chain(False).cartesian_stiffness()
        redundant = coaxial_pin_chain(True).cartesian_stiffness()
        assert not single.diagnostics.pseudo_inverse
        assert redundant.diagnostics.pseudo_inverse
        assert redundant.diagnostics.a_rank == redundant.diagnostics.a_size - 1
        assert rel_fro(redundant.kc, single.kc) <= 1e-8
        # The loaded solve distributes the indeterminate rotation.
        state = coaxial_pin_chain(True).solve([0, 0, 30.0, 0, 0, 0])
        assert state.residual <= 1e-9

    def test_asymmetric_model_is_surfaced(self):
        # A link matrix whose far block breaks reciprocity beyond roundoff;
        # the extraction gate must reject the model rather than hide it.
        model, link = cantilever()
        K = link.K.copy()
        K[7, 11] *= 1 + 1e-4
        model.flexible_links[0] = msakit.LinkStiffness(K, ("a", "b"))
        with pytest.raises(msakit.ModelError, match="asymmetry"):
            model.cartesian_stiffness()


class TestSolveLoaded:
    def test_cantilever_closed_forms(self):
        sec = section_kwargs()
        L, F = 1.3, 250.0
        model, _ = cantilever(L=L)
        state = model.solve([0, F, 0, 0, 0, 0])
        EI = sec["E"] * sec["Iz"]
        assert state.end_deflection[1] == pytest.approx(F * L**3 / (3 * EI), rel=1e-10)
        assert state.end_deflection[5] == pytest.approx(F * L**2 / (2 * EI), rel=1e-10)
        assert state.residual <= 1e-9

    def test_zero_load_zero_state(self):
        model, _ = cantilever()
        state = model.solve()
        for node in ("a", "b"):
            np.testing.assert_allclose(state.deflection_at(node), np.zeros(6), atol=1e-15)
            np.testing.assert_allclose(state.wrench_at(node), np.zeros(6), atol=1e-15)

    def test_superposition(self):
        rng = np.random.default_rng(11)
        model = random_chain(rng, 4)
        w1, w2 = rng.normal(size=6) * 40, rng.normal(size=6) * 40
        s1, s2, s12 = model.solve(w1), model.solve(w2), model.solve(w1 + w2)
        scale = np.abs(s12.end_deflection).max()
        for node in s12.system.nodes:
            combined = s1.deflection_at(node) + s2.deflection_at(node)
            np.testing.assert_allclose(s12.deflection_at(node), combined,
                                       atol=1e-10 * scale)

    def test_unresisted_load_direction_reported(self):
        m = msakit.Model()
        m.add_node("a", [0, 0, 0])
        m.add_node("b", [1.0, 0, 0])
        m.add_beam("a", "b", **section_kwargs())
        m.add_support("a", "passive", basis=RZ)
        m.set_end_effector("b")
        with pytest.raises(msakit.ModelError, match="not resisted"):
            m.solve([0, 10.0, 0, 0, 0, 0])   # transverse force spins the free pin
        state = m.solve([10.0, 0, 0, 0, 0, 0])  # axial load is resisted
        assert state.residual <= 1e-9

    def test_torsion_joint_lever_oracle(self):
        # Ground - rigid arm - torsion spring - rigid lever of length L:
        # a tip force F twists the spring by F*L/k and sweeps the tip by F*L^2/k.
        k, L, F = 800.0, 1.5, 20.0
        m = msakit.Model()
        m.add_node("a", [0, 0, 0])
        m.add_node("b", [0, 0, 0])
        m.add_node("c", [0, 0, 0])
        m.add_node("d", [L, 0, 0])
        m.add_rigid_link("a", "b")
        m.add_joint("elastic", ("b", "c"), basis=RZ, stiffness=[[k]])
        m.add_rigid_link("c", "d")
        m.add_support("a", "rigid")
        m.set_end_effector("d")
        state = m.solve([0.0, F, 0.0, 0.0, 0.0, 0.0])
        assert state.deflection_at("c")[5] == pytest.approx(F * L / k, rel=1e-10)
        assert state.end_deflection[1] == pytest.approx(F * L**2 / k, rel=1e-10)
        # The spring hands the full moment F*L to the grounded arm.
        assert state.wrench_at("b")[5] == pytest.approx(F * L, rel=1e-10)

    def test_internal_load_point_on_branch(self):
        # Y-shaped frame: three link ends welded, one branch tip loaded
        # internally, the other is the end effector.
        m = msakit.Model()
        m.add_node("a", [0, 0, 0])
        m.add_node("b", [1.0, 0, 0])
        m.add_node("c", [1.0, 0, 0])
        m.add_node("d", [2.0, 0.5, 0])
        m.add_node("f", [1.0, 0, 0])
        m.add_node("g", [1.5, -1.0, 0])
        m.add_beam("a", "b", **section_kwargs())
        m.add_beam("c", "d", **section_kwargs())
        m.add_beam("f", "g", **section_kwargs())
        m.add_joint("rigid", ("b", "c", "f"))
        m.add_support("a", "rigid")
        m.add_load_point("g")
        m.set_end_effector("d")
        system = m.assemble()
        assert system.shape == (72, 72)
        w_d = np.array([0, 40.0, 0, 0, 0, 0])
        w_g = np.array([5.0, 0, 0, 0, 0, 1.0])
        state = msakit.solve_loaded(system, {"d": w_d, "g": w_g})
        assert state.residual <= 1e-9
        total = np.linalg.norm(w_d) + np.linalg.norm(w_g)
        assert msakit.equilibrium_residual(state) <= 1e-9 * total

    def test_load_at_undeclared_node_rejected(self):
        model, _ = cantilever()
        system = model.assemble()
        with pytest.raises(msakit.ModelError):
            msakit.solve_loaded(system, {"a": np.ones(6)})

    def test_preload_shifts_the_load_deflection_line(self):
        # With a preloaded support the response stays affine: the end
        # deflection under W equals the preload offset plus Kc^-1 W.
        m = msakit.Model()
        m.add_node("a", [0, 0, 0])
        m.add_node("b", [1.0, 0, 0])
        m.add_beam("a", "b", **section_kwargs())
        m.add_support("a", "elastic", basis=RZ, stiffness=[[5e4]],
                      preload=[0, 0, 0, 0, 0, 10.0])
        m.set_end_effector("b")
        kc = m.cartesian_stiffness().kc
        w = np.array([0.0, 20.0, 0.0, 0.0, 0.0, 0.0])
        offset = m.solve().end_deflection
        loaded = m.solve(w).end_deflection
        np.testing.assert_allclose(loaded - offset, np.linalg.solve(kc, w),
                                   rtol=1e-9, atol=1e-15)


    @pytest.mark.parametrize("links, joint_stiffness", [(100, None), (5, 100.0), (400, 1e6)])
    def test_long_and_soft_chains_pass_the_backward_error_gate(self, links, joint_stiffness):
        # A residual scaled by the load alone rejected these accurate solves:
        # link rows carry K*dt terms near 1e9 while the load is tens of N.
        rng = np.random.default_rng(2)
        model = random_chain(rng, links, joint_stiffness)
        w = rng.normal(size=6) * 50
        system = model.assemble()
        kc = msakit.cartesian_stiffness(system).kc
        state = msakit.solve_loaded(system, w)
        assert state.residual <= msakit.assembly.RESIDUAL_RTOL
        expected = np.linalg.solve(kc, w)
        assert np.linalg.norm(state.end_deflection - expected) <= 1e-6 * np.linalg.norm(expected)

    @pytest.mark.parametrize("joint_stiffness, seed, links", [
        *(pytest.param(k, seed, 250, id=f"{k}-{seed}") for k in (1e4, 1e6) for seed in range(6)),
        *(pytest.param(1e4, seed, 500, id=f"500 beams-{seed}") for seed in (0, 1)),
    ])
    def test_long_elastic_chains_solve_in_balance(self, joint_stiffness, seed, links):
        # Tip deflections carry rigid motions far above the link wrenches;
        # only link rows that state equilibrium exactly keep the reactions
        # in balance (500 beams, seeds 0 and 1, once failed the Kc gate).
        rng = np.random.default_rng(seed)
        model = random_chain(rng, links, joint_stiffness)
        w = rng.normal(size=6) * 50
        system = model.assemble()
        kc = msakit.cartesian_stiffness(system).kc
        state = msakit.solve_loaded(system, w)
        expected = np.linalg.solve(kc, w)
        assert np.linalg.norm(state.end_deflection - expected) <= 1e-9 * np.linalg.norm(expected)
        assert msakit.equilibrium_residual(state) <= 1e-12 * np.linalg.norm(w)

    def test_locked_end_carries_the_load_without_moving(self):
        w = np.array([3.0, 10.0, -2.0, 0.5, 0.0, 1.0])
        state = locked_end().solve(w)
        np.testing.assert_allclose(state.end_deflection, np.zeros(6), atol=1e-20)
        assert msakit.equilibrium_residual(state) <= 1e-12 * np.linalg.norm(w)

    def test_locked_lever_turns_on_its_spring(self):
        # A 0.5 m lever on a 100 N*m/rad torsion spring: a 10 N tip force
        # turns it by 0.05 rad; an axial force moves nothing.
        state = locked_lever().solve([0.0, 10.0, 0.0, 0.0, 0.0, 0.0])
        assert state.end_deflection[5] == pytest.approx(0.05, rel=1e-12)
        assert state.end_deflection[1] == pytest.approx(0.025, rel=1e-12)
        axial = locked_lever().solve([10.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(axial.end_deflection, np.zeros(6), atol=1e-15)

    def test_model_without_end_effector_solves(self):
        sec = section_kwargs()
        m = msakit.Model()
        m.add_node("a", [0, 0, 0])
        m.add_node("b", [1.0, 0, 0])
        m.add_beam("a", "b", **sec)
        m.add_support("a", "rigid")
        m.add_load_point("b")
        state = m.solve({"b": [0.0, 100.0, 0.0, 0.0, 0.0, 0.0]})
        EI = sec["E"] * sec["Iz"]
        assert state.end_deflection is None
        assert state.deflection_at("b")[1] == pytest.approx(100.0 / (3 * EI), rel=1e-10)
        assert state.residual <= 1e-9
        pinned = msakit.Model()
        pinned.add_node("a", [0, 0, 0])
        pinned.add_node("b", [1.0, 0, 0])
        pinned.add_beam("a", "b", **sec)
        pinned.add_support("a", "passive", basis=RZ)
        pinned.add_load_point("b")
        with pytest.raises(msakit.ModelError, match="not resisted"):
            pinned.solve({"b": [0.0, 100.0, 0.0, 0.0, 0.0, 0.0]})

    def test_load_on_a_free_pendulum_is_not_resisted(self):
        model = pendulum_chain(1)
        with pytest.raises(msakit.ModelError, match="not resisted"):
            model.solve({"q1": [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]})   # swings it about z
        state = model.solve({"q1": [0.0, 0.0, 1.0, 0.0, 0.0, 0.0]})  # along the pin
        assert state.residual <= 1e-9


@pytest.fixture
def factorizations(monkeypatch):
    """The shapes of the blocks that `_Factorization` is built on, in order."""
    init, shapes = assembly._Factorization.__init__, []

    def counting_init(self, A):
        shapes.append(A.shape)
        init(self, A)

    monkeypatch.setattr(assembly._Factorization, "__init__", counting_init)
    return shapes


class TestSharedFactorization:
    @pytest.mark.parametrize("build", [msakit.build_navaro, lambda: pendulum_chain(2)],
                             ids=["navaro", "pendulum chain"])
    def test_stiffness_and_solve_share_one_factorization(self, build, factorizations,
                                                         monkeypatch):
        splu, lu_calls = scipy.sparse.linalg.splu, []

        def counting_splu(A, *args, **kwargs):
            lu_calls.append(A.shape)
            return splu(A, *args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
        system = build().assemble()
        result = msakit.cartesian_stiffness(system)
        kc_calls = len(lu_calls)
        state = msakit.solve_loaded(system, [0.0, 0.0, 10.0, 0.0, 0.0, 1.0])
        assert len(factorizations) == 1
        assert len(lu_calls) == kc_calls
        if result.diagnostics.pseudo_inverse:
            assert kc_calls >= 2         # the block's own LU, then the bordered one
        else:
            assert kc_calls == 1
        assert state.residual <= assembly.RESIDUAL_RTOL

    @pytest.mark.parametrize("build", [
        msakit.build_navaro, lambda: pendulum_chain(2), duplicated_joint,
        lambda: pendulum_chain(2, end_effector=False),
    ], ids=["navaro", "pendulum chain", "duplicated joint", "pendulum chain, no end effector"])
    def test_audit_builds_one_factorization(self, build, factorizations):
        build().check()
        assert len(factorizations) == 1


class TestQueries:
    def test_dual_support_link_is_square_and_queryable(self):
        m = msakit.Model()
        m.add_node("a", [0, 0, 0])
        m.add_node("b", [1.0, 0, 0])
        link = m.add_beam("a", "b", **section_kwargs())
        m.add_support("a", "rigid")
        m.add_support("b", "rigid")
        assert m.check().square
        np.testing.assert_allclose(m.cartesian_stiffness("b").kc, link.K22, rtol=1e-10)
        np.testing.assert_allclose(m.cartesian_stiffness("a").kc, link.K11, rtol=1e-10)

    def test_query_leaves_model_untouched(self):
        m = msakit.Model()
        m.add_node("a", [0, 0, 0])
        m.add_node("b", [1.0, 0, 0])
        m.add_beam("a", "b", **section_kwargs())
        m.add_support("a", "rigid")
        m.add_support("b", "rigid")
        m.cartesian_stiffness("b")
        assert set(m.supports) == {"a", "b"}
        assert m.load_points == {}


class TestCheckModel:
    def test_well_posed_cantilever(self):
        model, _ = cantilever()
        report = model.check()
        assert report.well_posed
        assert report.summary().startswith("24 equations / 24 unknowns, 0 mechanisms")

    def test_unsupported_link_counts_rigid_modes(self):
        report = free_beam().check()
        assert not report.well_posed
        assert report.mechanisms == 6

    def test_duplicated_joint_reports_redundancy(self):
        report = duplicated_joint().check()
        assert not report.square
        assert report.redundant == 12

    def test_pendulum_mechanism_names_its_nodes(self):
        report = pendulum_chain(1).check()
        assert report.mechanisms == 1
        assert report.mechanism_nodes == ["q0", "q1"]
        assert cantilever()[0].check().mechanism_nodes == []

    def test_models_without_equations(self):
        assert msakit.Model().check().summary().startswith("0 equations / 0 unknowns")
        m = msakit.Model()
        m.add_node("a", [0, 0, 0])
        report = m.check()
        assert (report.rows, report.mechanisms, report.dangling) == (0, 12, ["a"])

    def test_row_kind_partition_is_complete(self):
        model, _ = cantilever()
        report = model.check()
        assert sum(report.rows_by_kind.values()) == report.rows


SINGULAR_MODELS = {
    "redundant coaxial pins": lambda: coaxial_pin_chain(True),
    "partially locked lever": locked_lever,
    "rigidly locked end": locked_end,
    "one free pendulum": lambda: pendulum_chain(1),
    "two free pendulums": lambda: pendulum_chain(2),
    "three free pendulums": lambda: pendulum_chain(3),
    "duplicated joint (non-square)": duplicated_joint,
    "unsupported beam (rows < unknowns)": free_beam,
    "free link end (rows < unknowns)": free_link_end,
    "free pendulum, no end effector": lambda: pendulum_chain(1, end_effector=False),
}


@pytest.mark.parametrize("name", SINGULAR_MODELS)
def test_bordered_solve_matches_dense_svd_oracle(name):
    model = SINGULAR_MODELS[name]()
    oracle = dense_audit(model)
    report = model.check()
    assert (report.rank, report.redundant, report.mechanisms, report.self_stress) == (
        oracle["rank"], oracle["redundant"], oracle["mechanisms"], oracle["self_stress"])
    if not report.square or model.end_effector is None:
        return
    result = model.cartesian_stiffness()
    diag = result.diagnostics
    assert diag.pseudo_inverse
    locked = 0 if diag.locked_directions is None else diag.locked_directions.shape[0]
    assert (diag.a_rank, locked, diag.infinite) == (
        oracle["a_rank"], oracle["locked"], oracle["infinite"])
    if not diag.infinite:
        assert rel_fro(result.kc, oracle["kc"]) <= 1e-8


@pytest.mark.parametrize("name", [*SINGULAR_MODELS, "pinned beam"])
def test_direction_rows_have_a_positive_largest_component(name):
    model = pinned_beam() if name == "pinned beam" else SINGULAR_MODELS[name]()
    if not model.check().square or model.end_effector is None:
        return
    diag = model.cartesian_stiffness().diagnostics
    rows = [row for directions in (diag.mechanism_directions, diag.locked_directions)
            if directions is not None for row in directions]
    assert all(row[np.argmax(np.abs(row))] > 0.0 for row in rows)


def pinned_beam():
    """A beam on a passive revolute support."""
    m = msakit.Model()
    m.add_node("a", [0, 0, 0])
    m.add_node("b", [1.0, 0.2, 0])
    m.add_beam("a", "b", **section_kwargs())
    m.add_support("a", "passive", basis=RZ)
    m.set_end_effector("b")
    return m


AGGREGATION_MODELS = {
    "navaro leg": msakit.build_navaro_leg,
    "navaro": msakit.build_navaro,
    "rigid random chain": lambda: random_chain(np.random.default_rng(3), 6),
    "elastic random chain": lambda: random_chain(np.random.default_rng(3), 6, 1e4),
    "pendulum chain": lambda: pendulum_chain(2),
    "flexible platform": flexible_platform_model,
    "passive support": pinned_beam,
    "elastic support and preloaded joint": sprung_model,
    "elastic support lever": locked_lever,
}


@pytest.mark.parametrize("name", AGGREGATION_MODELS)
def test_aggregation_matches_dense_oracle(name):
    model = AGGREGATION_MODELS[name]()
    system = model.assemble()
    blocks = assembly._emit_blocks(model)
    variables = ([wrench_var(n) for n in system.nodes]
                 + [deflection_var(n) for n in system.nodes])
    dense = stack_dense(blocks, variables)
    np.testing.assert_array_equal(dense, np.vstack([entries_dense(b, variables) for b in blocks]))
    np.testing.assert_array_equal(system.matrix.toarray(), dense)
    assert system.matrix.nnz == np.count_nonzero(dense)
    np.testing.assert_array_equal(system.rhs, np.concatenate([b.rhs for b in blocks]))
    assert system.row_meta == [(b.source, kind) for b in blocks for kind in b.row_kinds()]


def _row_kinds_by_loop(block) -> list:
    """Kinds of a block's rows, from a plain walk over its entries."""
    if block.category != "constraint":
        return [block.category] * block.rows
    names = {frozenset("t"): "compat", frozenset("W"): "wrench", frozenset("Wt"): "mixed"}
    return [names[frozenset(var[0] for start, var, sub in block.entries
                            if start <= row < start + sub.shape[0])]
            for row in range(block.rows)]


@pytest.mark.parametrize("name", [*AGGREGATION_MODELS, *SINGULAR_MODELS])
def test_emitted_blocks_are_well_formed(name):
    """The layout invariants every emitter keeps, checked over every block it
    yields; the assembler and EquationBlock trust them."""
    model = {**AGGREGATION_MODELS, **SINGULAR_MODELS}[name]()
    blocks = assembly._emit_blocks(model)
    system = assembly._build_system(model, blocks)
    row = 0
    for block in blocks:
        assert block.category in ("link", "constraint", "load"), block.source
        assert (block.category == "load") == (block.load_node is not None), block.source
        covered = np.zeros(block.rows, dtype=bool)
        for start, _, sub in block.entries:
            assert isinstance(sub, np.ndarray) and sub.dtype == np.float64, block.source
            assert sub.ndim == 2 and sub.shape[1] == 6, block.source
            assert np.isfinite(sub).all(), block.source
            assert 0 <= start and start + sub.shape[0] <= block.rows, block.source
            covered[start:start + sub.shape[0]] = True
        assert covered.all(), f"{block.source}: rows without any entry"
        assert len(block.rhs) == block.rows, block.source
        kinds = _row_kinds_by_loop(block)
        assert system.row_meta[row:row + block.rows] == [(block.source, k) for k in kinds]
        row += block.rows
    assert row == len(system.row_meta)
