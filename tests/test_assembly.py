"""Global assembly, partitioning, stiffness extraction and loaded solves."""
import collections
import re

import numpy as np
import pytest
import scipy.sparse.linalg

import msakit
from msakit import assembly
from msakit.core import block_rotation

from helpers import (beam_link, cantilever, deflection_var, dense_audit, entries_dense, first_fault,
                     flexible_platform_model, free_link_end, random_chain, rel_fro, row_meta,
                     section_kwargs, sprung_model, wrench_var)

RZ = msakit.joint_basis_preset("revolute_z")


def duplicated_joint(audit_between=False):
    """Two beams joined twice at one point: twelve surplus rows. With
    `audit_between` the model is audited just before the second joint."""
    m = msakit.Model()
    m.add_node("a", [0, 0, 0])
    m.add_node("b", [0.5, 0, 0])
    m.add_node("c", [0.5, 0, 0])
    m.add_node("d", [1.0, 0, 0])
    m.add_beam("a", "b", **section_kwargs())
    m.add_beam("c", "d", **section_kwargs())
    m.add_joint("rigid", ("b", "c"))
    m.add_support("a", "rigid")
    m.set_end_effector("d")
    if audit_between:
        m.check()
    m.add_joint("rigid", ("b", "c"))
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


def rigid_four_bar():
    """Three rigid links pinned about z to each other and to the ground: a
    planar four-bar whose pins leave one mechanism and three out-of-plane
    states of self-stress."""
    m = msakit.Model()
    for node, x, y in (("p0", 0, 0), ("p1", 0, 0.5), ("q1", 0, 0.5), ("q2", 1, 0.5),
                       ("r2", 1, 0.5), ("r3", 1, 0)):
        m.add_node(node, [x, y, 0])
    for i, j in (("p0", "p1"), ("q1", "q2"), ("r2", "r3")):
        m.add_rigid_link(i, j)
    for node in ("p0", "r3"):
        m.add_support(node, "passive", basis=RZ)
    m.add_joint("passive", ("p1", "q1"), basis=RZ)
    m.add_joint("passive", ("q2", "r2"), basis=RZ)
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
        for analysed_before in (False, True):
            model, _ = cantilever()
            if analysed_before:         # the system kept from then must not be reused
                model.check()
                model.cartesian_stiffness()
            model.add_node("ghost", [5.0, 5.0, 5.0])
            with pytest.raises(msakit.ModelError, match="ghost"):
                model.assemble()
            assert first_fault(model)[:2] == ("dangling", ("ghost",))

    def test_non_square_rejected_with_breakdown(self):
        for audit_between in (False, True):
            with pytest.raises(msakit.ModelError, match="not square"):
                duplicated_joint(audit_between).assemble()
        faults = duplicated_joint().check().faults
        assert first_fault(duplicated_joint()).kind == "not square"
        assert [f.names for f in faults if f.kind == "shared"] == [
            ("b", "joint<b,c>", "joint<b,c>"), ("c", "joint<b,c>", "joint<b,c>")]

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
        assert first_fault(m)[:2] == ("shared", ("b", "joint<b,c>", "joint<b,e>"))

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
        assert first_fault(m)[:2] == ("loose", ("f",))

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
        end = system.end_effector if end is None else end
        ps = assembly._split(system, end, system.matrix.data)
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
        assert ps.A.nnz == np.count_nonzero(ps.A.toarray())

    def test_cantilever_blocks(self):
        model, link = cantilever()
        system = model.assemble()
        ps = assembly._split(system, "b", system.matrix.data)
        assert ps.A.shape == (18, 18)
        np.testing.assert_array_equal(ps.D, np.zeros((6, 6)))
        X = np.linalg.solve(ps.A.toarray(), ps.B)
        np.testing.assert_allclose(ps.C @ X, -link.K22, rtol=1e-10)

    def test_missing_load_rows_rejected(self):
        model, _ = cantilever()
        system = model.assemble()
        with pytest.raises(msakit.ModelError):
            msakit.cartesian_stiffness(system, "a")


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
        # A free-body link matrix whose far block breaks reciprocity beyond
        # roundoff (relative asymmetry 6e-7): symmetrized, it is no longer a
        # free body, so the builder rejects it on either route, as a matrix
        # or as a LinkStiffness, for a link and for a platform's link alike.
        _, link = cantilever()
        K = link.K.copy()
        K[7, 11] *= 1 + 1e-4
        K[:6] = -msakit.transport_matrix([1.0, 0, 0]).T @ K[6:]
        for stiffness in (K, msakit.LinkStiffness(K, ("a", "b"))):
            for add in (lambda m: m.add_flexible_link("a", "b", stiffness),
                        lambda m: m.add_flexible_platform({"a": stiffness}, "b")):
                model = msakit.Model()
                model.add_node("a", [0, 0, 0])
                model.add_node("b", [1.0, 0, 0])
                with pytest.raises(msakit.ModelError, match=r"link\(a,b\) is not a free body"):
                    add(model)
                assert model.flexible_links == model.platforms == ()


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
    """Every `_Factorization` built, in order."""
    init, built = assembly._Factorization.__init__, []

    def recording_init(self, A):
        init(self, A)
        built.append(self)

    monkeypatch.setattr(assembly._Factorization, "__init__", recording_init)
    return built


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
        msakit.cartesian_stiffness(system)
        kc_calls = len(lu_calls)
        state = msakit.solve_loaded(system, [0.0, 0.0, 10.0, 0.0, 0.0, 1.0])
        assert len(factorizations) == 1
        assert len(lu_calls) == kc_calls == 1    # bordered or not, one LU
        assert state.residual <= assembly.RESIDUAL_RTOL

    @pytest.mark.parametrize("build", [
        msakit.build_navaro, lambda: pendulum_chain(2), duplicated_joint,
        lambda: pendulum_chain(2, end_effector=False),
    ], ids=["navaro", "pendulum chain", "duplicated joint", "pendulum chain, no end effector"])
    def test_audit_builds_one_factorization(self, build, factorizations):
        model = build()
        model.check()
        assert len(factorizations) == 1
        model.check()                    # a non-square model keeps its padded system
        assert len(factorizations) == 1

    @pytest.mark.parametrize("build", [msakit.build_navaro, lambda: pendulum_chain(2)],
                             ids=["navaro", "pendulum chain"])
    def test_assemble_stiffness_solve_and_audit_build_one_factorization(self, build,
                                                                        factorizations):
        model = build()
        system = msakit.assemble(model)
        msakit.cartesian_stiffness(system)
        msakit.solve_loaded(system, [0.0, 0.0, 10.0, 0.0, 0.0, 1.0])
        msakit.check_model(model)
        assert len(factorizations) == 1

    @pytest.mark.parametrize("build", [msakit.build_navaro, lambda: pendulum_chain(2)],
                             ids=["navaro", "pendulum chain"])
    def test_model_conveniences_build_one_factorization(self, build, factorizations):
        model = build()
        model.cartesian_stiffness()
        model.solve([0.0, 0.0, 10.0, 0.0, 0.0, 1.0])
        model.check()
        assert len(factorizations) == 1

    def test_records_are_read_only(self):
        # Record counts date the kept system, so records change only through
        # add_*: an edit in place raises and leaves the model as it was.
        m, link = cantilever()
        nav = msakit.build_navaro()
        kc, kc_nav = m.cartesian_stiffness().kc, nav.cartesian_stiffness().kc
        with pytest.raises(TypeError):
            del m.positions["b"]
        with pytest.raises(AttributeError):
            nav.platforms.pop()
        with pytest.raises(TypeError):
            m.flexible_links[0] = msakit.LinkStiffness(2.0 * link.K, ("a", "b"))
        with pytest.raises(AttributeError):
            m.supports.pop("a")
        with pytest.raises(AttributeError):
            m.supports = {}
        with pytest.raises(ValueError, match="read-only"):
            m.positions["b"][0] = 2.0
        with pytest.raises(AttributeError):
            m.end_effector = "a"
        assert m.end_effector == "b" and m.load_points == ("b",)
        assert list(m.positions) == ["a", "b"] and m.positions["b"][0] == 1.0
        assert m.flexible_links == (link,) and list(m.supports) == ["a"]
        assert len(nav.platforms) == 1
        np.testing.assert_array_equal(m.cartesian_stiffness().kc, kc)
        np.testing.assert_array_equal(nav.cartesian_stiffness().kc, kc_nav)


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
        assert m.load_points == ()


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

    def test_rigid_four_bar_has_one_mechanism_and_three_self_stresses(self):
        report = rigid_four_bar().check()
        assert (report.rows, report.unknowns, report.rank) == (72, 72, 68)
        assert (report.mechanisms, report.self_stress) == (1, 3)

    def test_pendulum_mechanism_names_its_nodes(self):
        report = pendulum_chain(1).check()
        assert report.mechanisms == 1
        assert report.mechanism_nodes == ["q0", "q1"]
        assert cantilever()[0].check().mechanism_nodes == []

    def test_models_without_equations(self):
        assert msakit.Model().check().summary().startswith("0 equations / 0 unknowns")
        assert first_fault(msakit.Model()).kind == "empty"
        m = msakit.Model()
        m.add_node("a", [0, 0, 0])
        report = m.check()
        assert (report.rows, report.mechanisms) == (0, 12)
        assert [f.names for f in report.faults if f.kind == "dangling"] == [("a",)]

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
    "rigid four-bar": rigid_four_bar,
}

# Blocks singular in their numbers beyond their pattern, so the matched
# borders alone leave their LU singular. On a generic axis the rotated pin
# bases fill entries that were exact zeros, and the structural rank of the
# internal block exceeds its numerical rank; the duplicated joint's matching
# leaves the wrong one of two equal rows unmatched, on any axis.
GENERIC_AXIS = msakit.rotation_matrix([1, 2, 3], 0.7)
GENERIC_AXIS_MODELS = {
    "generic-axis redundant coaxial pins":
        lambda: msakit.rotated_model(coaxial_pin_chain(True), GENERIC_AXIS),
    "generic-axis rigid four-bar": lambda: msakit.rotated_model(rigid_four_bar(), GENERIC_AXIS),
    "generic-axis duplicated joint": lambda: msakit.rotated_model(duplicated_joint(), GENERIC_AXIS),
}
BORDERED_MODELS = {**SINGULAR_MODELS, **GENERIC_AXIS_MODELS}


@pytest.mark.parametrize("name", BORDERED_MODELS)
def test_bordered_solve_matches_dense_svd_oracle(name):
    model = BORDERED_MODELS[name]()
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


@pytest.mark.parametrize("name", BORDERED_MODELS)
def test_bordered_blocks_have_unit_borders(name, factorizations):
    """Each border row and column of M = [A U; V^T 0] has one entry, equal
    to 1, so M keeps A's sparsity."""
    BORDERED_MODELS[name]().check()
    assert [fac.pseudo_inverse for fac in factorizations] == [True]
    fac = factorizations[0]
    n, M = fac.n, fac._M.toarray()
    assert not M[n:, n:].any()
    for border in (M[:n, n:], M[n:, :n].T):
        assert (np.count_nonzero(border, axis=0) == 1).all()
        assert (border[border != 0.0] == 1.0).all()


# Pendulum chains of the benchmark's size, by their nullity: each pendulum
# swings about its pin.
LONG_PENDULUM_CHAINS = {f"{p} free pendulums, 40 beams": p for p in (1, 2, 3)}


@pytest.mark.parametrize("name", [*SINGULAR_MODELS, *LONG_PENDULUM_CHAINS])
def test_singular_blocks_take_one_lu_bordered_by_their_nullity(name, factorizations,
                                                              monkeypatch):
    """The unmatched rows and columns of a maximum matching place the borders
    before the first LU, one per null vector of the block."""
    lu, calls = assembly._lu, []
    monkeypatch.setattr(assembly, "_lu", lambda M: calls.append(M.shape) or lu(M))
    if name in SINGULAR_MODELS:
        model = SINGULAR_MODELS[name]()
        model.check()
        nullity = factorizations[0].n - dense_audit(model)["a_rank"]
    else:
        nullity = LONG_PENDULUM_CHAINS[name]
        pendulum_chain(nullity, beams=40).check()
    fac, = factorizations
    borders = fac._M.shape[0] - fac.n
    if name == "duplicated joint (non-square)":
        # The matching leaves the wrong one of two equal rows unmatched, so
        # the matched borders leave M singular and more borders grow on it.
        assert len(calls) > 1 and borders >= nullity
    else:
        assert len(calls) == 1 and borders == nullity


@pytest.mark.parametrize("name", BORDERED_MODELS)
def test_borders_grow_on_the_matched_block(name, monkeypatch):
    """Every LU factors the block bordered at its unmatched rows and columns,
    or that block bordered further: none restarts from a smaller matrix, and
    at most a failed LU, the shifted one that locates its trouble and the
    final one run."""
    lu, calls = assembly._lu, []
    monkeypatch.setattr(assembly, "_lu", lambda M: calls.append(M.shape[0]) or lu(M))
    BORDERED_MODELS[name]().check()
    assert min(calls) == calls[0] and len(calls) <= 3, calls


@pytest.mark.parametrize("name", [*SINGULAR_MODELS, "pinned beam"])
def test_direction_rows_have_a_positive_largest_component(name):
    model = pinned_beam() if name == "pinned beam" else SINGULAR_MODELS[name]()
    if not model.check().square or model.end_effector is None:
        return
    diag = model.cartesian_stiffness().diagnostics
    rows = [row for directions in (diag.mechanism_directions, diag.locked_directions)
            if directions is not None for row in directions]
    assert all(row[np.argmax(np.abs(row))] > 0.0 for row in rows)


@pytest.mark.parametrize("name, field", [("partially locked lever", "mechanism_directions"),
                                         ("partially locked lever", "locked_directions"),
                                         ("rigidly locked end", "locked_directions")])
def test_direction_rows_depend_on_their_subspace_alone(name, field):
    # An SVD may return a subspace of two or more directions in any rotation
    # of its basis; the reported rows must not turn with it.
    rows = getattr(SINGULAR_MODELS[name]().cartesian_stiffness().diagnostics, field)
    k = rows.shape[0]
    assert k > 1
    np.testing.assert_allclose(rows @ rows.T, np.eye(k), rtol=0, atol=1e-14)
    rng = np.random.default_rng(5)
    for _ in range(5):
        mixed = np.linalg.qr(rng.standard_normal((k, k)))[0] @ rows
        again = assembly._directions(mixed)
        np.testing.assert_allclose(again, rows, rtol=0, atol=1e-14)
        np.testing.assert_allclose(again.T @ again, mixed.T @ mixed, rtol=0, atol=1e-14)


def pinned_beam():
    """A beam on a passive revolute support."""
    m = msakit.Model()
    m.add_node("a", [0, 0, 0])
    m.add_node("b", [1.0, 0.2, 0])
    m.add_beam("a", "b", **section_kwargs())
    m.add_support("a", "passive", basis=RZ)
    m.set_end_effector("b")
    return m


def interleaved_families():
    """Records of several row layouts interleaved in insertion order:
    elastic revolute-x, passive and elastic revolute-y joints, a junction
    pinning two attachments of different bases, a 3-node rigid carrier, a
    clamp and a preloaded 2x2 elastic support, a flexible platform and three
    load points."""
    m = msakit.Model()
    points = {"a0": [0, 0, 0], "a1": [0.4, 0, 0], "b1": [0.8, 0.1, 0], "c1": [1.2, 0.1, 0.1],
              "d1": [1.6, 0, 0.1], "e1": [2.0, 0.3, 0.1], "f1": [2.0, -0.3, 0.1],
              "p": [2.3, 0, 0.1], "g0": [0, 1.0, 0], "g1": [0.3, 1.0, 0],
              "h1": [0.6, 1.3, 0], "k1": [0.6, 0.7, 0]}
    for node, at in (("b0", "a1"), ("c0", "b1"), ("d0", "c1"), ("e0", "d1"), ("f0", "d1"),
                     ("h0", "g1"), ("k0", "g1")):
        points[node] = points[at]
    for node, position in points.items():
        m.add_node(node, position)
    for i, j in (("a0", "a1"), ("b0", "b1"), ("g0", "g1"), ("c0", "c1"), ("d0", "d1"),
                 ("e0", "e1"), ("h0", "h1"), ("f0", "f1"), ("k0", "k1")):
        m.add_beam(i, j, **section_kwargs())
    ry = msakit.joint_basis_preset("revolute_y")
    m.add_joint("elastic", ("a1", "b0"), basis=msakit.joint_basis_preset("revolute_x"),
                stiffness=[[500.0]])
    m.add_junction(("g1",), [("h0", RZ), ("k0", msakit.joint_basis_preset("spherical"))])
    m.add_joint("passive", ("b1", "c0"), basis=ry)
    m.add_joint("elastic", ("c1", "d0"), basis=ry, stiffness=[[800.0]])
    m.add_joint("rigid", ("d1", "e0", "f0"))
    m.add_support("a0", "rigid")
    m.add_support("g0", "elastic", basis=msakit.joint_basis_preset("universal"),
                  stiffness=[[30.0, 5.0], [5.0, 40.0]], preload=[0, 0, 0, 1.5, -0.5, 0])
    m.add_flexible_platform({clamp: beam_link(points[clamp], points["p"])
                             for clamp in ("e1", "f1")}, "p")
    m.add_load_point("h1")
    m.set_end_effector("p")
    m.add_load_point("k1")
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
    "interleaved families": interleaved_families,
}


def _catalogue_sources(model) -> list:
    """The source of every record in the canonical row order (links, rigid
    links, platforms, connections, supports, loads), from the model's
    record containers."""
    sources = [f"link({i},{j})" for i, j in (link.nodes for link in model.flexible_links)]
    sources += [f"rigid_link({i},{j})" for i, j in model.rigid_links]
    sources += [f"{p.kind}_platform({','.join(map(str, p.clamps))};{p.end})"
                for p in model.platforms]
    sources += [f"{'junction' if c.kind == 'junction' else 'joint'}<{','.join(map(str, c.nodes))}>"
                for c in model.connections]
    sources += [f"support@{node}" for node in model.supports]
    return sources + [f"load@{end}" for end in model.load_points]


def _first_rows(blocks) -> dict:
    """First global row of the record at each catalogue position, by a
    plain walk over the records in catalogue order."""
    heights = {int(g): b.rows for b in blocks for g in b.index}
    assert sorted(heights) == list(range(sum(len(b.nodes) for b in blocks)))
    first, row = {}, 0
    for g in sorted(heights):
        first[g], row = row, row + heights[g]
    return first


@pytest.mark.parametrize("name", AGGREGATION_MODELS)
def test_aggregation_matches_dense_oracle(name):
    model = AGGREGATION_MODELS[name]()
    system = model.assemble()
    blocks = assembly._emit_blocks(model)
    variables = ([wrench_var(n) for n in system.nodes]
                 + [deflection_var(n) for n in system.nodes])
    dense = np.vstack([entries_dense(b, variables) for b in blocks])
    # The global row of each stacked row: records sit at their catalogue rows.
    first = _first_rows(blocks)
    rows = [first[int(g)] + r for b in blocks for g in b.index for r in range(b.rows)]
    assert sorted(rows) == list(range(system.shape[0]))
    placed = np.empty_like(dense)
    placed[rows] = dense
    np.testing.assert_array_equal(system.matrix.toarray(), placed)
    assert system.matrix.nnz == np.count_nonzero(dense)
    np.testing.assert_array_equal(system.rhs[rows], np.concatenate([b.rhs.ravel() for b in blocks]))
    meta = row_meta(system)
    assert [meta[r] for r in rows] == [
        (source, kind) for b in blocks for source in b.sources for kind in b.row_kinds()]


def _row_kinds_by_loop(block) -> list:
    """Kinds of a record's rows, from a plain walk over the block's entries."""
    if block.category != "constraint":
        return [block.category] * block.rows
    names = {frozenset("t"): "compat", frozenset("W"): "wrench", frozenset("Wt"): "mixed"}
    return [names[frozenset(kind for start, kind, _, sub in block.entries
                            if start <= row < start + sub.shape[-2])]
            for row in range(block.rows)]


@pytest.mark.parametrize("name", [*AGGREGATION_MODELS, *SINGULAR_MODELS])
def test_emitted_blocks_are_well_formed(name):
    """The layout invariants every emitter keeps, checked over every block it
    yields; the assembler and EquationBlock trust them."""
    model = {**AGGREGATION_MODELS, **SINGULAR_MODELS}[name]()
    blocks = assembly._emit_blocks(model)
    system = assembly._build_system(model, blocks)
    first = _first_rows(blocks)
    catalogue = _catalogue_sources(model)
    meta = row_meta(system)
    for block in blocks:
        m = len(block.nodes)
        assert m >= 1 and len(block.sources) == len(block.index) == m, block.sources
        assert len({len(record) for record in block.nodes}) == 1, block.sources
        assert all(len(set(record)) == len(record) for record in block.nodes), block.sources
        assert block.category in ("link", "constraint", "load"), block.sources
        assert (block.category == "load") == (block.load_nodes is not None), block.sources
        covered = np.zeros(block.rows, dtype=bool)
        for start, kind, slot, sub in block.entries:
            assert kind in ("W", "t") and 0 <= slot < len(block.nodes[0]), block.sources
            assert isinstance(sub, np.ndarray) and sub.dtype == np.float64, block.sources
            assert sub.shape[-1] == 6, block.sources
            assert sub.ndim == 2 or (sub.ndim == 3 and sub.shape[0] == m), block.sources
            assert np.isfinite(sub).all(), block.sources
            assert 0 <= start and start + sub.shape[-2] <= block.rows, block.sources
            covered[start:start + sub.shape[-2]] = True
        assert covered.all(), f"{block.sources}: rows without any entry"
        assert block.rhs.shape == (m, block.rows), block.sources
        kinds = _row_kinds_by_loop(block)
        for source, g in zip(block.sources, block.index.tolist()):
            assert source == catalogue[g]
            row = first[g]
            assert meta[row:row + block.rows] == [(source, k) for k in kinds]
        if block.category == "load":
            for node, g in zip(block.load_nodes, block.index.tolist()):
                np.testing.assert_array_equal(system.load_rows[node], first[g] + np.arange(6))
    assert sum(len(b.nodes) * b.rows for b in blocks) == len(meta)


@pytest.mark.parametrize("name", [*AGGREGATION_MODELS, *SINGULAR_MODELS])
def test_row_accounting_matches_a_count_over_rows(name):
    """Row counts from the block layout equal counts over every row's
    (source, kind), in the order of each source's first row."""
    system = assembly._system({**AGGREGATION_MODELS, **SINGULAR_MODELS}[name]())
    meta = row_meta(system)
    by_source = collections.Counter(source for source, _ in meta)
    by_kind = collections.Counter(kind for _, kind in meta)
    assert list(system.rows_by_source().items()) == list(by_source.items())
    assert system.block_row_counts() == {
        kind: by_kind[kind] for kind in ("link", "compat", "wrench", "mixed", "load")}
