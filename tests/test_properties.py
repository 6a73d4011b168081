"""Property tests over seeded random chains: Kc against both oracles, the
loaded solve against Kc and the reactions, and the same chain in m and mm.

Hypothesis draws the chain length, the joint stiffness and the seed of the
chain's own generator; runs are derandomized, so every run checks the same
chains.
"""
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import msakit

from helpers import random_chain, rel_fro

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=25)
SEEDS = st.integers(0, 2**32 - 1)
# Elastic joints from 1e2 to 1e8 N*m/rad, log-uniform.
JOINTS = st.floats(2.0, 8.0).map(lambda e: 10.0 ** e)
# The merged oracle condenses one dense stiffness matrix, and its own error
# grows with the chain (3e-8 against the serial oracle at 600 links, where
# Kc and the serial oracle agree to 6e-12); it checks Kc only up to here.
MERGED_MAX_LINKS = 40
# The elastic and unit properties draw shorter chains than the rigid one
# (which also runs an example of 2000 links), to keep the file fast.


@SETTINGS
@given(links=st.integers(1, 600), seed=SEEDS)
@example(links=2000, seed=0)
def test_rigid_chains_match_both_oracles(links, seed):
    model = random_chain(np.random.default_rng(seed), links)
    kc = model.cartesian_stiffness().kc
    assert rel_fro(kc, msakit.oracle_serial_vjm(model)) <= 1e-10
    if links <= MERGED_MAX_LINKS:
        assert rel_fro(kc, msakit.oracle_merged_msa(model)) <= 1e-10


@SETTINGS
@given(links=st.integers(1, 400), joint=JOINTS, seed=SEEDS)
def test_elastic_chains_solve_in_balance_and_agree_with_kc(links, joint, seed):
    rng = np.random.default_rng(seed)
    model = random_chain(rng, links, joint)
    w = rng.normal(size=6) * 50
    system = model.assemble()
    kc = msakit.cartesian_stiffness(system).kc
    state = msakit.solve_loaded(system, w)
    t = state.end_deflection
    assert msakit.equilibrium_residual(state) <= 1e-12 * np.linalg.norm(w)
    assert np.linalg.norm(t - np.linalg.solve(kc, w)) <= 1e-9 * np.linalg.norm(t)


@SETTINGS
@given(links=st.integers(1, 150), joint=st.none() | JOINTS, seed=SEEDS)
def test_a_chain_in_mm_matches_the_chain_in_m(links, joint, seed):
    kc_m = random_chain(np.random.default_rng(seed), links, joint).cartesian_stiffness().kc
    kc_mm = random_chain(np.random.default_rng(seed), links, joint,
                         length_unit=1e3).cartesian_stiffness().kc
    # Moments in N*mm and translations in mm: Kc_mm = P Kc_m Q^-1.
    P = np.diag([1.0, 1.0, 1.0, 1e3, 1e3, 1e3])
    Q_inv = np.diag([1e-3, 1e-3, 1e-3, 1.0, 1.0, 1.0])
    assert rel_fro(kc_mm, P @ kc_m @ Q_inv) <= 1e-9
