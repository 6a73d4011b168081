"""Correctness checks computed apart from msakit.

Every function here uses numpy only: the closed-form stiffness of serial
chains comes from Euler-Bernoulli cantilever compliances and joint spring
compliances, transported to the chain end and summed; the NaVaRo and CLI
checks test properties the method guarantees (symmetry, positive
semidefiniteness, monotonicity, equilibrium, Kc and the loaded solve agreeing).
Each check returns an error message, or None when the output passes.

Run `python3 perfbench/checks.py` for the self-test of every checker.
"""
from __future__ import annotations

import math

import numpy as np

# Relative tolerances. Each sits orders of magnitude above what a correct
# pipeline produces today (noted per line) and far below any modelling error.
KC_ORACLE_RTOL = 1e-5      # chains: up to 3e-7 in the softest direction
SYMMETRY_RTOL = 1e-8       # NaVaRo 120-degree invariance: ~1e-12
PSD_RTOL = 1e-10           # most negative eigenvalue over the largest
LOEWNER_RTOL = 1e-9        # most negative eigenvalue of the increment over |Kc|
DEFLECTION_RTOL = 1e-5     # loaded solve against Kc^-1 w: ~3e-10 NaVaRo, ~1e-7 chains
BALANCE_RTOL = 1e-8        # net wrench over the sum of the wrench magnitudes
IDENTITY_ATOL = 1e-6       # compliance . stiffness against the identity


def skew(v) -> np.ndarray:
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def transport(d) -> np.ndarray:
    """Deflection transport from a point p to a point p + d on one rigid body:
    (delta, theta) at p+d = T (delta, theta) at p. Wrenches go by T^T."""
    T = np.eye(6)
    T[:3, 3:] = -skew(d)
    return T


def tube_section(outer: float, wall: float) -> tuple:
    """(A, I, J) of a round tube; I is the bending moment about any diameter."""
    ro, ri = outer / 2.0, outer / 2.0 - wall
    A = math.pi * (ro ** 2 - ri ** 2)
    I = math.pi / 4.0 * (ro ** 4 - ri ** 4)
    return A, I, 2.0 * I


def cantilever_compliance(axis, L: float, E: float, G: float, A: float,
                          I: float, J: float) -> np.ndarray:
    """Tip compliance of a clamped Euler-Bernoulli beam with Iy = Iz = I.

    Maps the tip wrench (force; moment) to the tip deflection (translation;
    rotation), in the global frame, for a beam along the unit vector `axis`.
    """
    a = np.asarray(axis, dtype=float)
    a = a / np.linalg.norm(a)
    along = np.outer(a, a)
    across = np.eye(3) - along
    C = np.zeros((6, 6))
    C[:3, :3] = L / (E * A) * along + L ** 3 / (3.0 * E * I) * across
    C[3:, 3:] = L / (G * J) * along + L / (E * I) * across
    C[3:, :3] = L ** 2 / (2.0 * E * I) * skew(a)     # rotation from a tip force
    C[:3, 3:] = C[3:, :3].T                          # translation from a tip moment
    return C


def chain_stiffness(chain: dict) -> np.ndarray:
    """End stiffness of a clamped serial chain by compliance superposition.

    `chain` holds the node positions p[0..n], per-beam material and section
    arrays, and the elastic revolute joints as (point index, axis, k); beam k
    runs from p[k] to p[k+1] and joints sit at interior points.
    """
    p = chain["points"]
    end = p[-1]
    C = np.zeros((6, 6))
    for k in range(len(p) - 1):
        d = p[k + 1] - p[k]
        L = float(np.linalg.norm(d))
        Ck = cantilever_compliance(d / L, L, chain["E"], chain["G"], chain["A"][k],
                                   chain["I"][k], chain["J"][k])
        T = transport(end - p[k + 1])
        C += T @ Ck @ T.T
    for at, axis, k in chain["joints"]:
        u = np.zeros(6)
        u[3 + axis] = 1.0
        T = transport(end - p[at])
        C += T @ (np.outer(u, u) / k) @ T.T
    return np.linalg.inv(C)


def _rel(a, b) -> float:
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)) / np.linalg.norm(b))


def directional_error(kc, reference) -> float:
    """Largest |v^T (Kc - K) v| / v^T K v over all directions v, for SPD K.

    Unlike a matrix norm, this sees an error in the softest direction as
    clearly as one in the stiffest, whatever the units of each direction.
    """
    L = np.linalg.cholesky(0.5 * (reference + reference.T))
    Li = np.linalg.inv(L)
    diff = Li @ (0.5 * (kc + kc.T) - 0.5 * (reference + reference.T)) @ Li.T
    return float(np.max(np.abs(np.linalg.eigvalsh(diff))))


def check_kc_against(kc, reference, what: str) -> str | None:
    err = directional_error(kc, reference)
    if not err <= KC_ORACLE_RTOL:
        return f"{what}: Kc differs from the compliance superposition by {err:.3e}"
    return None


def check_psd(kc, what: str) -> str | None:
    ev = np.linalg.eigvalsh(0.5 * (kc + kc.T))
    if not ev[0] >= -PSD_RTOL * abs(ev[-1]):
        return f"{what}: Kc is not positive semidefinite (eigenvalues {ev[0]:.3e}..{ev[-1]:.3e})"
    return None


def check_rotation_invariance(kc, angle: float, what: str) -> str | None:
    """Kc of a structure with threefold symmetry about z is invariant under
    the rotation of wrenches and deflections by that angle."""
    c, s = math.cos(angle), math.sin(angle)
    R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    R6 = np.kron(np.eye(2), R)
    err = _rel(R6 @ kc @ R6.T, kc)
    if not err <= SYMMETRY_RTOL:
        return f"{what}: Kc changes by {err:.3e} under the {math.degrees(angle):.0f}-degree rotation"
    return None


def check_loewner(kc_lo, kc_hi, what: str) -> str | None:
    """A stiffer drive makes the structure no softer in any direction."""
    ev = np.linalg.eigvalsh(0.5 * ((kc_hi - kc_lo) + (kc_hi - kc_lo).T))
    if not ev[0] >= -LOEWNER_RTOL * np.linalg.norm(kc_hi):
        return f"{what}: Kc decreases in the Loewner order (eigenvalue {ev[0]:.3e})"
    return None


def check_deflection(deflection, compliance_times_w, what: str) -> str | None:
    err = _rel(deflection, compliance_times_w)
    if not err <= DEFLECTION_RTOL:
        return f"{what}: end deflection differs from the compliance route by {err:.3e}"
    return None


def check_balance(wrenches: list, what: str) -> str | None:
    """Wrenches given as (point, wrench) pairs must sum to zero about the origin."""
    total = np.zeros(6)
    scale = 0.0
    for point, w in wrenches:
        shifted = np.concatenate([w[:3], w[3:] + np.cross(point, w[:3])])
        total += shifted
        scale += float(np.linalg.norm(shifted))
    if not float(np.linalg.norm(total)) <= BALANCE_RTOL * scale:
        return f"{what}: reactions and load leave a net wrench of {np.linalg.norm(total):.3e}"
    return None


def check_identity(compliance, kc, what: str) -> str | None:
    err = float(np.max(np.abs(np.asarray(compliance) @ np.asarray(kc) - np.eye(6))))
    if not err <= IDENTITY_ATOL:
        return f"{what}: compliance times stiffness is off the identity by {err:.3e}"
    return None


def self_test() -> list:
    """Run every checker once on a case it must pass and one it must reject.

    The cantilever case ties the closed form to the textbook tip formulas;
    the msakit-free cases use a perturbed copy of a known-good matrix.
    """
    failures = []

    def expect(name, ok_result, bad_result):
        if ok_result is not None:
            failures.append(f"{name} rejected a correct input: {ok_result}")
        if bad_result is None:
            failures.append(f"{name} accepted a wrong input")

    # One cantilever: 1 m along x, 40x4 mm steel tube, against F L^3 / 3EI etc.
    E, G = 210e9, 80.77e9
    A, I, J = tube_section(0.04, 0.004)
    chain = {"points": np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), "E": E, "G": G,
             "A": np.array([A]), "I": np.array([I]), "J": np.array([J]), "joints": []}
    C = np.linalg.inv(chain_stiffness(chain))
    textbook = {(0, 0): 1 / (E * A), (1, 1): 1 / (3 * E * I), (2, 2): 1 / (3 * E * I),
                (3, 3): 1 / (G * J), (5, 5): 1 / (E * I), (1, 5): 1 / (2 * E * I),
                (5, 1): 1 / (2 * E * I), (2, 4): -1 / (2 * E * I)}
    for (i, j), value in textbook.items():
        if abs(C[i, j] - value) > 1e-9 * abs(value):
            failures.append(f"cantilever compliance [{i},{j}] = {C[i, j]:.6e}, expected {value:.6e}")
    # A spring at the clamp adds L^2/k to the tip's transverse compliance.
    sprung = dict(chain, points=np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [1.0, 0.0, 0.0]]),
                  A=np.array([A, A]), I=np.array([I, I]), J=np.array([J, J]),
                  joints=[(1, 2, 1e3)])
    Cs = np.linalg.inv(chain_stiffness(sprung))
    if abs(Cs[1, 1] - (1 / (3 * E * I) + 0.25 / 1e3)) > 1e-9 * Cs[1, 1]:
        failures.append(f"sprung cantilever compliance {Cs[1, 1]:.6e} is wrong")

    kc = chain_stiffness(chain)
    bad = kc.copy()
    bad[1, 1] *= 1.0 + 1e-3
    expect("check_kc_against", check_kc_against(kc, kc, "self-test"),
           check_kc_against(bad, kc, "self-test"))
    expect("check_psd", check_psd(kc, "self-test"), check_psd(kc - 2 * kc[0, 0] * np.eye(6), "self-test"))
    sym = np.diag([2.0, 2.0, 5.0, 1.0, 1.0, 3.0])
    skewed = sym.copy()
    skewed[0, 0] = 2.001
    expect("check_rotation_invariance", check_rotation_invariance(sym, 2 * math.pi / 3, "self-test"),
           check_rotation_invariance(skewed, 2 * math.pi / 3, "self-test"))
    expect("check_loewner", check_loewner(sym, sym + np.eye(6), "self-test"),
           check_loewner(sym, sym - 1e-3 * np.eye(6), "self-test"))
    w = np.array([1.0, -2.0, 0.5, 0.1, 0.0, -0.3])
    d = np.linalg.solve(kc, w)
    expect("check_deflection", check_deflection(d, d, "self-test"),
           check_deflection(d * (1 + 1e-3), d, "self-test"))
    p = np.array([1.0, 0.0, 0.0])
    reaction = -np.concatenate([w[:3], w[3:] + np.cross(p, w[:3])])
    expect("check_balance", check_balance([(p, w), (np.zeros(3), reaction)], "self-test"),
           check_balance([(p, w), (np.zeros(3), 0.999 * reaction)], "self-test"))
    expect("check_identity", check_identity(np.linalg.inv(kc), kc, "self-test"),
           check_identity(np.linalg.inv(bad), kc, "self-test"))
    return failures


if __name__ == "__main__":
    problems = self_test()
    for line in problems:
        print(line)
    print("self-test:", "FAILED" if problems else "passed")
    raise SystemExit(1 if problems else 0)
