"""The four benchmark workloads: seeded inputs, one operation, its checks.

Each workload turns the seed into one *round* of operations. A run repeats
that round until its time is up, so every round attempts the same
operations on the same inputs and must report the same counts. `run`
performs one operation and returns a compact output (the parts the checks
need, so no model or system outlives its operation); `check` tests one
round's outputs against the computations in `checks.py`.
"""
from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent

# Round-tube chain make-up, shared by chain_long and mechanism. Short,
# stocky beams and a drifting path keep every chain inside the Kc symmetry
# gate and its solve residual far above the residual gate (README, "Chain
# sizing"); both measures grow with the chain's length and reach.
BEAM_LENGTH = (0.05, 0.10)        # m
TUBE_OUTER = (0.04, 0.06)         # m; the wall is a tenth of it
CHAIN_DRIFT = 0.3                 # weight of the drift direction per beam
JOINT_STIFFNESS_LOG10 = (3.0, 6.0)  # N*m/rad, log-uniform
STEEL = {"E": 210e9, "G": 80.77e9}

CHAIN_LONG_BEAMS = 250
CHAIN_LONG_PER_ROUND = 2
MECHANISM_BEAMS = 40
MECHANISM_PER_ROUND = 1

NAVARO_ANGLES = 4                        # coupler angles per round
NAVARO_ANGLE_RANGE = (0.3, 1.3)          # |coupler_angle| in rad; 0 is the radial pose
NAVARO_MOTOR_STIFFNESS = (1e3, 1e4, 1e5, 1e6)  # N*m/rad, one pose per decade


def new_counts() -> dict:
    return dict.fromkeys(("attempted", "failed", "equations", "nnz", "dense_fallbacks",
                          "kc_rejected", "solve_rejected", "bytes_read", "bytes_written"), 0)


# ---------------------------------------------------------------------------
# Seeded chains
# ---------------------------------------------------------------------------

def chain_spec(rng, beams: int) -> dict:
    """A clamped serial chain: beam k runs from points[k] to points[k+1] in a
    random direction biased towards one chain-wide drift direction; an
    elastic revolute joint about a random global axis joins consecutive
    beams at every interior point."""
    drift = rng.normal(size=3)
    directions = rng.normal(size=(beams, 3))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    directions += CHAIN_DRIFT * drift / np.linalg.norm(drift)
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    lengths = rng.uniform(*BEAM_LENGTH, size=beams)
    points = np.vstack([np.zeros(3), np.cumsum(directions * lengths[:, None], axis=0)])
    outer = rng.uniform(*TUBE_OUTER, size=beams)
    sections = [checks.tube_section(d, 0.1 * d) for d in outer]
    axes = rng.integers(3, size=beams - 1)
    stiffness = 10.0 ** rng.uniform(*JOINT_STIFFNESS_LOG10, size=beams - 1)
    return {
        "points": points,
        "A": np.array([s[0] for s in sections]),
        "I": np.array([s[1] for s in sections]),
        "J": np.array([s[2] for s in sections]),
        "joints": [(k, int(a), float(s)) for k, a, s in zip(range(1, beams), axes, stiffness)],
        "pendulum": None,
        **STEEL,
    }


def with_pendulum(rng, spec: dict) -> dict:
    """Hang a free pendulum beam from a mid-chain junction.

    The junction welds the two chain ends meeting there (so that point loses
    its elastic joint) and pins the pendulum about the global z axis; the
    pendulum's far end is only a load point, so it carries nothing and its
    swing is one mechanism of the internal block.
    """
    mid = (len(spec["points"]) - 1) // 2
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    tip = spec["points"][mid] + rng.uniform(*BEAM_LENGTH) * direction
    joints = [j for j in spec["joints"] if j[0] != mid]
    return {**spec, "joints": joints, "pendulum": (mid, tip)}


def build_chain(ms, spec: dict):
    """The chain as an msakit model, through the public Model.add_* calls."""
    presets = [ms.joint_basis_preset(f"revolute_{axis}") for axis in "xyz"]
    points = spec["points"]
    beams = len(points) - 1
    m = ms.Model()
    for k in range(beams):
        m.add_node(f"a{k}", points[k])
        m.add_node(f"b{k}", points[k + 1])
        m.add_beam(f"a{k}", f"b{k}", E=spec["E"], G=spec["G"], A=spec["A"][k],
                   Iy=spec["I"][k], Iz=spec["I"][k], J=spec["J"][k])
    for at, axis, k in spec["joints"]:
        m.add_joint("elastic", (f"b{at - 1}", f"a{at}"), basis=presets[axis],
                    stiffness=[[k]])
    if spec["pendulum"] is not None:
        mid, tip = spec["pendulum"]
        m.add_node("q0", points[mid])
        m.add_node("q1", tip)
        m.add_beam("q0", "q1", E=spec["E"], G=spec["G"], A=spec["A"][mid],
                   Iy=spec["I"][mid], Iz=spec["I"][mid], J=spec["J"][mid])
        m.add_junction((f"b{mid - 1}", f"a{mid}"), [("q0", presets[2])])
        m.add_load_point("q1")
    m.add_support("a0", "rigid")
    m.set_end_effector(f"b{beams - 1}")
    return m


# ---------------------------------------------------------------------------
# Operation outputs shared by the in-process workloads. The layer spans and
# counts come from tracer.Layers, which wraps the msakit calls themselves.
# ---------------------------------------------------------------------------

def _stiffness(ms, system):
    """Kc, or None when the program rejects it."""
    try:
        return ms.cartesian_stiffness(system).kc
    except ms.ModelError:
        return None


def _solve(ms, system, wrench):
    """(end deflection, [(point, wrench)] of reactions and load), or None
    when the program rejects the solve."""
    try:
        state = ms.solve_loaded(system, wrench)
    except ms.ModelError:
        return None
    end = system.end_effector
    balance = [(state.position_of(n), state.wrench_at(n)) for n in state.support_nodes]
    balance.append((state.position_of(end), wrench))
    return state.end_deflection, balance


def _check_solve(kc, solved, wrench, what: str) -> list:
    deflection, balance = solved
    return [msg for msg in (checks.check_deflection(deflection, np.linalg.solve(kc, wrench), what),
                            checks.check_balance(balance, what)) if msg]


class Workload:
    """One round of seeded inputs plus the operation and checks over them."""

    def __init__(self, ms, seed: int, workdir: Path, env: dict):
        self.ms = ms
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.env = env
        self.inputs = self.make_inputs()

    def begin_round(self, index: int) -> None:
        self.round = index

    def make_inputs(self) -> list:
        raise NotImplementedError

    def run(self, inp, tr, counts):
        raise NotImplementedError

    def check(self, inputs: list, outputs: list) -> list:
        raise NotImplementedError


class NavaroMap(Workload):
    """Stiffness map of the full NaVaRo manipulator over poses."""

    def make_inputs(self) -> list:
        lo, hi = NAVARO_ANGLE_RANGE
        angles = self.rng.uniform(lo, hi, NAVARO_ANGLES) * self.rng.choice([-1.0, 1.0], NAVARO_ANGLES)
        return [(float(a), k, self.rng.normal(size=6))
                for a in angles for k in NAVARO_MOTOR_STIFFNESS]

    def run(self, inp, tr, counts):
        ms = self.ms
        angle, motor, wrench = inp
        model = ms.build_navaro(ms.NavaroParams(coupler_angle=angle, motor_stiffness=motor))
        system = ms.assemble(model)
        kc = _stiffness(ms, system)
        solved = _solve(ms, system, wrench)
        counts["failed"] += kc is None or solved is None
        return kc, solved

    def check(self, inputs, outputs) -> list:
        problems = []
        previous = {}
        for (angle, motor, wrench), (kc, solved) in zip(inputs, outputs):
            what = f"navaro pose angle={angle:.4f} motor={motor:.0e}"
            if kc is None or solved is None:
                continue
            problems += [m for m in (checks.check_psd(kc, what),
                                     checks.check_rotation_invariance(kc, 2 * math.pi / 3, what))
                         if m]
            if angle in previous:
                msg = checks.check_loewner(previous[angle], kc, what)
                if msg:
                    problems.append(msg)
            previous[angle] = kc
            problems += _check_solve(kc, solved, wrench, what)
        return problems


class ChainLong(Workload):
    """Long serial chains: builder, aggregation and sparse LU at scale."""

    def make_inputs(self) -> list:
        inputs = []
        for _ in range(CHAIN_LONG_PER_ROUND):
            spec = chain_spec(self.rng, CHAIN_LONG_BEAMS)
            reference = checks.chain_stiffness(spec)
            # Load along the most compliant direction of the closed-form
            # compliance, with a seeded magnitude and sign.
            _, vectors = np.linalg.eigh(np.linalg.inv(reference))
            scale = self.rng.uniform(10.0, 100.0) * self.rng.choice([-1.0, 1.0])
            inputs.append((spec, reference, scale * vectors[:, -1]))
        return inputs

    def run(self, inp, tr, counts):
        ms = self.ms
        spec, _, wrench = inp
        with tr.span("model.build"):
            model = build_chain(ms, spec)
        system = ms.assemble(model)
        kc = _stiffness(ms, system)
        # The solve runs whatever Kc did, so a mended gate cannot move the timing.
        solved = _solve(ms, system, wrench)
        counts["failed"] += kc is None or solved is None
        return kc, solved

    def check(self, inputs, outputs) -> list:
        problems = []
        for k, ((spec, reference, wrench), (kc, solved)) in enumerate(zip(inputs, outputs)):
            what = f"chain {k} ({len(spec['points']) - 1} beams)"
            if kc is not None:
                msg = checks.check_kc_against(kc, reference, what)
                if msg:
                    problems.append(msg)
                if solved is not None:
                    problems += _check_solve(kc, solved, wrench, what)
        return problems


class Mechanism(Workload):
    """Chains whose internal block is singular by one (a free pendulum)."""

    def make_inputs(self) -> list:
        inputs = []
        for _ in range(MECHANISM_PER_ROUND):
            spec = with_pendulum(self.rng, chain_spec(self.rng, MECHANISM_BEAMS))
            # The pendulum carries no load, so Kc is that of the bare chain.
            inputs.append((spec, checks.chain_stiffness(spec)))
        return inputs

    def run(self, inp, tr, counts):
        ms = self.ms
        spec, _ = inp
        with tr.span("model.build"):
            model = build_chain(ms, spec)
        kc = _stiffness(ms, ms.assemble(model))
        report = ms.check_model(model)
        counts["failed"] += kc is None
        return kc, report.mechanisms, report.square

    def check(self, inputs, outputs) -> list:
        problems = []
        for k, ((spec, reference), (kc, mechanisms, square)) in enumerate(zip(inputs, outputs)):
            what = f"pendulum chain {k}"
            if kc is not None:
                msg = checks.check_kc_against(kc, reference, what)
                if msg:
                    problems.append(msg)
            if mechanisms != 1 or not square:
                problems.append(f"{what}: check_model reports {mechanisms} mechanisms "
                                f"(square: {square}), expected exactly one")
        return problems


_CHECK_SUMMARY = re.compile(r"(\d+) equations / (\d+) unknowns, (\d+) mechanisms")


class Cli(Workload):
    """File-based route: one `python -m msakit.cli` process per operation.

    A round is `navaro --params` over two motor stiffnesses, then `analyze`
    and `check` of the full-manipulator document that navaro wrote.
    """

    def make_inputs(self) -> list:
        lo, hi = NAVARO_ANGLE_RANGE
        angle = float(self.rng.uniform(lo, hi) * self.rng.choice([-1.0, 1.0]))
        k1 = float(10.0 ** self.rng.uniform(3.0, 4.5))
        k2 = float(k1 * 10.0 ** self.rng.uniform(0.5, 1.5))
        self.params = {"coupler_angle": angle, "motor_stiffness": [k1, k2]}
        self.wrench = self.rng.normal(size=6)
        load = ",".join(repr(float(x)) for x in self.wrench)
        return [("navaro", ["navaro", "--params", "{dir}/params.json", "--out", "{dir}"]),
                ("analyze", ["analyze", "{dir}/navaro_full_model_1.json", f"--load={load}",
                             "--out", "{dir}/analyze.json"]),
                ("check", ["check", "{dir}/navaro_full_model_1.json"])]

    def round_dir(self, index: int) -> Path:
        return self.workdir / f"round{index}"

    def begin_round(self, index: int) -> None:
        super().begin_round(index)
        d = self.round_dir(index)
        if d.exists():
            shutil.rmtree(d)
        d.mkdir(parents=True)
        (d / "params.json").write_text(json.dumps(self.params))

    def run(self, inp, tr, counts):
        kind, args = inp
        d = self.round_dir(self.round)
        args = [a.replace("{dir}", str(d)) for a in args]
        if tr.enabled:
            spans_path = d / f"{kind}.spans.json"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans_path)] + args
        else:
            cmd = [sys.executable, "-m", "msakit.cli"] + args
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=150)
        if tr.enabled:
            with open(spans_path) as fh:
                record = json.load(fh)
            tr.graft(record["spans"])
            for key, value in record["counts"].items():
                counts[key] += value
        if proc.returncode != 0:
            counts["failed"] += 1
        return self.round, proc.returncode, proc.stdout, proc.stderr[-2000:]

    def check(self, inputs, outputs) -> list:
        ms = self.ms
        problems = []
        index = outputs[0][0]
        d = self.round_dir(index)
        for (kind, _), (_, code, stdout, stderr) in zip(inputs, outputs):
            if code != 0:
                problems.append(f"cli {kind} exited {code}: {stderr.strip()[-300:]}")
        if problems:
            return problems
        results = [json.loads((d / f"navaro_full_result_{k}.json").read_text()) for k in (1, 2)]
        kcs = [np.array(r["cartesian_stiffness"]) for r in results]
        for k, kc in zip(self.params["motor_stiffness"], kcs):
            what = f"cli navaro motor={k:.4g}"
            problems += [m for m in (checks.check_psd(kc, what),
                                     checks.check_rotation_invariance(kc, 2 * math.pi / 3, what))
                         if m]
        msg = checks.check_loewner(kcs[0], kcs[1], "cli navaro sweep")
        if msg:
            problems.append(msg)

        text = (d / "navaro_full_model_1.json").read_text()
        if ms.serialize_model(ms.parse_model(text)) != text.rstrip("\n"):
            problems.append("cli: parsing and re-serializing the written document changes it")
        doc = json.loads(text)
        positions = {n["id"]: np.array(n["position"]) for n in doc["nodes"]}
        end = doc["end_effector"]

        result = json.loads((d / "analyze.json").read_text())
        kc = np.array(result["cartesian_stiffness"])
        compliance = np.array(result["compliance"])
        what = "cli analyze"
        problems += [m for m in (
            checks.check_kc_against(kc, kcs[0], what + " (against navaro's own analysis)"),
            checks.check_identity(compliance, kc, what),
            checks.check_deflection(np.array(result["state"]["deflections"][end]),
                                    compliance @ self.wrench, what),
            checks.check_balance([(positions[n], np.array(w))
                                  for n, w in result["support_reactions"].items()]
                                 + [(positions[end], self.wrench)], what)) if m]

        check_out = outputs[2][2]
        found = _CHECK_SUMMARY.search(check_out)
        if not found or found.group(1) != found.group(2) or found.group(3) != "0":
            problems.append(f"cli check: expected a square system with no mechanism, got {check_out[:200]!r}")
        return problems


WORKLOADS = {"navaro_map": NavaroMap, "chain_long": ChainLong,
             "mechanism": Mechanism, "cli": Cli}


def library_self_test(ms) -> list:
    """msakit's Kc of one tube cantilever must pass the closed-form check,
    and a perturbed copy of it must fail."""
    E, G = STEEL["E"], STEEL["G"]
    A, I, J = checks.tube_section(0.04, 0.004)
    chain = {"points": np.array([[0.0, 0.0, 0.0], [0.6, 0.3, -0.2]]), "E": E, "G": G,
             "A": np.array([A]), "I": np.array([I]), "J": np.array([J]), "joints": [],
             "pendulum": None}
    kc = ms.cartesian_stiffness(ms.assemble(build_chain(ms, chain))).kc
    reference = checks.chain_stiffness(chain)
    problems = []
    msg = checks.check_kc_against(kc, reference, "library cantilever")
    if msg:
        problems.append(msg)
    bad = kc.copy()
    bad[2, 2] *= 1.0 + 1e-3
    if checks.check_kc_against(bad, reference, "perturbed cantilever") is None:
        problems.append("the Kc check accepted a perturbed cantilever stiffness")
    return problems
