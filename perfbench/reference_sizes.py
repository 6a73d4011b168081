"""One-off reference figures at the ROADMAP's larger sizes (not gated).

    python3 perfbench/reference_sizes.py

Builds one chain_long-style chain and one mechanism-style pendulum chain
(seed 0, same make-up as the benchmark workloads) and prints the wall time
of each pipeline stage, or the error a stage raised. Takes minutes: the
builder is quadratic in the chain length and the pendulum chain goes
through dense SVDs.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys
import time
from pathlib import Path

import numpy as np

import workloads

SRC = Path(__file__).resolve().parent.parent / "src"
CHAIN_BEAMS = 8000
PENDULUM_BEAMS = 200


def timed(label: str, fn):
    t0 = time.perf_counter()
    try:
        result = fn()
        outcome = "ok"
    except Exception as exc:  # report any stage failure and go on
        result, outcome = None, f"raised {type(exc).__name__}: {str(exc)[:90]}"
    print(f"  {label:28s} {time.perf_counter() - t0:9.3f} s  {outcome}", flush=True)
    return result


def main() -> int:
    sys.path.insert(0, str(SRC))
    import msakit

    rng = np.random.default_rng(0)
    spec = workloads.chain_spec(rng, CHAIN_BEAMS)
    print(f"chain of {CHAIN_BEAMS} beams")
    model = timed("model.build", lambda: workloads.build_chain(msakit, spec))
    system = timed("assembly.assemble", lambda: msakit.assemble(model))
    if system is not None:
        print(f"  equations {system.shape[0]}, nnz {system.matrix.nnz}")
        timed("assembly.cartesian_stiffness", lambda: msakit.cartesian_stiffness(system))
        timed("assembly.solve_loaded", lambda: msakit.solve_loaded(system, np.ones(6)))

    spec = workloads.with_pendulum(rng, workloads.chain_spec(rng, PENDULUM_BEAMS))
    print(f"pendulum chain of {PENDULUM_BEAMS} beams")
    model = timed("model.build", lambda: workloads.build_chain(msakit, spec))
    system = timed("assembly.assemble", lambda: msakit.assemble(model))
    if system is not None:
        print(f"  equations {system.shape[0]}, nnz {system.matrix.nnz}")
        timed("assembly.cartesian_stiffness", lambda: msakit.cartesian_stiffness(system))
    timed("assembly.check_model", lambda: msakit.check_model(model))
    return 0


if __name__ == "__main__":
    sys.exit(main())
