"""msakit stiffness-pipeline benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
./src). Each workload is a closed loop: this process is the only caller and
runs one operation at a time. BLAS is pinned to one thread here and in every
child process. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, with --trace 1 the per-layer metrics of traced rounds that
alternate with untraced ones.
See perfbench/README.md.
"""
from __future__ import annotations

import os

# Before numpy is imported anywhere: one BLAS thread, inherited by children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from tracer import Layers, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

SETUP_SAMPLES = 10
IMPORT_PROBE = ("import time; t = time.perf_counter(); import msakit; "
                "print(repr(time.perf_counter() - t)); print(msakit.__file__)")

END_TO_END = {"setup_s": "s", "analyses_per_s": "1/s", "analysis_ms_p50": "ms",
              "peak_rss_mb": "MB"}
SPAN_METRICS = {  # span name -> per-layer metric (self time per operation)
    "model.build": "model.build_s",
    "assembly.assemble": "assembly.assemble_s",
    "assembly.cartesian_stiffness": "assembly.cartesian_stiffness_s",
    "assembly.solve_loaded": "assembly.solve_loaded_s",
    "assembly.check_model": "assembly.check_model_s",
    "modelio.parse_model": "modelio.parse_model_s",
    "modelio.to_model": "modelio.to_model_s",
    "modelio.serialize": "modelio.serialize_s",
    "cli.import": "cli.import_s",
    "cli.main": "cli.self_s",
    "op": "op.self_s",
}
COUNT_METRICS = {  # round count -> per-layer metric (count per operation)
    "equations": ("assembly.equations", "count"),
    "nnz": ("assembly.nnz", "count"),
    "dense_fallbacks": ("assembly.dense_fallbacks", "count"),
    "kc_rejected": ("assembly.kc_rejected", "count"),
    "solve_rejected": ("assembly.solve_rejected", "count"),
    "bytes_read": ("modelio.bytes_read", "bytes"),
    "bytes_written": ("modelio.bytes_written", "bytes"),
}


class BenchmarkError(Exception):
    """The benchmark cannot produce a valid result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(env: dict) -> float:
    """Median wall time of `import msakit` in fresh interpreters, after one
    untimed import that leaves the byte-code caches warm."""
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchmarkError(f"import msakit failed: {proc.stderr.strip()[-500:]}")
        seconds, path = proc.stdout.split()[-2:]
        if not Path(path).resolve().is_relative_to(SRC):
            raise BenchmarkError(f"imported msakit from {path}, not from {SRC}")
        samples.append(float(seconds))
    return statistics.median(samples[1:])


def run_phase(workload, layers, seconds: float, tracers: list) -> tuple:
    """Whole rounds of operations until `seconds` have passed and every
    tracer has run as many rounds as the others. With two tracers the
    rounds run in the order A B B A A B ..., so traced and untraced rounds
    meet the same machine state and a steady drift in its speed cancels
    within every four rounds. Returns (rounds, elapsed seconds)."""
    rounds = []
    n = len(tracers)
    start = time.perf_counter()
    while True:
        k = len(rounds)
        tracer = tracers[(k + k // n) % n]
        workload.begin_round(1 + k)
        counts = workloads.new_counts()
        layers.use(tracer, counts)
        times, outputs = [], []
        for inp in workload.inputs:
            counts["attempted"] += 1
            t0 = time.perf_counter()
            with tracer.operation():
                out = workload.run(inp, tracer, counts)
            times.append(time.perf_counter() - t0)
            outputs.append(out)
        rounds.append({"tracer": tracer, "counts": counts, "times": times, "outputs": outputs})
        if len(rounds) % n == 0 and time.perf_counter() - start >= seconds:
            return rounds, time.perf_counter() - start


def steady_counts(rounds: list, label: str) -> None:
    first = rounds[0]["counts"]
    for k, r in enumerate(rounds[1:], start=1):
        counts = r["counts"]
        if counts != first:
            diff = {key: (first[key], counts[key]) for key in first if first[key] != counts[key]}
            raise BenchmarkError(f"{label}: round {k} repeats the same inputs as round 0 "
                                 f"but its counts differ: {diff}")


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "msakit" / "__init__.py").is_file():
        print(f"perfbench: no msakit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    env = child_env()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_s = measure_setup(env)
        import msakit
        if not Path(msakit.__file__).resolve().is_relative_to(SRC):
            raise BenchmarkError(f"imported msakit from {msakit.__file__}, not from {SRC}")
        problems = checks.self_test() + workloads.library_self_test(msakit)
        if problems:
            raise BenchmarkError("checker self-test failed: " + "; ".join(problems))

        workload = workloads.WORKLOADS[args.workload](msakit, args.seed, workdir, env)
        untraced = Tracer(enabled=False)
        layers = Layers(untraced, workloads.new_counts())
        layers.install(msakit)

        # One untimed warm-up operation; its inputs recur in every round.
        workload.begin_round(0)
        workload.run(workload.inputs[0], untraced, layers.counts)
        traced = Tracer(enabled=True)
        tracers = [untraced, traced] if args.trace else [untraced]
        rounds, elapsed = run_phase(workload, layers, args.seconds, tracers)
        layers.use(untraced, workloads.new_counts())  # the checks call msakit too

        problems = []
        for r in rounds:
            problems += workload.check(workload.inputs, r["outputs"])
        for tracer in tracers:
            label = "traced rounds" if tracer.enabled else "untraced rounds"
            steady_counts([r for r in rounds if r["tracer"] is tracer], label)
        nesting = traced.nesting_errors()
        if nesting:
            raise BenchmarkError(f"{len(nesting)} spans do not nest: " + "; ".join(nesting[:5]))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in problems[:20]:
        print(f"perfbench: check failed: {line}", file=sys.stderr)

    attempted = sum(r["counts"]["attempted"] for r in rounds)
    failed = sum(r["counts"]["failed"] for r in rounds)
    untraced_times = [t for r in rounds if r["tracer"] is untraced for t in r["times"]]

    if not args.trace:
        metrics = {
            "setup_s": setup_s,
            "analyses_per_s": attempted / elapsed,
            "analysis_ms_p50": 1e3 * statistics.median(untraced_times),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END
        summary = {"operations": attempted, "rounds": len(rounds), "elapsed_s": elapsed}
        if len(untraced_times) >= 100:
            summary["analysis_ms_p90"] = 1e3 * statistics.quantiles(untraced_times, n=10)[-1]
    else:
        traced_rounds = [r for r in rounds if r["tracer"] is traced]
        traced_times = [t for r in traced_rounds for t in r["times"]]
        ops = len(traced_times)
        self_times = traced.self_times()
        metrics, units = {}, {}
        for span, name in SPAN_METRICS.items():
            metrics[name] = self_times.get(span, 0.0) / ops
            units[name] = "s"
        per_round = traced_rounds[0]["counts"]
        for key, (name, unit) in COUNT_METRICS.items():
            metrics[name] = per_round[key] / per_round["attempted"]
            units[name] = unit
        untraced_op = statistics.fmean(untraced_times)
        metrics["trace.op_s"] = untraced_op
        metrics["trace.overhead_s"] = statistics.fmean(traced_times) - untraced_op
        units["trace.op_s"] = units["trace.overhead_s"] = "s"
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        traced.write(trace_path)
        summary = {"untraced_operations": len(untraced_times), "traced_operations": ops,
                   "trace_file": str(trace_path.relative_to(ROOT))}

    summary.update(workload=args.workload, seed=args.seed, attempted=attempted, failed=failed)
    for name, value in metrics.items():
        print(f"{name:34s} {value:16.6g} {units[name]}")
    print(json.dumps({"summary": summary}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
