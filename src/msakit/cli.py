"""Command-line interface: analyze, check and navaro subcommands.

Results are JSON documents; errors go to stderr as single-line JSON records
and give a nonzero exit code.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import assembly, boundary, reference
from .errors import FormatError, ModelError
from .modelio import document_from_model, parse_model, serialize_model


def _error(record: dict) -> int:
    print(json.dumps(record), file=sys.stderr)
    return 1


def _write(path: str | None, payload: dict) -> None:
    text = json.dumps(payload, indent=2)
    if path:
        Path(path).write_text(text + "\n")
    else:
        print(text)


def _matrix(a) -> list:
    """Nested lists for JSON; non-finite sentinel entries become null."""
    a = np.asarray(a, dtype=float)
    return [[x if np.isfinite(x) else None for x in row] for row in a.tolist()]


def _analysis_payload(model, loads: dict) -> dict:
    """Cartesian stiffness, compliance and, when loaded, the full state."""
    system = assembly.assemble(model)
    result = assembly.cartesian_stiffness(system)
    diag = result.diagnostics
    payload: dict = {
        "cartesian_stiffness": _matrix(result.kc),
        "diagnostics": diag.as_dict(),
    }
    if diag.infinite:
        payload["compliance"] = None
        payload["compliance_pseudo_inverse"] = False
    elif diag.kc_rank < 6:
        payload["compliance"] = _matrix(np.linalg.pinv(result.kc))
        payload["compliance_pseudo_inverse"] = True
    else:
        payload["compliance"] = _matrix(np.linalg.inv(result.kc))
        payload["compliance_pseudo_inverse"] = False

    if loads:
        state = assembly.solve_loaded(system, loads)
        payload["state"] = {
            "deflections": {str(n): state.deflection_at(n).tolist() for n in system.nodes},
            "wrenches": {str(n): state.wrench_at(n).tolist() for n in system.nodes},
        }
        payload["support_reactions"] = {
            str(n): boundary.support_reaction(state, n).array.tolist()
            for n in state.support_nodes
        }
        load_norm = max((float(np.linalg.norm(w)) for w in loads.values()), default=0.0)
        payload["equilibrium_residual"] = boundary.equilibrium_residual(state)
        payload["equilibrium_relative"] = (
            payload["equilibrium_residual"] / load_norm if load_norm else 0.0)
        payload["residual"] = state.residual
    return payload


def _cmd_analyze(args) -> int:
    doc = parse_model(Path(args.model).read_text())
    model = doc.to_model()
    loads = doc.load_values()
    if args.load is not None:
        parts = [float(x) for x in args.load.split(",")]
        if len(parts) != 6:
            raise ModelError("--load needs six comma-separated numbers")
        loads[doc.end_effector] = np.array(parts)
    _write(args.out, _analysis_payload(model, loads))
    return 0


def _cmd_check(args) -> int:
    report = parse_model(Path(args.model).read_text()).to_model().check()
    print(report.summary())
    if report.mechanism_nodes:
        print(f"  mechanism nodes: {', '.join(map(str, report.mechanism_nodes))}")
    if report.self_stress:
        print(f"  states of self-stress: {report.self_stress}")
    for source, rows in report.rows_by_source.items():
        print(f"  {source}: {rows} rows")
    print(f"  row classes: {report.rows_by_kind}")
    if report.dangling:
        print(f"  dangling nodes: {report.dangling}")
    return 0 if report.well_posed else 1


def _navaro_params(path: str | None) -> tuple:
    """Params file handling; motor stiffness may be a sweep list."""
    if path is None:
        return reference.NavaroParams(), [None]
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ModelError("params file must hold a JSON object")
    sweep = data.pop("motor_stiffness", None)
    known = {f.name for f in reference.NavaroParams.__dataclass_fields__.values()}
    unknown = set(data) - known
    if unknown:
        raise ModelError(f"unknown NaVaRo parameters: {sorted(unknown)}")
    base = reference.NavaroParams(**data)
    if sweep is None:
        return base, [None]
    if isinstance(sweep, (int, float)):
        sweep = [float(sweep)]
    return base, [float(k) for k in sweep]


def _cmd_navaro(args) -> int:
    base, sweep = _navaro_params(args.params)
    out_dir = Path(args.out) if args.out else Path.cwd()
    out_dir.mkdir(parents=True, exist_ok=True)
    leg_system = assembly.assemble(reference.build_navaro_leg(base))
    leg_audit = {
        "equations": leg_system.shape[0],
        "unknowns": leg_system.shape[1],
        "blocks": leg_system.block_row_counts(),
    }
    for idx, ke in enumerate(sweep):
        params = base if ke is None else replace(base, motor_stiffness=ke)
        if args.leg_only:
            model = reference.build_navaro_leg(params)
        else:
            model = reference.build_navaro(params)
        doc = document_from_model(model)
        suffix = "" if len(sweep) == 1 else f"_{idx + 1}"
        mode = "leg" if args.leg_only else "full"
        model_path = out_dir / f"navaro_{mode}_model{suffix}.json"
        result_path = out_dir / f"navaro_{mode}_result{suffix}.json"
        model_path.write_text(serialize_model(doc) + "\n")
        payload = _analysis_payload(model, {})
        payload["leg_audit"] = leg_audit
        payload["motor_stiffness"] = params.motor_stiffness
        result_path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {model_path} and {result_path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="msakit",
        description="Manipulator stiffness analysis by constraint-based "
                    "matrix structural assembly.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="compute stiffness and deflections for a model file")
    p_analyze.add_argument("model", help="model document (JSON)")
    p_analyze.add_argument("--load", help="end-effector wrench fx,fy,fz,mx,my,mz")
    p_analyze.add_argument("--out", help="result file (default: stdout)")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_check = sub.add_parser("check", help="audit a model's equation accounting")
    p_check.add_argument("model", help="model document (JSON)")
    p_check.set_defaults(func=_cmd_check)

    p_nav = sub.add_parser("navaro", help="generate and analyze the built-in manipulator")
    p_nav.add_argument("--params", help="parameter file (JSON)")
    p_nav.add_argument("--leg-only", action="store_true", help="analyze a single leg")
    p_nav.add_argument("--out", help="output directory (default: cwd)")
    p_nav.set_defaults(func=_cmd_navaro)

    # argparse takes a value starting with '-' for an option, so a load whose
    # first component is negative must reach it as --load=<value>.
    argv = list(sys.argv[1:] if argv is None else argv)
    for k in range(len(argv) - 1, 0, -1):
        if argv[k - 1] == "--load":
            argv[k - 1:k + 1] = [f"--load={argv[k]}"]
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        return _error({"error": "io", "detail": str(exc)})
    except FormatError as exc:
        return _error({"error": "format", "path": exc.path, "detail": exc.reason})
    except ValueError as exc:
        return _error({"error": "model", "detail": str(exc)})


if __name__ == "__main__":
    sys.exit(main())
