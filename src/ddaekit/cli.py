"""Batch front end: analyze pencils, classify delay systems, run
simulations and delay sweeps, emit machine-readable reports.

Exit codes are a stable contract: 0 ok, 2 model errors, 3 ill-conditioned
analysis, 4 breakdown during simulation, 5 inadmissible history, 64 usage.
"""

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
import time

from . import models as model_zoo
from .errors import (DataError, DdaeError, IllConditioned,
                     InadmissibleHistory, SingularPencil, check_positive)
from .forcing import SymbolicSignal
from .lti import (LinearDdae, LtiDescriptor, classify_linear, delay_terms,
                  sf_model_from_linear)
from .pencil import DEFAULT_TOL, MatrixPencil, analyze
from .radau import STEPS_PER_SEGMENT, IntegrationOptions
from .sfdae import Classification, SfDdaeModel, classify
from .steps import (BROKE_DOWN, audit, plan_run, solve_itp, sweep_deviation,
                    sweep_reference, write_trajectory_csv)

EXIT_OK = 0
EXIT_MODEL = 2
EXIT_CONDITIONING = 3
EXIT_BREAKDOWN = 4
EXIT_INADMISSIBLE = 5
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _parse_params(pairs):
    params = {}
    for item in pairs or []:
        if "=" not in item:
            raise ValueError(f"--param expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"--param expects a finite value, got {item!r}")
        params[key.strip()] = value
    return params


def _parse_history(spec):
    """History flag format: ``poly:<c0,c1,...>;<c0,...>`` per component."""
    kind, _, body = spec.partition(":")
    if kind != "poly" or not body:
        raise ValueError(
            f"unsupported history spec {spec!r}; expected poly:c0,c1;c0,...")
    rows = [[float(c) for c in comp.split(",")] for comp in body.split(";")]
    return SymbolicSignal(poly=rows)


def _load_json_model(path):
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise DataError(f"{path}: a model file holds a JSON object, got "
                        f"{type(data).__name__}")
    kind = (LinearDdae if "A0" in data
            else LtiDescriptor if "B" in data or "C" in data
            else MatrixPencil)
    try:
        return kind.from_json(data)
    except KeyError as exc:
        raise DataError(
            f"{path}: {kind.__name__} model lacks key {exc}") from exc


def _model_file(name):
    """Whether --model names a file: a registry name always means the
    registry model, so a file of that name is read as ./name."""
    return name not in model_zoo.REGISTRY and (
        os.path.exists(name) or name.endswith(".json"))


def _resolve(args):
    name = args.model
    tau = getattr(args, "tau", None)
    if _model_file(name):
        if args.param or tau is not None:
            flag = "--param" if args.param else "--tau"
            raise DataError(f"{flag} does not apply to a model file: "
                            f"{name} holds all of its values")
        return _load_json_model(name), os.path.basename(name)
    params = _parse_params(args.param)
    if tau is not None:
        params["tau"] = tau
    entry = model_zoo.REGISTRY.get(name)
    if entry is None:
        known = ", ".join(sorted(model_zoo.REGISTRY))
        raise DdaeError(f"unknown model {name!r}; registry: {known}")
    return entry.make(params), name


def _overflow_message(args):
    """An overflow names the model and the flags that set its values."""
    flags = [f"--param {pair}" for pair in args.param or []]
    if isinstance(getattr(args, "tau", None), float):
        flags.append(f"--tau {args.tau:g}")
    return (f"model {args.model!r} overflows with "
            f"{' '.join(flags) or 'its own values'}")


def _check_out(args, suffixes=("",)):
    """The one --out rule, given the suffixes a command writes --out with:
    exit 64 when a path it writes is the model file, and DataError when
    --out names a missing directory, before anything is analysed or solved.
    """
    if not args.out:
        return
    if _model_file(args.model) and os.path.realpath(args.model) in {
            os.path.realpath(args.out + suffix) for suffix in suffixes}:
        sys.stderr.write(f"error: --out {args.out} would overwrite the model "
                         f"file {args.model}\n")
        raise SystemExit(EXIT_USAGE)
    directory = os.path.dirname(args.out)
    if directory and not os.path.isdir(directory):
        raise DataError(f"--out {args.out}: no directory {directory!r} to "
                        f"write into")


def _emit(data, out_path):
    # RFC 8259 has no inf or NaN: a summary writes either as null
    data = json.loads(json.dumps(data), parse_constant=lambda name: None)
    text = json.dumps(data, indent=2, allow_nan=False)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    print(text)


def cmd_analyze(args):
    obj, name = _resolve(args)
    _check_out(args)
    if isinstance(obj, MatrixPencil):
        pencil_obj = obj
    elif isinstance(obj, (LtiDescriptor, LinearDdae)):
        pencil_obj = obj.pencil
    else:
        raise DdaeError(f"model {name!r} is not a pencil or linear system")
    report = analyze(pencil_obj, args.tol)
    data = {"model": name, **report.to_json()}
    if isinstance(obj, LinearDdae) and report.regular:
        _, s = delay_terms(report.form, obj.A1, args.tol)
        data["classification"] = Classification(s).to_json()
    _emit(data, args.out)
    return EXIT_OK


def cmd_classify(args):
    obj, name = _resolve(args)
    _check_out(args)
    if isinstance(obj, SfDdaeModel):
        cls = classify(obj)
    elif isinstance(obj, LinearDdae):
        cls = classify_linear(obj, args.tol)
    else:
        raise DdaeError(f"model {name!r} has no delay structure to classify")
    _emit({"model": name, "classification": cls.to_json()}, args.out)
    return EXIT_OK


def _options_from(args):
    return IntegrationOptions(**{
        f.name: getattr(args, f.name) for f in dataclasses.fields(
            IntegrationOptions) if getattr(args, f.name) is not None})


def cmd_simulate(args):
    obj, name = _resolve(args)
    if isinstance(obj, LinearDdae):
        model = sf_model_from_linear(obj, args.tol)
    elif isinstance(obj, SfDdaeModel):
        model = obj
    else:
        raise DdaeError(f"model {name!r} is not simulatable")
    if args.T is None:
        sys.stderr.write("error: simulate needs --T\n")
        return EXIT_USAGE
    _check_out(args, (".json", ".csv"))
    if args.history:
        phi = _parse_history(args.history)
    elif model.default_history is not None:
        phi = model.default_history()
    else:
        raise DdaeError(f"model {name!r} has no default history; pass --history")

    opts = _options_from(args)
    started = time.perf_counter()
    try:
        traj = solve_itp(model, phi, args.T, opts)
    except InadmissibleHistory as exc:
        summary = {"model": name, "status": "InadmissibleHistory",
                   "residual_norm": exc.norm,
                   "runtime": time.perf_counter() - started}
        _emit(summary, f"{args.out}.json" if args.out else None)
        return EXIT_INADMISSIBLE
    runtime = time.perf_counter() - started

    audited = audit(traj, opts.audit_points)
    max_residual = float(audited[1].max())
    summary = {
        "model": name,
        "status": traj.status,
        "T": args.T,
        "tau": model.tau,
        "breakpoints": [float(b) for b in traj.breakpoints],
        "max_residual": max_residual,
        "audit_ok": max_residual <= opts.res_tol,
        "runtime": runtime,
        "stats": traj.stats,
    }
    if traj.status == BROKE_DOWN:
        summary["breakdown"] = {"segment": traj.breakdown_index,
                                "breakpoint": traj.breakdown_time,
                                "residual_norm": traj.breakdown_norm}
    if args.out:
        write_trajectory_csv(traj, f"{args.out}.csv", audited)
    _emit(summary, f"{args.out}.json" if args.out else None)
    return EXIT_BREAKDOWN if traj.status == BROKE_DOWN else EXIT_OK


def cmd_sweep(args):
    if not args.tau_list:
        sys.stderr.write("error: sweep needs a non-empty --tau list\n")
        return EXIT_USAGE
    if not all(math.isfinite(tau) and tau > 0 for tau in args.tau_list):
        sys.stderr.write("error: sweep delays must be finite and positive\n")
        return EXIT_USAGE
    if args.T is None:
        sys.stderr.write("error: sweep needs --T\n")
        return EXIT_USAGE
    check_positive("horizon T", args.T)
    entry = model_zoo.REGISTRY.get(args.model)
    if entry is None or entry.reference is None:
        sweepable = sorted(name for name, e in model_zoo.REGISTRY.items()
                           if e.reference)
        raise DdaeError(
            f"model {args.model!r} has no delay parameterization with a "
            f"reference; sweepable: {sweepable}")
    params = _parse_params(args.param)
    if "tau" in params:
        sys.stderr.write("error: sweep takes its delays from --tau, not "
                         "from --param tau=...\n")
        return EXIT_USAGE
    _check_out(args)
    reference = model_zoo.REGISTRY[entry.reference].make(params)
    opts = _options_from(args)
    # a run too long to solve fails the sweep, not just its row
    for tau in (reference.tau, *args.tau_list):
        plan_run(args.T, tau, opts.h)
    try:
        ref = sweep_reference(reference, args.T, opts)
    except (DdaeError, ValueError) as exc:
        # every delay is compared against the reference, so every row fails
        rows = [(tau, float("nan"), f"error: {exc}") for tau in args.tau_list]
    else:
        rows = []
        for tau in args.tau_list:
            try:
                _, dev = sweep_deviation(entry.make({**params, "tau": tau}),
                                         ref, args.T, opts)
                rows.append((tau, dev, "ok"))
            except (DdaeError, ValueError) as exc:
                rows.append((tau, float("nan"), f"error: {exc}"))
    lines = ["tau,deviation,status"]
    lines += [f"{tau:.12g},{dev:.12g},{status}" for tau, dev, status in rows]
    text = "\n".join(lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="ddae",
                     description="Delay DAE analysis and simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tau_flag=True):
        p.add_argument("--model", required=True,
                       help="registry name or JSON file path")
        p.add_argument("--param", action="append", metavar="K=V",
                       help="parameter override (repeatable)")
        p.add_argument("--tol", type=float, default=DEFAULT_TOL)
        p.add_argument("--out", help="output path (prefix for simulate)")
        if tau_flag:
            p.add_argument("--tau", type=float, help="delay override")

    p = sub.add_parser("analyze", help="pencil regularity and index report")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("classify", help="retarded/neutral/advanced type")
    common(p)
    p.set_defaults(func=cmd_classify)

    def integrator_flags(p):
        p.add_argument("--T", type=float, help="time horizon")
        p.add_argument("--h", type=float,
                       help="fixed step; default: residual-controlled, never "
                            f"finer than tau/{STEPS_PER_SEGMENT}")
        p.add_argument("--newton-tol", type=float)
        p.add_argument("--res-tol", type=float)
        p.add_argument("--max-newton", type=int)
        p.add_argument("--audit-points", type=int)

    p = sub.add_parser("simulate", help="method-of-steps run, CSV + summary")
    common(p)
    integrator_flags(p)
    p.add_argument("--history", help="history spec, e.g. poly:0;1,1")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="deviation vs a delay-free reference")
    common(p, tau_flag=False)
    integrator_flags(p)
    p.add_argument("--tau", dest="tau_list", metavar="T1,T2,...",
                   type=lambda s: [float(x) for x in s.split(",") if x],
                   default=[], help="comma-separated delay list")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None):
    level = os.environ.get("DDAE_LOG")
    if level:
        # a level's number, or a "Level ..." string for any other name
        level = logging.getLevelName(level.upper())
        logging.basicConfig(
            level=level if isinstance(level, int) else logging.INFO)
    try:
        # a usage error, in parsing or in a command's --out, exits 64
        args = build_parser().parse_args(argv)
        check_positive("tol", args.tol)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    except IllConditioned as exc:
        sys.stderr.write(f"ill-conditioned analysis: {exc}\n")
        return EXIT_CONDITIONING
    except SingularPencil as exc:
        sys.stderr.write(f"singular pencil: {exc}\n")
        return EXIT_MODEL
    except OverflowError:
        sys.stderr.write(f"model error: {_overflow_message(args)}\n")
        return EXIT_MODEL
    except (DdaeError, ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"model error: {exc}\n")
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())
