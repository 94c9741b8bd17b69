"""ddaekit benchmark: one seeded workload per invocation.

    python3 benchmarks/run.py --workload hybrid-sim --seed 1 --seconds 36 --trace 0

Workloads: hybrid-sim, linear-export, pencil-batch (see workloads.py).  The
run happens in one process with BLAS pinned to one thread.  The ops run
back to back (closed loop, one client) for --seconds and every output is
checked.  Set-up time is the median over several fresh interpreters, each
timed from launch until it has imported ddaekit and built the seeded
inputs; they start at even intervals between the ops.  The last line of
stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced ops on the same inputs and reports the per-layer metrics from
the spans (tracing.py), the tracing overhead, and the share of op time no
layer span covers.  A traced run also checks that the deterministic counts
(calls per span, steps, Newton iterations, halvings, audit points) repeat
exactly, within the run and against earlier runs of the same code and
seed, and fails loudly when they do not.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

# Set before numpy is imported; the probes inherit it.
BLAS_THREADS = {var: "1" for var in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 7
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)

def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help="internal: one set-up measurement, then exit")
    return p.parse_args(argv)


def _probe(args):
    """Body of one fresh set-up interpreter."""
    t0 = time.perf_counter()
    import ddaekit.cli  # noqa: F401  (the import users pay on every call)
    import_s = time.perf_counter() - t0
    import workloads
    workdir = WORK / f"probe-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.prepare(workdir)
    print(json.dumps({"import_s": import_s}), flush=True)
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


def _setup_probe(args):
    """One fresh set-up interpreter: (wall seconds from launch to ready,
    import seconds)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT) as proc:
        line = proc.stdout.readline()
        wall = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=120)
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return wall, json.loads(line)["import_s"]


def _run_op(wl, item, tracer):
    record = {"item": item, "traced": tracer is not None}
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = wl.call(item)
            record["seconds"] = time.perf_counter() - t0
        else:
            result, record["seconds"] = tracer.run_op(
                len(tracer.op_stats), lambda: wl.call(item))
    except Exception as exc:  # an op that raises is a failed op
        record["seconds"] = time.perf_counter() - t0
        record["problems"] = [f"{type(exc).__name__}: {exc}"]
        record["traceback"] = traceback.format_exc()
        return record
    record["problems"] = wl.check(item, result)
    return record


class OpLog:
    """What a run keeps of its ops: op times, and the items of traced ops,
    in flat arrays; failed ops as counts plus the first few in full.  It
    takes a few bytes per op, so peak_rss_mb stays the program's figure
    and does not grow with the number of ops a faster program fits in."""

    KEEP_FAILURES = 5

    def __init__(self):
        self.untraced = array("d")
        self.traced = array("d")
        self.traced_items = array("q")
        self.failed = 0
        self.ill_conditioned = 0
        self.failures = []

    def add(self, record):
        if record["traced"]:
            self.traced.append(record["seconds"])
            self.traced_items.append(record["item"])
        else:
            self.untraced.append(record["seconds"])
        if record["problems"]:
            self.failed += 1
            self.ill_conditioned += any(p.startswith("IllConditioned")
                                        for p in record["problems"])
            if len(self.failures) < self.KEEP_FAILURES:
                self.failures.append(record)

    def __len__(self):
        return len(self.untraced) + len(self.traced)


def _measure(wl, seconds, tracer, probe):
    """Closed loop for ``seconds``: a round is one op, or in a traced run an
    untraced op followed by the same item traced.  A round starts only if
    the average round so far still fits in the time left.  The set-up
    probes are spread evenly over the loop, between rounds and outside its
    clock, so that they sample the same stretch of time as the ops.
    Returns the op log and the probe samples."""
    log, setup = OpLog(), []
    minimum = 2 if tracer is not None else wl.min_rounds
    begin = time.perf_counter()
    probing = 0.0
    for rounds, item in enumerate(wl.schedule(tracer is not None)):
        elapsed = time.perf_counter() - begin - probing
        if rounds >= minimum and elapsed * (rounds + 1) / rounds > seconds:
            break
        if len(setup) < SETUP_PROBES and (
                elapsed >= len(setup) * seconds / SETUP_PROBES):
            t0 = time.perf_counter()
            setup.append(probe())
            probing += time.perf_counter() - t0
        log.add(_run_op(wl, item, None))
        if tracer is not None:
            log.add(_run_op(wl, item, tracer))
    while len(setup) < SETUP_PROBES:
        setup.append(probe())
    return log, setup


def _tail(times):
    """Highest ladder percentile with at least ten samples beyond it, or
    the maximum when there are too few samples for any."""
    n = len(times)
    usable = [q for q in TAIL_LADDER if n * (1.0 - q / 100.0) >= 10.0]
    if not usable:
        return max(times), "max"
    import numpy as np
    return float(np.percentile(times, usable[-1])), f"p{usable[-1]:g}"


def _end_to_end(wl, log, setup):
    """name -> (value, unit, note)."""
    times = log.untraced
    tail, tail_label = _tail(times)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(w for w, _ in setup), "s", None),
        "op_s.p50": (statistics.median(times), "s", None),
        "op_s.tail": (tail, "s", f"{tail_label} of {len(times)} ops"),
        "throughput": (wl.work_per_op * len(times) / sum(times), "work/s",
                       "realtime_factor (model-s per wall-s)"
                       if wl.work_unit == "model-s" else "pencils_per_s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB", None),
    }


def _per_layer(wl, log, tracer, setup):
    """name -> (value, unit, the end-to-end metric it should move and on
    which workload), and the self-time share of each layer.  Throughput is
    the realtime factor on the simulations and pencils per second on
    pencil-batch."""
    stats = tracer.op_stats
    n = len(stats)
    calls, incl, own, counters = {}, {}, {}, {}
    for s in stats:
        for name, (c, i, o) in s["spans"].items():
            calls[name] = calls.get(name, 0) + c
            incl[name] = incl.get(name, 0.0) + i
            own[name] = own.get(name, 0.0) + o
        for key, value in s["counters"].items():
            if key != "audit_max_residual":
                counters[key] = counters.get(key, 0) + value

    def per_op(table, name):
        return table.get(name, 0) / n

    def ratio(a, b, scale=1.0):
        return a * scale / b if b else 0.0

    steps = counters.get("steps", 0)
    halvings = counters.get("halvings", 0)
    dense_calls = (calls.get("radau.dense_eval.solve", 0)
                   + calls.get("radau.dense_eval.audit", 0))
    dense_s = (incl.get("radau.dense_eval.solve", 0.0)
               + incl.get("radau.dense_eval.audit", 0.0))
    items = log.traced_items
    sim = "throughput (hybrid-sim)"
    sims = "throughput (hybrid-sim, linear-export)"
    export = "op_s.p50 (linear-export)"
    batch = "throughput, op_s.p50 (pencil-batch)"
    trust = "trust level, not a speed (linear-export)"
    m = {
        "cli.import_s": (statistics.median(i for _, i in setup), "s",
                         "setup_s (all workloads)"),
        "cli.self_s": (per_op(own, "cli.main"), "s",
                       "op_s.p50 (hybrid-sim, linear-export)"),
        "steps.solve_s": (per_op(incl, "steps.solve"), "s", sim),
        "steps.segments": (counters.get("segments", 0) / n, "count", sim),
        "steps.audit_s": (per_op(incl, "steps.audit"), "s", export),
        "steps.audit_calls": (per_op(calls, "steps.audit"), "count", export),
        "steps.export_self_s": (per_op(own, "steps.export"), "s", export),
        "steps.evaluate_calls": (per_op(calls, "steps.evaluate"), "count",
                                 export),
        "steps.evaluate_us": (ratio(incl.get("steps.evaluate", 0.0),
                                    calls.get("steps.evaluate", 0), 1e6),
                              "us", export),
        "steps.audit_max_residual": (max(s["counters"]["audit_max_residual"]
                                         for s in stats), "1", trust),
        "steps.audit_over_tol": (ratio(counters.get("audit_over_tol", 0),
                                       counters.get("audit_points", 0)),
                                 "ratio", trust),
        "radau.segment_s": (per_op(incl, "radau.segment"), "s", sim),
        "radau.self_s": (per_op(own, "radau.segment"), "s", sim),
        "radau.us_per_step": (ratio(incl.get("radau.segment", 0.0), steps,
                                    1e6), "us", sim),
        "radau.steps": (steps / n, "count", sims),
        "radau.newton_iters": (counters.get("newton_iterations", 0) / n,
                               "count", sims),
        "radau.newton_per_step": (ratio(counters.get("newton_iterations", 0),
                                        steps), "iters/step", sims),
        "radau.halvings": (halvings / n, "count", sims),
        "radau.step_accept_ratio": (ratio(steps, steps + halvings), "ratio",
                                    sims),
        "radau.lag_calls": (per_op(calls, "radau.lags"), "count", sim),
        "radau.lag_s": (per_op(incl, "radau.lags"), "s", sim),
        "radau.dense_eval_calls.solve": (
            per_op(calls, "radau.dense_eval.solve"), "count", sim),
        "radau.dense_eval_calls.audit": (
            per_op(calls, "radau.dense_eval.audit"), "count", export),
        "radau.dense_eval_us": (ratio(dense_s, dense_calls, 1e6), "us", sims),
        "sfdae.residual_calls": (per_op(calls, "sfdae.residual"), "count",
                                 sim),
        "sfdae.residual_s": (per_op(incl, "sfdae.residual"), "s", sim),
        "models.jacobian_calls": (per_op(calls, "models.jacobian"), "count",
                                  sim),
        "models.jacobian_s": (per_op(incl, "models.jacobian"), "s", sim),
        "sfdae.calls_per_step": (
            ratio(calls.get("sfdae.residual", 0)
                  + calls.get("models.jacobian", 0), steps), "calls/step",
            sim),
        "forcing.eval_calls": (per_op(calls, "forcing.eval"), "count",
                               "throughput (linear-export)"),
        "forcing.eval_s": (per_op(incl, "forcing.eval"), "s",
                           "throughput (linear-export)"),
        "lti.sf_wrap_s": (per_op(incl, "lti.sf_wrap"), "s", export),
        "lti.pair_s": (per_op(own, "lti.pair"), "s",
                       "throughput (pencil-batch)"),
        "pencil.is_regular_calls": (per_op(calls, "pencil.is_regular"),
                                    "count", batch),
        "pencil.is_regular_s": (per_op(incl, "pencil.is_regular"), "s",
                                batch),
        "pencil.weierstrass_calls": (per_op(calls, "pencil.weierstrass"),
                                     "count", batch),
        "pencil.weierstrass_s": (per_op(incl, "pencil.weierstrass"), "s",
                                 batch),
        "pencil.us_per_pencil": (ratio(incl.get("pencil.analyze", 0.0),
                                       calls.get("pencil.analyze", 0), 1e6),
                                 "us", batch),
        "pencil.ill_conditioned": (log.ill_conditioned / len(log), "ratio",
                                   "failed ops (pencil-batch)"),
        "pencil.regular_ratio": (
            ratio(sum(wl.regular(i) is True for i in items), len(items)),
            "ratio", "input property (pencil-batch)"),
        "trace.overhead": (ratio(sum(log.traced), sum(log.untraced)) - 1.0,
                           "ratio", "traced over untraced op time, minus one"),
        "trace.remainder_share": (ratio(own.get("bench.op", 0.0),
                                        incl.get("bench.op", 0.0)), "ratio",
                                  "share of op time outside every layer "
                                  "span"),
    }
    # Self time per layer, as a share of traced op time: the layers plus
    # the remainder ("bench") add up to one.
    layers = {}
    for name, value in own.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + value
    total = incl.get("bench.op", 0.0)
    shares = {k: ratio(v, total) for k, v in sorted(layers.items())}
    return m, shares


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "ddaekit").glob("*.py")) + sorted(
            HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _check_counts(args, log, tracer, digest):
    """Deterministic counts must repeat exactly: for every item traced more
    than once in this run, and against the counts an earlier run of the
    same code and seed stored.  Returns a list of mismatches."""
    from tracing import deterministic_counts
    seen, bad = {}, []
    for item, stats in zip(log.traced_items, tracer.op_stats):
        counts = deterministic_counts(stats)
        key = str(item)
        if key in seen and seen[key] != counts:
            bad.append(f"item {key}: counts differ between two traced ops")
        seen.setdefault(key, counts)
    store = WORK / f"counts-{args.workload}-{args.seed}.json"
    try:
        earlier = json.loads(store.read_text())
    except (OSError, ValueError):
        earlier = {}
    if earlier.get("digest") == digest:
        for key, counts in earlier["items"].items():
            if key in seen and seen[key] != counts:
                bad.append(f"item {key}: counts differ from an earlier run")
        seen = {**earlier["items"], **seen}
    store.write_text(json.dumps({"digest": digest, "items": seen}))
    return bad


def _git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _environment(args, digest):
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "git_sha": _git_sha(), "source_digest": digest,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "blas_threads": BLAS_THREADS}


def main(argv=None):
    args = _parse(argv)
    os.environ.update(BLAS_THREADS)
    if not (SRC / "ddaekit" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark: no package sources at {SRC}; run it "
                         f"from a full checkout of the repository\n")
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    if args.probe:
        return _probe(args)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"benchmark: unknown workload {args.workload!r}; "
                         f"known: {sorted(workloads.WORKLOADS)}\n")
        return 64
    WORK.mkdir(exist_ok=True)

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.prepare(workdir)
    wl.label()
    wl.warmup()
    tracer = None
    if args.trace:
        import checkers
        from tracing import Tracer
        tracer = Tracer(checkers.RES_TOL)
    log, setup = _measure(wl, args.seconds, tracer,
                          lambda: _setup_probe(args))
    shutil.rmtree(workdir, ignore_errors=True)

    digest = _source_digest()
    print("env " + json.dumps(_environment(args, digest)))
    for op in log.failures:
        sys.stderr.write(f"failed op (item {op['item']}): "
                         f"{'; '.join(op['problems'])}\n"
                         f"{op.get('traceback', '')}")
    print(f"{args.workload}: {len(log)} ops, {log.failed} failed, "
          f"fail_ratio {log.failed / len(log):.6g}")
    mismatches = []
    if tracer is None:
        metrics = _end_to_end(wl, log, setup)
    else:
        metrics, shares = _per_layer(wl, log, tracer, setup)
        print("self-time share by layer: " + ", ".join(
            f"{k} {v:.4f}" for k, v in shares.items()))
        if tracer.missing:
            print("not traced (absent): " + ", ".join(tracer.missing))
        tracer.save(WORK / f"spans-{args.workload}.npz")
        mismatches = _check_counts(args, log, tracer, digest)
        for line in mismatches:
            sys.stderr.write(f"DETERMINISM FAILURE: {line}\n")
    prefix = "target: " if tracer is not None else ""
    for name, (value, unit, note) in metrics.items():
        note = f"  ({prefix}{note})" if note else ""
        print(f"  {name} = {value:.6g} {unit}{note}")
    correct = not log.failed and not mismatches
    print(json.dumps({
        "correct": correct, "attempted": len(log), "failed": log.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()}}))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
