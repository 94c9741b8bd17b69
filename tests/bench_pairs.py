"""Paired benchmark runs of two source trees, written to ``BENCH_<n>.json``.

    python tests/bench_pairs.py --base HEAD~1 --pairs 10 --seconds 10 \\
        --seed 5150 --out BENCH_<n>.json

The base tree is ``git archive <base>`` of this checkout, unpacked into a
temporary directory; the change tree is this checkout as it stands.  With
``--aa`` the change tree is a second unpacked copy of the base, so the
pairs measure this host's A/A spread on the same seed.  Each workload runs
``benchmarks/run.py --trace 0`` of each tree as it stands, in alternating
pairs: base then change, then change then base.

Per workload the result holds, for every end-to-end metric of
``BENCHMARK.json``: the median and quartiles of each tree's runs, the
change of the medians, and in how many pairs the change tree was better.
It also holds the seed, the base commit, the change tree's commit and
whether its ``git status --porcelain`` was empty, the ``env`` line of each
tree's first run and both trees' source digests.

Each metric's change-tree median is also compared with the same median in
the newest earlier ``BENCH_<n>.json`` of this checkout (the highest n below
that of ``--out``); a change beyond 10% either way is printed with a
``FLAG`` mark and recorded as ``flagged``.  That file may have used another
seed and run length, so the comparison is a trajectory, not a paired test.

The exit status is 1 when any run reads ``"correct": false`` or a failed
op, or ends without its result line.  pytest does not collect this file.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("hybrid-sim", "linear-export", "pencil-batch")
FLAG_CHANGE = 0.10


def git(*args):
    """Stripped stdout of one git command in this checkout."""
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          text=True).stdout.strip()


def bench_number(path):
    """n of a ``BENCH_<n>.json`` path, or None for any other name."""
    stem = path.stem.partition("BENCH_")[2]
    return int(stem) if path.suffix == ".json" and stem.isdigit() else None


def previous_bench(out):
    """The newest ``BENCH_<n>.json`` in this checkout's root with n below
    that of ``out`` (any n when ``out`` is not such a file), or None."""
    limit = (out and bench_number(out)) or float("inf")
    found = [(n, path) for path in ROOT.glob("BENCH_*.json")
             if (n := bench_number(path)) is not None and n < limit]
    return max(found)[1] if found else None


def against_previous(summary, previous):
    """Per metric of one workload's summary: the previous file's median of
    the change tree, this run's change of it and whether it is flagged."""
    out = {}
    for name, m in summary.items():
        old = previous.get(name, {}).get("change", {}).get("median")
        rel = m["change"]["median"] / old - 1.0 if old else None
        out[name] = {"median": old, "relative_change": rel,
                     "flagged": rel is not None and abs(rel) > FLAG_CHANGE}
    return out


def unpack(ref, into):
    """``git archive ref`` of this checkout, unpacked into ``into``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", ref],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return into


def run(tree, workload, seed, seconds):
    """One ``benchmarks/run.py`` run of ``tree``: (env, result), either None
    when the run printed no such line."""
    proc = subprocess.run(
        [sys.executable, str(tree / "benchmarks" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], capture_output=True, text=True, cwd=tree)
    env = result = None
    for line in proc.stdout.splitlines():
        if line.startswith("env "):
            env = json.loads(line[4:])
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr)
    return env, result


def quartiles(values):
    """(q1, median, q3) of a list of one or more values."""
    if len(values) == 1:
        return values * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def summarize(metrics, base, change):
    """Per end-to-end metric: both trees' quartiles, the change of the
    medians and the pairs the change tree won."""
    out = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        a = [r["metrics"][name]["value"] for r in base]
        b = [r["metrics"][name]["value"] for r in change]
        qa, qb = quartiles(a), quartiles(b)
        out[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "base": {"q1": qa[0], "median": qa[1], "q3": qa[2]},
            "change": {"q1": qb[0], "median": qb[1], "q3": qb[2]},
            "relative_change": qb[1] / qa[1] - 1.0 if qa[1] else None,
            "wins": sum((y > x) if higher else (y < x)
                        for x, y in zip(a, b)),
            "pairs": len(a)}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD",
                        help="git ref of the base tree")
    parser.add_argument("--aa", action="store_true",
                        help="pair the base tree with a copy of itself")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="a workload to run (repeatable; default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path,
                        help="the BENCH_<n>.json to write")
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    ok = True
    sha = git("rev-parse", args.base)
    previous = previous_bench(args.out)
    report = {"base": args.base, "base_sha": sha,
              "change": "A/A copy" if args.aa else "working tree",
              "change_sha": sha if args.aa else git("rev-parse", "HEAD"),
              "change_clean": args.aa or git("status", "--porcelain") == "",
              "previous": previous and previous.name,
              "seed": args.seed, "pairs": args.pairs,
              "seconds": args.seconds, "workloads": {}}
    previous = json.loads(previous.read_text())["workloads"] if previous \
        else {}
    with tempfile.TemporaryDirectory() as tmp:
        base = unpack(args.base, Path(tmp) / "base")
        change = unpack(args.base, Path(tmp) / "copy") if args.aa else ROOT
        for workload in args.workload or WORKLOADS:
            pairs, envs = [], {}
            for i in range(args.pairs):
                pair = {}
                for side in ("base", "change")[::1 if i % 2 == 0 else -1]:
                    env, result = run(base if side == "base" else change,
                                      workload, args.seed, args.seconds)
                    envs.setdefault(side, env)
                    if not (result is not None and result.get("correct")
                            is True and result.get("failed") == 0):
                        ok = False
                        print(f"{workload} {side} pair {i + 1}: incorrect "
                              f"or failed run: " + json.dumps(
                                  result and {k: result.get(k) for k in (
                                      "correct", "attempted", "failed")}))
                        continue
                    pair[side] = result
                    values = result["metrics"]
                    print(f"{workload} {side} pair {i + 1}: " + ", ".join(
                        f"{m['name']} {values[m['name']]['value']:.4g}"
                        for m in metrics), flush=True)
                if len(pair) == 2:
                    pairs.append(pair)
            if not pairs:
                continue
            summary = summarize(metrics, [p["base"] for p in pairs],
                                [p["change"] for p in pairs])
            trajectory = against_previous(
                summary, previous.get(workload, {}).get("metrics", {}))
            report["workloads"][workload] = {
                "env": envs,
                "source_digest": {side: (env or {}).get("source_digest")
                                  for side, env in envs.items()},
                "metrics": summary, "previous": trajectory}
            for name, m in summary.items():
                rel = m["relative_change"]
                print(f"  {workload} {name}: {m['base']['median']:.4g} -> "
                      f"{m['change']['median']:.4g} ("
                      + ("n/a" if rel is None else f"{rel:+.1%}")
                      + f"), better in {m['wins']}/{m['pairs']}")
                old = trajectory[name]
                if old["relative_change"] is not None:
                    print(f"    against {report['previous']}: "
                          f"{old['median']:.4g} -> {m['change']['median']:.4g}"
                          f" ({old['relative_change']:+.1%})"
                          + (" FLAG" if old["flagged"] else ""))
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
