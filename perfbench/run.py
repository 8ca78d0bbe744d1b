#!/usr/bin/env python3
"""Build and run the Achilles benchmark, record runs, compare recordings.

One run, the interface BENCHMARK.json's "command" names (run from the root
of a checkout; builds perfbench/bench.exe and bin/achilles_cli.exe first):

    python3 perfbench/run.py --workload fsp-seq --seed 1 --seconds 30 --trace 0

The last line on stdout is the run's JSON result. Progress, the build log
and a readable table go to stderr.

Record every workload (10 untraced runs each, seeds 1..10, interleaved
across workloads, then one traced run each) into a results file:

    python3 perfbench/run.py --record perfbench/results/NAME.json

Compare two recordings, per workload and end-to-end metric:

    python3 perfbench/run.py --compare OLD.json NEW.json

Check that a recording is steady enough to compare against:

    python3 perfbench/run.py --check perfbench/results/NAME.json
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH_EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
CLI_EXE = os.path.join("_build", "default", "bin", "achilles_cli.exe")
WORKDIR = ".perfbench"
# Untraced runs per workload in a recording: --compare pairs them by seed
# and needs ten pairs to call a metric improved.
RUNS = 10


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    missing = [p for p in ("dune-project", "lib", "bin")
               if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail("no Achilles sources next to the benchmark (missing %s)"
             % ", ".join(missing))
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    # The shared dune cache lives outside the checkout: keep it off.
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", ".", "./perfbench/bench.exe",
                        "./bin/achilles_cli.exe"],
                       cwd=ROOT, env=env, stdout=sys.stderr)
    if r.returncode != 0:
        fail("build failed", r.returncode)


def validate(result, spec, trace):
    """The result line must carry exactly the metrics BENCHMARK.json names."""
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        extra = sorted(set(got) - set(want))
        absent = sorted(set(want) - set(got))
        units = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        fail("metrics differ from BENCHMARK.json: extra %s, absent %s, "
             "wrong unit %s" % (extra, absent, units), 3)
    for key in ("correct", "attempted", "failed"):
        if key not in result:
            fail("result lacks " + key, 3)


def run_one(spec, workload, seed, seconds, trace):
    """One run of bench.exe; returns its validated result object."""
    cmd = [BENCH_EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--achilles", CLI_EXE, "--workdir", WORKDIR]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail("%s seed %d exited with %d" % (workload, seed, r.returncode), 1)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("unparsable result line: " + lines[-1], 1)
    validate(result, spec, trace)
    return result


# --- statistics shared by --record, --compare and --check -------------------

def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def summarize(runs, spec):
    out = {}
    for m in spec["end_to_end"]:
        values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = quartiles(values)
        out[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                          "spread": spread(values), "n": len(values)}
    return out


def worse_by(old, new, better):
    """Relative change of new against old, positive when new is worse."""
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def mark(old_values, new_values, metric):
    """improved / worse / unresolved / same for one metric of one workload.

    worse: the new median is worse than the old by more than the bound.
    improved: the new side wins at least 9 of 10 seed pairs and its median
    is better by more than the old side's own spread.
    unresolved: either side spreads wider than the bound, unless every new
    run beats (or loses to) every old run.
    """
    bound, better = metric["bound"], metric["better"]
    _, old_med, _ = quartiles(old_values)
    _, new_med, _ = quartiles(new_values)
    delta = worse_by(old_med, new_med, better)
    wide = max(spread(old_values), spread(new_values)) > bound

    def beats(a, b):
        return a < b if better == "lower" else a > b

    all_better = all(beats(n, o) for n in new_values for o in old_values)
    all_worse = all(beats(o, n) for n in new_values for o in old_values)
    pairs = list(zip(old_values, new_values))
    wins = sum(1 for o, n in pairs if beats(n, o))
    if delta > bound and (not wide or all_worse):
        return "worse"
    if (pairs and wins >= 0.9 * len(pairs) and -delta > spread(old_values)
            and (not wide or all_better)):
        return "improved"
    if wide and not (all_better or all_worse):
        return "unresolved"
    return "same"


def values_of(recording, workload, name):
    return [r["result"]["metrics"][name]["value"]
            for r in sorted(recording["runs"][workload],
                            key=lambda r: r["seed"])]


# --- modes --------------------------------------------------------------------

def record(spec, path, seconds):
    workloads = [w["name"] for w in spec["workloads"]]
    rec = {"seconds": seconds,
           "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                    "system": platform.system()},
           "runs": {w: [] for w in workloads}, "traced": {}}
    for seed in range(1, RUNS + 1):
        for w in workloads:
            print("perfbench: %s seed %d" % (w, seed), file=sys.stderr)
            rec["runs"][w].append(
                {"seed": seed,
                 "result": run_one(spec, w, seed, seconds, False)})
    for w in workloads:
        print("perfbench: %s traced" % w, file=sys.stderr)
        rec["traced"][w] = run_one(spec, w, 1, seconds, True)
    rec["summary"] = {w: summarize(rec["runs"][w], spec) for w in workloads}
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        json.dump(rec, f, indent=1, sort_keys=True)
        f.write("\n")
    failed = [(w, r["seed"]) for w in workloads for r in rec["runs"][w]
              if not r["result"]["correct"]]
    failed += [(w, "traced") for w in workloads
               if not rec["traced"][w]["correct"]]
    if failed:
        fail("runs with failed checks: %s" % failed, 1)
    return rec


def check(spec, rec):
    """Every end-to-end spread within its bound (a third of it is the aim)."""
    ok = True
    for w in rec["runs"]:
        for m in spec["end_to_end"]:
            s = spread(values_of(rec, w, m["name"]))
            verdict = "ok"
            if s > m["bound"]:
                verdict, ok = "TOO WIDE", False
            elif s > m["bound"] / 3:
                verdict = "wide"
            print("%-10s %-18s spread %6.2f%%  bound %5.1f%%  %s"
                  % (w, m["name"], 100 * s, 100 * m["bound"], verdict))
    return ok


def compare(spec, old, new):
    worse = False
    print("%-10s %-18s %32s %32s %8s  %s" % ("workload", "metric",
          "old median [q1, q3]", "new median [q1, q3]", "change", "mark"))
    for w in [w["name"] for w in spec["workloads"]]:
        if w not in old["runs"] or w not in new["runs"]:
            print("%-10s missing from one side" % w)
            continue
        for m in spec["end_to_end"]:
            ov, nv = values_of(old, w, m["name"]), values_of(new, w, m["name"])
            oq, nq = quartiles(ov), quartiles(nv)
            verdict = mark(ov, nv, m)
            worse = worse or verdict == "worse"
            print("%-10s %-18s %32s %32s %+7.2f%%  %s" % (
                w, m["name"],
                "%.4g [%.4g, %.4g]" % (oq[1], oq[0], oq[2]),
                "%.4g [%.4g, %.4g]" % (nq[1], nq[0], nq[2]),
                100 * (nq[1] - oq[1]) / abs(oq[1]), verdict))
    return not worse


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", metavar="FILE")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    ap.add_argument("--check", metavar="FILE")
    args = ap.parse_args()
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]

    if args.compare:
        old, new = (json.load(open(p)) for p in args.compare)
        sys.exit(0 if compare(spec, old, new) else 1)
    if args.check:
        sys.exit(0 if check(spec, json.load(open(args.check))) else 1)
    names = [w["name"] for w in spec["workloads"]]
    if args.record:
        build()
        rec = record(spec, args.record, seconds)
        sys.exit(0 if check(spec, rec) else 1)
    if args.workload not in names:
        fail("--workload must be one of " + ", ".join(names))
    build()
    result = run_one(spec, args.workload, args.seed, seconds, args.trace == 1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
