#!/usr/bin/env python3
"""qrel benchmark entry point.

One run of one workload (the entry point BENCHMARK.json names):

    python3 perfbench/run.py --workload exact_enum --seed 1 --seconds 10 --trace 0

builds perfbench/ (and with it the repository's src/) into
.bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench), runs
qrel_perfbench from the repository root and passes its result through:
the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

Other modes, for people working on the benchmark or on a change; they
run for BENCHMARK.json's run_seconds:

    run.py collect --workload W --seeds 1-10 [--trace 0|1] --out A.jsonl
    run.py compare A.jsonl B.jsonl      # base A against change B
    run.py selfcheck --workload W --seed N
    run.py refs                         # rewrite perfbench/refs/*.txt
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["exact_enum", "sample_fptras", "scale_join", "serve_mix"]
# Counts that must repeat exactly across two traced runs of one seed.
EXACT_COUNTS = [
    "core.worlds",
    "propositional.kl_samples",
    "logic.ground_terms",
    "lifted.plan_ops",
    "datalog.eval_nodes",
    "net.replay_cache_hits",
    "net.replay_cache_misses",
]
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR")
    base = Path(base) if base else Path(".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures and builds qrel_perfbench; returns its path or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: the qrel sources (src/) are not in", ROOT)
        return None
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "qrel_perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build step failed:", " ".join(step))
            return None
    binary = out / "qrel_perfbench"
    return binary if binary.is_file() else None


def run_once(binary, workload, seed, seconds, trace):
    """Runs one benchmark run; returns (exit code, result dict or None)."""
    work = build_dir() / "run"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--refs", str(HERE / "refs"), "--work-dir", str(work)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out after", RUN_TIMEOUT_S, "s")
        return 3, None
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    for line in lines[:-1]:
        log(line)
    return proc.returncode, result


def record(path, workload, seed, trace, result):
    entry = {"workload": workload, "seed": seed, "trace": trace}
    entry.update(result)
    with open(path, "a") as f:
        f.write(json.dumps(entry) + "\n")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def cmd_run(argv):
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    binary = build()
    if binary is None:
        return 2
    code, result = run_once(binary, args.workload, args.seed, args.seconds,
                            args.trace)
    if result is None:
        return code or 2
    print(json.dumps(result), flush=True)
    return code


def cmd_collect(argv):
    p = argparse.ArgumentParser(prog="run.py collect")
    p.add_argument("--workload", required=True, action="append",
                   choices=WORKLOADS)
    p.add_argument("--seeds", required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    seconds = load_benchmark()["run_seconds"]
    binary = build()
    if binary is None:
        return 2
    status = 0
    for workload in args.workload:
        for seed in parse_seeds(args.seeds):
            code, result = run_once(binary, workload, seed, seconds,
                                    args.trace)
            if result is None or code:
                log("perfbench:", workload, "seed", seed, "exit", code)
                status = 1
            if result is not None:
                record(args.out, workload, seed, args.trace, result)
    return status


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def load_results(path):
    """Result lines grouped by workload; traced runs form their own group."""
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                entry = json.loads(line)
                group = entry["workload"] + (" traced" if entry["trace"] else "")
                runs.setdefault(group, []).append(entry)
    return runs


def summary(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def cmd_compare(argv):
    p = argparse.ArgumentParser(prog="run.py compare")
    p.add_argument("base")
    p.add_argument("change")
    args = p.parse_args(argv)
    spec = load_benchmark()
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = load_results(args.base), load_results(args.change)
    exceeded = False
    print("%-20s %-32s %-36s %-36s %s" % (
        "workload", "metric", "base median [q1, q3]",
        "change median [q1, q3]", "change/base"))
    for workload in sorted(set(base) | set(change)):
        a_runs, b_runs = base.get(workload, []), change.get(workload, [])
        if not a_runs or not b_runs:
            print("%-20s only on one side" % workload)
            continue
        names = [n for n in metrics
                 if all(n in r["metrics"] for r in a_runs + b_runs)]
        for name in names:
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            aq1, am, aq3 = summary(a)
            bq1, bm, bq3 = summary(b)
            unit = metrics[name]["unit"]
            ratio = "x%.4f of %.6g %s" % (bm / am, am, unit) if am else "base 0"
            verdict = ""
            bound = metrics[name].get("bound")
            if bound is not None and am:
                worse = (bm - am) / am
                if metrics[name]["better"] == "higher":
                    worse = -worse
                if worse > bound:
                    verdict = "  WORSE than bound %.0f%%" % (bound * 100)
                    exceeded = True
                elif (aq3 - aq1) / am > bound:
                    verdict = "  unresolved: base spread exceeds bound"
            print("%-20s %-32s %-36s %-36s %s%s" % (
                workload, name,
                "%.6g [%.6g, %.6g]" % (am, aq1, aq3),
                "%.6g [%.6g, %.6g]" % (bm, bq1, bq3), ratio, verdict))
    return 1 if exceeded else 0


def cmd_selfcheck(argv):
    p = argparse.ArgumentParser(prog="run.py selfcheck")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    seconds = load_benchmark()["run_seconds"]
    binary = build()
    if binary is None:
        return 2
    runs = []
    for _ in range(2):
        code, result = run_once(binary, args.workload, args.seed, seconds, 1)
        if result is None or code:
            log("perfbench: traced run failed with exit", code)
            return 1
        runs.append(result["metrics"])
    status = 0
    for name in EXACT_COUNTS:
        first, second = runs[0][name]["value"], runs[1][name]["value"]
        same = first == second
        print("%-28s %14.17g %14.17g %s" % (name, first, second,
                                            "same" if same else "DIFFERENT"))
        status |= 0 if same else 1
    return status


def cmd_refs(argv):
    argparse.ArgumentParser(prog="run.py refs").parse_args(argv)
    binary = build()
    if binary is None:
        return 2
    (HERE / "refs").mkdir(exist_ok=True)
    for workload in WORKLOADS:
        target = HERE / "refs" / (workload + ".txt")
        proc = subprocess.run([str(binary), "--write-refs", workload],
                              stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True)
        if proc.returncode:
            log("perfbench: reference generation failed for", workload)
            return 1
        target.write_text(proc.stdout)
        log("wrote", target)
    return 0


def main(argv):
    modes = {"collect": cmd_collect, "compare": cmd_compare,
             "selfcheck": cmd_selfcheck, "refs": cmd_refs}
    if argv and argv[0] in modes:
        return modes[argv[0]](argv[1:])
    return cmd_run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
