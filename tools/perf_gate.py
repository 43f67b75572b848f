#!/usr/bin/env python3
"""Perf-regression gate: the repository benchmark on two checkouts, in pairs.

    python3 tools/perf_gate.py BASE_CHECKOUT CHANGE_CHECKOUT OUT_DIR

Runs every workload of the change's BENCHMARK.json on seeds 1-5 for 10 s
each, untraced, with each checkout's own perfbench/run.py.  Base and change
alternate, and the side that goes first alternates by seed, so a phase of
the host falls on both sides alike.

Each end-to-end metric is judged on its per-seed ratios, taken in the
metric's "better" direction so that a ratio above 1 is worse.  A seed's
content moves both sides of its pair together, so the ratios scatter far
less than the raw values across seeds.  A metric regresses when the median
ratio is worse by more than

    max(min(bound, FLOOR), MAD_MULT * MAD of the ratios)

where bound is the metric's bound in BENCHMARK.json.  A run that exits
non-zero or reports "correct": false, on either side, fails the gate.  A
metric that only one side reports is listed, never fatal.

OUT_DIR receives each run's output (<side>_<workload>_<seed>.log),
verdict.json and trajectory.jsonl: one line with the parent and change
medians per workload and metric plus the host fingerprint, in the shape of
bench/trajectory.jsonl.  Exit 0 is a pass, 1 a regression or a failed run,
2 a usage error.
"""
import json
import math
import os
import statistics
import subprocess
import sys

SEEDS = (1, 2, 3, 4, 5)
SECONDS = 10
FLOOR = 0.10
MAD_MULT = 3.0
SIDES = ("base", "change")


def worse_ratio(base, change, better):
    """change relative to base, oriented so that a value above 1 is worse."""
    num, den = (change, base) if better == "lower" else (base, change)
    if den == 0:
        return 1.0 if num == 0 else float("inf")
    return num / den


def mad(values):
    mid = statistics.median(values)
    return statistics.median(abs(v - mid) for v in values)


def run_ok(run):
    result = run["result"]
    return run["exit"] == 0 and bool(result) and result.get("correct") is True


def judge_metric(spec, pairs):
    """One metric of one workload; pairs holds (base, change) metric dicts."""
    entry = {"better": spec["better"], "bound": spec["bound"]}
    values = {side: [p[i].get(spec["name"], {}).get("value") for p in pairs]
              for i, side in enumerate(SIDES)}
    present = [side for side in SIDES if None not in values[side]]
    if len(present) < 2:
        entry["status"] = "informational"
        entry["note"] = f"reported by {' and '.join(present) or 'neither side'}"
        return entry
    ratios = [worse_ratio(b, c, spec["better"])
              for b, c in zip(values["base"], values["change"])]
    median = statistics.median(ratios)
    spread = mad(ratios) if math.isfinite(median) else 0.0
    threshold = max(min(spec["bound"], FLOOR), MAD_MULT * spread)
    entry.update({
        "base_median": statistics.median(values["base"]),
        "change_median": statistics.median(values["change"]),
        "ratios": ratios, "median_ratio": median, "mad": spread,
        "threshold": threshold,
        "status": "regression" if median - 1.0 > threshold else "ok"})
    return entry


def judge(end_to_end, runs):
    """The gate's rule, on results already collected.

    end_to_end: BENCHMARK.json's "end_to_end" list (name, better, bound).
    runs: {workload: [(seed, base_run, change_run), ...]}, where a run is
      {"exit": int, "result": the result line as a dict, or None}.
    A workload with a failed run is not compared: the gate fails on it.
    """
    failures, metrics = [], {}
    for workload, pairs in runs.items():
        failed = [f"{side} {workload} seed {seed}: exit {run['exit']}, "
                  f"correct {bool(run['result'] and run['result'].get('correct'))}"
                  for seed, *sides in pairs
                  for side, run in zip(SIDES, sides) if not run_ok(run)]
        failures += failed
        if failed:
            continue
        results = [(b["result"]["metrics"], c["result"]["metrics"])
                   for _, b, c in pairs]
        metrics[workload] = {spec["name"]: judge_metric(spec, results)
                             for spec in end_to_end}
    regressions = [f"{w} {m}" for w, ms in metrics.items()
                   for m, e in ms.items() if e["status"] == "regression"]
    return {"pass": not failures and not regressions, "failures": failures,
            "regressions": regressions, "metrics": metrics}


def parse_run_output(stdout):
    """The result line, the fingerprint and the host steal share of a run."""
    lines = stdout.strip().splitlines()
    result = fingerprint = steal = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    for line in lines:
        if line.startswith("fingerprint: "):
            try:
                fingerprint = json.loads(line[len("fingerprint: "):])
            except json.JSONDecodeError:
                pass
        elif line.startswith("host: steal "):
            steal = float(line.split()[2])
    return result, fingerprint, steal


def run_side(checkout, workload, seed, log_path):
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          check=False)
    with open(log_path, "w", encoding="utf-8") as f:
        f.write(done.stdout)
        f.write(done.stderr)
    result, fingerprint, steal = parse_run_output(done.stdout)
    return {"exit": done.returncode, "result": result,
            "fingerprint": fingerprint, "steal": steal}


def commit_of(checkout):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(
        os.path.abspath(checkout)))
    done = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=checkout,
                          env=env, capture_output=True, text=True, check=False)
    return done.stdout.strip() if done.returncode == 0 else None


def trajectory_line(verdict, runs, base, change):
    every = [run for pairs in runs.values() for _, *sides in pairs
             for run in sides]
    prints = [r["fingerprint"] for r in every if r["fingerprint"]]
    steals = [r["steal"] for r in every if r["steal"] is not None]
    fingerprint = {}
    for key in ("cpu", "nproc", "backend"):
        seen = list(dict.fromkeys(p.get(key) for p in prints))
        fingerprint[key] = seen[0] if len(seen) == 1 else seen
    fingerprint["steal_pct_median"] = (round(statistics.median(steals), 2)
                                       if steals else None)
    medians = {w: {m: [float(f"{e[k]:.4g}")
                       for k in ("base_median", "change_median")]
                   for m, e in ms.items() if "base_median" in e}
               for w, ms in verdict["metrics"].items()}
    return {"commit": commit_of(change), "parent": commit_of(base),
            "source": f"tools/perf_gate.py: medians of {len(SEEDS)} "
                      f"alternating parent/change pairs, seeds "
                      f"{SEEDS[0]}-{SEEDS[-1]}, {SECONDS} s each",
            "fingerprint": fingerprint, "medians": medians}


def print_table(verdict):
    for workload, ms in verdict["metrics"].items():
        print(f"== {workload}")
        for name, e in ms.items():
            if e["status"] == "informational":
                print(f"  {name:16s} informational ({e['note']})")
                continue
            print(f"  {name:16s} base {e['base_median']:10.4g}  change "
                  f"{e['change_median']:10.4g}  ratio {e['median_ratio']:.3f}"
                  f"  mad {e['mad']:.3f}  threshold {e['threshold']:.3f}  "
                  f"{e['status']}")
    for f in verdict["failures"]:
        print(f"FAILED RUN: {f}")
    print("perf gate:", "PASS" if verdict["pass"] else
          "FAIL " + ", ".join(verdict["regressions"] + verdict["failures"]))


def main(argv):
    if len(argv) != 4:
        print("usage: perf_gate.py BASE_CHECKOUT CHANGE_CHECKOUT OUT_DIR",
              file=sys.stderr)
        return 2
    base, change, out = (os.path.abspath(a) for a in argv[1:])
    for checkout in (base, change):
        if not os.path.isfile(os.path.join(checkout, "perfbench", "run.py")):
            print(f"perf_gate: no perfbench/run.py under {checkout}",
                  file=sys.stderr)
            return 2
    with open(os.path.join(change, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    os.makedirs(out, exist_ok=True)
    checkouts = dict(zip(SIDES, (base, change)))
    runs = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs[workload] = []
        for i, seed in enumerate(SEEDS):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {}
            for side in order:
                log = os.path.join(out, f"{side}_{workload}_{seed}.log")
                pair[side] = run_side(checkouts[side], workload, seed, log)
                print(f"perf_gate: {side:6s} {workload} seed {seed}: exit "
                      f"{pair[side]['exit']}", file=sys.stderr, flush=True)
            runs[workload].append((seed, pair["base"], pair["change"]))
    verdict = judge(spec["end_to_end"], runs)
    with open(os.path.join(out, "verdict.json"), "w", encoding="utf-8") as f:
        json.dump(verdict, f, indent=1)
    with open(os.path.join(out, "trajectory.jsonl"), "w",
              encoding="utf-8") as f:
        f.write(json.dumps(trajectory_line(verdict, runs, base, change)) + "\n")
    print_table(verdict)
    return 0 if verdict["pass"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
