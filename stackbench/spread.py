#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread, as a regression check would.

Runs every workload of BENCHMARK.json once per seed with --trace 0, for
one or more sets of seeds, from the root of a checkout:

    python3 stackbench/spread.py --seeds 1-10 --sets 2 --out baseline.json

For each end-to-end metric it prints, per set, the median of the runs and
the spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median. It checks every
spread against the metric's bound, and that the second set's median is
not worse than the first's by more than the bound; the exit code is 1
when a check fails. The timings the benchmark prints but does not bound
are summarised the same way, unchecked, so their drift stays on record.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys

# "  name   value unit (n=N)", as main.ml prints every measured number.
LINE = re.compile(r"^  (\S+)\s+(-?[0-9][0-9.e+-]*)\s+\S+\s+\(n=\d+\)$")


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds):
    p = subprocess.run(
        ["bash", "stackbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({p.returncode}): {p.stderr[-2000:]}")
    provenance = next((l.split() for l in lines if l.startswith("# stackbench ")), [])
    host = " ".join(t for t in provenance if t.split("=")[0] in ("nproc", "ocaml", "rev"))
    printed = {m[1]: float(m[2]) for m in map(LINE.match, lines) if m}
    return host, json.loads(lines[-1]), printed


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "spread": (q3 - q1) / med, "values": values}


def show(name, cells, flags, bound=None):
    line = "  ".join(f"median {c['median']:12.6g} spread {c['spread']:6.3f}" for c in cells)
    if len(cells) > 1:
        line += f"  change {cells[1]['median'] / cells[0]['median'] - 1:+7.3f}"
    label = f"bound {bound:4.2f}" if bound is not None else "unbounded "
    print(f"  {name:16s} {label}  {line}  {' '.join(flags)}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--out")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = seeds_of(args.seeds)
    result = {"seeds": seeds, "run_seconds": bench["run_seconds"], "sets": [], "unbounded": []}
    ok = True
    for k in range(args.sets):
        per_set, unbounded = {}, {}
        for w in workloads:
            runs, timings = [], []
            for s in seeds:
                host, j, printed = run(w, s, bench["run_seconds"])
                result["host"] = host
                ok &= j["correct"]
                runs.append(j["metrics"])
                timings.append({n: v for n, v in printed.items() if n not in metrics})
                print(f"set {k + 1} {w} seed {s}: "
                      + " ".join(f"{n}={v:.6g}" for n, v in printed.items()), flush=True)
            per_set[w] = {n: summary([r[n]["value"] for r in runs]) for n in metrics}
            common = [n for n in timings[0] if all(n in t for t in timings)]
            unbounded[w] = {n: summary([t[n] for t in timings]) for n in common}
        result["sets"].append(per_set)
        result["unbounded"].append(unbounded)
    print(f"host: {result.get('host', '')}")
    for w in workloads:
        print(w)
        for n, m in metrics.items():
            cells = [result["sets"][k][w][n] for k in range(args.sets)]
            flags = []
            if any(c["spread"] > m["bound"] for c in cells):
                flags.append("SPREAD>BOUND")
            if args.sets > 1:
                a, b = cells[0]["median"], cells[1]["median"]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                if worse > m["bound"]:
                    flags.append("SECOND-SET-WORSE")
            ok &= not flags
            show(n, cells, flags, m["bound"])
        for n in result["unbounded"][0][w]:
            show(n, [result["unbounded"][k][w][n] for k in range(args.sets)], [])
    if args.out:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
