"""Two sets of benchmark runs of one checkout, and whether they agree.

    python3 benchmarks/compare.py --seeds 10 [--workloads verify-default,alexander-large]

Runs run.py (untraced, for run_seconds of BENCHMARK.json) once per seed
for every workload, in two sets that use different seeds; the runs of the
sets are interleaved so that a change in machine load reaches both alike.  For each set, workload and
end-to-end metric it prints the median, the quartiles and the spread (the
distance between the quartiles as a share of the median), then checks the
bounds of BENCHMARK.json:

- every spread is within the metric's bound;
- the second set's median is not worse than the first set's by more than the bound;
- every run is correct, and the share of failed operations is the same in both sets.

Results also go to benchmarks/out/compare.json.  Exit code 0 when all checks hold.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
FIRST_SEED = 1  # set k uses the seeds FIRST_SEED + 1000 * k + 0, 1, ...


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10, help="runs per workload and set")
    parser.add_argument("--workloads", help="comma-separated workloads (default: those of BENCHMARK.json)")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    runs = {(k, w): [] for k in range(SETS) for w in workloads}
    started = time.perf_counter()
    for i in range(args.seeds):
        for w in workloads:
            for k in range(SETS):
                seed = FIRST_SEED + 1000 * k + i
                result = run_once(spec, w, seed)
                runs[k, w].append(result)
                values = " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items())
                print(f"[{time.perf_counter() - started:6.0f} s] set {k} {w} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} {values}", file=sys.stderr, flush=True)

    ok = True
    report = {}
    for w in workloads:
        print(f"\n{w}")
        shares = set()
        for k in range(SETS):
            rs = runs[k, w]
            if not all(r["correct"] for r in rs):
                print(f"  set {k}: incorrect output in some run")
                ok = False
            shares.add(sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs))
        if len(shares) > 1:
            print(f"  failed share differs between sets: {sorted(shares)}")
            ok = False
        for name, m in bounds.items():
            sets = [summary([r["metrics"][name]["value"] for r in runs[k, w]]) for k in range(SETS)]
            report[f"{w}/{name}"] = sets
            for k, s in enumerate(sets):
                notes = []
                if s["spread"] > m["bound"]:
                    notes.append("SPREAD ABOVE BOUND")
                    ok = False
                if k:
                    change = s["median"] / sets[0]["median"] - 1
                    notes.append(f"median {change:+.2%} vs set 0")
                    if (change if m["better"] == "lower" else -change) > m["bound"]:
                        notes.append("WORSE THAN BOUND")
                        ok = False
                print(f"  {name:12} set {k}: median {s['median']:.6g} {m['unit']}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                      f"  spread {s['spread']:.2%} (bound {m['bound']:.0%})  {'; '.join(notes)}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "compare.json"), "w") as fh:
        json.dump({"seconds": spec["run_seconds"], "summary": report,
                   "runs": {f"{w}/set{k}": rs for (k, w), rs in runs.items()}}, fh, indent=1)
    print("\nagree within bounds" if ok else "\nDO NOT AGREE within bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
