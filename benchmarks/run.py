"""sdlab benchmark: one workload, measured for a fixed time.

    python3 benchmarks/run.py --workload verify-default --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; sdlab is imported from its src/.  The
workload's inputs are made from --seed.  Each round runs the workload once
in a fresh interpreter (worker.py); rounds repeat until --seconds have
passed, and their outputs are checked against the oracles.  The last line
of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value": ..., "unit": ...}}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 rounds alternate between untraced and traced, and the metrics
are the per-layer ones BENCHMARK.json names.  See README.md for the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import random
import statistics
import subprocess
import sys
import time
from math import gcd

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# a run makes at least this many set-up launches (setup_s is their median)
SETUP_LAUNCHES = 9
WORKER_TIMEOUT_S = 170
# a run stops starting rounds once this much time has passed, whatever
# --seconds says, so that it ends within three minutes
RUN_LIMIT_S = 120

# `sdlab verify` defaults, and the clamps the CLI puts on prop2's two sweeps
# (compositions for n in 2..3 up to b = 12, the linear n = 1 form up to b = 40)
VERIFY_DEFAULTS = {"semigroups": 6, "member_max": 12, "d_max": 8}

# a fixed list spanning a*b from 1e4 to 1e5; the seed orders and orients it
ALEXANDER_PAIRS = [(101, 103), (127, 131), (173, 179), (211, 223), (301, 307)]

# (least generator, largest generator, number of generators, genus) ranges
# for the random semigroups of one round.  sdlab's membership table has about
# least * largest entries, and its gap tuple and gap polynomial one entry per
# gap; the genus of a random draw varies by a factor of two, so a band also
# fixes it (each window holds about a tenth of the draws, around the median),
# and the cost of a round then barely depends on the seed.
SEMIGROUP_BANDS = [
    ((150, 170), (1000, 1100), 3, (9500, 10500)),
    ((300, 330), (1400, 1500), 4, (8400, 9300)),
    ((450, 490), (1800, 1900), 3, (31500, 35000)),
    ((600, 650), (2200, 2300), 4, (18000, 20000)),
]

PROBE_ARGV = ["verify", "--identity", "nonsense"]

# rounds and set-up launches take turns on the CPUs this process may use:
# other load slows each CPU in phases of its own, and the fastest round is
# what a run reports
CPUS = sorted(os.sched_getaffinity(0))

# BENCHMARK.json lists all but verify-wide, which is run by hand (README.md says why)
WORKLOADS = ("verify-default", "verify-wide", "alexander-large", "semigroup-large")



def make_inputs(workload: str, seed: int) -> dict:
    """The job for worker.py, from the seed alone."""
    rng = random.Random(seed)
    if workload in ("verify-default", "verify-wide"):
        pairs_max = 20 if workload == "verify-default" else 40
        verify_seed = rng.randrange(10**6)
        argv = ["verify", "--seed", str(verify_seed)]
        if workload == "verify-wide":
            argv[1:1] = ["--pairs-max", "40"]
        ranges = dict(VERIFY_DEFAULTS, seed=verify_seed, pairs_max=pairs_max,
                      prop2_pairs_max=min(12, pairs_max), prop2_linear_pairs_max=min(40, pairs_max))
        return {"kind": "verify", "argv": argv, "ranges": ranges}
    if workload == "alexander-large":
        pairs = [list(p) if rng.random() < 0.5 else [p[1], p[0]] for p in ALEXANDER_PAIRS]
        rng.shuffle(pairs)
        return {"kind": "alexander", "pairs": pairs}
    if workload == "semigroup-large":
        gens = []
        for (lo, hi), (top_lo, top_hi), count, (genus_lo, genus_hi) in SEMIGROUP_BANDS:
            while True:
                least, largest = rng.randint(lo, hi), rng.randint(top_lo, top_hi)
                chosen = sorted({least, largest, *rng.sample(range(least + 1, largest), count - 2)})
                if (len(chosen) == count and gcd(*chosen) == 1
                        and genus_lo <= oracles.genus(oracles.apery(chosen, least)) <= genus_hi):
                    break
            gens.append(chosen)
        return {"kind": "semigroup", "gens": gens}
    raise ValueError(workload)


def use_cpu(turn: int) -> None:
    """Pin this process, and so the children it starts next, to one CPU."""
    os.sched_setaffinity(0, {CPUS[turn % len(CPUS)]})


def sdlab_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def launch_setup() -> float:
    """Wall time of a fresh interpreter importing sdlab.cli and building its parser."""
    start = time.perf_counter()
    # no timeout: with one, subprocess polls the child every 50 ms, which
    # quantizes the measured time
    subprocess.run([sys.executable, "-c", "import sdlab.cli; sdlab.cli.build_parser()"], cwd=ROOT,
                   env=sdlab_env(), check=True)
    return time.perf_counter() - start


def run_probe() -> bool:
    """`sdlab verify --identity nonsense` must be refused: exit 2 with a one-line error."""
    proc = subprocess.run([sys.executable, "-m", "sdlab", *PROBE_ARGV], cwd=ROOT, env=sdlab_env(),
                          capture_output=True, text=True, timeout=60)
    return proc.returncode == 2 and len(proc.stderr.strip().splitlines()) == 1 and "Traceback" not in proc.stderr


def run_round(job: dict, trace: bool) -> dict:
    job = dict(job, trace=trace)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")], input=json.dumps(job), cwd=ROOT,
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expected_outputs(job: dict) -> list[dict]:
    """The oracles' outputs for each operation of an alexander or semigroup round."""
    if job["kind"] == "alexander":
        return [oracles.fingerprint(sorted(oracles.mordell_alexander(a, b).items())) for a, b in job["pairs"]]
    out = []
    for gens in job["gens"]:
        ap = oracles.apery(gens, gens[0])
        out.append({"frobenius": oracles.frobenius(ap), "genus": oracles.genus(ap),
                    "apery": [oracles.apery(gens, g) for g in gens],
                    "quotient_genera": [oracles.quotient_genus(ap, d) for d in range(1, 9)],
                    "gap_poly": oracles.fingerprint([(g, 1) for g in oracles.gaps(ap)])})
    return out


def check_rounds(job: dict, rounds: list[dict]) -> tuple[list[str], int]:
    """Problems with the outputs of a run's rounds, and the operations one round counts."""
    problems = []
    if job["kind"] == "verify":
        codes = sorted({r["outputs"]["code"] for r in rounds})
        if codes != [0]:
            problems.append(f"sdlab verify exited {codes}")
        if len({r["outputs"]["digest"] for r in rounds}) > 1:
            problems.append("reports differ between rounds with one seed")
        with open(job["report_path"]) as fh:  # the last round's, identical to every other
            reports = json.load(fh)
        return problems + oracles.check_verify_reports(reports, **job["ranges"]), len(reports)
    if job["kind"] == "alexander":
        names = [f"alexander({a}, {b})" for a, b in job["pairs"]]
        # Delta(1) = 1, degrees 0 to (a-1)(b-1), palindromic
        required = [{"at_1": "1", "low": 0, "high": (a - 1) * (b - 1), "palindromic": True} for a, b in job["pairs"]]
    else:
        names = [f"semigroup{tuple(gens)}" for gens in job["gens"]]
        required = [{} for _ in job["gens"]]
    want = expected_outputs(job)
    for r in rounds:
        for name, got, exp, req in zip(names, r["outputs"], want, required):
            wrong = [k for k in exp if got[k] != exp[k]] + [k for k in req if got[k] != req[k]]
            if wrong:
                problems.append(f"{name}: {', '.join(sorted(set(wrong)))} wrong")
        if len(r["outputs"]) != len(names):
            problems.append(f"{len(r['outputs'])} outputs for {len(names)} operations")
    return problems, len(names)


def layer_metrics(per_layer: list[dict], traced: list[dict], plain: list[dict]) -> dict:
    """The per_layer metrics of BENCHMARK.json: medians over traced rounds."""

    def med(name):
        if any(name not in r["layers"] for r in traced):
            raise SystemExit(f"per-layer metric {name} of BENCHMARK.json is not produced by tracing")
        return statistics.median(r["layers"][name] for r in traced)

    metrics = {}
    for m in per_layer:
        name = m["name"]
        if name == "semigroup.torus_cache.hit_ratio":
            hits, misses = med("semigroup.torus_cache.hits"), med("semigroup.torus_cache.misses")
            value = hits / (hits + misses) if hits + misses else 0.0
        elif name == "trace.overhead_s":
            value = min(r["run_s"] for r in traced) - min(r["run_s"] for r in plain)
        else:
            value = med(name)
        metrics[name] = (value, m["unit"])
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "sdlab", "cli.py")):
        print(f"no sdlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    import test_oracles

    for name, test in inspect.getmembers(test_oracles, inspect.isfunction):
        if name.startswith("test_"):
            test()

    os.makedirs(OUT, exist_ok=True)
    job = make_inputs(args.workload, args.seed)
    job.update(workload=args.workload, seed=args.seed,
               report_path=os.path.join(OUT, f"report-{args.workload}.json"),
               trace_path=os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"))

    # set-up launches are spread over the run, one before each untraced
    # round, so that their median covers the same stretch of time as the rounds
    setup_times = []
    if not args.trace:
        launch_setup()  # warms the file cache
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        trace = bool(args.trace) and len(traced) < len(plain)
        use_cpu(len(plain) + len(traced))
        if not args.trace:
            setup_times.append(launch_setup())
        result = run_round(job, trace)
        (traced if trace else plain).append(result)
        print(f"round {len(plain) + len(traced)}{' traced' if trace else ''}: run_s {result['run_s']:.4f}"
              f" rss_mb {result['rss_mb']:.1f}", file=sys.stderr)
        # at least two rounds, so that reports can be compared, and enough
        # set-up launches; with tracing, as many traced rounds as untraced ones
        whole = (len(plain) + len(traced) >= 2 and len(traced) == len(plain) * args.trace
                 and (args.trace or len(setup_times) >= SETUP_LAUNCHES))
        elapsed = time.perf_counter() - start
        if whole and (elapsed >= args.seconds or elapsed > RUN_LIMIT_S):
            break

    rounds = plain + traced
    problems, ops = check_rounds(job, rounds)
    attempted = len(rounds) if job["kind"] == "verify" else len(rounds) * ops
    failed = 0
    if args.workload == "verify-default":
        # the probe, once per round, after the timed rounds
        attempted += len(rounds)
        failed += sum(not run_probe() for _ in rounds)
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(spec["per_layer"], traced, plain)
    else:
        # the fastest round: interference from other load on the machine only
        # ever adds time, and it comes in bursts (see README.md)
        run_s = min(r["run_s"] for r in plain)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "run_s": (run_s, "s"),
            "ops_per_s": (ops / run_s, "1/s"),
            "peak_rss_mb": (statistics.median(r["rss_mb"] for r in plain), "MB"),
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
