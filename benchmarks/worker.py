"""One round of one workload, in a fresh interpreter.

run.py starts this script once per round and writes a job to its stdin:
the workload, the inputs made from the seed, whether to trace, and where
output files go.  The script imports sdlab from the checkout's src/, times
the workload's calls into sdlab, reads its own peak RSS and prints one JSON
line:

    {"run_s": ..., "rss_mb": ..., "outputs": ..., "layers": {...}}

`outputs` is what sdlab produced, reduced to fingerprints (oracles.fingerprint)
and small values, for run.py to check against the oracles.  Nothing else
runs in this process before the peak RSS is read, so `rss_mb` is sdlab's and
the driving loop's alone.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from oracles import fingerprint  # noqa: E402


def run_verify(job: dict, sdlab) -> dict:
    """`sdlab verify <argv> --out FILE` through the CLI's own entry point."""
    out = job["report_path"]
    argv = [*job["argv"], "--out", out]
    start = time.perf_counter()
    code = sdlab.cli.main(argv)
    run_s = time.perf_counter() - start
    rss_mb = peak_rss_mb()
    with open(out, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return {"run_s": run_s, "rss_mb": rss_mb, "outputs": {"code": code, "digest": digest}}


def run_alexander(job: dict, sdlab) -> dict:
    run_s = 0.0
    outputs = []
    for a, b in job["pairs"]:
        start = time.perf_counter()
        poly = sdlab.alexander_closed_form(a, b)
        run_s += time.perf_counter() - start
        outputs.append(fingerprint(poly.items()))
        del poly
    return {"run_s": run_s, "rss_mb": peak_rss_mb(), "outputs": outputs}


def run_semigroup(job: dict, sdlab) -> dict:
    run_s = 0.0
    outputs = []
    for gens in job["gens"]:
        start = time.perf_counter()
        S = sdlab.NumericalSemigroup.from_generators(gens)
        frob, genus = S.frobenius, S.genus
        aperys = [S.apery(g).elements for g in S.generators]
        quotient_genera = [S.quotient(d).genus for d in range(1, 9)]
        gap_poly = S.gap_poly()
        run_s += time.perf_counter() - start
        outputs.append({"frobenius": frob, "genus": genus, "apery": aperys,
                        "quotient_genera": quotient_genera, "gap_poly": fingerprint(gap_poly.items())})
        del S, gap_poly
    return {"run_s": run_s, "rss_mb": peak_rss_mb(), "outputs": outputs}


RUNNERS = {"verify": run_verify, "alexander": run_alexander, "semigroup": run_semigroup}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


def main() -> int:
    job = json.load(sys.stdin)
    import sdlab
    import sdlab.cli

    where = os.path.dirname(os.path.abspath(sdlab.__file__))
    if where != os.path.join(ROOT, "src", "sdlab"):
        print(f"sdlab imported from {where}, not from this checkout", file=sys.stderr)
        return 2
    torus_cache = sdlab.semigroup.torus_semigroup
    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(sdlab)
    result = RUNNERS[job["kind"]](job, sdlab)
    if tracer is not None:
        # flat per-layer values, named as the per_layer metrics of BENCHMARK.json
        layers = {f"{label}.{key}": value for label, t in tracer.totals().items() for key, value in t.items()}
        layers.update({f"{layer}.self_s": s for layer, s in tracer.layer_self_s.items()})
        info = torus_cache.cache_info()
        layers.update({"semigroup.torus_cache.hits": info.hits, "semigroup.torus_cache.misses": info.misses})
        result["layers"] = layers
        tracer.dump(job["trace_path"], {"workload": job["workload"], "seed": job["seed"]})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
