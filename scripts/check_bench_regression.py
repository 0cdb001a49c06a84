#!/usr/bin/env python3
"""Fail CI when a gated benchmark ratio regresses against its committed
baseline JSON.

Every bench binary writes the uniform BenchRecord schema from
bench/BenchUtil.h: a JSON array of {"name", "metric", "value", "unit"}.
Which metrics are gated — and in which direction — is keyed off the
baseline file's basename, so CI invokes one script per baseline:

  check_bench_regression.py BENCH_alloc.json build/bench/BENCH_alloc.json
  check_bench_regression.py BENCH_micro.json build/bench/BENCH_micro.json

CI runners and the machine that produced a committed baseline differ in
absolute speed, so raw counts/sec never gate. What transfers across
machines is a *ratio measured within one run* (arena vs sharedptr
tokens/sec, SWAR vs scalar bytes/sec, optimized-CoStar vs ATN runtime):
machine speed cancels out of the quotient. Gates therefore compare
ratio metrics only, two ways:

  - direction "higher" (speedups): fail when the current ratio drops
    more than `tolerance` below the baseline's value.
  - direction "lower" (slowdowns): fail when the current ratio rises
    more than `tolerance` above the baseline's value.
  - `bound`, when set, is an absolute cap/floor checked regardless of
    the baseline value — e.g. optimized CoStar must beat the ATN
    baseline (< 1.0) on every machine, not merely stay near the
    committed ratio.

Scheduler scenarios add one more wrinkle: a skewed grammar mix only
exercises the scheduler when the machine has real parallel capacity, so
those benches record a `parallel_capacity` value (min of hardware
threads and service workers). A gate with `min_parallel` set is skipped
when the *current* run lacks that capacity, and falls back to bound-only
checking when the *baseline* was committed from a degenerate (e.g.
single-core) machine — a degenerate baseline ratio is noise, but the
absolute bound still holds wherever the scenario can run at all.
"""

import argparse
import json
import os
import sys


def higher(name, metric, tolerance=0.10, bound=None, min_parallel=None,
           capacity_name=None):
    return {"name": name, "metric": metric, "direction": "higher",
            "tolerance": tolerance, "bound": bound,
            "min_parallel": min_parallel,
            "capacity_name": capacity_name or name}


def lower(name, metric, tolerance=0.10, bound=None, min_parallel=None,
          capacity_name=None):
    return {"name": name, "metric": metric, "direction": "lower",
            "tolerance": tolerance, "bound": bound,
            "min_parallel": min_parallel,
            "capacity_name": capacity_name or name}


# Gate tables, keyed by the baseline file's basename. Tolerances are
# looser where the measured kernel is more sensitive to runner shape
# (the lexer ratio halves during SMT-sibling contention bursts, which
# the bench rides out with spaced retries but a burst-constrained run
# may still report near the 1.5x floor). Where a `bound` is set it
# mirrors the bench binary's own hard gate — an absolute claim that
# holds on any machine, regardless of the committed ratio.
GATES = {
    "BENCH_alloc.json": [
        higher("warm/small-suite", "arena_speedup"),
    ],
    "BENCH_micro.json": [
        higher("lexer/json", "batched_speedup", tolerance=0.35, bound=1.5),
        higher("lexer/python", "batched_speedup", tolerance=0.35,
               bound=1.5),
    ],
    "BENCH_fig10.json": [
        # The committed best ratio reflects warmed-cache reuse and is
        # strongly machine-dependent; the absolute bound is the real
        # claim (optimized CoStar beats the imperative ATN baseline).
        lower("fig10/summary", "best_optimized_slowdown",
              tolerance=3.0, bound=1.0),
    ],
    "BENCH_warmstart.json": [
        # Snapshot-loaded parsing must stay within 10% of in-process
        # warm-cache throughput (bound mirrors the bench's own hard
        # gate; the ratio itself hovers near 1.0 on any machine).
        higher("warmstart/python", "loaded_vs_warm", tolerance=0.15,
               bound=0.9),
        # And beat per-process cold training outright. The committed
        # ratio is huge (cold pays full cache construction per file),
        # so the absolute floor carries the claim.
        higher("warmstart/python", "loaded_vs_cold", tolerance=0.80,
               bound=2.0),
    ],
    "BENCH_cache_backends.json": [
        # The default Hashed backend must win its own cold-path gate: a
        # fresh cache per file, Hashed over AVL tok/s in one run. The
        # bound is the absolute claim (the default is never slower than
        # the paper-faithful baseline on cold Python). The tolerance is
        # twice the worst drop seen: 11 runs (5 at full scale, 6 at the
        # CI scale 0.25) spanned 1.25-1.71x around the committed 1.38x,
        # the lowest 9.8% under it; a serializing interner measured
        # 1.01x, a 27% drop that fails the tolerance.
        higher("cold/Python", "cold_speedup", tolerance=0.20,
               bound=1.0),
    ],
    "BENCH_semantic.json": [
        # The semantic framework's price tag: the full costar-verilint
        # battery (two tree passes, scope tables, constant folding) may
        # cost at most as much again as the parse that produced the
        # tree. The bound mirrors the bench binary's own hard gate.
        lower("semantic/verilog", "lint_over_parse", tolerance=0.25,
              bound=2.0),
    ],
    "BENCH_service.json": [
        # Worker scaling: N-worker over 1-worker tok/s on one cold Python
        # corpus drain, interleaved min-of-times. Self-relative, so it
        # needs no second engine; it needs real parallel capacity, so a
        # runner with fewer than 4 hardware threads reports it as
        # skipped (unverified). Seven runs at the CI scale 0.25 on 4
        # threads read 1.66-2.09x (median 1.83x): the tolerance is twice
        # the worst drop below that median (9.5%), and the bound sits
        # below every run, where workers no longer overlap.
        higher("service/python", "workers_speedup", tolerance=0.20,
               bound=1.3, min_parallel=4),
        # Tail-latency gate: absolute microseconds never transfer across
        # machines, but p99/p50 within one run is set by the corpus size
        # spread plus queueing amplification, both of which do. At 50%
        # load queueing is mild, so a rise in this ratio means the tail
        # regressed (the ISSUE's "p99 must not regress >10%" claim).
        lower("service/python/load50", "p99_over_p50", tolerance=0.10),
        # The skewed grammar mix's tail must not regress vs. the
        # committed baseline. It needs real parallel capacity — on a 1-2
        # core runner the workers time-share and the scenario record is
        # degenerate, so the gate skips via min_parallel.
        lower("service/skewed/load50", "p99_over_p50", tolerance=0.10,
              min_parallel=4, capacity_name="service/skewed"),
    ],
}


def load_records(path, role):
    """Reads one BENCH_*.json into {(name, metric): value}.

    Exits with a human-readable diagnostic — never a traceback — when
    the file is missing (a new bench without a committed baseline, or a
    bench that failed before writing output) or malformed.
    """
    if not os.path.exists(path):
        if role == "baseline":
            print(f"error: missing baseline '{path}'.\n"
                  f"  A new bench must commit its first run as the "
                  f"baseline:\n"
                  f"    ./build/bench/{os.path.splitext(os.path.basename(path))[0].replace('BENCH_', 'bench_')}\n"
                  f"    cp build/bench/{os.path.basename(path)} {path}\n"
                  f"    git add {path}", file=sys.stderr)
        else:
            print(f"error: missing current-run output '{path}' — did the "
                  f"bench binary run (and exit cleanly) before this "
                  f"check?", file=sys.stderr)
        sys.exit(2)
    try:
        with open(path) as f:
            data = json.load(f)
    except json.JSONDecodeError as e:
        print(f"error: {path} is not valid JSON: {e}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(data, list):
        print(f"error: {path}: expected a JSON array of records",
              file=sys.stderr)
        sys.exit(2)
    out = {}
    for i, rec in enumerate(data):
        if not isinstance(rec, dict) or not {"name", "metric",
                                             "value"} <= rec.keys():
            print(f"error: {path}: record {i} is missing name/metric/"
                  f"value (got: {rec!r})", file=sys.stderr)
            sys.exit(2)
        out[(rec["name"], rec["metric"])] = float(rec["value"])
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--tolerance", type=float, default=None,
                    help="override every gate's allowed fractional "
                         "change (default: per-gate values)")
    args = ap.parse_args()

    key = os.path.basename(args.baseline)
    if key not in GATES:
        print(f"error: no gate table for baseline '{key}' "
              f"(known: {', '.join(sorted(GATES))})", file=sys.stderr)
        return 2

    base = load_records(args.baseline, "baseline")
    cur = load_records(args.current, "current")

    failed = False
    for gate in GATES[key]:
        k = (gate["name"], gate["metric"])
        label = f"{gate['name']} {gate['metric']}"
        if k not in base:
            print(f"SKIP  {label}: not in baseline ({args.baseline})")
            continue
        if k not in cur:
            print(f"FAIL  {label}: missing from current run")
            failed = True
            continue
        b, c = base[k], cur[k]
        mp = gate.get("min_parallel")
        if mp is not None:
            cap_key = (gate["capacity_name"], "parallel_capacity")
            cur_cap = cur.get(cap_key)
            if cur_cap is None or cur_cap < mp:
                cap = "?" if cur_cap is None else f"{cur_cap:.0f}"
                print(f"SKIP  {label}: unverified, current run parallel "
                      f"capacity {cap} < {mp} (scenario needs real "
                      f"parallelism)")
                continue
            base_cap = base.get(cap_key)
            if base_cap is None or base_cap < mp:
                # The committed baseline came from a degenerate machine;
                # its ratio is noise. Only the absolute bound applies.
                b = None
        tol = args.tolerance if args.tolerance is not None \
            else gate["tolerance"]
        if b is None:
            change, verb = 0.0, "baseline degenerate, bound-only"
        elif gate["direction"] == "higher":
            change = (b - c) / b if b > 0 else 0.0  # fractional drop
            verb = "dropped"
        else:
            change = (c - b) / b if b > 0 else 0.0  # fractional rise
            verb = "rose"
        bad = change > tol
        bound_bad = False
        if gate["bound"] is not None:
            bound_bad = (c > gate["bound"]
                         if gate["direction"] == "lower"
                         else c < gate["bound"])
        status = "FAIL" if bad or bound_bad else "ok"
        failed |= bad or bound_bad
        extra = ""
        if bound_bad:
            cmp_ch = "<" if gate["direction"] == "lower" else ">"
            extra = f" [bound: need {cmp_ch} {gate['bound']}]"
        base_str = "n/a" if b is None else f"{b:.3f}x"
        print(f"{status:<4}  {label}: baseline {base_str}, current "
              f"{c:.3f}x ({verb} {100 * max(change, 0):.1f}%, "
              f"tol {100 * tol:.0f}%){extra}")

    if failed:
        print(f"\ngated benchmark ratios regressed beyond tolerance "
              f"vs {args.baseline}", file=sys.stderr)
        return 1
    print("\nno benchmark regression beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
