#!/usr/bin/env python3
"""Gates the perf budgets on micro_benchmarks output (the perf-budgets CI job).

Usage: check_micro_budgets.py <micro_benchmarks.json>

The input is `bench/micro_benchmarks --benchmark_format=json` run with
--benchmark_repetitions and --benchmark_report_aggregates_only. Every
budget reads the `median` aggregates, so one slow repetition on a noisy
runner cannot fail the job and one fast one cannot pass it.

Budgets:
  1. Hot point lookups: BM_OpinionIndexHotLookup answers >= 100k
     lookups/s over a 48k-opinion snapshot.
  2. Request tracing: BM_AdminQuery/1 (production tracing defaults)
     keeps >= 0.5x the throughput of BM_AdminQuery/0 (tracing and the
     access log off).
  3. Disarmed profiler scopes: 4 x BM_ProfileScopeDisarmed costs < 1% of
     one BM_AnnotateSentence. A mined sentence crosses ~4 scopes
     (tokenize, match, parse, extract).
  4. Snapshot load: BM_OpinionIndexLoad, a whole OpinionIndex::Load of the
     48k-opinion snapshot, takes <= 25 ns per opinion (items are
     opinions). The CRC folds with carry-less multiplies and the
     validator walks each table once: about 16 ns on a 4-vCPU Xeon VM.
  5. Type scans: BM_OpinionIndexTypeScan (limit-10 scans over all 96
     blocks) answers >= 1/25 of BM_OpinionIndexHotLookup's items/s: a scan
     reads its slice of the block's posting list, not the whole block.
  6. Batches: BM_AdminBatch/1, a 32-pair /v1/query/batch through
     AdminServer::Handle with production defaults, costs <= 3.5 hot point
     lookups per pair (items are pairs): parsing, tracing and rendering
     add at most 2.5 lookups' worth to each pair's own lookup. Two CI-style
     runs (9 interleaved repetitions each) on a 4-vCPU Xeon VM read a
     median of 2.21 after names resolved by one slot probe and posteriors
     printed by integer arithmetic (2.53 before); the bound is 1.5 x that,
     rounded up to the next 0.5.

Each budget prints its value next to its threshold; the exit status is 1
when any budget fails or any of the gated benchmarks is missing.
"""
import argparse
import json
import sys

NANOS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
BENCHMARKS = (
    "BM_OpinionIndexHotLookup",
    "BM_AdminQuery/0",
    "BM_AdminQuery/1",
    "BM_ProfileScopeDisarmed",
    "BM_AnnotateSentence",
    "BM_OpinionIndexLoad",
    "BM_OpinionIndexTypeScan",
    "BM_AdminBatch/1",
)


def load_medians(path):
    """Returns {run_name: median aggregate row} for the gated benchmarks."""
    with open(path) as f:
        rows = json.load(f).get("benchmarks", [])
    medians = {
        row["run_name"]: row
        for row in rows
        if row.get("run_type") == "aggregate"
        and row.get("aggregate_name") == "median"
    }
    missing = [name for name in BENCHMARKS if name not in medians]
    if missing:
        sys.exit(f"FAIL: {path} holds no median for {', '.join(missing)}")
    return medians


def cpu_ns(row):
    return row["cpu_time"] * NANOS_PER_UNIT[row["time_unit"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("results", help="micro_benchmarks JSON output")
    args = parser.parse_args()
    medians = load_medians(args.results)

    lookups = medians["BM_OpinionIndexHotLookup"]["items_per_second"]
    traced = medians["BM_AdminQuery/1"]["items_per_second"]
    untraced = medians["BM_AdminQuery/0"]["items_per_second"]
    scope_share = 4 * cpu_ns(medians["BM_ProfileScopeDisarmed"]) / cpu_ns(
        medians["BM_AnnotateSentence"]
    )
    load_ns = 1e9 / medians["BM_OpinionIndexLoad"]["items_per_second"]
    scans = medians["BM_OpinionIndexTypeScan"]["items_per_second"]
    batch_pairs = medians["BM_AdminBatch/1"]["items_per_second"]
    budgets = [
        ("hot point lookups", f"{lookups:.0f}/s", ">= 100000/s",
         lookups >= 100000),
        ("AdminQuery/1 / AdminQuery/0", f"{traced / untraced:.3f}", ">= 0.5",
         traced >= 0.5 * untraced),
        ("4 x disarmed scope / sentence", f"{100 * scope_share:.3f}%", "< 1%",
         scope_share < 0.01),
        ("snapshot load per opinion", f"{load_ns:.1f} ns", "<= 25 ns",
         load_ns <= 25),
        ("type scans / hot lookups", f"{scans / lookups:.4f}", ">= 0.04",
         scans * 25 >= lookups),
        ("batch pair / hot lookup", f"{lookups / batch_pairs:.2f}x",
         "<= 3.5x", lookups <= 3.5 * batch_pairs),
    ]
    for name, value, threshold, ok in budgets:
        print(f"{'OK  ' if ok else 'FAIL'} {name:30} {value:>14}  {threshold}")
    if not all(ok for *_, ok in budgets):
        sys.exit(1)


if __name__ == "__main__":
    main()
