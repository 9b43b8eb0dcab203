#!/usr/bin/env python3
"""Gates bench/load_bench's JSON output for the load-smoke CI job.

Usage: check_serving_bench.py [--min-rate R] [--max-p99-ms MS] <bench.json>

The input is the file `load_bench <out.json>` writes: a "sections" array of
fixed-rate open-loop runs (keepalive_2k, keepalive_5k, keepalive_10k)
plus the closed-loop overload_shed section.

Checks:
  1. Every section answered only 2xx or 429 — no other statuses, no
     transport errors. The serving tier may shed, it may never break.
  2. The fastest fixed-rate section achieved at least --min-rate req/s
     (default 10000 * 0.95) with p99 below --max-p99-ms (default 5.0) —
     the acceptance floor for the epoll serving tier.
  3. The overload section shed at least one request with 429: admission
     control demonstrably engages past the queue high-water mark.
"""
import argparse
import json
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench", help="load_bench JSON output")
    parser.add_argument(
        "--min-rate",
        type=float,
        default=10000 * 0.95,
        metavar="R",
        help="required achieved req/s in the fastest fixed-rate section",
    )
    parser.add_argument(
        "--max-p99-ms",
        type=float,
        default=5.0,
        metavar="MS",
        help="p99 latency ceiling for the fastest fixed-rate section",
    )
    args = parser.parse_args()

    with open(args.bench) as f:
        snapshot = json.load(f)
    sections = snapshot.get("sections", [])
    if not sections:
        sys.exit(f"FAIL: {args.bench} holds no sections")

    for section in sections:
        responses = section.get("responses", {})
        name = section.get("name", "?")
        for key in ("other", "transport_errors"):
            if responses.get(key, 0) != 0:
                sys.exit(
                    f"FAIL: section {name} saw {responses[key]} {key} "
                    f"responses; the serving tier may only answer 2xx/429"
                )

    fixed = [s for s in sections if s.get("offered_rate", 0) > 0]
    if not fixed:
        sys.exit(f"FAIL: {args.bench} holds no fixed-rate sections")
    top = max(fixed, key=lambda s: s["offered_rate"])
    achieved = top.get("achieved_rate", 0.0)
    p99 = top.get("latency_ms", {}).get("p99", float("inf"))
    if achieved < args.min_rate:
        sys.exit(
            f"FAIL: {top['name']} achieved {achieved:.0f} req/s, below "
            f"the {args.min_rate:.0f} floor"
        )
    if p99 >= args.max_p99_ms:
        sys.exit(
            f"FAIL: {top['name']} p99 {p99:.3f} ms breaches the "
            f"{args.max_p99_ms} ms ceiling"
        )

    overload = [s for s in sections if "overload" in s.get("name", "")]
    if not overload:
        sys.exit(f"FAIL: {args.bench} holds no overload section")
    shed = overload[0].get("responses", {}).get("shed_429", 0)
    if shed <= 0:
        sys.exit(
            "FAIL: overload section never shed a request; admission "
            "control did not engage"
        )

    print(
        f"OK: {args.bench}: {top['name']} sustained {achieved:.0f} req/s "
        f"at p99 {p99:.3f} ms; overload shed {shed} requests with 429"
    )


if __name__ == "__main__":
    main()
