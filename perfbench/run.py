#!/usr/bin/env python3
"""Surveyor's benchmark: two serving workloads against `surveyor_cli`,
measured from outside the program, plus a traced in-process run per layer.

    python3 perfbench/run.py --workload serve_point|serve_mixed \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the repository and the
benchmark tool into $CARGO_TARGET_DIR (default .bench_build), prepares the
seed's inputs once (checked by checksum before every run), measures, checks
every output, and prints a run record line and then, as the last line, the
result: {"correct", "attempted", "failed", "metrics"}. Any failure to build,
prepare or measure exits nonzero without a result line.

Workloads (see perfbench/README.md for why each exists, and why mining is
measured only by the traced run):
  serve_point  `surveyor_cli serve --snapshot F`, uniform point lookups.
  serve_mixed  `surveyor_cli serve --generations DIR`, scans, batches,
               Zipf point lookups and prefixes, with generation reloads.
"""

import argparse
import hashlib
import http.client
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORKLOADS = ("serve_point", "serve_mixed")
# Spawns per run behind the setup_s median.
SETUP_SPAWNS = 21
# Largest share of a traced part's wall time (the mine replay, the serving
# passes) its layer spans may leave unattributed before the trace counts as
# broken.
MAX_UNATTRIBUTED = 0.10
# Prepared seeds kept on disk (up to two 51 MB corpora each).
KEEP_SEEDS = 12


class BenchError(Exception):
    pass


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def run_checked(args, cwd=None, log_path=None):
    """Runs a command to completion; returns its stdout."""
    out = subprocess.run(args, cwd=cwd, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
    if log_path is not None:
        with open(log_path, "a") as f:
            f.write(out.stdout + out.stderr)
    if out.returncode != 0:
        tail = "\n".join((out.stdout + out.stderr).splitlines()[-30:])
        raise BenchError(f"{' '.join(map(str, args))} exited "
                         f"{out.returncode}:\n{tail}")
    return out.stdout


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


# --- Refusals, build and run record ---------------------------------------

def refuse_perturbed_environment():
    # As tools/run_bench.sh: armed faults or the profiler perturb every
    # measured path.
    for name in ("SURVEYOR_FAULTS", "SURVEYOR_FAULT_SEED", "SURVEYOR_PROFILE"):
        if os.environ.get(name):
            raise BenchError(f"refusing to benchmark with {name} set")


def cmake_cache(build, key):
    cache = build / "CMakeCache.txt"
    if not cache.exists():
        return ""
    for line in cache.read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def build(build):
    if not (ROOT / "CMakeLists.txt").exists() or not (ROOT / "src").is_dir():
        raise BenchError(f"no Surveyor sources under {ROOT}")
    build.mkdir(parents=True, exist_ok=True)
    log_path = build / "perfbench_build.log"
    run_checked(["cmake", "-S", str(BENCH), "-B", str(build),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], log_path=log_path)
    sanitizer = cmake_cache(build, "SURVEYOR_SANITIZE")
    if sanitizer:
        raise BenchError(f"refusing to benchmark a sanitizer build "
                         f"(SURVEYOR_SANITIZE={sanitizer})")
    run_checked(["cmake", "--build", str(build), "-j", str(os.cpu_count()),
                 "--target", "surveyor_cli", "perfbench_tool",
                 "perfbench_selftest"], log_path=log_path)
    run_checked([str(build / "perfbench_selftest")], cwd=build)
    return {"cli": build / "surveyor" / "tools" / "surveyor_cli",
            "tool": build / "perfbench_tool"}


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    return out.stdout.strip() or "unknown"


# --- Inputs ---------------------------------------------------------------

def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# Files of a prepared workspace, checked against their recorded checksums
# before every run.
WORKSPACE_FILES = ("kb.tsv", "lexicon.tsv", "corpus.tsv", "opinions.surv")


def corpus_seed(seed, part):
    # Generation b is the same world mined from a second corpus seed.
    return seed if part == "a" else seed ^ 0x5BD1E995


def prepare_workspace(bins, ws, seed, built_by):
    """The webscale world with a corpus drawn from `seed`, mined once by the
    CLI at its default thread count into opinions.surv."""
    start = time.monotonic()
    shutil.rmtree(ws, ignore_errors=True)
    ws.mkdir(parents=True)
    documents = last_json(run_checked(
        [str(bins["tool"]), "worldgen", "--out", str(ws), "--corpus-seed",
         str(seed)]))["documents"]
    run_checked([str(bins["cli"]), "mine", str(ws), "--snapshot",
                 str(ws / "opinions.surv"), "--out", str(ws / "opinions.tsv")])
    (ws / "opinions.tsv").unlink()
    digest = last_json(run_checked([str(bins["tool"]), "digest", "--snapshot",
                                    str(ws / "opinions.surv")]))
    manifest = {
        "corpus_seed": seed,
        "documents": documents,
        "digest": digest["digest"],
        "rows": digest["rows"],
        "prepare_s": time.monotonic() - start,
        "built_by": built_by,
        "sha256": {name: sha256(ws / name) for name in WORKSPACE_FILES},
    }
    (ws / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest


def verified_manifest(ws, built_by):
    """The workspace's manifest, or None unless the binaries at hand made
    it and every file matches it."""
    path = ws / "manifest.json"
    if not path.exists():
        return None
    manifest = json.loads(path.read_text())
    if manifest.get("built_by") != built_by:
        log(f"{ws} was prepared by other binaries; regenerating")
        return None
    if all((ws / name).exists() and sha256(ws / name) == digest
           for name, digest in manifest["sha256"].items()):
        return manifest
    log(f"{ws} failed its checksums; regenerating")
    return None


def prepare(bins, build, seed, parts):
    """The seed's inputs, generated once and verified before every use.

    a/ (and b/ for serve_mixed) each hold a prepared workspace. A workspace
    is remade when its files fail their checksums or when the binaries that
    made it (the world generator and the mining CLI) have changed since, so
    an intended change to what Surveyor mines is mined afresh. Returns the
    inputs directory, the manifest of each part, and whether any part was
    generated by this call.
    """
    root = build / "perfbench-inputs"
    inputs = root / f"seed-{seed}"
    if not inputs.exists() and root.exists():
        others = sorted((p for p in root.iterdir() if p.is_dir()),
                        key=lambda p: p.stat().st_mtime)
        for old in others[:max(0, len(others) - (KEEP_SEEDS - 1))]:
            shutil.rmtree(old, ignore_errors=True)
    built_by = {name: sha256(bins[name]) for name in ("cli", "tool")}
    manifests, fresh = {}, False
    for part in parts:
        manifest = verified_manifest(inputs / part, built_by)
        if manifest is None:
            manifest = prepare_workspace(bins, inputs / part,
                                         corpus_seed(seed, part), built_by)
            fresh = True
        manifests[part] = manifest
    os.utime(inputs)
    # Flush the freshly written corpora now, so their write-back does not
    # run during the measurement.
    os.sync()
    return inputs, manifests, fresh


# --- Processes ------------------------------------------------------------

def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def stop(proc):
    """Stops a server; returns its peak RSS in MB."""
    proc.send_signal(signal.SIGTERM)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0


def readyz_status(port):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=1.0)
    try:
        conn.request("GET", "/readyz")
        response = conn.getresponse()
        response.read()
        return response.status
    finally:
        conn.close()


def spawn_server(bins, args, children):
    """Starts `surveyor_cli serve ARGS`; returns (proc, port, setup seconds),
    the setup being spawn to the first 200 on /readyz."""
    port = free_port()
    start = time.perf_counter()
    proc = subprocess.Popen([str(bins["cli"]), "serve", *args,
                             "--admin-port", str(port)],
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    children.append(proc)
    while True:
        try:
            if readyz_status(port) == 200:
                return proc, port, time.perf_counter() - start
        except OSError:
            pass
        if proc.poll() is not None:
            raise BenchError(f"serve exited {proc.returncode} before ready")
        if time.perf_counter() - start > 30:
            raise BenchError("serve not ready after 30 s")
        time.sleep(0.0005)


# --- Workloads ------------------------------------------------------------

def run_serve(bins, inputs, seconds, seed, workdir, mixed, children):
    snapshot_a = inputs / "a" / "opinions.surv"
    snapshot_b = inputs / "b" / "opinions.surv"
    if mixed:
        store = workdir / "generations"
        run_checked([str(bins["tool"]), "publish", "--store", str(store),
                     "--image", str(snapshot_a)])
        serve_args = ["--generations", str(store)]
    else:
        serve_args = ["--snapshot", str(snapshot_a)]

    setup = []
    for _ in range(SETUP_SPAWNS - 1):
        proc, _, took = spawn_server(bins, serve_args, children)
        setup.append(took)
        stop(proc)
    proc, port, took = spawn_server(bins, serve_args, children)
    setup.append(took)

    load_args = [str(bins["tool"]), "load", "--port", str(port),
                 "--snapshot", str(snapshot_a), "--mix",
                 "mixed" if mixed else "point", "--seed", str(seed),
                 "--seconds", str(seconds)]
    if mixed:
        # The tool also publishes the other generation and reloads once
        # per measured slice (writes beside the reads).
        load_args += ["--snapshot-b", str(snapshot_b), "--store", str(store)]
    load = subprocess.Popen(load_args, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    children.append(load)
    out, err = load.communicate()
    if load.returncode != 0:
        raise BenchError(f"load exited {load.returncode}: {err.strip()}")
    result = last_json(out)
    rss = stop(proc)
    if not result["p99_supported"]:
        raise BenchError(f"p99 has only {result['beyond_p99']} samples "
                         "beyond it")
    metrics = {
        "setup_s": statistics.median(setup),
        "req_per_s": result["req_per_s"],
        "p50_ms": result["p50_ms"],
        "p99_ms": result["p99_ms"],
    }
    record = {
        "peak_rss_mb": rss,
        "client_connections": result["connections"],
        "client_cpu_s": result["client_cpu_s"],
        "requests_per_connection": result["per_connection"],
        "latency_samples": result["samples"],
        "slices": result["slices"],
        "fewest_samples_beyond_p99_per_slice": result["beyond_p99"],
        "whole_run": result["whole_run"],
        "requests_by_kind": result["by_kind"],
    }
    reloads = result["reloads"]
    if mixed:
        record["reloads"] = reloads
        record["reload_ms_median"] = statistics.median(reloads["reload_ms"])
        record["publish_ms_median"] = statistics.median(reloads["publish_ms"])
    attempted = result["attempted"] + reloads["attempted"]
    failed = result["failed"] + reloads["failed"]
    return metrics, attempted, failed, record


def run_trace(bins, inputs, manifest, workload, seed, workdir):
    mix = "mixed" if workload == "serve_mixed" else "point"
    snapshot_b = "b" if workload == "serve_mixed" else "a"
    mine = last_json(run_checked(
        [str(bins["tool"]), "trace-mine", "--ws", str(inputs / "a"),
         "--out", str(workdir), "--expect-digest", manifest["digest"]]))
    serve = last_json(run_checked(
        [str(bins["tool"]), "trace-serve", "--snapshot",
         str(inputs / "a" / "opinions.surv"), "--snapshot-b",
         str(inputs / snapshot_b / "opinions.surv"), "--mix", mix,
         "--seed", str(seed), "--out", str(workdir)]))
    # Each part must account for its own wall time: the mine replay runs
    # far longer than the serving passes, so a pooled share would hide a
    # broken serving decomposition.
    shares = {part: (run["wall_ns"] - run["spans_ns"]) / run["wall_ns"]
              for part, run in (("mine", mine), ("serve", serve))}
    metrics = {**mine["metrics"], **serve["metrics"],
               "unattributed.share": max(shares.values())}
    record = {"digest": mine["digest"], "digests_match": mine["digests_match"],
              "unattributed": shares,
              "unattributed_limit": MAX_UNATTRIBUTED,
              "trace_requests_per_kind": serve["requests_per_kind"]}
    failed = serve["failed"] + (0 if mine["digests_match"] else 1)
    for part, share in shares.items():
        if share > MAX_UNATTRIBUTED:
            log(f"{part}: unattributed share {share:.3f} exceeds "
                f"{MAX_UNATTRIBUTED}")
            failed += 1
    return metrics, mine["documents"] + serve["attempted"], failed, record


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    children = []
    try:
        refuse_perturbed_environment()
        build_path = build_dir()
        bins = build(build_path)
        parts = ["a", "b"] if args.workload == "serve_mixed" else ["a"]
        inputs, manifests, fresh = prepare(bins, build_path, args.seed, parts)
        manifest = manifests["a"]
        workdir = build_path / "perfbench-runs" / args.workload
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        if args.trace:
            metrics, attempted, failed, record = run_trace(
                bins, inputs, manifest, args.workload, args.seed, workdir)
        else:
            metrics, attempted, failed, record = run_serve(
                bins, inputs, args.seconds, args.seed, workdir,
                args.workload == "serve_mixed", children)
    except BenchError as error:
        log(str(error))
        return 1
    finally:
        for child in children:
            if child.returncode is None and child.poll() is None:
                child.kill()
                child.wait()

    # A change that alters what Surveyor mines fails every run on a seed
    # whose digest is recorded (perfbench/digests.json, record_digests.py).
    recorded = json.loads((BENCH / "digests.json").read_text()).get(
        str(args.seed))
    if recorded is not None:
        attempted += 1
        if recorded != manifest["digest"]:
            log(f"seed {args.seed} mined to {manifest['digest']}, "
                f"recorded {recorded}")
            failed += 1

    units = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = units["per_layer" if args.trace else "end_to_end"]
    names = {m["name"] for m in declared}
    if set(metrics) != names:
        log(f"metric set mismatch: {sorted(set(metrics) ^ names)}")
        return 1
    run_record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "mining_threads": os.cpu_count(),
        "build_type": cmake_cache(build_path, "CMAKE_BUILD_TYPE"),
        "sanitizer": cmake_cache(build_path, "SURVEYOR_SANITIZE") or "none",
        "git_sha": git_sha(),
        "prepare_s": {part: m["prepare_s"] for part, m in manifests.items()},
        "prepared_in_this_run": fresh,
        "documents": manifest["documents"], "mined_digest": manifest["digest"],
        "recorded_digest": recorded,
        **record,
    }
    print(json.dumps({"run_record": run_record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
