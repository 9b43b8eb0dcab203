#!/usr/bin/env python3
"""Checks that `surveyor_cli serve --admin-port 0` tells a supervisor its port.

Usage: check_serve_banner.py CLI WORKDIR

Mines the tiny world into WORKDIR (emptied first), then starts `serve` three
ways with stdout on a pipe, as a supervisor would: on the snapshot, on an
empty generation store and on a store holding one published generation.
Each time the banner line must arrive within a timeout and name the port
the kernel picked; /readyz on that port must answer 200 once a snapshot is
loaded, and /healthz must answer 200 while the store is still empty.
"""
import http.client
import os
import re
import select
import shutil
import subprocess
import sys
import time
from pathlib import Path

BANNER_TIMEOUT_S = 20.0
PORT = re.compile(r"http://127\.0\.0\.1:(\d+)")


# The check asserts exact outcomes (a publish lands, a load succeeds), so its
# processes run without an armed fault profile, as tests that assert exact
# store and swap outcomes do.
ENV = {k: v for k, v in os.environ.items()
       if k not in ("SURVEYOR_FAULTS", "SURVEYOR_FAULT_SEED")}


def run(*args):
    out = subprocess.run([str(a) for a in args], capture_output=True, env=ENV)
    if out.returncode != 0:
        sys.exit(f"{' '.join(map(str, args))} exited {out.returncode}:\n"
                 f"{out.stderr.decode(errors='replace')}")


def banner(proc):
    """The first stdout line of `proc`, or exits when none comes in time."""
    deadline = time.monotonic() + BANNER_TIMEOUT_S
    line = b""
    while not line.endswith(b"\n"):
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([proc.stdout], [], [], left)[0]:
            sys.exit(f"no banner line within {BANNER_TIMEOUT_S} s "
                     f"(read {line!r})")
        chunk = proc.stdout.read1(4096)
        if not chunk:
            sys.exit(f"serve exited {proc.wait()} before its banner "
                     f"(read {line!r})")
        line += chunk
    return line.split(b"\n", 1)[0].decode()


def status(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5.0)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        response.read()
        return response.status
    finally:
        conn.close()


def check(cli, serve_args, expect_start, path):
    proc = subprocess.Popen([str(cli), "serve", *serve_args,
                             "--admin-port", "0"],
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            env=ENV)
    try:
        line = banner(proc)
        if not line.startswith(expect_start):
            sys.exit(f"banner {line!r} does not start with {expect_start!r}")
        match = PORT.search(line)
        if match is None or int(match.group(1)) == 0:
            sys.exit(f"banner {line!r} names no port")
        got = status(int(match.group(1)), path)
        if got != 200:
            sys.exit(f"{path} answered {got} after {line!r}")
    finally:
        proc.kill()
        proc.wait()


def main(cli, workdir):
    workdir = Path(workdir)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run(cli, "worldgen", "tiny", workdir)
    run(cli, "mine", workdir)
    check(cli, ["--snapshot", workdir / "opinions.surv"], "serving ",
          "/readyz")
    store = workdir / "generations"
    store.mkdir()
    check(cli, ["--generations", store], "no generations in ", "/healthz")
    run(cli, "mine", workdir, "--publish", store)
    check(cli, ["--generations", store], "serving generation 1 ", "/readyz")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
