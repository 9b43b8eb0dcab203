#!/usr/bin/env python3
"""Checks surveyor_cli's readers end to end on a freshly mined world.

Usage: check_cli_readers.py CLI WORKDIR SCENARIO --only-snapshot
       check_cli_readers.py CLI WORKDIR SCENARIO --domain D
       check_cli_readers.py CLI WORKDIR SCENARIO EXPECTED [STDIN] -- CMD [ARG..]

Generates SCENARIO's world into WORKDIR (emptied first, so each check owns
its directory) and mines it with a bare `mine WORKDIR`. --only-snapshot
then asserts that the mine left one opinion file, WORKDIR/opinions.surv.
--domain D instead tags every even-numbered document with domain D, puts
one malformed line into the corpus and mines with `--domain D`: the run
must exit 0, mine exactly the tagged documents and quarantine one.
Otherwise `CLI CMD WORKDIR ARG..` runs with the file STDIN (if given) as
its input, and its stdout must equal the file EXPECTED byte for byte.
"""
import difflib
import shutil
import subprocess
import sys
from pathlib import Path

WORLD_FILES = {"kb.tsv", "lexicon.tsv", "corpus.tsv", "truth.tsv"}


def run(*args, stdin=b""):
    out = subprocess.run([str(a) for a in args], input=stdin,
                         capture_output=True)
    if out.returncode != 0:
        sys.exit(f"{' '.join(map(str, args))} exited {out.returncode}:\n"
                 f"{out.stderr.decode(errors='replace')}")
    return out.stdout.decode()


def check_domain(cli, workdir, domain):
    corpus = workdir / "corpus.tsv"
    lines = []
    tagged = 0
    for line in corpus.read_text().splitlines(True):
        fields = line.split("\t", 2)
        if len(fields) == 3 and fields[0].isdigit() and int(fields[0]) % 2 == 0:
            fields[1] = domain
            tagged += 1
        lines.append("\t".join(fields))
    lines.insert(5, "not a document\n")
    corpus.write_text("".join(lines))
    out = run(cli, "mine", workdir, "--domain", domain)
    for want in (f" from {tagged} documents ",
                 "run degraded: 1 docs quarantined,"):
        if want not in out:
            sys.exit(f"mine --domain {domain} printed no '{want}':\n{out}")
    return 0


def main(cli, workdir, scenario, *check):
    workdir = Path(workdir)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run(cli, "worldgen", scenario, workdir)
    if check[0] == "--domain":
        return check_domain(cli, workdir, check[1])
    run(cli, "mine", workdir)
    if check == ("--only-snapshot",):
        mined = sorted({p.name for p in workdir.iterdir()} - WORLD_FILES)
        if mined != ["opinions.surv"]:
            sys.exit(f"mine left {mined}, expected only ['opinions.surv']")
        return 0
    split = check.index("--")
    expected_path, *stdin_path = check[:split]
    command, *args = check[split + 1:]
    stdin = Path(stdin_path[0]).read_bytes() if stdin_path else b""
    actual = run(cli, command, workdir, *args, stdin=stdin)
    expected = Path(expected_path).read_text()
    if actual == expected:
        return 0
    sys.stdout.writelines(difflib.unified_diff(
        expected.splitlines(True), actual.splitlines(True), expected_path,
        "actual"))
    return 1


if __name__ == "__main__":
    if len(sys.argv) < 5:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
