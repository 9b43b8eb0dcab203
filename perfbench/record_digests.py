#!/usr/bin/env python3
"""Records the mine digest of each given seed into perfbench/digests.json.

    python3 perfbench/record_digests.py 0-40 101-110

run.py fails every run on a seed whose prepared snapshot digests differently
from the value recorded here, so a change that alters what Surveyor mines
shows up as failed benchmark runs. Re-record only when an output change is
intended. Prepared inputs are remade whenever the binaries that made them
change, so after such a change each seed is mined afresh before its digest
is recorded.
"""

import json
import sys

import run


def seeds(specs):
    for spec in specs:
        first, _, last = spec.partition("-")
        yield from range(int(first), int(last or first) + 1)


def main():
    build = run.build_dir()
    bins = run.build(build)
    path = run.BENCH / "digests.json"
    recorded = json.loads(path.read_text()) if path.exists() else {}
    for seed in seeds(sys.argv[1:]):
        _, manifests, _ = run.prepare(bins, build, seed, ["a"])
        recorded[str(seed)] = manifests["a"]["digest"]
        run.log(f"seed {seed}: {recorded[str(seed)]}")
    path.write_text(json.dumps(dict(sorted(recorded.items(),
                                           key=lambda kv: int(kv[0]))),
                               indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
