"""Write perfbench/golden.json: the outputs the gate pins at the default seed.

Run from the root of a checkout whose outputs are trusted:

    python3 perfbench/record_golden.py

Re-recording replaces every pinned value, so it belongs only in a change
that is meant to alter the program's outputs, and that change says so.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile

import run
from workloads import CONSTANTS, DEFAULT_SEED, GOLDEN_PATH, SIZES, Cli, Slope


def record(ws, size: str, workdir: str) -> dict:
    slope = Slope(ws, DEFAULT_SEED, size, workdir)
    slope.prepare()
    res, _ = slope.call(0, in_process=False)
    cli = Cli(ws, DEFAULT_SEED, size, workdir)
    cli.prepare()
    out, _ = cli.call(0, in_process=False)
    if any(o["code"] != 0 for o in out.values()):
        raise SystemExit("a CLI command failed; nothing recorded")
    digests = {}
    for ext in ("csv", "svg"):
        with open(os.path.join(workdir, "region." + ext), "rb") as fh:
            digests[ext + "_sha256"] = hashlib.sha256(fh.read()).hexdigest()
    with open(os.path.join(workdir, "image.json"), encoding="utf-8") as fh:
        image = json.load(fh)["values"]
    constants = json.loads(out["constants"]["stdout"])
    return {
        "slope": {"rows": [[r.apvec, r.weak, r.strong] for r in res.rows]},
        "cli": {
            "exponents": json.loads(out["exponents"]["stdout"]),
            "region": {"report": json.loads(out["region"]["stdout"]), **digests},
            "constants": {k: constants[k] for k in CONSTANTS},
            "sparse_eval": {"sum": sum(image), "max": max(image)},
        },
    }


def main() -> int:
    ws = run._import_weaksparse()
    os.makedirs(run.OUT, exist_ok=True)
    doc = {}
    for size in SIZES:
        workdir = tempfile.mkdtemp(prefix="golden-", dir=run.OUT)
        try:
            doc[size] = record(ws, size, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
