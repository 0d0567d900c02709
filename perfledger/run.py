#!/usr/bin/env python3
"""Build the ledger from source and run one workload.

    python3 perfledger/run.py --workload eval --seed 7 --seconds 30 --trace 0

Run it from the root of the repository.  It builds perfledger/ledger.exe
with dune inside the repository (the build directory is _build), then
runs it with the same arguments.  The last line of standard output is
the JSON result; the exit code is the ledger's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    out = os.path.join(HERE, "_out")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    # Keep every build artefact and compiler temporary inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    env["TMPDIR"] = tmp
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet",
         "./perfledger/ledger.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfledger: build failed", file=sys.stderr)
        return 3
    exe = os.path.join(ROOT, "_build", "default", "perfledger", "ledger.exe")
    sys.stdout.flush()
    return subprocess.run([exe, "--out", out] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
