"""Record reference artifact digests for the ``reproduce`` workloads.

Runs the program's own reproduction once per program seed,

    python -m repro.harness.reproduce --scale <SCALE> --seed N --output DIR

and stores the SHA-256 of every artifact it writes in
``reference_digests.json``.  Run it from the repository root after a
change that is meant to alter artifacts (serially, about 5 s per seed on
a 2-CPU host):

    python3 pbbench/make_reference.py
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from reproduce_load import REFERENCE_FILE, REFERENCE_SEEDS, SCALE  # noqa: E402


def digests_for(seed: int, workdir: str) -> dict[str, str]:
    out = os.path.join(workdir, f"seed-{seed}")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run(
        [sys.executable, "-m", "repro.harness.reproduce", "--scale", str(SCALE),
         "--seed", str(seed), "--output", out, "-q", "-q"],
        check=True, env=env, cwd=ROOT,
    )
    found = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as handle:
            found[name] = hashlib.sha256(handle.read()).hexdigest()
    shutil.rmtree(out)
    return found


def main() -> int:
    workdir = tempfile.mkdtemp(prefix="pbbench-ref-", dir=ROOT)
    try:
        digests = {}
        for seed in range(REFERENCE_SEEDS):
            digests[str(seed)] = digests_for(seed, workdir)
            print(f"seed {seed}: {len(digests[str(seed)])} artifacts", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCE_FILE, "w") as handle:
        json.dump({"scale": SCALE, "digests": digests}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
