"""Run manifest and the modelled-output determinism check.

The manifest records what a result was produced from: workload seed and
parameters, the library configuration's repr, commit, Python version,
processor count and a host tag.  Inside a plain source tree (no
``.git``) the commit reads ``PERFBENCH_COMMIT`` or ``unknown``; the host
tag is ``PERFBENCH_HOST`` or the node name and machine type.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

#: hash seeds the determinism check runs under
HASH_SEEDS = ("0", "1")


def _commit(root: Path) -> str:
    if os.environ.get("PERFBENCH_COMMIT"):
        return os.environ["PERFBENCH_COMMIT"]
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _host_tag() -> str:
    return os.environ.get("PERFBENCH_HOST") \
        or f"{platform.node()}/{platform.machine()}"


def manifest(args, wl, root: Path) -> Dict[str, object]:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": wl.params(),
        "config": wl.config_repr(),
        "commit": _commit(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "host": _host_tag(),
    }


def _digest_of(output: str) -> Optional[Dict[str, int]]:
    for line in output.splitlines():
        if line.startswith("digest {"):
            return json.loads(line[len("digest "):])
    return None


def digest_check(script: Path, workload: str, seed: int) -> int:
    """Run the workload twice under each hash seed; compare the digests.

    Returns 0 when all four digests agree exactly.  A difference is
    printed key by key: it is a finding about the library's determinism,
    not something to hide by pinning the hash seed.
    """
    runs: List[tuple] = []
    for hash_seed in HASH_SEEDS:
        for repeat in (1, 2):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [sys.executable, str(script), "--workload", workload,
                 "--seed", str(seed), "--seconds", "1", "--trace", "0"],
                env=env, capture_output=True, text=True, timeout=170,
                check=False)
            digest = _digest_of(proc.stdout)
            if proc.returncode != 0 or digest is None:
                print(f"run PYTHONHASHSEED={hash_seed} #{repeat} failed "
                      f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
                return 2
            runs.append((hash_seed, repeat, digest))
            print(f"PYTHONHASHSEED={hash_seed} run {repeat}: "
                  + json.dumps(digest, sort_keys=True))
    reference = runs[0][2]
    same = True
    for hash_seed, repeat, digest in runs[1:]:
        for key in sorted(set(reference) | set(digest)):
            if reference.get(key) != digest.get(key):
                same = False
                print(f"DIFFERS: {key} = {digest.get(key)} under "
                      f"PYTHONHASHSEED={hash_seed} run {repeat}, "
                      f"{reference.get(key)} in the first run")
    print(f"{workload} seed {seed}: digests "
          + ("identical" if same else "DIFFER"))
    return 0 if same else 1
