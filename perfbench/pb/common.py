"""Paths, host facts and scratch space shared by the workloads."""

from __future__ import annotations

import os
import resource
import shutil
import sys
import tempfile
from typing import Dict, Optional

#: the checkout root (this file is perfbench/pb/common.py)
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
#: everything the benchmark writes lives under here (git-ignored)
OUT = os.path.join(ROOT, "perfbench", "out")


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src``, here and in every
    subprocess started later (the server, set-up probes); exit 2 if it is
    absent."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no program source at {SRC}\n")
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = SRC + os.pathsep + os.environ.get("PYTHONPATH", "")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def scratch_dir(prefix: str) -> str:
    os.makedirs(OUT, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=OUT)


def remove(path: Optional[str]) -> None:
    if path:
        shutil.rmtree(path, ignore_errors=True)


def self_and_children_peak_rss_mb() -> float:
    """Peak RSS of this process and of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is KiB on Linux


def process_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cache_entry_bytes(root: str) -> float:
    """Mean size of the result-cache entries under ``root``."""
    sizes = [
        os.path.getsize(os.path.join(dirpath, name))
        for dirpath, _, names in os.walk(root)
        for name in names
        if name.endswith(".json.gz")
    ]
    return sum(sizes) / len(sizes)


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}
