"""Shared plumbing: metric catalogue, statistics, provenance, results."""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

#: The checkout root (parent of this package's directory).
ROOT = Path(__file__).resolve().parent.parent

#: Similarity threshold and index parameters shared by every workload.
THETA = 0.8
K = 32
T = 25
#: Tokens per query window.
QUERY_TOKENS = 64

#: End-to-end metrics (name -> unit), printed by every untraced run.
END_TO_END = {
    "setup_s": "s",
    "queries_per_s": "queries/s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "max_rate_qps": "requests/s",
    "ingest_texts_per_s": "texts/s",
    "index_bytes_per_token": "bytes/token",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics (name -> unit), printed by every traced run.  A
#: layer a workload does not exercise reads 0 there; the result's
#: provenance names those under ``not_measured``.
PER_LAYER = {
    "index.builder.build_s": "s",
    "index.storage.write_s": "s",
    "index.storage.open_s": "s",
    "service.server.startup_s": "s",
    "core.hashing.sketch_ms": "ms/query",
    "core.search.self_ms": "ms/query",
    "core.search.postings_per_query": "postings",
    "core.search.candidate_yield": "fraction",
    "core.intervals.kernel_ms": "ms/query",
    "core.intervals.kernel_calls": "calls/query",
    "index.storage.load_list_ms": "ms/query",
    "index.storage.load_list_calls": "calls/query",
    "index.storage.point_read_ms": "ms/query",
    "index.storage.point_read_calls": "calls/query",
    "index.storage.lengths_ms": "ms/query",
    "index.storage.bytes_read": "bytes/query",
    "index.storage.decoded_bytes": "bytes/query",
    "index.storage.decode_yield": "fraction",
    "index.cache.lookup_ms": "ms/query",
    "index.cache.hit_rate": "fraction",
    "index.cache.evictions": "count",
    "index.cache.admission_rejections": "count",
    "index.cache.singleflight_waits": "count",
    "query.planner.plan_ms": "ms/query",
    "query.planner.unique_fraction": "fraction",
    "query.executor.execute_ms": "ms/query",
    "query.executor.pinned_lists": "lists/batch",
    "query.resultcache.hit_rate": "fraction",
    "query.resultcache.invalidations": "count",
    "index.lsm.append_ms": "ms/text",
    "index.lsm.wal_syncs": "count",
    "index.lsm.seal_ms": "ms/seal",
    "index.lsm.seals": "count",
    "index.lsm.compact_ms": "ms/compaction",
    "index.lsm.compactions": "count",
    "index.lsm.bytes_rewritten": "bytes",
    "index.lsm.snapshot_ms": "ms/snapshot",
    "index.lsm.snapshots": "count",
    "index.lsm.generations": "count",
    "index.lsm.write_amplification": "ratio",
    "index.lsm.read_after_write_ratio": "ratio",
    "index.lsm.live_search_ms": "ms/query",
    "service.client.rtt_ms": "ms",
    "service.server.total_ms": "ms",
    "service.batcher.queue_ms": "ms",
    "service.batcher.batch_size": "requests",
    "service.search.compute_ms": "ms",
    "service.protocol.overhead_ms": "ms",
    "service.server.shed": "count",
    "service.server.timeouts": "count",
    "loadgen.late_ms": "ms",
    "loadgen.backlog": "requests",
    "trace.overhead_pct": "%",
    "trace.unaccounted_frac": "fraction",
    "trace.ops": "count",
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (missing program, bad arguments)."""


def require_program() -> None:
    """Put the checkout's ``src`` on the import path, or fail."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"program source not found under {source}")
    if str(source) not in sys.path:
        sys.path.insert(0, str(source))


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] (numpy's default)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    lo = math.floor(position)
    hi = min(lo + 1, len(ordered) - 1)
    if position == lo or ordered[lo] == ordered[hi]:
        return ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (position - lo)


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# Host and files
# ----------------------------------------------------------------------
def peak_rss_mib(pid: int | str = "self") -> float:
    """``VmHWM`` (peak resident set) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchmarkError(f"no VmHWM for process {pid}")


def tree_bytes(path: Path) -> int:
    """Bytes of every regular file under ``path``.

    Tolerates entries that vanish during the walk (a live index's
    background compaction deletes merged runs).
    """
    total = 0
    for directory, _, files in os.walk(path):
        for name in files:
            try:
                total += os.stat(os.path.join(directory, name)).st_size
            except FileNotFoundError:
                pass
    return total


def git_commit() -> str:
    """The checkout's commit, when it is a git work tree."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def provenance(seed: int, seconds: float, trace: bool) -> dict:
    import numpy

    from perfbench.loadgen import LADDER

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "theta": THETA,
        "k": K,
        "t": T,
        "rate_ladder": {"first": LADDER[0], "ratio": 1.05, "last": LADDER[-1]},
    }


class WorkDir:
    """A per-run scratch directory inside the checkout, removed on exit."""

    def __init__(self, workload: str) -> None:
        self.path = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"

    def __enter__(self) -> Path:
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        parent = self.path.parent
        try:
            parent.rmdir()
        except OSError:
            pass


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one workload run produced."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    info: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.errors


def result_line(outcome: Outcome, catalogue: dict[str, str]) -> str:
    """The final JSON line: exactly the catalogue's metrics, with units."""
    missing = sorted(set(catalogue) - set(outcome.metrics))
    if missing:
        raise BenchmarkError(f"workload did not produce metrics {missing}")
    metrics = {}
    for name, unit in catalogue.items():
        value = float(outcome.metrics[name])
        if not math.isfinite(value):
            raise BenchmarkError(f"metric {name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": unit}
    return json.dumps(
        {
            "correct": outcome.correct,
            "attempted": int(outcome.attempted),
            "failed": int(outcome.failed),
            "metrics": metrics,
        }
    )


def fill_layers(measured: dict[str, float]) -> tuple[dict[str, float], list[str]]:
    """Every per-layer metric, 0 where this workload measured none."""
    unknown = sorted(set(measured) - set(PER_LAYER))
    if unknown:
        raise BenchmarkError(f"unknown per-layer metrics {unknown}")
    not_measured = [name for name in PER_LAYER if name not in measured]
    return {name: float(measured.get(name, 0.0)) for name in PER_LAYER}, not_measured
