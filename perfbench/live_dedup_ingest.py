"""``live_dedup_ingest``: check-then-insert on one live (LSM) index.

Writes beside reads: for each incoming text, search one window of it at
theta through ``engine.cached_searcher()`` (result cache on, the live
default); texts with no near-duplicate are appended in small batches
under ``ack_policy="batch"``.  The seal threshold makes every run see
several seals and background compactions.  This is the only workload
that exercises ``index.lsm`` and result-cache invalidation.
"""

from __future__ import annotations

import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import inputs
from perfbench.harness import (
    K,
    QUERY_TOKENS,
    T,
    THETA,
    Outcome,
    WorkDir,
    median,
    peak_rss_mib,
    percentile,
    ratio,
    tree_bytes,
)
from perfbench.tracing import Tracer, patch_all

#: The live index's payload codec.  Raw keeps this workload on the
#: write path (seal, compaction, memtable snapshots); the packed
#: codec's decode cost is ``sweep_cold``'s subject.
CODEC = "raw"
#: Set-ups per run.  A live set-up takes about half a second, most of it
#: fsyncs, so its median needs more repeats than the other workloads'.
SETUP_REPEATS = 7


@dataclass(frozen=True)
class Scale:
    preload: int
    stream: int
    mean_length: int
    append_batch: int
    seal_threshold_postings: int
    repeat_every: int
    #: Every this many checks keep their answer for verification.
    check_every: int
    presence_sample: int


FULL = Scale(
    preload=300, stream=4000, mean_length=100, append_batch=16,
    seal_threshold_postings=40_000, repeat_every=10, check_every=32,
    presence_sample=32,
)
TINY = Scale(
    preload=30, stream=200, mean_length=80, append_batch=8,
    seal_threshold_postings=3_000, repeat_every=10, check_every=8,
    presence_sample=8,
)


@dataclass
class Check:
    latency_ms: float
    after_write: bool  # the generation moved since the previous check
    visible_texts: int  # text ids below this were searchable
    matched: bool
    #: The answer, kept only for every ``check_every``-th check so the
    #: benchmark's own memory does not grow with the run.
    result: object | None


@dataclass
class Phase:
    checks: list[Check] = field(default_factory=list)
    acked: list[tuple[int, int]] = field(default_factory=list)  # (id, stream pos)
    ends: list[float] = field(default_factory=list)  # elapsed after each text
    append_ms: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    begin: float = 0.0


def _open(stream: inputs.IngestStream, root: Path, scale: Scale):
    """Create, preload and seal a live engine; returns it, its cached
    searcher, and the set-up seconds."""
    from repro.engine import NearDupEngine
    from repro.index.lsm import LiveIndexConfig

    config = LiveIndexConfig(
        seal_threshold_postings=scale.seal_threshold_postings,
        ack_policy="batch",
        codec=CODEC,
    )
    begin = time.perf_counter()
    engine = NearDupEngine.live(root, k=K, t=T, vocab_size=inputs.VOCAB, config=config)
    for start in range(0, len(stream.preload), 100):
        engine.append_texts(stream.preload[start : start + 100])
    live = engine.live_index
    live.seal()
    while live.compact():
        pass
    searcher = engine.cached_searcher()
    return engine, searcher, time.perf_counter() - begin


def _loop(engine, searcher, stream, seconds: float, scale: Scale) -> Phase:
    live = engine.live_index
    phase = Phase()
    pending: list[int] = []
    last_generation = live.generation

    def flush() -> None:
        texts = [stream.texts[position] for position in pending]
        begin = time.perf_counter()
        ids = engine.append_texts(texts)
        phase.append_ms.append(1e3 * (time.perf_counter() - begin))
        phase.acked.extend(zip(ids, pending))
        pending.clear()

    phase.begin = time.perf_counter()
    for position, text in enumerate(stream.texts):
        if time.perf_counter() - phase.begin >= seconds:
            break
        start = stream.window_starts[position]
        window = text[start : start + QUERY_TOKENS]
        generation = live.generation
        visible = live.num_texts
        begin = time.perf_counter()
        result = searcher.search(window, THETA)
        latency = 1e3 * (time.perf_counter() - begin)
        phase.checks.append(
            Check(
                latency,
                generation != last_generation,
                visible,
                bool(result.matches),
                result if position % scale.check_every == 0 else None,
            )
        )
        last_generation = generation
        if not result.matches:
            pending.append(position)
        if len(pending) >= scale.append_batch:
            flush()
        phase.ends.append(time.perf_counter() - phase.begin)
    if pending:
        flush()
    phase.wall_s = time.perf_counter() - phase.begin
    return phase


def _read_after_write_ratio(phase: Phase) -> float:
    after = [c.latency_ms for c in phase.checks if c.after_write]
    idle = [c.latency_ms for c in phase.checks if not c.after_write]
    return ratio(median(after), median(idle)) if after and idle else 0.0


@contextmanager
def _traced(tracer: Tracer, engine, searcher):
    """Spans around the live index, the searchers and the kernel."""
    import repro.core.search as search_module
    from repro.core.search import NearDuplicateSearcher
    from repro.index.lsm.wal import WriteAheadLog

    live = engine.live_index
    counters = tracer.counters
    specs = [
        (searcher, "search", "query.resultcache.search", {"request": True}),
        (searcher.inner, "search", "index.lsm.live_search", {}),
        (NearDuplicateSearcher, "search", "core.search.search", {}),
        (live.family, "sketch", "core.hashing.sketch", {}),
        (search_module, "fused_collision_count", "core.intervals.kernel", {}),
        (live, "append_texts", "index.lsm.append", {"request": True}),
        (live, "seal", "index.lsm.seal", {
            "on_result": lambda name, args, kwargs: counters.__setitem__(
                "sealed_bytes",
                counters["sealed_bytes"] + (tree_bytes(live.root / name) if name else 0),
            ),
        }),
        (live, "snapshot", "index.lsm.snapshot", {}),
        (WriteAheadLog, "sync", "index.lsm.wal_sync", {}),
        (live, "compact", "index.lsm.compact", {}),
    ]
    with ExitStack() as stack:
        stack.enter_context(patch_all(tracer, specs))
        traced_compact = live.compact

        def compact(*args, **kwargs):
            # Measured outside the span: which runs a merge replaced and
            # how many bytes the merged run holds.  The background
            # compactor polls, so most calls merge nothing; only the
            # calls that merged count as compactions.
            before = list(live.manifest.runs)
            begin = time.perf_counter()
            merged = traced_compact(*args, **kwargs)
            if merged:
                counters["merges"] += 1
                counters["merge_s"] += time.perf_counter() - begin
                after = list(live.manifest.runs)
                gone = [name for name in before if name not in after]
                if gone:
                    name = after[before.index(gone[0])]
                    counters["rewritten_bytes"] += tree_bytes(live.root / name)
            return merged

        live.compact = compact
        stack.callback(setattr, live, "compact", traced_compact)
        yield


def _layers(tracer: Tracer, phase: Phase, untraced: Phase, searcher) -> dict:
    layers = tracer.layers()
    checks = max(1, len(phase.checks))
    texts = max(1, len(phase.ends))
    counters = tracer.counters

    def entry(name):
        return layers.get(name)

    def per(name, count, field="total_s"):
        found = entry(name)
        return 1e3 * getattr(found, field) / count if found and count else 0.0

    def calls(name):
        found = entry(name)
        return found.calls if found else 0

    appended = len(phase.acked)
    common = min(len(phase.ends), len(untraced.ends))
    overhead = (
        100.0 * (phase.ends[common - 1] / untraced.ends[common - 1] - 1)
        if common
        else 0.0
    )
    covered = tracer.covered_seconds(phase.begin, phase.begin + phase.wall_s)
    cache = searcher.result_cache.stats()
    sealed = counters["sealed_bytes"]
    return {
        "core.hashing.sketch_ms": per("core.hashing.sketch", checks),
        "core.search.self_ms": per("core.search.search", checks, "self_s"),
        "core.intervals.kernel_ms": per("core.intervals.kernel", checks),
        "core.intervals.kernel_calls": calls("core.intervals.kernel") / checks,
        "query.resultcache.hit_rate": cache.hit_rate,
        "query.resultcache.invalidations": cache.invalidations,
        "index.lsm.append_ms": per("index.lsm.append", appended, "self_s"),
        "index.lsm.wal_syncs": calls("index.lsm.wal_sync"),
        "index.lsm.seal_ms": per("index.lsm.seal", calls("index.lsm.seal")),
        "index.lsm.seals": calls("index.lsm.seal"),
        "index.lsm.compact_ms": 1e3 * ratio(counters["merge_s"], counters["merges"]),
        "index.lsm.compactions": counters["merges"],
        "index.lsm.bytes_rewritten": counters["rewritten_bytes"],
        "index.lsm.snapshot_ms": per("index.lsm.snapshot", calls("index.lsm.snapshot")),
        "index.lsm.snapshots": calls("index.lsm.snapshot"),
        "index.lsm.generations": sum(1 for c in phase.checks if c.after_write),
        "index.lsm.write_amplification": ratio(
            sealed + counters["rewritten_bytes"], sealed
        ),
        "index.lsm.read_after_write_ratio": _read_after_write_ratio(untraced),
        "index.lsm.live_search_ms": per("index.lsm.live_search", checks, "self_s"),
        "trace.overhead_pct": overhead,
        "trace.unaccounted_frac": 1.0 - ratio(covered, phase.wall_s),
        "trace.ops": texts,
    }


def _check(engine, searcher, stream, phase: Phase, scale: Scale, outcome: Outcome):
    """Acknowledged ids are present and dense; sampled checks equal a
    search over an offline build of every accepted text."""
    from repro.core.hashing import HashFamily
    from repro.core.search import NearDuplicateSearcher
    from repro.corpus.corpus import InMemoryCorpus
    from repro.index.builder import build_memory_index

    live = engine.live_index
    outcome.attempted += len(phase.checks) + len(phase.acked)
    failures = 0
    preload = len(stream.preload)
    ids = [text_id for text_id, _ in phase.acked]
    if ids != list(range(preload, preload + len(ids))):
        failures += 1
        outcome.errors.append("acknowledged ids are not the dense range after preload")
    if live.num_texts != preload + len(ids):
        failures += 1
        outcome.errors.append(
            f"live index holds {live.num_texts} texts, expected {preload + len(ids)}"
        )
    accepted = list(stream.preload) + [stream.texts[pos] for _, pos in phase.acked]
    step = max(1, len(phase.acked) // max(1, scale.presence_sample))
    for text_id, position in phase.acked[::step]:
        start = stream.window_starts[position]
        window = stream.texts[position][start : start + QUERY_TOKENS]
        found = {m.text_id for m in searcher.search(window, THETA).matches}
        if text_id not in found:
            failures += 1
            outcome.errors.append(f"acknowledged text {text_id} is not searchable")
    offline = NearDuplicateSearcher(
        build_memory_index(
            InMemoryCorpus(accepted), HashFamily(k=K, seed=0), T,
            vocab_size=inputs.VOCAB,
        )
    )
    for position in range(0, len(phase.checks), scale.check_every):
        check = phase.checks[position]
        start = stream.window_starts[position]
        window = stream.texts[position][start : start + QUERY_TOKENS]
        expected = offline.search(window, THETA)
        want = [
            _match(m) for m in expected.matches if m.text_id < check.visible_texts
        ]
        got = [_match(m) for m in check.result.matches]
        if want != got or expected.beta != check.result.beta:
            failures += 1
            outcome.errors.append(f"check {position} differs from the offline build")
    outcome.failed += failures


def _exact_counts(phase: Phase, texts: int = 500) -> dict:
    """Counts over the first stream texts, which depend only on the seed:
    check answers do not depend on seal or compaction timing."""
    checks = phase.checks[:texts]
    return {
        "texts": len(checks),
        "checks_with_matches": sum(1 for c in checks if c.matched),
        "accepted": sum(1 for _, position in phase.acked if position < len(checks)),
    }


def _match(match) -> tuple:
    return (
        match.text_id,
        tuple((r.i_lo, r.i_hi, r.j_lo, r.j_hi, r.count) for r in match.rectangles),
    )


def _tokens(stream, phase: Phase) -> int:
    """Tokens in the live index: the preload plus every accepted text."""
    return sum(int(t.size) for t in stream.preload) + sum(
        int(stream.texts[pos].size) for _, pos in phase.acked
    )


def _end_to_end(phase: Phase, setups: list[float]) -> dict:
    """Every end-to-end metric except the index size, read after close."""
    latencies = [c.latency_ms for c in phase.checks]
    texts_per_s = len(phase.ends) / phase.wall_s
    return {
        "setup_s": median(setups),
        "queries_per_s": len(latencies) / (sum(latencies) / 1e3),
        "query_p50_ms": percentile(latencies, 50),
        "query_p99_ms": percentile(latencies, 99),
        # One client, no arrivals to queue: the highest sustainable
        # request rate is the closed loop's, one check per text.
        "max_rate_qps": texts_per_s,
        "ingest_texts_per_s": texts_per_s,
        "peak_rss_mb": peak_rss_mib(),
    }


def run(seed: int, seconds: float, trace: bool, scale: Scale = FULL) -> Outcome:
    stream = inputs.ingest_stream(
        scale.preload, scale.stream, scale.mean_length, seed,
        repeat_every=scale.repeat_every,
    )
    outcome = Outcome(metrics={}, attempted=0, failed=0)
    info: dict = {
        "sizes": {"preload": scale.preload, "stream": len(stream.texts),
                  "mean_length": scale.mean_length,
                  "append_batch": scale.append_batch},
        "config": {"seal_threshold_postings": scale.seal_threshold_postings,
                   "ack_policy": "batch", "codec": CODEC,
                   "cached_searcher": "defaults (32 MiB list cache, "
                                      "1024-entry result cache)"},
        "varies_run_to_run": ["every time", "compactions (background thread)"],
    }
    with WorkDir("live_dedup_ingest") as work:
        setups: list[float] = []
        engines = []
        try:
            for repeat in range(SETUP_REPEATS):
                engine, searcher, seconds_taken = _open(
                    stream, work / f"live{repeat}", scale
                )
                setups.append(seconds_taken)
                engines.append(engine)
                if repeat < SETUP_REPEATS - 1:
                    engine.close()
            info["setups"] = setups
            if not trace:
                phase = _loop(engine, searcher, stream, seconds, scale)
                outcome.metrics = _end_to_end(phase, setups)
                info["read_after_write_ratio"] = _read_after_write_ratio(phase)
            else:
                untraced = _loop(engine, searcher, stream, seconds / 2, scale)
                _check(engine, searcher, stream, untraced, scale, outcome)
                engine.close()
                engine, searcher, _ = _open(stream, work / "traced", scale)
                engines.append(engine)
                tracer = Tracer()
                with _traced(tracer, engine, searcher):
                    phase = _loop(engine, searcher, stream, seconds / 2, scale)
                outcome.metrics = _layers(tracer, phase, untraced, searcher)
            latencies = [check.latency_ms for check in phase.checks]
            p99 = percentile(latencies, 99)
            info["checks"] = len(latencies)
            if phase.append_ms:
                info["append_ms"] = {
                    "p50": percentile(phase.append_ms, 50),
                    "p99": percentile(phase.append_ms, 99),
                    "appends": len(phase.append_ms),
                }
            info["samples_beyond_p99"] = sum(1 for v in latencies if v > p99)
            info["status"] = engine.live_index.status()
            info["exact_counts"] = _exact_counts(phase)
            _check(engine, searcher, stream, phase, scale, outcome)
            if not trace:
                # Closing stops the compactor, so the size is read from
                # a root no merge is rewriting.
                engine.close()
                outcome.metrics["index_bytes_per_token"] = (
                    tree_bytes(engine.live_index.root) / _tokens(stream, phase)
                )
        finally:
            for engine in engines:
                engine.close()
    outcome.info = info
    return outcome
