"""``sweep_cold``: an offline memorization sweep over a packed index.

One client runs unique query batches back to back (closed loop)
through ``BatchQueryExecutor`` in planned mode, over an on-disk format
v2 (packed) index whose list cache holds at most a quarter of the
decoded bytes the queries touch — the paper's own workload, with a
working set larger than the cache.
"""

from __future__ import annotations

import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass

from perfbench import inputs
from perfbench.harness import (
    K,
    T,
    THETA,
    Outcome,
    median,
    peak_rss_mib,
    percentile,
    ratio,
    tree_bytes,
    WorkDir,
)
from perfbench.tracing import Tracer, patch_all

#: QueryStats counters that are a pure function of the query sequence
#: and a fresh cache, so they repeat exactly for the same seed.
EXACT_COUNTERS = (
    "lists_loaded",
    "long_lists",
    "point_reads",
    "groups_scanned",
    "candidates",
    "texts_matched",
    "io_calls",
    "io_bytes",
)
#: Batches over which the exact counts are reported.
EXACT_BATCHES = 4


@dataclass(frozen=True)
class Scale:
    texts: int
    mean_length: int
    queries: int
    batch: int
    #: Queries whose touched list bytes size the cache (a quarter).
    budget_queries: int
    #: Every this many answers is also compared against the reference
    #: kernel (every answer is compared against the fused kernel over
    #: the in-memory build).
    reference_every: int


FULL = Scale(
    texts=400, mean_length=300, queries=4000, batch=64, budget_queries=1000,
    reference_every=24,
)
TINY = Scale(
    texts=40, mean_length=120, queries=160, batch=16, budget_queries=48,
    reference_every=4,
)
#: Set-ups per run; ``setup_s`` is their median.  The measured sweep
#: runs in as many slices, one after each set-up, and each slice's
#: answers are checked before the next set-up.  The host's speed drifts
#: over tens of seconds, so a sweep spread over the whole run varies
#: less from run to run than one measured in a single stretch.
SETUP_REPEATS = 3


@dataclass
class Phase:
    results: list
    batch_stats: list
    #: Per query: its own search time plus an equal share of the rest of
    #: its batch (planning, pinning the shared lists), so the latencies
    #: of a batch add up to the batch's wall time.
    latencies_ms: list[float]
    #: Measured seconds up to the end of each batch (the pauses between
    #: slices are not counted).
    batch_ends: list[float]
    wall_s: float
    cache_before: object
    cache_after: object
    io_before: tuple
    io_after: tuple


def _setup(data, directory):
    from repro.core.hashing import HashFamily
    from repro.index.builder import build_memory_index
    from repro.index.storage import DiskInvertedIndex, write_index

    begin = time.perf_counter()
    memory = build_memory_index(
        data.corpus, HashFamily(k=K, seed=0), T, vocab_size=data.vocab_size
    )
    built = time.perf_counter()
    write_index(memory, directory, codec="packed")
    written = time.perf_counter()
    disk = DiskInvertedIndex(directory)
    opened = time.perf_counter()
    return memory, disk, {
        "build_s": built - begin,
        "write_s": written - built,
        "open_s": opened - written,
        "total_s": opened - begin,
    }


def _cache_budget(disk, queries) -> int:
    """A quarter of the decoded bytes of every list the queries name."""
    from repro.index.inverted import POSTING_BYTES

    touched: dict[tuple[int, int], int] = {}
    for query in queries:
        sketch = disk.family.sketch(query)
        lengths = disk.sketch_list_lengths(sketch)
        for func in range(K):
            touched[(func, int(sketch[func]))] = int(lengths[func]) * POSTING_BYTES
    return max(1, sum(touched.values()) // 4)


def _io(disk) -> tuple:
    stats = disk.io_stats
    return (stats.bytes_read, stats.read_calls, stats.decoded_bytes)


class Sweep:
    """One closed-loop sweep over the query pool, run in slices.

    Each :meth:`run_for` call continues where the last stopped, with the
    same executor and list cache, so slices separated by other work add
    up to one sweep; only the time inside the slices is measured.
    """

    def __init__(self, disk, budget, queries, batch, tracer=None) -> None:
        from repro.core.search import NearDuplicateSearcher
        from repro.index.cache import CachedIndexReader
        from repro.query.executor import BatchQueryExecutor

        self.disk = disk
        self.queries = queries
        self.batch = batch
        self.tracer = tracer
        self.reader = CachedIndexReader(disk, capacity_bytes=budget)
        self.searcher = NearDuplicateSearcher(self.reader)
        self.executor = BatchQueryExecutor(self.searcher, workers=1, cache_bytes=budget)
        self._searched: list[float] = []
        search = self.searcher.search

        def timed_search(query, theta, **kwargs):
            begin = time.perf_counter()
            result = search(query, theta, **kwargs)
            self._searched.append(1e3 * (time.perf_counter() - begin))
            return result

        self.searcher.search = timed_search
        self.specs = [] if tracer is None else self._trace_specs(tracer)
        self.phase = Phase([], [], [], [], 0.0, self.reader.stats(), None, _io(disk), ())

    def _trace_specs(self, tracer: Tracer) -> list:
        import repro.core.search as search_module
        import repro.query.executor as executor_module

        counters = tracer.counters
        disk, reader = self.disk, self.reader

        def returned(key):
            def hook(result, args, kwargs):
                counters[key] += int(result.size)

            return hook

        def searched(result, args, kwargs):
            counters["candidates"] += result.stats.candidates
            counters["matched"] += result.stats.texts_matched

        return [
            (self.executor, "execute", "query.executor.execute", {"request": True}),
            (executor_module, "plan_batch", "query.planner.plan_batch", {}),
            (self.searcher, "search", "core.search.search",
             {"request": True, "on_result": searched}),
            (disk.family, "sketch", "core.hashing.sketch", {}),
            (disk, "sketch_list_lengths", "index.storage.lengths", {}),
            (disk, "load_list", "index.storage.load_list",
             {"on_result": returned("storage_postings")}),
            (disk, "load_texts_windows", "index.storage.point_read",
             {"on_result": returned("storage_postings")}),
            (disk, "load_text_windows", "index.storage.point_read",
             {"on_result": returned("storage_postings")}),
            (reader, "load_list", "index.cache.lookup",
             {"on_result": returned("search_postings")}),
            (reader, "load_texts_windows", "index.cache.lookup",
             {"on_result": returned("search_postings")}),
            (search_module, "fused_collision_count", "core.intervals.kernel", {}),
        ]

    def run_for(self, seconds: float) -> None:
        """Run whole batches until ``seconds`` of this slice have passed."""
        phase = self.phase
        position = len(phase.results)
        traced = patch_all(self.tracer, self.specs) if self.specs else nullcontext()
        with traced:
            begin = time.perf_counter()
            while position < len(self.queries) and time.perf_counter() - begin < seconds:
                chunk = self.queries[position : position + self.batch]
                batch_begin = time.perf_counter()
                outcome = self.executor.execute(chunk, THETA)
                batch_ms = 1e3 * (time.perf_counter() - batch_begin)
                phase.results.extend(outcome.results)
                phase.batch_stats.append(outcome.stats)
                phase.batch_ends.append(phase.wall_s + time.perf_counter() - begin)
                position += len(chunk)
                searched = self._searched[:]
                self._searched.clear()
                share = (batch_ms - sum(searched)) / max(1, len(searched))
                phase.latencies_ms.extend(ms + share for ms in searched)
            phase.wall_s += time.perf_counter() - begin
        if position >= len(self.queries):
            print("sweep_cold: query pool exhausted before time ran out",
                  file=sys.stderr)

    def close(self) -> Phase:
        self.executor.close()
        self.phase.cache_after = self.reader.stats()
        self.phase.io_after = _io(self.disk)
        return self.phase


def _measure(disk, budget, queries, seconds, batch, tracer=None) -> Phase:
    """One sweep of ``seconds`` in a single slice."""
    sweep = Sweep(disk, budget, queries, batch, tracer)
    sweep.run_for(seconds)
    return sweep.close()


def _signature(result) -> tuple:
    return (
        result.k,
        result.theta,
        result.beta,
        result.t,
        tuple(
            (
                match.text_id,
                tuple(
                    (rect.i_lo, rect.i_hi, rect.j_lo, rect.j_hi, rect.count)
                    for rect in match.rectangles
                ),
            )
            for match in result.matches
        ),
    )


def _check(
    phase: Phase, pool, memory, reference_every: int, outcome: Outcome, start: int = 0
) -> None:
    """Every answer from position ``start`` on byte-identical to the
    fused kernel over the in-memory build (no disk, cache or planner),
    every ``reference_every``-th also to the reference kernel, and the
    planted source among the matches of every planted query."""
    from repro.core.search import NearDuplicateSearcher

    in_memory = NearDuplicateSearcher(memory)
    reference = NearDuplicateSearcher(memory, kernel="reference")
    answered = len(phase.results)
    outcome.attempted += answered - start
    wrong: set[int] = set()
    for position in range(start, answered):
        expected = in_memory.search(pool.queries[position], THETA)
        if _signature(expected) != _signature(phase.results[position]):
            wrong.add(position)
            outcome.errors.append(f"query {position}: differs from in-memory search")
        if position % reference_every == 0:
            expected = reference.search(pool.queries[position], THETA)
            if _signature(expected) != _signature(phase.results[position]):
                wrong.add(position)
                outcome.errors.append(
                    f"query {position}: differs from reference kernel"
                )
    for position, source in pool.planted.items():
        if not start <= position < answered:
            continue
        found = {match.text_id for match in phase.results[position].matches}
        if source not in found:
            wrong.add(position)
            outcome.errors.append(
                f"query {position}: planted source text {source} not returned"
            )
    outcome.failed += len(wrong)


def _exact_counts(phase: Phase, batch: int) -> dict:
    queries = min(len(phase.results), EXACT_BATCHES * batch)
    counts = {"queries": queries}
    for name in EXACT_COUNTERS:
        counts[name] = int(
            sum(getattr(r.stats, name) for r in phase.results[:queries])
        )
    return counts


def _path_identical(a: Phase, b: Phase) -> bool:
    common = min(len(a.results), len(b.results))
    return all(
        tuple(getattr(x.stats, name) for name in EXACT_COUNTERS)
        == tuple(getattr(y.stats, name) for name in EXACT_COUNTERS)
        for x, y in zip(a.results[:common], b.results[:common])
    ) and {s.mode for s in a.batch_stats} == {s.mode for s in b.batch_stats}


def _layers(tracer: Tracer, phase: Phase, untraced: Phase) -> dict[str, float]:
    from repro.index.inverted import POSTING_BYTES

    layers = tracer.layers()
    queries = max(1, len(phase.results))
    counters = tracer.counters

    def per_query_ms(name, field="total_s"):
        entry = layers.get(name)
        return 1e3 * getattr(entry, field) / queries if entry else 0.0

    def calls(name):
        entry = layers.get(name)
        return entry.calls / queries if entry else 0.0

    bytes_read = phase.io_after[0] - phase.io_before[0]
    decoded = phase.io_after[2] - phase.io_before[2]
    cache_hits = phase.cache_after.hits - phase.cache_before.hits
    cache_misses = phase.cache_after.misses - phase.cache_before.misses
    batches = min(len(phase.batch_ends), len(untraced.batch_ends))
    overhead = (
        100.0 * (phase.batch_ends[batches - 1] / untraced.batch_ends[batches - 1] - 1)
        if batches
        else 0.0
    )
    begin = min(span.start for span in tracer.spans)
    covered = tracer.covered_seconds(begin, begin + phase.wall_s)
    unique = sum(s.unique_queries for s in phase.batch_stats)
    total = sum(s.queries for s in phase.batch_stats)
    return {
        "core.hashing.sketch_ms": per_query_ms("core.hashing.sketch"),
        "core.search.self_ms": per_query_ms("core.search.search", "self_s"),
        "core.search.postings_per_query": counters["search_postings"] / queries,
        "core.search.candidate_yield": ratio(counters["matched"], counters["candidates"]),
        "core.intervals.kernel_ms": per_query_ms("core.intervals.kernel"),
        "core.intervals.kernel_calls": calls("core.intervals.kernel"),
        "index.storage.load_list_ms": per_query_ms("index.storage.load_list"),
        "index.storage.load_list_calls": calls("index.storage.load_list"),
        "index.storage.point_read_ms": per_query_ms("index.storage.point_read"),
        "index.storage.point_read_calls": calls("index.storage.point_read"),
        "index.storage.lengths_ms": per_query_ms("index.storage.lengths"),
        "index.storage.bytes_read": bytes_read / queries,
        "index.storage.decoded_bytes": decoded / queries,
        "index.storage.decode_yield": ratio(
            POSTING_BYTES * counters["storage_postings"], decoded
        ),
        "index.cache.lookup_ms": per_query_ms("index.cache.lookup", "self_s"),
        "index.cache.hit_rate": ratio(cache_hits, cache_hits + cache_misses),
        "index.cache.evictions": phase.cache_after.evictions - phase.cache_before.evictions,
        "index.cache.admission_rejections": phase.cache_after.admission_rejections
        - phase.cache_before.admission_rejections,
        "index.cache.singleflight_waits": phase.cache_after.singleflight_waits
        - phase.cache_before.singleflight_waits,
        "query.planner.plan_ms": per_query_ms("query.planner.plan_batch", "self_s"),
        "query.planner.unique_fraction": ratio(unique, total),
        "query.executor.execute_ms": per_query_ms("query.executor.execute", "self_s"),
        "query.executor.pinned_lists": ratio(
            sum(s.lists_pinned for s in phase.batch_stats), len(phase.batch_stats)
        ),
        "trace.overhead_pct": overhead,
        "trace.unaccounted_frac": 1.0 - ratio(covered, phase.wall_s),
        "trace.ops": queries,
    }


def run(seed: int, seconds: float, trace: bool, scale: Scale = FULL) -> Outcome:
    data = inputs.corpus(scale.texts, scale.mean_length, seed, duplicate_rate=0.15)
    pool = inputs.sweep_queries(data, scale.queries, seed)
    tokens = data.corpus.total_tokens
    outcome = Outcome(metrics={}, attempted=0, failed=0)
    with WorkDir("sweep_cold") as work:
        memory, disk, first = _setup(data, work / "index0")
        timings = [first]
        budget = _cache_budget(disk, pool.queries[: scale.budget_queries])
        info = {
            "sizes": {"texts": scale.texts, "tokens": tokens,
                      "query_pool": len(pool.queries), "batch": scale.batch,
                      "planted_queries": len(pool.planted)},
            "cache_budget_bytes": budget,
            "setups": timings,
        }
        if not trace:
            sweep = Sweep(disk, budget, pool.queries, scale.batch)
            for repeat in range(SETUP_REPEATS):
                if repeat:
                    timings.append(_setup(data, work / f"index{repeat}")[2])
                checked = len(sweep.phase.results)
                sweep.run_for(seconds / SETUP_REPEATS)
                _check(sweep.phase, pool, memory, scale.reference_every, outcome,
                       start=checked)
            phase = sweep.close()
            answered = len(phase.results)
            outcome.metrics = {
                "setup_s": median([t["total_s"] for t in timings]),
                "queries_per_s": answered / phase.wall_s,
                "query_p50_ms": percentile(phase.latencies_ms, 50),
                "query_p99_ms": percentile(phase.latencies_ms, 99),
                # An offline sweep has no arrivals to queue and inserts
                # nothing: its highest sustainable rate, and the rate at
                # which it takes in texts to check, is its throughput.
                "max_rate_qps": answered / phase.wall_s,
                "ingest_texts_per_s": answered / phase.wall_s,
                "index_bytes_per_token": tree_bytes(work / "index0") / tokens,
                "peak_rss_mb": peak_rss_mib(),
            }
            info["samples_beyond_p99"] = sum(
                1 for v in phase.latencies_ms
                if v > outcome.metrics["query_p99_ms"]
            )
        else:
            timings.extend(
                _setup(data, work / f"index{repeat}")[2]
                for repeat in range(1, SETUP_REPEATS)
            )
            untraced = _measure(disk, budget, pool.queries, seconds / 2, scale.batch)
            tracer = Tracer()
            phase = _measure(
                disk, budget, pool.queries, seconds / 2, scale.batch, tracer
            )
            layers = _layers(tracer, phase, untraced)
            layers.update({
                "index.builder.build_s": median([t["build_s"] for t in timings]),
                "index.storage.write_s": median([t["write_s"] for t in timings]),
                "index.storage.open_s": median([t["open_s"] for t in timings]),
            })
            outcome.metrics = layers
            info["path_identical"] = _path_identical(phase, untraced)
            info["executor_modes"] = sorted(
                {s.mode for s in phase.batch_stats + untraced.batch_stats}
            )
            if not info["path_identical"]:
                outcome.errors.append(
                    "traced and untraced halves took different code paths"
                )
            _check(untraced, pool, memory, 2 * scale.reference_every, outcome)
            _check(phase, pool, memory, scale.reference_every, outcome)
        info["queries_answered"] = len(phase.results)
        info["exact_counts"] = _exact_counts(phase, scale.batch)
        info["varies_run_to_run"] = [
            "every time", "counts over the whole time-bounded phase"
        ]
        outcome.info = info
    return outcome
