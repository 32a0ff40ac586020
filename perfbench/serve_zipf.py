"""``serve_zipf``: interactive lookups against ``repro-cli serve``.

A saved packed engine is served by the program's own CLI in a child
process with the default ``ServiceConfig``.  This process is the load
generator: at most ``nproc`` keep-alive connections send ``/search``
requests for queries drawn Zipf from a pool whose lists fit the list
cache, so after warm-up the decode work is near zero and queue wait,
linger, transport and JSON dominate.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from perfbench import inputs
from perfbench.harness import (
    K,
    ROOT,
    T,
    THETA,
    BenchmarkError,
    Outcome,
    WorkDir,
    median,
    percentile,
    ratio,
    tree_bytes,
)
from perfbench.loadgen import (
    LADDER,
    LATENCY_LIMIT_MS,
    LoadGenerator,
    StepResult,
    get_json,
    zipf_chooser,
)

HOST = "127.0.0.1"
#: Zipf exponent of query popularity over the pool.
POPULARITY = 0.8
#: The ladder rung (requests/s) at which p50 and p99 are reported: low
#: enough that bursts rarely queue behind both connections, so the p99
#: follows the service rather than the host's scheduling hiccups
#: amplified through the queue.
FIXED_RUNG = 70
FIXED_RATE = LADDER[FIXED_RUNG]
#: Shares of ``--seconds`` for the closed loop (in total) and for each
#: ladder probe; the fixed-rate phase sends a fixed number of requests
#: instead.
CLOSED_SHARE, PROBE_SHARE = 0.1, 0.125
#: The most ladder probes a run makes.
MAX_PROBES = 4
#: The ladder walk starts at the highest rung not above this share of
#: the closed-loop throughput.
WALK_START_SHARE = 0.9
#: Set-ups per run; ``setup_s`` is their median.  The first one starts
#: the measured server; the others run between the measured phases.
SETUP_REPEATS = 3
#: The order of an untraced run's phases.  The fixed-rate phase is sent
#: in equal parts, the closed loop in two, and the ladder walk one probe
#: at a time, interleaved with each other and with the later set-ups.
#: The host's speed drifts over tens of seconds, so figures taken across
#: the whole run vary less from run to run than ones taken in a single
#: stretch.
SCHEDULE = (
    "fixed", "closed", "probe", "fixed", "setup", "probe", "fixed",
    "closed", "probe", "fixed", "setup", "probe", "fixed",
)
FIXED_PARTS = SCHEDULE.count("fixed")
#: Seconds a server gets to print its banner, and to drain on SIGINT.
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0


@dataclass(frozen=True)
class Scale:
    texts: int
    mean_length: int
    pool: int
    #: Requests of the fixed-rate phase.
    fixed_requests: int
    #: Requests sent at the fixed rate before it is measured.
    warmup_requests: int


#: 1100 requests (five parts of 220) take about 36 s at the fixed rate;
#: 11 samples lie beyond their p99.
FULL = Scale(
    texts=150, mean_length=300, pool=128, fixed_requests=1100, warmup_requests=60
)
TINY = Scale(texts=40, mean_length=120, pool=16, fixed_requests=60, warmup_requests=10)


class Server:
    """``repro-cli serve`` in a child process, stopped with SIGINT."""

    def __init__(self, engine_dir: Path, log_path: Path) -> None:
        self.engine_dir = engine_dir
        self.log_path = log_path
        self.process: subprocess.Popen | None = None
        self.port: int | None = None
        self._ready = threading.Event()
        self._reader: threading.Thread | None = None

    def start(self) -> float:
        """Launch and wait for the ready banner; returns seconds taken."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        begin = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-u", "-m", "repro.cli", "serve",
                 str(self.engine_dir), "--host", HOST, "--port", "0"],
                cwd=ROOT,
                env=env,
                stdout=subprocess.PIPE,
                stderr=log,
                text=True,
            )
        self._reader = threading.Thread(target=self._read_stdout, daemon=True)
        self._reader.start()
        if not self._ready.wait(START_TIMEOUT_S) or self.port is None:
            self.stop()
            raise BenchmarkError(
                f"server did not start; log: {self.log_path.read_text()[-2000:]}"
            )
        return time.perf_counter() - begin

    def _read_stdout(self) -> None:
        assert self.process is not None and self.process.stdout is not None
        for line in self.process.stdout:
            marker = f" on {HOST}:"
            if self.port is None and marker in line:
                self.port = int(line.split(marker, 1)[1].split()[0])
                self._ready.set()
        self._ready.set()

    def peak_rss_mib(self) -> float:
        from perfbench.harness import peak_rss_mib

        assert self.process is not None
        return peak_rss_mib(self.process.pid)

    def stop(self) -> int | None:
        if self.process is None:
            return None
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self._reader is not None:
            self._reader.join(5.0)
        return self.process.returncode


def _server_defaults() -> dict:
    """The served configuration (``repro-cli serve`` defaults)."""
    from dataclasses import asdict

    from repro.service.server import ServiceConfig

    config = asdict(ServiceConfig())
    return {key: config[key] for key in (
        "workers", "procs", "max_batch", "linger_ms", "max_queue", "cache_bytes",
        "cache_policy", "block_cache_bytes", "result_cache", "warmup_lists",
    )}


def _build_engine(data, directory: Path) -> dict:
    from repro.engine import NearDupEngine

    begin = time.perf_counter()
    engine = NearDupEngine.from_corpus(
        data.corpus, k=K, t=T, vocab_size=data.vocab_size, codec="packed"
    )
    built = time.perf_counter()
    engine.save(directory)
    saved = time.perf_counter()
    return {"build_s": built - begin, "write_s": saved - built}


def _expected(directory: Path, pool) -> tuple[list[dict], float]:
    """What the served JSON must equal, per pool query, and the seconds
    an in-process open of the saved engine took."""
    from repro.engine import NearDupEngine
    from repro.service import result_to_wire

    begin = time.perf_counter()
    engine = NearDupEngine.load(directory)
    opened = time.perf_counter() - begin
    return [
        json.loads(json.dumps(result_to_wire(engine.search_raw(query, THETA))))
        for query in pool
    ], opened


class Answers:
    """Checks every response against the first one for its query, and
    the first ones against the in-process search afterwards."""

    def __init__(self) -> None:
        self.first: dict[int, dict] = {}
        self.mismatched: set[int] = set()
        self.wrong_samples = 0

    def __call__(self, sample) -> None:
        if sample.status != 200 or sample.body is None:
            return
        result = sample.body.get("result")
        known = self.first.setdefault(sample.query, result)
        if known is not result and known != result:
            self.mismatched.add(sample.query)
            self.wrong_samples += 1


def _walk(start: int, known: dict[int, bool]):
    """The rungs of the ladder walk, one at a time.

    The walk starts a little below the closed-loop throughput, which
    bounds what an open loop on the same connections can sustain (its
    Poisson bursts queue where a closed loop's requests do not), and
    steps up until a rung fails or down until one passes.  Stepping
    rung by rung, a probe that misjudges a rung moves the answer by one
    rung, where a bisection could jump by many.  The caller records each
    yielded rung's verdict in ``known`` before it asks for the next; a
    rung already known (the fixed rate) is not probed again.
    """
    rung = start
    yield rung
    step = 1 if known[rung] else -1
    while 0 <= rung + step < len(LADDER):
        rung += step
        yield rung
        if known[rung] != (step == 1):
            return


class Ladder:
    """The ladder walk, one probe per call of :meth:`probe`."""

    def __init__(self, generator: LoadGenerator, choose, rng, probe_s: float) -> None:
        self.generator = generator
        self.choose = choose
        self.rng = rng
        self.probe_s = probe_s
        self.known: dict[int, bool] = {}
        self.probes: list[dict] = []
        self.fell_behind = False
        self._rungs = None

    @property
    def started(self) -> bool:
        return self._rungs is not None

    def start(self, closed_qps: float, fixed_passes: bool) -> None:
        self.known[FIXED_RUNG] = fixed_passes
        start = WALK_START_SHARE * closed_qps
        rung = max(0, sum(1 for rate in LADDER if rate <= start) - 1)
        if not fixed_passes:
            rung = min(rung, FIXED_RUNG - 1)
        self._rungs = _walk(rung, self.known)

    async def probe(self) -> bool:
        """Probe the walk's next rung; False once the walk is over."""
        if len(self.probes) >= MAX_PROBES:
            return False
        for rung in self._rungs:
            if rung in self.known:
                continue
            step = await self.generator.open_loop(
                LADDER[rung], self.probe_s, self.choose, self.rng, drain=False
            )
            self.fell_behind |= step.fell_behind
            self.known[rung] = step.passes()
            self.probes.append({
                "rate": LADDER[rung],
                "p99_ms": step.p99_with_misses_ms(),
                "backlog": step.backlog,
                "late_p99_ms": step.late_p99_ms,
                "passed": self.known[rung],
            })
            return True
        return False

    @property
    def max_rate(self) -> float:
        """The highest passing rate, 0.0 if none passed."""
        passing = [rung for rung, passed in self.known.items() if passed]
        return LADDER[max(passing)] if passing else 0.0


def _serve_layers(step: StepResult, stats_before: dict, stats_after: dict) -> dict[str, float]:
    """Per-layer figures from the server's own reports.  Nothing runs
    traced in this process, so there is no tracing overhead to measure,
    and ``QueryStats.io_calls`` is not a count of list loads: both are
    left unmeasured."""
    ok = [s for s in step.samples if s.status == 200 and s.body is not None]
    servers = [s.body["server"] for s in ok]
    rtt = [s.rtt_ms for s in ok]
    total = [server["total_ms"] for server in servers]
    compute = [1e3 * server["stats"]["total_seconds"] for server in servers]
    # The server's queue_ms runs from admission to completion, so it
    # includes the search itself; the wait is the rest.
    queue = [server["queue_ms"] - ms for server, ms in zip(servers, compute)]
    overhead = [a - b for a, b in zip(rtt, total)]
    stats = [server["stats"] for server in servers]
    count = max(1, len(ok))

    def delta(block, name):
        return stats_after[block][name] - stats_before[block][name]

    hits, misses = delta("cache", "hits"), delta("cache", "misses")
    return {
        "service.client.rtt_ms": percentile(rtt, 50),
        "service.server.total_ms": percentile(total, 50),
        "service.batcher.queue_ms": percentile(queue, 50),
        "service.batcher.batch_size": sum(s["batched_with"] for s in servers) / count,
        "service.search.compute_ms": percentile(compute, 50),
        "service.protocol.overhead_ms": percentile(overhead, 50),
        "service.server.shed": delta("service", "shed"),
        "service.server.timeouts": delta("service", "timeouts"),
        "loadgen.late_ms": step.late_p99_ms,
        "loadgen.backlog": step.backlog,
        "index.cache.hit_rate": ratio(hits, hits + misses),
        "index.cache.evictions": delta("cache", "evictions"),
        "index.cache.admission_rejections": delta("cache", "admission_rejections"),
        "index.cache.singleflight_waits": delta("cache", "singleflight_waits"),
        "index.storage.bytes_read": sum(s["io_bytes"] for s in stats) / count,
        "core.search.candidate_yield": ratio(
            sum(s["texts_matched"] for s in stats), sum(s["candidates"] for s in stats)
        ),
        "trace.unaccounted_frac": 1.0 - ratio(sum(total), sum(rtt)),
        "trace.ops": len(ok),
    }


def _rate(steps: list[StepResult]) -> float:
    """Completed requests per second over closed-loop steps."""
    return sum(len(step.samples) for step in steps) / sum(
        step.duration_s for step in steps
    )


def _pooled(steps: list[StepResult]) -> StepResult:
    """The samples and lateness of several steps as one."""
    pooled = StepResult(rate=steps[0].rate, duration_s=0.0)
    for step in steps:
        pooled.duration_s += step.duration_s
        pooled.samples.extend(step.samples)
        pooled.late_ms.extend(step.late_ms)
        pooled.backlog += step.backlog
    return pooled


def run(seed: int, seconds: float, trace: bool, scale: Scale = FULL) -> Outcome:
    data = inputs.corpus(scale.texts, scale.mean_length, seed, duplicate_rate=0.15)
    pool = inputs.serve_pool(data, scale.pool, seed)
    tokens = data.corpus.total_tokens
    bodies = [
        json.dumps({"query": query.tolist(), "theta": THETA}).encode() for query in pool
    ]
    connections = max(1, os.cpu_count() or 1)
    rng = random.Random(seed)
    choose = zipf_chooser(len(pool), POPULARITY, rng)
    answers = Answers()
    outcome = Outcome(metrics={}, attempted=0, failed=0)
    info: dict = {
        "sizes": {"texts": scale.texts, "tokens": tokens, "pool": len(pool)},
        "connections": connections,
        "fixed_rate": FIXED_RATE,
        "latency_limit_ms": LATENCY_LIMIT_MS,
        "popularity_exponent": POPULARITY,
        "server_config": _server_defaults(),
    }
    timings: list[dict] = []
    #: (phase, seconds) of an untraced run's schedule, in order.
    timeline: list[tuple[str, float]] = []
    generator_stats = {"attempted": 0, "failed": 0}

    async def fixed_rate(gen: LoadGenerator, **length) -> StepResult:
        """One fixed-rate phase.  A host stall that makes the generator
        fall behind voids it: it is measured once more, and the run is
        flagged if the generator falls behind again."""
        step = await gen.open_loop(
            FIXED_RATE, choose=choose, rng=rng, drain=True, **length
        )
        if step.fell_behind:
            info["fixed_phase_retries"] = info.get("fixed_phase_retries", 0) + 1
            step = await gen.open_loop(
                FIXED_RATE, choose=choose, rng=rng, drain=True, **length
            )
        return step

    def set_up(repeat: int) -> tuple[Server, Path]:
        directory = work / f"engine{repeat}"
        timing = _build_engine(data, directory)
        started = Server(directory, work / f"server{repeat}.log")
        timing["startup_s"] = started.start()
        timing["total_s"] = sum(timing.values())
        timings.append(timing)
        return started, directory

    def set_up_another() -> None:
        """A set-up whose server is started, timed and stopped again."""
        set_up(len(timings))[0].stop()

    async def measure(server: Server) -> dict:
        async with LoadGenerator(HOST, server.port, connections, bodies, answers) as gen:
            # Every pool query once, so the measured phases run against
            # a warm list cache; then a stretch at the fixed rate, whose
            # first seconds run slower than the rest.
            await gen.fixed_set(list(range(len(pool))))
            await gen.open_loop(
                FIXED_RATE, None, choose, rng, drain=True, count=scale.warmup_requests
            )
            found: dict = {"parts": [], "closed": []}
            if not trace:
                ladder = Ladder(gen, choose, rng, PROBE_SHARE * seconds)
                part = -(-scale.fixed_requests // FIXED_PARTS)
                closed_s = CLOSED_SHARE * seconds / SCHEDULE.count("closed")
                for phase in SCHEDULE:
                    begin = time.perf_counter()
                    if phase == "fixed":
                        found["parts"].append(
                            await fixed_rate(gen, duration_s=None, count=part)
                        )
                    elif phase == "closed":
                        found["closed"].append(await gen.closed_loop(choose, closed_s))
                    elif phase == "setup":
                        set_up_another()
                    else:
                        if not ladder.started:
                            ladder.start(
                                _rate(found["closed"]),
                                all(step.passes() for step in found["parts"]),
                            )
                        await ladder.probe()
                    timeline.append((phase, time.perf_counter() - begin))
                # A walk longer than the schedule's probe slots ends here.
                begin = time.perf_counter()
                while await ladder.probe():
                    timeline.append(("probe", time.perf_counter() - begin))
                    begin = time.perf_counter()
                found["ladder"] = ladder
            else:
                for _ in range(1, SETUP_REPEATS):
                    set_up_another()
                found["stats_before"] = await get_json(HOST, server.port, "/stats")
                found["parts"].append(await fixed_rate(gen, duration_s=seconds))
                found["stats_after"] = await get_json(HOST, server.port, "/stats")
            generator_stats["attempted"] += gen.attempted
            generator_stats["failed"] += gen.failed
            return found

    with WorkDir("serve_zipf") as work:
        server = None
        try:
            server, directory = set_up(0)
            found = asyncio.run(measure(server))
            rss = server.peak_rss_mib()
        finally:
            if server is not None:
                exit_code = server.stop()
                info["server_exit_code"] = exit_code
        if info.get("server_exit_code") not in (0, None):
            outcome.errors.append(f"server exited with {info['server_exit_code']}")
        expected, open_s = _expected(directory, pool)
        index_bytes = tree_bytes(directory / "index")
    info["exact_counts"] = {
        "pool_queries_with_matches": sum(1 for e in expected if e["matches"]),
        "matches": sum(len(e["matches"]) for e in expected),
    }
    info["varies_run_to_run"] = ["every time", "server cache counters"]

    outcome.attempted = generator_stats["attempted"]
    outcome.failed = generator_stats["failed"] + answers.wrong_samples
    for query, served in answers.first.items():
        if served != expected[query]:
            outcome.failed += 1
            outcome.errors.append(f"pool query {query}: served result differs")
    for query in answers.mismatched:
        outcome.errors.append(f"pool query {query}: answers differ between requests")
    parts: list[StepResult] = found["parts"]
    fixed = _pooled(parts)
    for number, step in enumerate(parts):
        if step.fell_behind:
            outcome.errors.append(
                f"load generator fell behind in fixed-rate part {number} "
                f"(p99 lateness {step.late_p99_ms:.1f} ms)"
            )
    info["setups"] = timings
    latencies = fixed.ok_latencies
    if not latencies or not all(step.ok_latencies for step in parts):
        raise BenchmarkError("no request completed in a fixed-rate part")
    p99 = percentile(latencies, 99)
    info["fixed_phase"] = {
        "requests": len(fixed.samples),
        "parts": len(parts),
        "part_p99_ms": [percentile(step.ok_latencies, 99) for step in parts],
        "late_p99_ms": fixed.late_p99_ms,
        "samples_beyond_p99": sum(1 for v in latencies if v > p99),
    }
    if not trace:
        closed_qps = _rate(found["closed"])
        ladder: Ladder = found["ladder"]
        info["closed_loop_qps"] = closed_qps
        info["ladder_probes"] = ladder.probes
        info["timeline"] = timeline
        if ladder.fell_behind:
            info["ladder_note"] = "a probe was void: the generator fell behind"
        outcome.metrics = {
            "setup_s": median([t["total_s"] for t in timings]),
            "queries_per_s": closed_qps,
            "query_p50_ms": percentile(latencies, 50),
            "query_p99_ms": p99,
            "max_rate_qps": ladder.max_rate,
            # A static index inserts nothing: the texts it takes in are
            # the queries it checks.
            "ingest_texts_per_s": closed_qps,
            "index_bytes_per_token": index_bytes / tokens,
            "peak_rss_mb": rss,
        }
    else:
        layers = _serve_layers(fixed, found["stats_before"], found["stats_after"])
        layers.update({
            "index.builder.build_s": median([t["build_s"] for t in timings]),
            "index.storage.write_s": median([t["write_s"] for t in timings]),
            "service.server.startup_s": median([t["startup_s"] for t in timings]),
            "index.storage.open_s": open_s,
        })
        outcome.metrics = layers
    outcome.info = info
    return outcome
