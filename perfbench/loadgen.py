"""Open- and closed-loop HTTP load generation, and the rate ladder.

One asyncio process drives a served engine over a few keep-alive
connections with its own minimal HTTP/1.1 client (no dependency on the
program's client code, so a change there cannot change the load).

Open loop: arrivals are Poisson at a fixed rate and every request is
timed from the moment it was *due*, so a stall also charges the wait it
imposes on the requests queued behind it.  The generator's own
lateness (wake-up time minus due time) is recorded separately; a step
whose generator fell behind is flagged and never counted as a pass.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable

from perfbench.harness import percentile

#: The fixed rate ladder (requests/s): 1.05**i, i = 0..167 (1 to ~3400).
LADDER = tuple(round(1.05**i, 2) for i in range(168))

#: The interactive latency limit ``serve_zipf``'s p99 must meet at a
#: ladder rung.
LATENCY_LIMIT_MS = 100.0

#: A step whose p99 generator lateness exceeds this fell behind.
MAX_LATE_MS = 20.0


# ----------------------------------------------------------------------
# Minimal HTTP/1.1 keep-alive client
# ----------------------------------------------------------------------
class HttpConnection:
    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def open(self) -> "HttpConnection":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        return self

    async def request(
        self, method: str, path: str, body: bytes = b""
    ) -> tuple[int, bytes]:
        assert self._reader is not None and self._writer is not None
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "\r\n"
        ).encode("latin-1")
        self._writer.write(head + body)
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionResetError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        payload = await self._reader.readexactly(length) if length else b""
        return status, payload

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._writer = None


async def get_json(host: str, port: int, path: str) -> dict:
    connection = await HttpConnection(host, port).open()
    try:
        status, payload = await connection.request("GET", path)
    finally:
        await connection.close()
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return json.loads(payload)


# ----------------------------------------------------------------------
# Load phases
# ----------------------------------------------------------------------
@dataclass
class Sample:
    """One completed request."""

    query: int
    latency_ms: float  # open loop: from due time; closed loop: from send
    rtt_ms: float  # from send to response
    status: int
    body: dict | None


@dataclass
class StepResult:
    rate: float | None
    duration_s: float
    samples: list[Sample] = field(default_factory=list)
    #: Requests still unsent one latency limit after the last arrival
    #: (a growing backlog); they count as misses.
    backlog: int = 0
    late_ms: list[float] = field(default_factory=list)

    @property
    def ok_latencies(self) -> list[float]:
        return [s.latency_ms for s in self.samples if s.status == 200]

    def p99_with_misses_ms(self) -> float:
        """p99 where unsent and failed requests count as infinitely late."""
        values = self.ok_latencies
        misses = self.backlog + (len(self.samples) - len(values))
        values = values + [math.inf] * misses
        return percentile(values, 99.0) if values else math.inf

    @property
    def late_p99_ms(self) -> float:
        return percentile(self.late_ms, 99.0) if self.late_ms else 0.0

    @property
    def fell_behind(self) -> bool:
        return self.late_p99_ms > MAX_LATE_MS

    def passes(self) -> bool:
        """The rate is sustained: the generator kept up, the queue
        cleared within the latency limit, and p99 meets the limit."""
        return (
            not self.fell_behind
            and self.backlog == 0
            and self.p99_with_misses_ms() <= LATENCY_LIMIT_MS
        )


class LoadGenerator:
    """Keep-alive connections plus open-/closed-loop drivers.

    ``bodies[i]`` is the encoded request body of pool query ``i``;
    ``on_sample`` sees every completed request (correctness checks).
    """

    def __init__(
        self,
        host: str,
        port: int,
        connections: int,
        bodies: list[bytes],
        on_sample: Callable[[Sample], None],
    ) -> None:
        self.host = host
        self.port = port
        self.connections = connections
        self.bodies = bodies
        self.on_sample = on_sample
        self.attempted = 0
        self.failed = 0
        self._pool: list[HttpConnection] = []

    async def __aenter__(self) -> "LoadGenerator":
        for _ in range(self.connections):
            self._pool.append(await HttpConnection(self.host, self.port).open())
        return self

    async def __aexit__(self, *exc_info) -> None:
        for connection in self._pool:
            await connection.close()
        self._pool.clear()

    async def _send(
        self, connection_index: int, query: int, due: float
    ) -> Sample:
        loop = asyncio.get_running_loop()
        sent = loop.time()
        self.attempted += 1
        try:
            status, payload = await self._pool[connection_index].request(
                "POST", "/search", self.bodies[query]
            )
            done = loop.time()
            body = json.loads(payload)
        except (OSError, ValueError, asyncio.IncompleteReadError):
            # Reconnect so one broken socket does not fail every later
            # request on this slot.
            done = loop.time()
            self._pool[connection_index] = await HttpConnection(
                self.host, self.port
            ).open()
            status, body = 0, None
        if status != 200:
            self.failed += 1
        sample = Sample(query, 1e3 * (done - due), 1e3 * (done - sent), status, body)
        self.on_sample(sample)
        return sample

    async def closed_loop(
        self, choose: Callable[[], int], duration_s: float
    ) -> StepResult:
        """Each connection sends its next request when the last returns,
        until ``duration_s`` has passed; the step's duration is the time
        until the last response."""
        loop = asyncio.get_running_loop()
        step = StepResult(rate=None, duration_s=duration_s)
        begin = loop.time()
        deadline = begin + duration_s

        async def client(index: int) -> None:
            while loop.time() < deadline:
                step.samples.append(await self._send(index, choose(), loop.time()))

        await asyncio.gather(*(client(i) for i in range(self.connections)))
        step.duration_s = loop.time() - begin
        return step

    async def fixed_set(self, queries: list[int]) -> StepResult:
        """Send every listed query once, closed loop (warm-up pass)."""
        step = StepResult(rate=None, duration_s=0.0)
        pending = list(reversed(queries))
        loop = asyncio.get_running_loop()

        async def client(index: int) -> None:
            while pending:
                query = pending.pop()
                step.samples.append(await self._send(index, query, loop.time()))

        await asyncio.gather(*(client(i) for i in range(self.connections)))
        return step

    async def open_loop(
        self,
        rate: float,
        duration_s: float | None,
        choose: Callable[[], int],
        rng: random.Random,
        *,
        drain: bool,
        count: int | None = None,
    ) -> StepResult:
        """Poisson arrivals at ``rate`` for ``duration_s``, or exactly
        ``count`` arrivals when ``duration_s`` is None.

        ``drain=True`` finishes every queued request after the last
        arrival (a phase that should be under capacity); otherwise the
        unsent backlog is counted and dropped (a ladder probe).
        """
        loop = asyncio.get_running_loop()
        offsets = []
        at = 0.0
        while True:
            at += rng.expovariate(rate)
            if (at >= duration_s) if duration_s is not None else len(offsets) >= count:
                break
            offsets.append(at)
        if duration_s is None:
            duration_s = offsets[-1]
        step = StepResult(rate=rate, duration_s=duration_s)
        chosen = [choose() for _ in offsets]
        queue: asyncio.Queue = asyncio.Queue()
        start = loop.time() + 0.01

        async def dispatcher() -> None:
            for offset, query in zip(offsets, chosen):
                due = start + offset
                delay = due - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                step.late_ms.append(1e3 * max(0.0, loop.time() - due))
                queue.put_nowait((query, due))

        async def worker(index: int) -> None:
            while True:
                item = await queue.get()
                if item is None:
                    return
                query, due = item
                step.samples.append(await self._send(index, query, due))

        workers = [
            asyncio.create_task(worker(i)) for i in range(self.connections)
        ]
        await dispatcher()
        if not drain:
            # Give the queue the latency limit to clear; whatever is
            # still unsent then has missed the limit already.
            grace = start + duration_s + LATENCY_LIMIT_MS / 1e3 - loop.time()
            if grace > 0:
                await asyncio.sleep(grace)
            step.backlog = queue.qsize()
            while not queue.empty():
                queue.get_nowait()
        for _ in workers:
            queue.put_nowait(None)
        await asyncio.gather(*workers)
        return step


def zipf_chooser(pool_size: int, exponent: float, rng: random.Random) -> Callable[[], int]:
    """Draw pool indexes with Zipf(``exponent``) popularity by rank."""
    weights = [1.0 / (rank + 1) ** exponent for rank in range(pool_size)]
    cumulative = []
    total = 0.0
    for weight in weights:
        total += weight
        cumulative.append(total)
    population = list(range(pool_size))

    def choose() -> int:
        return rng.choices(population, cum_weights=cumulative)[0]

    return choose

