"""Seeded input generation: corpora, query pools and ingest streams.

Everything here is a pure function of the seed and the scale, so the
same seed gives the same inputs.  The program under test only ever
sees the generated token arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from perfbench.harness import QUERY_TOKENS

#: Vocabulary of every generated corpus.  Smaller than ``synthweb``'s
#: default 8192 so that a packed index build fits several times in one
#: run; the per-list write cost scales with distinct lists, not tokens.
VOCAB = 2048
#: Token-level mutation rate of "hit" queries (near, not exact, copies).
MUTATION_RATE = 0.05


def zipf_tokens(rng: np.random.Generator, count: int, size: int) -> np.ndarray:
    """``count`` fresh Zipf texts of ``size`` tokens (synthweb's law)."""
    ranks = np.arange(1, VOCAB + 1, dtype=np.float64)
    weights = 1.0 / np.power(ranks + 2.7, 1.1)
    weights /= weights.sum()
    return rng.choice(VOCAB, size=(count, size), p=weights).astype(np.uint32)


def corpus(num_texts: int, mean_length: int, seed: int, *, duplicate_rate: float):
    """A ``synthweb`` corpus with planted near-duplicate spans."""
    from repro.corpus.synthetic import synthweb

    return synthweb(
        num_texts=num_texts,
        mean_length=mean_length,
        vocab_size=VOCAB,
        duplicate_rate=duplicate_rate,
        span_length=QUERY_TOKENS,
        mutation_rate=MUTATION_RATE,
        seed=seed,
    )


def mutated_window(
    rng: np.random.Generator, texts: list[np.ndarray]
) -> np.ndarray:
    """A random corpus window with token-level mutations."""
    while True:
        text = texts[int(rng.integers(len(texts)))]
        if text.size >= QUERY_TOKENS:
            break
    start = int(rng.integers(0, text.size - QUERY_TOKENS + 1))
    window = np.array(text[start : start + QUERY_TOKENS], dtype=np.uint32)
    mutate = rng.random(QUERY_TOKENS) < MUTATION_RATE
    window[mutate] = rng.integers(0, VOCAB, size=int(mutate.sum()), dtype=np.uint32)
    return window


@dataclass
class QueryPool:
    queries: list[np.ndarray]
    #: Query position -> text id that must be among its matches.
    planted: dict[int, int]


def sweep_queries(data, count: int, seed: int) -> QueryPool:
    """Unique queries alternating hit and miss.

    Even positions are hits: every fourth one is a planted source span
    verbatim (its source text must match), the rest are mutated corpus
    windows.  Odd positions are fresh Zipf text that prefix filtering
    prunes.  Any prefix of the pool keeps the half-and-half mix.
    """
    rng = np.random.default_rng(seed + 101)
    texts = [np.asarray(text) for text in data.corpus]
    plants = [
        plant
        for plant in data.planted
        if texts[plant.source_text].size >= plant.source_start + QUERY_TOKENS
    ]
    fresh = zipf_tokens(rng, count, QUERY_TOKENS)
    queries: list[np.ndarray] = []
    planted: dict[int, int] = {}
    seen: set[bytes] = set()
    next_plant = 0
    fresh_used = 0
    while len(queries) < count:
        if len(queries) % 2:
            query = fresh[fresh_used]
            fresh_used += 1
        elif len(queries) % 8 == 0 and next_plant < len(plants):
            plant = plants[next_plant]
            next_plant += 1
            start = plant.source_start
            query = np.array(
                texts[plant.source_text][start : start + QUERY_TOKENS], dtype=np.uint32
            )
            if query.tobytes() not in seen:
                planted[len(queries)] = plant.source_text
        else:
            query = mutated_window(rng, texts)
        key = query.tobytes()
        if key in seen:
            continue
        seen.add(key)
        queries.append(query)
    return QueryPool(queries, planted)


def serve_pool(data, count: int, seed: int) -> list[np.ndarray]:
    """Distinct serving queries: half mutated corpus windows, half fresh,
    shuffled so popularity rank does not follow hit or miss."""
    rng = np.random.default_rng(seed + 303)
    texts = [np.asarray(text) for text in data.corpus]
    queries = [mutated_window(rng, texts) for _ in range(count // 2)]
    queries.extend(zipf_tokens(rng, count - len(queries), QUERY_TOKENS))
    order = rng.permutation(len(queries))
    return [queries[int(i)] for i in order]


@dataclass
class IngestStream:
    preload: list[np.ndarray]
    texts: list[np.ndarray]
    #: Start of the window each stream text is checked with.
    window_starts: list[int]


def ingest_stream(
    preload: int, stream: int, mean_length: int, seed: int, *, repeat_every: int
) -> IngestStream:
    """Preloaded texts plus an incoming stream with near-duplicates.

    Planted spans make some incoming texts near-copies of earlier ones;
    every ``repeat_every``-th incoming text is an exact re-send of a
    recent one.  A text that carries a planted span is checked with the
    window at that span, others with their first window.  Texts shorter
    than one window are left out of the stream.
    """
    rng = np.random.default_rng(seed + 505)
    total = preload + 2 * stream
    data = corpus(total, mean_length, seed, duplicate_rate=0.3)
    texts = [np.asarray(text, dtype=np.uint32) for text in data.corpus]
    span_at = {plant.target_text: plant.target_start for plant in data.planted}
    incoming: list[np.ndarray] = []
    starts: list[int] = []
    for text_id in range(preload, total):
        if len(incoming) >= stream:
            break
        if incoming and len(incoming) % repeat_every == 0:
            back = int(rng.integers(1, min(len(incoming), 8) + 1))
            incoming.append(incoming[-back])
            starts.append(starts[-back])
            continue
        text = texts[text_id]
        if text.size < QUERY_TOKENS:
            continue
        incoming.append(text)
        starts.append(min(span_at.get(text_id, 0), text.size - QUERY_TOKENS))
    return IngestStream(texts[:preload], incoming, starts)
