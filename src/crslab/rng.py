"""Seeded, splittable random streams.

Every stochastic routine in the package draws from a stream keyed by
(master seed, purpose tags...). Streams with distinct tags are independent,
and a given key always reproduces the same draws, which is what makes
chunked and nested simulations replayable. Every chunked loop gets its
streams from `chunks`, the one place where rows map to stream keys.
Within a chunk, `rows` hands out a (count, width) block of uniforms that
each row block draws on its own, at its offset in the chunk's stream.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["stream", "chunks", "spawn_key", "rows"]


def _tag_words(tag) -> tuple[int, ...]:
    # Strings are hashed so arbitrary labels map to stable 32-bit words.
    if isinstance(tag, str):
        digest = hashlib.sha256(tag.encode("utf-8")).digest()
        return tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 8, 4))
    if isinstance(tag, (int, np.integer)):
        value = int(tag)
        if value < 0:
            raise ValueError("integer stream tags must be nonnegative")
        words = []
        while True:
            words.append(value & 0xFFFFFFFF)
            value >>= 32
            if value == 0:
                return tuple(words)
    raise TypeError(f"unsupported stream tag type: {type(tag).__name__}")


def spawn_key(*tags) -> tuple[int, ...]:
    """Flatten tags (ints or strings) into a SeedSequence spawn key."""
    key: list[int] = []
    for tag in tags:
        key.extend(_tag_words(tag))
    return tuple(key)


def stream(master_seed: int, *tags) -> np.random.Generator:
    """Independent generator keyed by (master_seed, *tags)."""
    seq = np.random.SeedSequence(master_seed, spawn_key=spawn_key(*tags))
    return np.random.Generator(np.random.PCG64(seq))


def chunks(master_seed: int, total: int, size: int, *tags):
    """Yield (stream(master_seed, *tags, i), lo, count) for chunk i of `total` rows.

    Chunk i holds rows lo..lo+count-1 with lo = i * size; only the last one
    may hold fewer than `size` rows, and zero rows make no chunk. `stream`
    is looked up here at each chunk, so a patched `crslab.rng.stream` sees
    every chunk's key.
    """
    for i, lo in enumerate(range(0, total, size)):
        yield stream(master_seed, *tags, i), lo, min(size, total - lo)


class Rows:
    """The uniforms `rng.random((count, width))` would give, drawn on demand.

    `rows[lo:hi]` sets a fresh PCG64 to the state the draw started from,
    advances it lo * width draws (PCG's jump-ahead costs O(log n)) and draws
    the block, so any slice is drawn in the caller's thread and equals the
    same slice of the eager array. `then(lo, block)`, when given, maps each
    block before it is returned: the same map applied to the eager array.
    """

    def __init__(self, state: dict, count: int, width: int, then=None):
        self.shape = (count, width)
        self._state = state
        self._then = then

    def __getitem__(self, key: slice) -> np.ndarray:
        count, width = self.shape
        lo, hi, step = key.indices(count)
        if step != 1:
            raise IndexError("Rows takes contiguous row slices only")
        bits = np.random.PCG64()
        bits.state = self._state
        bits.advance(lo * width)
        block = np.random.Generator(bits).random((max(hi - lo, 0), width))
        return block if self._then is None else self._then(lo, block)


def rows(rng: np.random.Generator, count: int, width: int, then=None) -> Rows:
    """`rng.random((count, width))` (mapped by `then`), drawn row block by row block.

    `rng` must run on PCG64, as every `stream` does. It is advanced past the
    count * width draws at once, so the draws that follow are those that
    follow the eager array, and only the blocks a caller slices are ever
    held.
    """
    bits = rng.bit_generator
    state = bits.state
    bits.advance(count * width)
    return Rows(state, count, width, then)
