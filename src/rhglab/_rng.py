"""Counter-based uniform streams built on the splitmix64 mixer.

Vertex i of a sample keyed by `seed` gets its coordinates from counters
(2i, 2i+1); Monte-Carlo shard s derives its own key from mix(seed, s).
Identical (seed, counter) always yields the identical double, independent
of batching or thread count.

The `*_into` forms overwrite a fresh uint64 array the caller built, so a
draw makes no copy of its counters.
"""

from __future__ import annotations

import functools

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64
_MASK64 = 0xFFFFFFFFFFFFFFFF


def splitmix64(z):
    """splitmix64 finalizer, in place on the uint64 array `z`; returns z.

    Array arithmetic wraps modulo 2^64 without overflow warnings.
    """
    z += _GOLDEN
    z ^= z >> _U64(30)
    z *= _MIX1
    z ^= z >> _U64(27)
    z *= _MIX2
    z ^= z >> _U64(31)
    return z


@functools.lru_cache(maxsize=64)
def _seed_bits(seed):
    """splitmix64(seed): the Monte-Carlo oracle draws many blocks under one
    key, and mixing a scalar costs as much as a few thousand counters."""
    return splitmix64(np.array(seed & _MASK64, dtype=np.uint64))[()]


def mix_into(seed, z):
    """Overwrite the uint64 stream ids `z` with mix(seed, z); returns z."""
    z *= _GOLDEN
    z ^= _seed_bits(seed)
    return splitmix64(z)


def uniforms_into(seed, z):
    """uniforms(seed, z), consuming the uint64 counter array `z`."""
    bits = mix_into(seed, z)
    bits >>= _U64(11)
    u = bits.astype(np.float64)
    u *= 2.0 ** -53
    return u


def mix(seed, stream):
    """64-bit key for substream `stream` of master `seed`."""
    return mix_into(seed, np.asarray(stream).astype(np.uint64))


def uniforms(seed, counters):
    """Doubles in [0, 1) for the given counter array under `seed`."""
    return uniforms_into(seed, np.asarray(counters).astype(np.uint64))
