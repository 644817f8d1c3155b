"""Deterministic, splittable random number streams.

Every stochastic operation in the toolkit takes a :class:`SeedSpec`. The
derivation rule is stable across releases:

    Generator = PCG64(SeedSequence(seed, spawn_key=(stream_index, *subkeys)))

so identical ``(seed, stream_index)`` pairs always reproduce identical
sample sequences, and disjoint ``subkeys`` (used e.g. for per-trial Monte
Carlo streams) are statistically independent.

:meth:`SeedSpec.pcg64_states` derives the streams of many trials at once.
numpy's stream-compatibility policy (NEP 19) fixes both SeedSequence's hash
and PCG64's seeding, so the same algorithms run here over uint32 arrays, one
element a trial, and give, bit for bit, the state of
``SeedSpec.rng(*subkeys, trial)``.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_MAX_SEED = 2 ** 64

# SeedSequence's hash constants and pool size (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32 = 2 ** 32 - 1
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = 2 ** 128 - 1


def _index(value: object, name: str) -> int:
    """``value`` as a Python int, for ints and numpy integers alike."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class SeedSpec:
    """A reproducible stream identity: 64-bit seed plus a stream index."""

    seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        seed, stream_index = _index(self.seed, "seed"), _index(self.stream_index, "stream_index")
        if not 0 <= seed < _MAX_SEED:
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {seed}")
        if stream_index < 0:
            raise DomainError(f"stream_index must be non-negative, got {stream_index}")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "stream_index", stream_index)

    def sequence(self, *subkeys: int) -> np.random.SeedSequence:
        return np.random.SeedSequence(self.seed, spawn_key=(self.stream_index, *subkeys))

    def rng(self, *subkeys: int) -> np.random.Generator:
        """Generator for this stream, optionally narrowed by subkeys."""
        return np.random.default_rng(self.sequence(*subkeys))

    def pcg64_states(self, trials: range, *subkeys: int) -> list[dict]:
        """``PCG64(self.sequence(*subkeys, t)).state`` for each t in ``trials``.

        Assigning one of them to a PCG64's ``state`` makes it draw what
        ``self.rng(*subkeys, t)`` draws. ``trials`` is a range of
        consecutive indices below 2^64, and ``subkeys`` are non-negative.
        """
        if not 0 <= trials.start <= trials.stop <= _MAX_SEED or trials.step != 1:
            raise DomainError(f"trials must be consecutive indices below 2^64, got {trials}")
        if any(key < 0 for key in subkeys):
            raise DomainError(f"subkeys must be non-negative, got {subkeys}")
        # SeedSequence's entropy: the seed's words padded to the pool size, as
        # for every spawned sequence, then the spawn key's words. All but the
        # trial's words are the same for every trial, so they are mixed once.
        words = [*_words(self.seed), 0, 0, 0][:_POOL_SIZE]
        for key in (self.stream_index, *subkeys):
            words += _words(key)
        pool, hash_const = _mix_entropy(words)
        states = []
        # a trial index of 2^32 or more is two words: split the range there
        for part in (range(trials.start, min(trials.stop, 2 ** 32)),
                     range(max(trials.start, 2 ** 32), trials.stop)):
            if not part:
                continue
            ts = np.arange(len(part), dtype=np.uint64) + np.uint64(part.start)
            trial_words = [(ts & np.uint64(_MASK32)).astype(np.uint32)]
            if part.start >= 2 ** 32:
                trial_words.append((ts >> np.uint64(32)).astype(np.uint32))
            # from here on each word is a uint32 array, one element a trial
            mixed = [np.full(len(ts), value, dtype=np.uint32) for value in pool]
            _absorb(mixed, trial_words, hash_const)
            # generate_state(4, np.uint64): 8 uint32 words, little-endian pairs
            out, hash_const_b = [], _INIT_B
            for i in range(8):
                value, hash_const_b = _hash(mixed[i % _POOL_SIZE], hash_const_b, _MULT_B)
                out.append(value.astype(np.uint64))
            init_hi, init_lo, seq_hi, seq_lo = (
                (out[k] | out[k + 1] << np.uint64(32)).tolist() for k in range(0, 8, 2)
            )
            # PCG64's seeding: inc = 2 initseq + 1, then two LCG steps from 0
            # with initstate added between them
            for a, b, c, d in zip(init_hi, init_lo, seq_hi, seq_lo):
                inc = ((c << 64 | d) << 1 | 1) & _MASK128
                state = ((inc + (a << 64 | b)) * _PCG_MULT + inc) & _MASK128
                states.append({
                    "bit_generator": "PCG64",
                    "state": {"state": state, "inc": inc},
                    "has_uint32": 0,
                    "uinteger": 0,
                })
        return states


def _words(n: int) -> list[int]:
    """``n`` as little-endian uint32 words; 0 is one word, as SeedSequence splits it."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


# SeedSequence's two uint32 hash steps (numpy/random/bit_generator.pyx). Each
# takes Python ints below 2^32 or uint32 arrays, whose arithmetic wraps
# mod 2^32 as the C code's does.


def _hash(value, hash_const: int, mult: int = _MULT_A):
    """``hashmix`` (or, with ``_MULT_B``, a ``generate_state`` step): the
    hashed value and the next hash constant."""
    value = value ^ hash_const
    hash_const = hash_const * mult & _MASK32
    value = value * hash_const & _MASK32
    return value ^ value >> 16, hash_const


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def _mix_entropy(words: list[int]) -> tuple[list[int], int]:
    """``SeedSequence.mix_entropy`` of at least :data:`_POOL_SIZE` entropy
    words: the pool and the next hash constant."""
    hash_const, pool = _INIT_A, []
    for word in words[:_POOL_SIZE]:
        value, hash_const = _hash(word, hash_const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, hash_const = _hash(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], value)
    return pool, _absorb(pool, words[_POOL_SIZE:], hash_const)


def _absorb(pool: list, words: list, hash_const: int) -> int:
    """Mix entropy words beyond the pool size into every pool word, in
    place; returns the next hash constant."""
    for word in words:
        for dst in range(_POOL_SIZE):
            value, hash_const = _hash(word, hash_const)
            pool[dst] = _mix(pool[dst], value)
    return hash_const


def as_seed(seed: SeedSpec | int) -> SeedSpec:
    """Coerce a bare integer to a SeedSpec with stream_index 0."""
    if isinstance(seed, SeedSpec):
        return seed
    return SeedSpec(seed)
