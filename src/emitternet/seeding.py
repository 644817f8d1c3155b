"""Deterministic, splittable random number streams.

Every stochastic operation in the toolkit takes a :class:`SeedSpec`. The
derivation rule is stable across releases:

    Generator = PCG64(SeedSequence(seed, spawn_key=(stream_index, *subkeys)))

so identical ``(seed, stream_index)`` pairs always reproduce identical
sample sequences, and disjoint ``subkeys`` (used e.g. for per-trial Monte
Carlo streams) are statistically independent.

:meth:`SeedSpec.pcg64_states` derives the streams of many trials at once.
numpy's stream-compatibility policy (NEP 19) fixes both SeedSequence's hash
and PCG64's seeding. numpy's own SeedSequence mixes the entropy that every
trial shares; the trial's index, one spawn-key word below 2^32,
``generate_state`` and PCG64's seeding run here over uint32 arrays, one
element a trial, and give, bit for bit, the state of
``SeedSpec.rng(*subkeys, trial)``. The Monte Carlo's trial counts stay far
below 2^32, and a range that reaches beyond it is refused.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

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

# numpy is imported by the methods that use it: a SeedSpec is also made where
# no random number is drawn, such as by ``report``
if TYPE_CHECKING:
    import numpy as np


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
        import numpy as np

        return np.random.SeedSequence(self.seed, spawn_key=(self.stream_index, *subkeys))

    def rng(self, *subkeys: int) -> np.random.Generator:
        """Generator for this stream, optionally narrowed by subkeys."""
        import numpy as np

        return np.random.default_rng(self.sequence(*subkeys))

    def pcg64_states(self, trials: range, *subkeys: int) -> list[dict]:
        """``PCG64(self.sequence(*subkeys, t)).state`` for each t in ``trials``.

        Assigning one of them to a PCG64's ``state`` makes it draw what
        ``self.rng(*subkeys, t)`` draws. ``trials`` is a range of
        consecutive indices below 2^32, each one spawn-key word, and
        ``subkeys`` are non-negative.
        """
        import numpy as np

        if not 0 <= trials.start <= trials.stop <= 2 ** 32 or trials.step != 1:
            raise DomainError(f"trials must be consecutive indices below 2^32, got {trials}")
        if any(key < 0 for key in subkeys):
            raise DomainError(f"subkeys must be non-negative, got {subkeys}")
        # SeedSequence's entropy is the seed's words padded to the pool size,
        # then the spawn key's words. All but the trial's word are the same
        # for every trial, so numpy mixes them once, into the pool of the
        # sequence without the trial. Each of mix_entropy's hashmix steps,
        # 16 + 4 a spawn key word, multiplies the hash constant by _MULT_A.
        pool = self.sequence(*subkeys).pool.tolist()
        key_words = sum(_word_count(key) for key in (self.stream_index, *subkeys))
        hash_a = _INIT_A * pow(_MULT_A, 4 * (_POOL_SIZE + key_words), 2 ** 32) & _MASK32
        # from here on each word is a uint32 array, one element a trial;
        # mix_entropy absorbs the trial's word into every pool word
        word = np.arange(trials.start, trials.stop, dtype=np.uint32)
        mixed = []
        for value in pool:
            hashed, hash_a = _hash(word, hash_a)
            mixed.append(_mix(np.full(len(word), value, dtype=np.uint32), hashed))
        # generate_state(4, np.uint64): 8 uint32 words, little-endian pairs
        out, hash_b = [], _INIT_B
        for i in range(8):
            value, hash_b = _hash(mixed[i % _POOL_SIZE], hash_b, _MULT_B)
            out.append(value.astype(np.uint64))
        init_hi, init_lo, seq_hi, seq_lo = (
            (out[k] | out[k + 1] << np.uint64(32)).tolist() for k in range(0, 8, 2)
        )
        # PCG64's seeding: inc = 2 initseq + 1, then two LCG steps from 0
        # with initstate added between them
        states = []
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


def _word_count(n: int) -> int:
    """The number of uint32 words SeedSequence splits ``n`` into; 0 is one word."""
    return max(1, (n.bit_length() + 31) // 32)


# SeedSequence's two uint32 hash steps (numpy/random/bit_generator.pyx), over
# uint32 arrays, whose arithmetic wraps mod 2^32 as the C code's does.


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


def as_seed(seed: SeedSpec | int) -> SeedSpec:
    """Coerce a bare integer to a SeedSpec with stream_index 0."""
    if isinstance(seed, SeedSpec):
        return seed
    return SeedSpec(seed)
