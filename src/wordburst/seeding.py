"""Deterministic random-stream derivation.

All randomized code derives per-unit generators from one master seed via
``numpy.random.SeedSequence`` spawn keys, so results do not depend on
iteration order or scheduling.  Channel 0 is reserved for event/count
draws, channel 1 for a word's parameter, its stream's first double;
keeping them separate means a generator that skips a parameter draw
consumes the exact same event stream as one that does not.

:func:`substreams` reproduces numpy's derivation (the ``SeedSequence``
entropy hash, then PCG64's seeding step) in array arithmetic over blocks
of indices, at about a quarter of the cost of a ``SeedSequence`` per unit;
:func:`first_doubles` takes one PCG64 step more, with no ``Generator``.
``tests/test_seeding.py`` pins both against :func:`substream`.
"""
from __future__ import annotations

from itertools import accumulate, chain, pairwise, permutations, product, repeat
from typing import Iterator

import numpy as np

EVENT_CHANNEL = 0
PARAM_CHANNEL = 1
BLOCK = 1024  # indices hashed per array pass; keeps memory flat for any count
MAX_INDEX = 2**32 - 1  # each index is one 32-bit entropy word

_M32, _M128 = 2**32 - 1, 2**128 - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED  # numpy SeedSequence
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64 default multiplier


def substream(seed: int, index: int, channel: int = EVENT_CHANNEL) -> np.random.Generator:
    """Return the generator for unit ``index`` on ``channel`` under ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index, channel)))


def substreams(seed: int, count: int, channel: int = EVENT_CHANNEL) -> Iterator[np.random.Generator]:
    """Yield ``substream(seed, i, channel)`` for i = 0 .. count-1 as one generator
    re-seeded per index: use each before requesting the next."""
    rng = np.random.Generator(np.random.PCG64(0))
    for state, inc in chain.from_iterable(_state_blocks(seed, count, channel)):
        rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
        yield rng


def first_doubles(seed: int, count: int, channel: int) -> Iterator[np.ndarray]:
    """Yield ``substream(seed, i, channel).random()`` for i = 0 .. count-1, one array per block."""
    for block in _state_blocks(seed, count, channel):  # one PCG64 step from each seeded state
        hi, lo = np.array([divmod((state * _PCG_MULT + inc) & _M128, 2**64) for state, inc in block], np.uint64).T
        xsl, rot = hi ^ lo, hi >> 58  # the XSL-RR output, then numpy's next_double
        yield ((xsl >> rot | xsl << (-rot & 63)) >> 11) * 2.0**-53


def _state_blocks(seed: int, count: int, channel: int) -> Iterator[Iterator[tuple[int, int]]]:
    np.random.SeedSequence(seed)  # rejects the seeds numpy rejects
    if count > MAX_INDEX + 1:
        raise ValueError(f"at most {MAX_INDEX + 1} substreams per seed and channel")
    for start in range(0, count, BLOCK):
        yield _pcg64_states(seed, np.arange(start, min(count, start + BLOCK)), channel)


def _hasher(init: int, mult: int):
    """SeedSequence's hashmix on uint32 arrays, advancing its hash constant per call."""
    constants = pairwise(accumulate(repeat(mult), lambda h, m: h * m & _M32, initial=init))

    def hashmix(value: np.ndarray) -> np.ndarray:
        h, next_h = next(constants)
        value = (value ^ h) * next_h
        return value ^ value >> 16
    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x - _MIX_R * y
    return result ^ result >> 16


def _pcg64_states(seed: int, indices: np.ndarray, channel: int) -> Iterator[tuple[int, int]]:
    """(state, inc) of ``PCG64(SeedSequence(seed, spawn_key=(i, channel)))`` per index."""
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))  # a spawned sequence pads its entropy to the pool size
    entropy = [np.array([w], np.uint32) for w in words] + [indices.astype(np.uint32), np.array([channel], np.uint32)]
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(e) for e in entropy[:4]]  # mix_entropy
    for src, dst in permutations(range(4), 2):
        pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for e, dst in product(entropy[4:], range(4)):
        pool[dst] = _mix(pool[dst], hashmix(e))
    hashmix = _hasher(_INIT_B, _MULT_B)  # generate_state(4, uint64): eight words cycled from the pool
    out = [hashmix(pool[k % 4]).astype(np.uint64) for k in range(8)]
    u64 = [np.broadcast_to(out[2 * k] | out[2 * k + 1] << 32, indices.shape).tolist() for k in range(4)]
    for s_hi, s_lo, i_hi, i_lo in zip(*u64):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128  # pcg64 srandom: two LCG steps around adding the seed
        yield ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _M128, inc
