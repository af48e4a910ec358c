"""numpy's ``SeedSequence`` over whole arrays of seeds, bit for bit.

``SeedSequence`` (O'Neill 2014) is a fixed 32-bit integer hash whose
constants depend only on position, so many seeds hash at once as uint32
array operations:
``mcverify.derive_seed`` derives a run's seeds in one pass and
``model.sample`` gets every seed's PCG64 seed words in one pass, and numpy
still seeds each PCG64 and draws.  The tests check it against numpy's own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Hash k of each kind xors with init * mult^k and multiplies by init *
# mult^(k+1): tables for 128 entropy words (a 2048-bit seed and spawn key)
# and 8 output words.  _CROSS_HASH[src] hashes pool word src into word d by
# hash 4 + 3 src + (d's rank), a spare at d = src.
_SHIFT, _MIX = np.uint32(16), (np.uint32(0xCA01F9DD), np.uint32(0x4973F715))
_POOL_HASH, _STATE_HASH = (
    np.array([powers[:-1, None], powers[1:, None]]) for powers in (
        np.multiply.accumulate(np.array([init] + [mult] * count, np.uint32), dtype=np.uint32)
        for init, mult, count in ((0x43B0D7E5, 0x931E8875, 512), (0x8B51F9DD, 0x58F38DED, 8))))
_CROSS_HASH = np.ascontiguousarray(_POOL_HASH[:, [
    [4 + 3 * src + d - (d > src) for d in range(4)] for src in range(4)]].swapaxes(0, 1))
_POOL_HASH.flags.writeable = _STATE_HASH.flags.writeable = _CROSS_HASH.flags.writeable = False


def _hash(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mul
    return value ^ value >> _SHIFT


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = _MIX[0] * x - _MIX[1] * y
    return value ^ value >> _SHIFT


def _seed_state(values, n_words: int, head: int | None = None) -> np.ndarray:
    """Row r is ``generate_state(n_words, np.uint64)`` of ``SeedSequence(values[r])``,
    or with ``head`` of ``SeedSequence(head, spawn_key=(values[r],))``, bit for
    bit; values are ints >= 0 or an integer array.  Every hash runs over the
    (W, R) entropy's whole rows; words past 4 mix in where a column has them."""
    if isinstance(values, np.ndarray):  # at most 64 bits: one or two words
        words = np.ascontiguousarray(values, dtype="<u8").view("<u4").reshape(-1, 2).T
        widths = 1 + (words[1] > 0)
    else:
        widths = np.array([max(1, -(-v.bit_length() // 32)) for v in values])
        raw = b"".join(v.to_bytes(4 * int(widths.max()), "little") for v in values)
        words = np.frombuffer(raw, "<u4").reshape(len(values), -1).T
    lead = 0 if head is None else max(4, -(-head.bit_length() // 32))  # head padded to 4
    entropy = np.zeros((max(4, lead + len(words)), words.shape[1]), dtype=np.uint32)
    entropy[:lead] = np.frombuffer((head or 0).to_bytes(4 * lead, "little"), "<u4")[:, None]
    entropy[lead : lead + len(words)] = words
    pool = _hash(entropy[:4], *_POOL_HASH[:, :4])
    for src in range(4):
        mixed = _mix(pool, _hash(pool[src], *_CROSS_HASH[src]))
        mixed[src] = pool[src]
        pool = mixed
    for j in range(4, len(entropy)):
        mixed = _mix(pool, _hash(entropy[j], *_POOL_HASH[:, 4 * j : 4 * j + 4]))
        np.copyto(pool, mixed, where=widths + lead > j)
    state = _hash(pool[np.arange(2 * n_words) % 4], *_STATE_HASH[:, : 2 * n_words])
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


@dataclass
class _SeedWords:
    """One generator's PCG64 seed words from ``_seed_state``, an
    ``ISeedSequence`` once ``model.sample`` registers it: numpy.random, a slow
    import, loads on first use, not with mdrcv."""

    words: np.ndarray

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.words
