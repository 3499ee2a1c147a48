"""Dense parameter vectors and deterministic stream derivation.

Model parameters, gradients and momentum buffers are all plain float64
``numpy`` arrays; the helpers here check shapes where the contract demands it
and keep every reduction order fixed, so that runs are bit-reproducible.

Every random draw comes from a stream keyed by the master seed and a
``(round, client, purpose)`` path.  ``derive_rng`` builds one such stream,
an :class:`RngStream`; its callers are ``simulator.build_problem`` (data
synthesis), ``simulator.sample_clients`` (client selection) and
``cli.cmd_gradcheck`` (probe points), and each draws from its
``generator``.  ``round_generators`` serves the per-client streams of one
round: it computes all the clients' Philox keys in one vectorized pass of
``SeedSequence``'s entropy mixing and draws them on one reused ``Philox``,
reset per client, so its draws equal ``derive_rng``'s without building a
``SeedSequence`` and a ``Philox`` per client.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

# A parameter vector is a 1-D float64 array; hot loops stay plain numpy.
ParamVector = np.ndarray

# Purpose tags for derive_rng.
PURPOSE_SAMPLING = 0   # per-round client selection
PURPOSE_BATCH = 1      # local minibatch draws / gradient noise
PURPOSE_DATA = 2       # dataset synthesis


def l2_norm_sq(x: ParamVector) -> float:
    """Squared Euclidean norm."""
    return float(np.dot(x, x))


def max_abs(x: ParamVector) -> float:
    """Infinity norm, used for dimension-independent residuals."""
    return float(np.max(np.abs(x))) if x.size else 0.0


def weighted_sum(weights: Sequence[float], vs: Sequence[ParamVector]) -> Optional[ParamVector]:
    """sum_j w_j * v_j in list order, skipping zero weights; None when every weight is zero (exact no-op)."""
    total = None
    for w, v in zip(weights, vs):
        if w == 0.0:
            continue
        total = w * v if total is None else total + w * v
    return total


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row p: a[p] @ b[p], or a[p] @ b for a 1-D ``b``; each the BLAS dot of a single pair."""
    return np.matmul(a[:, None, :], b[..., None])[:, 0, 0]


def stack_rows(vs: Sequence[ParamVector]) -> np.ndarray:
    """``vs`` as one (S, ...) array: an array as it is, a non-empty list of equally shaped vectors stacked."""
    if isinstance(vs, np.ndarray):
        return vs
    first = np.shape(vs[0])
    for v in vs[1:]:
        if np.shape(v) != first:
            raise ValueError(f"dimension mismatch: {np.shape(v)} vs {first}")
    return np.stack(vs)


def mean_vectors(vs: Sequence[ParamVector]) -> ParamVector:
    """Arithmetic mean of the rows of an (S, d) array (or a list of S vectors), summed in row order.

    Callers that need a canonical result (server aggregation) must pass the
    rows already sorted by client id; the summation order is then fixed and
    the output bit pattern is reproducible.  Summation is compensated
    (Neumaier) so the mean of S identical vectors is within 1 ulp of the
    input for any S, and exact when S is a power of two.

    There is no loop over the rows.  ``np.add.accumulate`` gives every
    running sum of the sequential loop at once, each step's Neumaier term
    follows from the running sums before and after it, and a second
    accumulate adds the terms in order.  The bytes are those of the loop
    that starts from ``comp = 0`` and adds one row and one term at a time:
    no term is ever -0.0, so starting from the first term changes nothing.
    At S = 1 that loop returns ``(v + 0.0) / 1``, which turns -0.0 into
    0.0, and so does this function.
    """
    if len(vs) == 0:
        raise ValueError("mean of empty vector list")
    vs = stack_rows(vs)
    if len(vs) == 1:
        return (vs[0] + 0.0) / 1
    acc = np.add.accumulate(vs, axis=0)
    before, after, rows = acc[:-1], acc[1:], vs[1:]
    terms = np.where(np.abs(before) >= np.abs(rows), (before - after) + rows, (rows - after) + before)
    comp = np.add.accumulate(terms, axis=0)[-1]
    return (acc[-1] + comp) / len(vs)


@dataclass(frozen=True)
class RngStream:
    """Deterministic random stream keyed by a master seed and a ``(round, client, purpose)`` path.

    Two streams with the same ``(master_seed, path)`` produce identical draws;
    different paths give statistically independent streams.  The generator is
    ``Philox`` seeded by ``SeedSequence(master_seed, spawn_key=path)``, so a
    stream's draws depend only on its key, never on what other streams drew.
    """

    master_seed: int
    path: tuple[int, ...]
    _gen: list = field(default_factory=list, repr=False, compare=False)

    @property
    def generator(self) -> np.random.Generator:
        """The underlying generator (created lazily, stateful across draws)."""
        if not self._gen:
            seq = np.random.SeedSequence(self.master_seed, spawn_key=self.path)
            self._gen.append(np.random.Generator(np.random.Philox(seq)))
        return self._gen[0]


def derive_rng(master_seed: int, round_index: int, client: int, purpose: int) -> RngStream:
    """Derive the stream for (round, client, purpose) under a master seed."""
    return RngStream(master_seed, (round_index, client, purpose))


# SeedSequence's mixing constants (numpy/random/bit_generator.pyx).  Its hash
# constant is multiplied by MULT_A at every hashmix call, whatever the entropy
# words are, so mixing can resume from any point of the entropy given the
# pool there and the number of calls before it.
INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
INIT_B = 0x8B51F9DD
MULT_B = 0x58F38DED
MIX_MULT_L = 0xCA01F9DD
MIX_MULT_R = 0x4973F715
XSHIFT = 16
MASK32 = 0xFFFFFFFF
POOL_SIZE = 4


def _hashmix(value, before, after):
    """SeedSequence's hashmix (and generate_state's step), given its uint32 array constants.

    The result is a uint32 array, whose products wrap mod 2^32 as the C code's do.
    """
    value = (value ^ before) * after
    return value ^ (value >> XSHIFT)


def _mix(x, y):
    """SeedSequence's mix of the uint32 pool words ``x`` with hashed words ``y``."""
    result = MIX_MULT_L * x - MIX_MULT_R * y
    return result ^ (result >> XSHIFT)


def _next_four(hash_const: int, mult: int):
    """The before and after constants of the next four hashmix calls, as (4, 1) uint32 columns, and the next one."""
    consts = [hash_const]
    for _ in range(POOL_SIZE):
        consts.append((consts[-1] * mult) & MASK32)
    column = np.array(consts, dtype=np.uint32)[:, None]
    return column[:-1], column[1:], consts[-1]


def _check_word(value: int, name: str) -> None:
    if not 0 <= value <= MASK32:
        raise ValueError(f"{name} {value} does not fit one 32-bit word")


def round_keys(master_seed: int, round_index: int, ids: Sequence[int], purpose: int) -> np.ndarray:
    """Row s: the Philox key of ``derive_rng(master_seed, round_index, ids[s], purpose)``, (S, 2) uint64.

    It equals ``SeedSequence(master_seed, spawn_key=(round_index, ids[s],
    purpose)).generate_state(2, np.uint64)``.  The entropy is the master
    seed's 32-bit words, zero-padded to the pool size, then the three spawn
    words, each of which must fit one 32-bit word.  The pool after the seed
    and the round word, which every id shares, is numpy's own
    ``SeedSequence(master_seed, spawn_key=(round_index,)).pool``; the ids
    word then makes it (4, S), and the purpose word and ``generate_state``
    run on that array.
    """
    _check_word(round_index, "round index")
    _check_word(purpose, "purpose")
    if len(ids) and not (0 <= min(ids) and max(ids) <= MASK32):
        raise ValueError("a client id does not fit one 32-bit word")
    shared = np.random.SeedSequence(master_seed, spawn_key=(round_index,))
    # hashmix calls so far: four to fill the pool, twelve to mix it, then four per later entropy word
    words = max(POOL_SIZE, -(-int(master_seed).bit_length() // 32)) + 1
    calls = POOL_SIZE * POOL_SIZE + POOL_SIZE * (words - POOL_SIZE)
    hash_const = (INIT_A * pow(MULT_A, calls, MASK32 + 1)) & MASK32
    before, after, hash_const = _next_four(hash_const, MULT_A)
    pool = _mix(shared.pool[:, None], _hashmix(np.array(ids, dtype=np.uint32), before, after))
    before, after, _ = _next_four(hash_const, MULT_A)
    pool = _mix(pool, _hashmix(purpose, before, after))

    # generate_state(2, np.uint64): one 32-bit word per pool word, read little-endian in pairs
    before, after, _ = _next_four(INIT_B, MULT_B)
    state = _hashmix(pool, before, after).astype(np.uint64)
    return (state[0::2] | state[1::2] << np.uint64(32)).T


def round_generators(master_seed: int, round_index: int, ids: Sequence[int],
                     purpose: int) -> Iterator[np.random.Generator]:
    """For each id in order, a Generator whose draws equal ``derive_rng(master_seed, round_index, id, purpose)``'s.

    The keys come from ``round_keys``; every id gets the same ``Generator``
    object, its ``Philox`` reset to the next key (counter 0, empty buffer),
    so the caller must finish one id's draws before it advances.
    """
    keys = round_keys(master_seed, round_index, ids, purpose)
    return _reset_per_key(keys)


def _reset_per_key(keys: np.ndarray) -> Iterator[np.random.Generator]:
    """One Generator on one Philox, set to each (2,) key in turn: counter 0, no buffered output."""
    bit_generator = np.random.Philox(0)
    gen = np.random.Generator(bit_generator)
    zeros = np.zeros(4, dtype=np.uint64)
    for key in keys:
        bit_generator.state = {"bit_generator": "Philox", "state": {"counter": zeros, "key": key},
                               "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        yield gen
