"""Dense parameter vectors and deterministic stream derivation.

Model parameters, gradients and momentum buffers are all plain float64
``numpy`` arrays; the helpers here check shapes where the contract demands it
and keep every reduction order fixed so that runs are bit-reproducible regardless
of how client work is scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

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


def mean_vectors(vs: Sequence[ParamVector]) -> ParamVector:
    """Arithmetic mean of equally shaped vectors, summed in list order.

    Callers that need a canonical result (server aggregation) must pass the
    list already sorted by client id; the summation order is then fixed and
    the output bit pattern is reproducible.  Summation is compensated
    (Neumaier) so the mean of n identical vectors is within 1 ulp of the
    input for any n, and exact when n is a power of two.
    """
    if len(vs) == 0:
        raise ValueError("mean of empty vector list")
    acc = vs[0].copy()
    comp = np.zeros_like(acc)
    for v in vs[1:]:
        if v.shape != acc.shape:
            raise ValueError(f"dimension mismatch: {v.shape} vs {acc.shape}")
        total = acc + v
        comp += np.where(np.abs(acc) >= np.abs(v), (acc - total) + v, (v - total) + acc)
        acc = total
    return (acc + comp) / len(vs)


@dataclass(frozen=True)
class RngStream:
    """Deterministic random stream keyed by a master seed and a derivation path.

    Two streams with the same ``(master_seed, path)`` produce identical draws;
    different paths give statistically independent streams.  Derivation uses
    ``numpy`` seed sequences with the path as spawn key, so results do not
    depend on thread scheduling or call interleaving.
    """

    master_seed: int
    path: tuple[int, ...] = ()
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
