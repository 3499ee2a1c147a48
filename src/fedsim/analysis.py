"""Measurement and runtime verification of the update-rule identities.

Two exact identities are checked every round (max-norm residuals, so the
tolerance is dimension independent).  Writing gsum for the sum of all
stochastic gradients consumed in the round and A = 1 - sum(alpha):

* increment recursion:  delta_{t+1} = A * (eta_l / (S K)) gsum
                                      + sum_j alpha_j delta_{t-j}
* shifted-iterate update:  u_{t+1} = u_t - (eta_l / S) gsum, where
  u_t = x_t - (K / A) sum_j (sum_{s>=j} alpha_s) delta_{t-j}.

Both hold to rounding error for the momentum rule because the residuals are
reconstructed from the very gradient values the update consumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .vectors import ParamVector, max_abs, row_dots, weighted_sum


@dataclass
class MetricRow:
    """One round's recorded measurements; optional fields stay None when not applicable."""

    round: int
    loss: float
    grad_norm_sq: float
    grad_norm_sq_at_u: Optional[float]
    consistency: float
    delta_norm_sq: float
    residual_delta: Optional[float]
    residual_u: Optional[float]
    eta_l: float


def local_consistency(local_finals: Sequence[ParamVector], global_next: ParamVector) -> float:
    """Mean squared distance of the clients' end-of-round models from their aggregate.

    ``local_finals`` is the (S, d) array-like of the clients' models.  Each
    row's squared distance is one BLAS dot, as ``r @ r`` computes it, and
    the S of them are added in row order by ``np.add.accumulate``: the same
    float as the sequential Python loop, with no loop.  The stack must have
    the model's shape per row; an (S, 1) stack is rejected, not broadcast
    against a (d,) model.
    """
    if len(local_finals) == 0:
        raise ValueError("no local models")
    finals = np.asarray(local_finals)
    if finals.shape[1:] != global_next.shape:
        raise ValueError(f"dimension mismatch: {finals.shape[1:]} vs {global_next.shape}")
    r = finals - global_next
    return float(np.add.accumulate(row_dots(r, r))[-1]) / len(finals)


def compute_u(x: ParamVector, deltas: Sequence[ParamVector], alpha: Sequence[float], k_local: int) -> ParamVector:
    """Shifted iterate x - (K/A) sum_j (sum_{s=j}^{J-1} alpha_s) delta_{t-j}."""
    a_scale = 1.0 - sum(alpha)
    if a_scale <= 0:
        raise ValueError("alpha weights must sum below 1")
    tail = np.cumsum(alpha[::-1])[::-1]  # tail[j] = alpha_j + ... + alpha_{J-1}
    shift = weighted_sum(tail, deltas)
    if shift is None:
        return x.copy()
    return x - (k_local / a_scale) * shift


def verify_u_update(u_prev: ParamVector, u_next: ParamVector, grad_sum: ParamVector,
                    eta_l: float, s_participate: int) -> float:
    """Residual of u_{t+1} = u_t - (eta_l / S) * grad_sum (max-norm)."""
    predicted = u_prev - (eta_l / s_participate) * grad_sum
    return max_abs(u_next - predicted)


def verify_delta_recursion(delta_next: ParamVector, grad_sum: ParamVector,
                           deltas: Sequence[ParamVector], alpha: Sequence[float],
                           eta_l: float, s_participate: int, k_local: int) -> float:
    """Residual of delta_{t+1} = A * delta_tilde + sum_j alpha_j delta_{t-j} (max-norm).

    delta_tilde is the gradient average (eta_l / (S K)) * grad_sum over the
    sampled clients, which is exactly the set the aggregation used.
    """
    a_scale = 1.0 - sum(alpha)
    delta_tilde = (eta_l / (s_participate * k_local)) * grad_sum
    predicted = a_scale * delta_tilde
    for a, d in zip(alpha, deltas):
        if a != 0.0:
            predicted = predicted + a * d
    return max_abs(delta_next - predicted)


def finite_difference_check(obj, x: ParamVector, h: float) -> float:
    """Max relative error of ``obj.full_gradient`` against central differences of ``obj.loss``."""
    if h <= 0:
        raise ValueError("h must be positive")
    g = obj.full_gradient(x)
    worst = 0.0
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = h
        fd = (obj.loss(x + e) - obj.loss(x - e)) / (2.0 * h)
        worst = max(worst, abs(fd - g[i]) / (abs(g[i]) + 1e-8))
    return worst
