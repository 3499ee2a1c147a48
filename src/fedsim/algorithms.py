"""Server- and client-side update rules, expressed as pure round transitions.

Five algorithms share one skeleton: broadcast the global model, run K local
steps on each sampled client, average the returned models in ascending
client-id order, and push the normalized global increment

    delta_{t+1} = -(x_{t+1} - x_t) / K

into a J-slot ring buffer.  The inertial-momentum rule additionally shifts
both the local iterate and the gradient-evaluation point by weighted sums of
past increments:

    y1 = x_k - sum_j alpha_j * delta_{t-j}
    y2 = x_k - sum_j beta_j  * delta_{t-j}
    x_{k+1} = y1 - (1 - sum_j alpha_j) * eta_l * g(y2)

Every rule runs its local steps through one batched kernel,
:func:`mim_local_update`: the S sampled clients share the broadcast model
and both shifts, so they are held as one (S, d) array.  ``draw_round``
splits it into row blocks (by cache size or by batch length); a block
takes all K steps, one oracle call each, before the next starts.
The kernel reads the start, the history and eta_l off the
:class:`RoundState`, and the problem draws the round's minibatches or
gradient noise.  The rules differ only in the kernel's parameters and the
server step:

* the averaging baseline sets every weight to zero (plain local SGD);
* the client-momentum baseline is a single alpha step with zero beta;
* the control-variate baseline adds a constant per-client gradient offset;
* the adaptive baseline takes a server Adam step on the averaged result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .objectives import FederatedProblem
from .vectors import ParamVector, mean_vectors, weighted_sum


class DivergenceError(RuntimeError):
    """A local update, or the server step (client and step ``None``), produced non-finite parameters."""

    def __init__(self, client_id: Optional[int], iteration: Optional[int]):
        self.client_id = client_id
        self.iteration = iteration
        self.place = "server step" if client_id is None else f"client {client_id}, local step {iteration}"
        super().__init__(f"non-finite parameters ({self.place})")


@dataclass(frozen=True)
class MimHyper:
    """The ``[algorithm]`` section: hyper-parameters of all five round transitions.

    ``alpha``/``beta`` are the increment weights (padded to a common length
    J); ``eta_l`` is the initial local learning rate, decayed by ``lr_decay``
    once per round.  ``fedcm_alpha`` weights fedcm's momentum, and the
    ``adam_*`` knobs and ``global_lr`` set fedadam's server step.
    """

    alpha: tuple = (0.6, 0.3)
    beta: tuple = (0.9, 0.1)
    eta_l: float = 0.1
    k_local: int = 10
    s_participate: int = 1
    lr_decay: float = 0.998
    fedcm_alpha: float = 0.1
    adam_beta1: float = 0.9
    adam_beta2: float = 0.99
    adam_eps: float = 1e-3
    global_lr: float = 0.1

    def __post_init__(self):
        alpha = tuple(float(a) for a in self.alpha)
        beta = tuple(float(b) for b in self.beta)
        j = max(len(alpha), len(beta), 1)
        alpha += (0.0,) * (j - len(alpha))
        beta += (0.0,) * (j - len(beta))
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        if not all(math.isfinite(w) and w >= 0 for w in alpha + beta):
            raise ValueError("momentum weights must be finite and nonnegative")
        if sum(alpha) >= 1.0:
            raise ValueError("alpha weights must sum below 1")
        if not (math.isfinite(self.eta_l) and self.eta_l > 0):
            raise ValueError("eta_l must be positive and finite")
        if self.k_local < 1:
            raise ValueError("k_local must be >= 1")
        if self.s_participate < 1:
            raise ValueError("s_participate must be >= 1")
        if not (0 < self.lr_decay <= 1):
            raise ValueError("lr_decay must be in (0, 1]")
        if not (0.0 <= self.fedcm_alpha < 1.0):
            raise ValueError("fedcm_alpha must be in [0, 1)")
        for name in ("adam_beta1", "adam_beta2"):
            if not (0.0 <= getattr(self, name) < 1.0):
                raise ValueError(f"{name} must be in [0, 1)")
        for name in ("adam_eps", "global_lr"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite")

    @property
    def J(self) -> int:
        return len(self.alpha)

    @property
    def A(self) -> float:
        """Gradient-step scale 1 - sum(alpha), in (0, 1]."""
        return 1.0 - sum(self.alpha)


@dataclass(frozen=True)
class ScaffoldAux:
    c: ParamVector
    c_clients: np.ndarray  # (N, d), row i is client i's control


@dataclass(frozen=True)
class AdamAux:
    m: ParamVector
    v: ParamVector


@dataclass(frozen=True)
class RoundState:
    """Global model, ring buffer of the last J increments, round counter."""

    x: ParamVector
    delta_history: tuple  # newest first; pre-history slots are zero vectors
    round: int = 0
    algo_aux: object = None


@dataclass(frozen=True)
class RoundArtifacts:
    """Per-round observability payload (never feeds back into the trajectory)."""

    local_finals: np.ndarray  # (S, d), row s is the s-th smallest sampled client id
    grad_sums: np.ndarray  # (S, d), row s: the sum of the K gradients client s consumed

    @property
    def grad_sum(self) -> ParamVector:
        """The sampled clients' gradient sums added in client-id order, computed when read."""
        return _total_grad_sum(self.grad_sums)


def init_round_state(x0: ParamVector, history_len: int) -> RoundState:
    return RoundState(x0.copy(), tuple(np.zeros_like(x0) for _ in range(history_len)))


def current_eta(hyper: MimHyper, round_index: int) -> float:
    """Local learning rate in effect at a given round (initial value decayed)."""
    return hyper.eta_l * hyper.lr_decay ** round_index


def compute_delta(x_t: ParamVector, x_prev: ParamVector, k_local: int) -> ParamVector:
    """Normalized global increment -(x_t - x_prev) / K."""
    if x_t.shape != x_prev.shape:
        raise ValueError(f"dimension mismatch: {x_t.shape} vs {x_prev.shape}")
    if k_local < 1:
        raise ValueError("k_local must be >= 1")
    return -(x_t - x_prev) / k_local


def mim_local_update(
    problem: FederatedProblem,
    ids: Sequence[int],
    state: RoundState,
    hyper: MimHyper,
    seed: int,
    *,
    correction: Optional[np.ndarray] = None,
) -> tuple:
    """K inertial-momentum SGD steps from the broadcast model, on the sampled clients a block at a time.

    Row s of the (S, d) iterate is client ``ids[s]``; ``ids`` are sorted and
    distinct; every row starts at ``state.x``, with eta_l
    ``current_eta(hyper, state.round)``.  The problem draws the round's
    randomness up front, under the master ``seed``, as blocks of rows, each
    of which takes all K steps in arrays of its own, then written into its
    rows of the result, before the next starts.  The increment history is
    fixed for the whole round, so both momentum shifts are computed once.
    ``correction`` is a constant (S, d) offset added to the gradient before
    each step (the control-variate baseline).

    Returns the (S, d) final iterates and, on every call, the (S, d)
    per-client sums of the exact stochastic gradients consumed, which only
    the identity checks read.  A row that turns non-finite (one sum over the
    block tests each step; the rows are tested only when it is not finite)
    raises :class:`DivergenceError` after the last block, for the lowest such
    client id and its first non-finite step.
    """
    step = hyper.A * current_eta(hyper, state.round)
    shift_alpha = weighted_sum(hyper.alpha, state.delta_history)
    shift_beta = weighted_sum(hyper.beta, state.delta_history)
    finals = np.empty((len(ids), state.x.shape[0]))
    grad_sums = np.empty_like(finals)
    first_bad = np.empty(len(ids), dtype=int)
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is caught explicitly
        for rows, block in problem.draw_round(seed, state.round, ids, hyper.k_local):
            x = np.empty((len(rows), len(state.x)))
            x[:] = state.x
            sums, bad = np.zeros(x.shape), np.full(len(rows), -1)
            offset = None if correction is None else correction[rows]
            y2 = x if shift_beta is None else np.empty_like(x)
            for k in range(hyper.k_local):
                if shift_beta is not None:
                    np.subtract(x, shift_beta, out=y2)
                g = problem.client_gradients(y2, block, k)
                sums += g
                if offset is not None:
                    g += offset
                g *= step  # x_{k+1} = y1 - step * g, in place: g and x are this call's own arrays
                if shift_alpha is not None:
                    x -= shift_alpha
                x -= g
                if not np.isfinite(np.add.reduce(x, axis=None)):  # inf/NaN iff an entry is, or the sum overflows
                    bad[~np.isfinite(x).all(axis=1) & (bad < 0)] = k
            finals[rows], grad_sums[rows], first_bad[rows] = x, sums, bad
    if (first_bad >= 0).any():
        row = int(np.argmax(first_bad >= 0))
        raise DivergenceError(ids[row], int(first_bad[row]))
    return finals, grad_sums


def _total_grad_sum(grad_sums: np.ndarray) -> ParamVector:
    """Sum of the per-client rows, added in client-id order (one sequential accumulate)."""
    return np.add.accumulate(grad_sums, axis=0)[-1]


def _advance(state: RoundState, hyper: MimHyper, x_next: ParamVector, finals, grad_sums,
             algo_aux=None) -> tuple:
    if not np.isfinite(x_next).all():
        raise DivergenceError(None, None)
    delta_next = compute_delta(x_next, state.x, hyper.k_local)
    history = (delta_next,) + state.delta_history[: hyper.J - 1]
    return RoundState(x_next, history, state.round + 1, algo_aux), RoundArtifacts(finals, grad_sums)


def _check_round_args(state: RoundState, problem: FederatedProblem, hyper: MimHyper, sampled) -> list:
    """The sampled ids, sorted, after checking them against the round's shape."""
    if len(sampled) != hyper.s_participate:
        raise ValueError(f"expected {hyper.s_participate} sampled clients, got {len(sampled)}")
    if len(state.delta_history) != hyper.J:
        raise ValueError("delta history length does not match momentum depth")
    ids = sorted(sampled)
    if len(set(ids)) != len(ids) or ids[0] < 0 or ids[-1] >= problem.num_clients:
        raise ValueError(f"sampled client ids must be distinct and in [0, {problem.num_clients})")
    return ids


def _zero_momentum(hyper: MimHyper) -> MimHyper:
    return replace(hyper, alpha=(0.0,) * hyper.J, beta=(0.0,) * hyper.J)


def mim_round(state: RoundState, problem: FederatedProblem, hyper: MimHyper, sampled: Sequence[int],
              seed: int) -> tuple:
    """One inertial-momentum round: local updates on the sampled clients, mean aggregation."""
    ids = _check_round_args(state, problem, hyper, sampled)
    finals, grad_sums = mim_local_update(problem, ids, state, hyper, seed)
    return _advance(state, hyper, mean_vectors(finals), finals, grad_sums)


def fedavg_round(state, problem, hyper, sampled, seed):
    """Local SGD plus averaging: the zero-momentum path, hard-coded."""
    return mim_round(state, problem, _zero_momentum(hyper), sampled, seed)


def fedcm_round(state, problem, hyper, sampled, seed):
    """Client-momentum baseline.

    Each local step blends the stochastic gradient with the broadcast
    momentum Delta_t = delta_t / eta_l (the previous round's normalized
    increment):  x <- x - eta_l * [(1 - a) g(x) + a Delta_t], which is
    literally  x <- (x - a delta_t) - (1 - a) eta_l g(x): the momentum rule
    with alpha = (a, 0, ...) and beta = 0.  With weight a = 0 this is the
    plain averaging baseline.
    """
    a = hyper.fedcm_alpha
    single = replace(hyper, alpha=(a,) + (0.0,) * (hyper.J - 1), beta=(0.0,) * hyper.J)
    return mim_round(state, problem, single, sampled, seed)


def scaffold_round(state, problem, hyper, sampled, seed):
    """Control-variate baseline.

    Local step x <- x - eta_l (g(x) - c_i + c); after K steps the client
    control is refreshed as c_i <- c_i - c + (x_t - x_K)/(K eta_l) and the
    server control moves by the participation-weighted average change.
    """
    ids = _check_round_args(state, problem, hyper, sampled)
    aux = state.algo_aux or ScaffoldAux(np.zeros_like(state.x), np.zeros((problem.num_clients, state.x.shape[0])))
    c_old = aux.c_clients[ids]
    finals, grad_sums = mim_local_update(problem, ids, state, _zero_momentum(hyper), seed,
                                         correction=aux.c - c_old)
    c_new = c_old - aux.c + (state.x - finals) / (hyper.k_local * current_eta(hyper, state.round))
    c_next = aux.c + (hyper.s_participate / problem.num_clients) * mean_vectors(c_new - c_old)
    clients_next = aux.c_clients.copy()
    clients_next[ids] = c_new
    return _advance(state, hyper, mean_vectors(finals), finals, grad_sums,
                    algo_aux=ScaffoldAux(c_next, clients_next))


def adam_server_step(aux: AdamAux, pseudo_grad: ParamVector, hyper: MimHyper) -> tuple:
    """One server Adam step on the pseudo-gradient; returns (new_aux, update).

    No bias correction (moments are zero-initialized), so the update
    magnitude approaches global_lr / (1 + eps) for a persistent unit
    pseudo-gradient.
    """
    m = hyper.adam_beta1 * aux.m + (1.0 - hyper.adam_beta1) * pseudo_grad
    v = hyper.adam_beta2 * aux.v + (1.0 - hyper.adam_beta2) * pseudo_grad * pseudo_grad
    update = hyper.global_lr * m / (np.sqrt(v) + hyper.adam_eps)
    return AdamAux(m, v), update


def fedadam_round(state, problem, hyper, sampled, seed):
    """Adaptive server baseline: plain local SGD, one server Adam step per round."""
    ids = _check_round_args(state, problem, hyper, sampled)
    aux = state.algo_aux or AdamAux(np.zeros_like(state.x), np.zeros_like(state.x))
    finals, grad_sums = mim_local_update(problem, ids, state, _zero_momentum(hyper), seed)
    aux_next, update = adam_server_step(aux, state.x - mean_vectors(finals), hyper)
    return _advance(state, hyper, state.x - update, finals, grad_sums, algo_aux=aux_next)


ROUND_FUNCTIONS = {
    "fedmim": mim_round,
    "fedavg": fedavg_round,
    "fedcm": fedcm_round,
    "scaffold": scaffold_round,
    "fedadam": fedadam_round,
}


def eta_l_bound(smoothness_l: float, k_local: int, a_scale: float) -> float:
    """The local-rate bound min{1/(4LK sqrt(A)), 3/(16KL)}.

    Advisory only: ``run.json`` reports it and whether eta_l meets it; it
    never blocks execution.
    """
    if not (0 < a_scale <= 1):
        raise ValueError("a_scale must be in (0, 1]")
    return min(1.0 / (4.0 * smoothness_l * k_local * math.sqrt(a_scale)),
               3.0 / (16.0 * k_local * smoothness_l))
