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

Setting every weight to zero recovers plain local SGD (the averaging
baseline delegates to exactly that code path); a single alpha step with zero
beta recovers the client-momentum baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .objectives import ClientObjective, EpochSampler, FederatedProblem
from .vectors import (
    PURPOSE_BATCH,
    ParamVector,
    RngStream,
    derive_rng,
    mean_vectors,
    zeros_like,
)


class DivergenceError(RuntimeError):
    """A local update produced non-finite parameters."""

    def __init__(self, client_id: int, iteration: int):
        self.client_id = client_id
        self.iteration = iteration
        super().__init__(f"non-finite parameters on client {client_id} at local step {iteration}")


@dataclass(frozen=True)
class MimHyper:
    """Inertial-momentum hyper-parameters shared by all round transitions.

    ``alpha``/``beta`` are the increment weights (padded to a common length
    J); ``eta_l`` is the initial local learning rate, decayed by ``lr_decay``
    once per round.
    """

    alpha: tuple = (0.6, 0.3)
    beta: tuple = (0.9, 0.1)
    eta_l: float = 0.1
    k_local: int = 10
    s_participate: int = 1
    lr_decay: float = 0.998

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

    @property
    def J(self) -> int:
        return len(self.alpha)

    @property
    def sum_alpha(self) -> float:
        return sum(self.alpha)

    @property
    def A(self) -> float:
        """Gradient-step scale 1 - sum(alpha), in (0, 1]."""
        return 1.0 - self.sum_alpha

    @property
    def rho(self) -> float:
        return sum(self.beta)


@dataclass(frozen=True)
class AlgoParams:
    """Knobs specific to the non-default baselines."""

    fedcm_alpha: float = 0.1
    adam_beta1: float = 0.9
    adam_beta2: float = 0.99
    adam_eps: float = 1e-3
    global_lr: float = 1.0


@dataclass(frozen=True)
class ScaffoldAux:
    c: ParamVector
    c_clients: tuple

    @staticmethod
    def zeros(n_clients: int, dim: int) -> "ScaffoldAux":
        return ScaffoldAux(np.zeros(dim), tuple(np.zeros(dim) for _ in range(n_clients)))


@dataclass(frozen=True)
class AdamAux:
    m: ParamVector
    v: ParamVector

    @staticmethod
    def zeros(dim: int) -> "AdamAux":
        return AdamAux(np.zeros(dim), np.zeros(dim))


@dataclass(frozen=True)
class RoundState:
    """Global model, ring buffer of the last J increments, round counter."""

    x: ParamVector
    delta_history: tuple  # newest first; pre-history slots are zero vectors
    round: int = 0
    algo_aux: object = None


@dataclass(frozen=True)
class ClientResult:
    client_id: int
    x_final: ParamVector
    grad_sum: Optional[ParamVector] = None
    aux_update: object = None


@dataclass(frozen=True)
class RoundArtifacts:
    """Per-round observability payload (never feeds back into the trajectory)."""

    sampled: tuple
    local_finals: tuple  # sorted by client id
    grad_sum: Optional[ParamVector]
    eta_l: float


def init_round_state(x0: ParamVector, history_len: int) -> RoundState:
    return RoundState(x0.copy(), tuple(zeros_like(x0) for _ in range(history_len)))


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


def _weighted_shift(weights: Sequence[float], deltas: Sequence[ParamVector]) -> Optional[ParamVector]:
    """sum_j w_j * delta_j, or None when every weight is zero (exact no-op)."""
    total = None
    for w, d in zip(weights, deltas):
        if w == 0.0:
            continue
        total = w * d if total is None else total + w * d
    return total


def _check_finite(x: ParamVector, client_id: int, iteration: int) -> None:
    if not np.all(np.isfinite(x)):
        raise DivergenceError(client_id, iteration)


def mim_local_update(
    x_start: ParamVector,
    deltas: Sequence[ParamVector],
    hyper: MimHyper,
    obj: ClientObjective,
    rng: RngStream,
    *,
    eta_l: Optional[float] = None,
    batch_size: int = 0,
    collect_grad_sum: bool = False,
    client_id: int = 0,
) -> ClientResult:
    """K inertial-momentum SGD steps from the broadcast model.

    The increment history is fixed for the whole round; both momentum shifts
    are therefore precomputed once.  ``collect_grad_sum`` accumulates the
    exact stochastic gradients consumed, for the identity checks.
    """
    eta = hyper.eta_l if eta_l is None else eta_l
    step = hyper.A * eta
    shift_alpha = _weighted_shift(hyper.alpha, deltas)
    shift_beta = _weighted_shift(hyper.beta, deltas)
    sampler = EpochSampler(obj.sample_count, batch_size, rng.generator) if obj.sample_count > 0 else None
    x = x_start.copy()
    grad_sum = zeros_like(x_start) if collect_grad_sum else None
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is caught explicitly
        for k in range(hyper.k_local):
            y2 = x if shift_beta is None else x - shift_beta
            if sampler is not None:
                g = obj.batch_gradient(y2, sampler.next_batch())
            else:
                g = obj.stochastic_gradient(y2, batch_size, rng)
            if grad_sum is not None:
                grad_sum += g
            y1 = x if shift_alpha is None else x - shift_alpha
            x = y1 - step * g
            _check_finite(x, client_id, k)
    return ClientResult(client_id, x, grad_sum=grad_sum)


def _run_clients(worker: Callable[[int], ClientResult], sampled: Sequence[int], executor) -> list:
    ids = sorted(sampled)
    if executor is None:
        results = [worker(cid) for cid in ids]
    else:
        results = list(executor.map(worker, ids))
    return sorted(results, key=lambda r: r.client_id)


def _total_grad_sum(results: Sequence[ClientResult]) -> Optional[ParamVector]:
    if results[0].grad_sum is None:
        return None
    total = results[0].grad_sum.copy()
    for r in results[1:]:
        total += r.grad_sum
    return total


def _advance(state: RoundState, hyper: MimHyper, x_next: ParamVector, results, eta: float,
             algo_aux=None) -> tuple:
    delta_next = compute_delta(x_next, state.x, hyper.k_local)
    history = (delta_next,) + state.delta_history[: hyper.J - 1]
    new_state = RoundState(x_next, history, state.round + 1,
                           algo_aux if algo_aux is not None else state.algo_aux)
    artifacts = RoundArtifacts(
        sampled=tuple(r.client_id for r in results),
        local_finals=tuple(r.x_final for r in results),
        grad_sum=_total_grad_sum(results),
        eta_l=eta,
    )
    return new_state, artifacts


def _check_round_args(state: RoundState, problem: FederatedProblem, hyper: MimHyper, sampled) -> None:
    if len(sampled) != hyper.s_participate:
        raise ValueError(f"expected {hyper.s_participate} sampled clients, got {len(sampled)}")
    if not (1 <= hyper.s_participate <= problem.num_clients):
        raise ValueError("s_participate out of range")
    if len(state.delta_history) != hyper.J:
        raise ValueError("delta history length does not match momentum depth")


def mim_round(
    state: RoundState,
    problem: FederatedProblem,
    hyper: MimHyper,
    sampled: Sequence[int],
    rng: RngStream,
    *,
    batch_size: int = 0,
    collect_grads: bool = False,
    executor=None,
    params: AlgoParams = AlgoParams(),
) -> tuple:
    """One inertial-momentum round: local updates on the sampled clients, mean aggregation."""
    _check_round_args(state, problem, hyper, sampled)
    eta = current_eta(hyper, state.round)

    def worker(cid: int) -> ClientResult:
        stream = derive_rng(rng.master_seed, state.round, cid, PURPOSE_BATCH)
        return mim_local_update(
            state.x, state.delta_history, hyper, problem.clients[cid], stream,
            eta_l=eta, batch_size=batch_size, collect_grad_sum=collect_grads, client_id=cid,
        )

    results = _run_clients(worker, sampled, executor)
    x_next = mean_vectors([r.x_final for r in results])
    return _advance(state, hyper, x_next, results, eta)


def fedavg_round(state, problem, hyper, sampled, rng, *, batch_size=0, collect_grads=False,
                 executor=None, params: AlgoParams = AlgoParams()):
    """Local SGD plus averaging: the zero-momentum path, hard-coded."""
    zero = replace(hyper, alpha=(0.0,) * hyper.J, beta=(0.0,) * hyper.J)
    return mim_round(state, problem, zero, sampled, rng, batch_size=batch_size,
                     collect_grads=collect_grads, executor=executor)


def fedcm_round(state, problem, hyper, sampled, rng, *, batch_size=0, collect_grads=False,
                executor=None, params: AlgoParams = AlgoParams()):
    """Client-momentum baseline.

    Each local step blends the stochastic gradient with the broadcast
    momentum Delta_t = delta_t / eta_l (the previous round's normalized
    increment):  x <- x - eta_l * [(1 - a) g(x) + a Delta_t], which is
    literally  x <- x - (1 - a) eta_l g(x) - a delta_t.  With weight a = 0
    this is the plain averaging baseline.
    """
    _check_round_args(state, problem, hyper, sampled)
    eta = current_eta(hyper, state.round)
    a = params.fedcm_alpha
    if not (0 <= a < 1):
        raise ValueError("fedcm_alpha must be in [0, 1)")
    shift = a * state.delta_history[0] if a != 0.0 else None
    step = (1.0 - a) * eta

    def worker(cid: int) -> ClientResult:
        stream = derive_rng(rng.master_seed, state.round, cid, PURPOSE_BATCH)
        obj = problem.clients[cid]
        sampler = EpochSampler(obj.sample_count, batch_size, stream.generator) if obj.sample_count > 0 else None
        x = state.x.copy()
        grad_sum = zeros_like(x) if collect_grads else None
        for k in range(hyper.k_local):
            g = obj.batch_gradient(x, sampler.next_batch()) if sampler is not None \
                else obj.stochastic_gradient(x, batch_size, stream)
            if grad_sum is not None:
                grad_sum += g
            x = x - step * g
            if shift is not None:
                x -= shift
            _check_finite(x, cid, k)
        return ClientResult(cid, x, grad_sum=grad_sum)

    results = _run_clients(worker, sampled, executor)
    x_next = mean_vectors([r.x_final for r in results])
    return _advance(state, hyper, x_next, results, eta)


def scaffold_round(state, problem, hyper, sampled, rng, *, batch_size=0, collect_grads=False,
                   executor=None, params: AlgoParams = AlgoParams()):
    """Control-variate baseline.

    Local step x <- x - eta_l (g(x) - c_i + c); after K steps the client
    control is refreshed as c_i <- c_i - c + (x_t - x_K)/(K eta_l) and the
    server control moves by the participation-weighted average change.
    """
    _check_round_args(state, problem, hyper, sampled)
    eta = current_eta(hyper, state.round)
    aux = state.algo_aux
    if aux is None:
        aux = ScaffoldAux.zeros(problem.num_clients, state.x.shape[0])

    def worker(cid: int) -> ClientResult:
        stream = derive_rng(rng.master_seed, state.round, cid, PURPOSE_BATCH)
        obj = problem.clients[cid]
        sampler = EpochSampler(obj.sample_count, batch_size, stream.generator) if obj.sample_count > 0 else None
        correction = aux.c - aux.c_clients[cid]
        x = state.x.copy()
        grad_sum = zeros_like(x) if collect_grads else None
        for k in range(hyper.k_local):
            g = obj.batch_gradient(x, sampler.next_batch()) if sampler is not None \
                else obj.stochastic_gradient(x, batch_size, stream)
            if grad_sum is not None:
                grad_sum += g
            x = x - eta * (g + correction)
            _check_finite(x, cid, k)
        c_new = aux.c_clients[cid] - aux.c + (state.x - x) / (hyper.k_local * eta)
        return ClientResult(cid, x, grad_sum=grad_sum, aux_update=c_new)

    results = _run_clients(worker, sampled, executor)
    x_next = mean_vectors([r.x_final for r in results])
    c_deltas = mean_vectors([r.aux_update - aux.c_clients[r.client_id] for r in results])
    c_next = aux.c + (hyper.s_participate / problem.num_clients) * c_deltas
    clients_next = list(aux.c_clients)
    for r in results:
        clients_next[r.client_id] = r.aux_update
    return _advance(state, hyper, x_next, results, eta, algo_aux=ScaffoldAux(c_next, tuple(clients_next)))


def adam_server_step(aux: AdamAux, pseudo_grad: ParamVector, params: AlgoParams) -> tuple:
    """One server Adam step on the pseudo-gradient; returns (new_aux, update).

    No bias correction (moments are zero-initialized), so the update
    magnitude approaches global_lr / (1 + eps) for a persistent unit
    pseudo-gradient.
    """
    m = params.adam_beta1 * aux.m + (1.0 - params.adam_beta1) * pseudo_grad
    v = params.adam_beta2 * aux.v + (1.0 - params.adam_beta2) * pseudo_grad * pseudo_grad
    update = params.global_lr * m / (np.sqrt(v) + params.adam_eps)
    return AdamAux(m, v), update


def fedadam_round(state, problem, hyper, sampled, rng, *, batch_size=0, collect_grads=False,
                  executor=None, params: AlgoParams = AlgoParams()):
    """Adaptive server baseline: plain local SGD, one server Adam step per round."""
    _check_round_args(state, problem, hyper, sampled)
    eta = current_eta(hyper, state.round)
    aux = state.algo_aux
    if aux is None:
        aux = AdamAux.zeros(state.x.shape[0])
    zero = replace(hyper, alpha=(0.0,) * hyper.J, beta=(0.0,) * hyper.J)

    def worker(cid: int) -> ClientResult:
        stream = derive_rng(rng.master_seed, state.round, cid, PURPOSE_BATCH)
        return mim_local_update(
            state.x, state.delta_history, zero, problem.clients[cid], stream,
            eta_l=eta, batch_size=batch_size, collect_grad_sum=collect_grads, client_id=cid,
        )

    results = _run_clients(worker, sampled, executor)
    pseudo_grad = state.x - mean_vectors([r.x_final for r in results])
    aux_next, update = adam_server_step(aux, pseudo_grad, params)
    x_next = state.x - update
    return _advance(state, hyper, x_next, results, eta, algo_aux=aux_next)


ROUND_FUNCTIONS = {
    "fedmim": mim_round,
    "fedavg": fedavg_round,
    "fedcm": fedcm_round,
    "scaffold": scaffold_round,
    "fedadam": fedadam_round,
}


@dataclass(frozen=True)
class EtaBoundReport:
    eta_l: float
    bound: float
    satisfied: bool


def validate_eta_l(eta_l: float, smoothness_l: float, k_local: int, a_scale: float) -> EtaBoundReport:
    """Check the local rate against min{1/(4LK sqrt(A)), 3/(16KL)}.

    Advisory only: the report annotates run metadata and never blocks
    execution.
    """
    if not (0 < a_scale <= 1):
        raise ValueError("a_scale must be in (0, 1]")
    bound = min(1.0 / (4.0 * smoothness_l * k_local * math.sqrt(a_scale)),
                3.0 / (16.0 * k_local * smoothness_l))
    return EtaBoundReport(eta_l, bound, eta_l <= bound)
