"""Federated problem construction: one problem object per problem kind.

Three synthetic problem families with progressively weaker structure:

* quadratics with a known smoothness constant,
* two-blob binary logistic regression with an analytic smoothness bound,
* a two-layer tanh network, parameters [W1, b1, w2, b2] (non-convex, no constants).

Plus Dirichlet label-skew partitioning and CSV ingestion for tabular data.
Each builder takes the data generator, on the master seed's (0, 0,
PURPOSE_DATA) stream, and, as keyword-only arguments, exactly the problem
parameters its kind reads.  Training randomness is drawn per round from the
master seed (see ``draw_round`` below); objectives are immutable after
construction and never store generator state.

A problem is one object of its kind's population class, a subclass of
:class:`FederatedProblem`: it holds the data stacked in client-id order and
is the only copy of its arithmetic.  A quadratic stacks (N, d, d) Hessians and
(N, d) centres; the sample-based kinds stack a partition's feature rows and
``values`` (labels or targets), with a per-sample weight 1/(N n_i) and each
client's ``(start, stop)`` row range.  The quadratic and logistic
constructors derive ``smoothness_L``; the base class defaults it to None.
``evaluate(points)`` computes the full-batch losses and gradients at a (P, d)
stack of points in one pass over fixed-size row blocks (the simulator
evaluates x and the shifted iterate u of a metric row in one call);
``global_loss`` is its single-point wrapper.
``draw_round(seed, round_index, ids, k_local)`` draws each sampled client's
gradient noise or K minibatches (as stack rows) for the round up front, from
its own (round, client, PURPOSE_BATCH) stream in one call (a
``standard_normal`` fill or ``EpochSampler.batches(K)``), the sample-based
kinds' grouped by batch length.  The round's streams come from
``vectors.round_generators``: their keys are computed in one pass and drawn
on one reset Philox, with the same draws as ``derive_rng``.
``step_blocks(draws, S)`` splits the S rows and their draws into blocks that
take their K steps one after another: a quadratic's hold ``STEP_BLOCK_BYTES``
of Hessians, which stay in cache; the sample-based kinds keep one block.
``client_gradients`` returns a block's gradients at one local step, one
batched product per group.
``client_loss(cid, points)`` gives one client's full-batch losses at a (P, d)
stack, ``client_gradient(cid, x)`` its gradient at one point by the training
arithmetic (``_rows_gradient`` on one row); finite differences of the loss,
four probes a call (``fedsim gradcheck``, through :class:`ClientObjective`),
check the gradient that trains, and no loss probe computes a gradient.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .vectors import PURPOSE_BATCH, ParamVector, round_generators, row_dots

# Rows per block in the population oracles.  On the 10,000 x 50 mlp benchmark
# stack (2 cores, OpenBLAS 0.3.31), 1,024-row blocks already use both cores:
# CPU/wall time of a run was 1.97-2.00, and a block's two-point forward product
# (16 x 50 by 50 x 1,024) took 41 us at two OpenBLAS threads against 53 us at
# one.  A two-point evaluate call at 2,048 rows was 6-7 % faster, but a new
# size moves the summation order and so the bytes of every pinned metric; one
# product over the whole stack raised peak RSS by 2.9 MB.  A fixed block fixes
# the summation order, so reruns stay byte-identical.
BLOCK_ROWS = 1024

# Bytes of per-client data that a block of sampled clients re-reads on each local step (a
# quadratic's Hessians, 8 d^2 bytes each).  A block takes all K steps before the next starts,
# so its Hessians come from L2 on steps 2..K; a row's bytes do not depend on the block size.
# On quad-baselines (d = 100, S = 50; 2 MiB L2 per core, 2 cores, OpenBLAS 0.3.31), median
# calibrated run_s over six seeds: one block 0.859 s, 1.5 MiB 0.746 s, 1.25 MiB 0.761 s,
# 1 MiB 0.700 s, 0.75 MiB 0.777 s; an earlier sweep also put 2 MiB and 0.5 MiB behind 1 MiB.
STEP_BLOCK_BYTES = 1 << 20  # 13 clients per block at d = 100


class PartitionError(ValueError):
    """A client ended up with zero samples."""


class CsvFormatError(ValueError):
    """Malformed CSV input, with row/column location where known."""


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def unpack_mlp(x: np.ndarray, widths: tuple[int, int, int]):
    """(W1 (h,d), b1 (h), w2 (h,), b2) of a flat parameter vector of the scalar-output widths (d, h, 1).

    A (P, dim) stack of parameter vectors gives (P, h, d), (P, h), (P, h)
    and (P,) views.
    """
    d, h = widths[:2]
    w1 = x[..., :h * d].reshape(x.shape[:-1] + (h, d))
    return w1, x[..., h * d:h * d + h], x[..., h * d + h:h * d + 2 * h], x[..., h * d + 2 * h]


class EpochSampler:
    """Minibatch indices: each epoch is a fresh shuffle of all samples.

    Batches may straddle epoch boundaries so every sample is touched exactly
    once per epoch.  ``batch_size <= 0`` or >= n yields the full index range
    in natural order (full batch, no generator draws).
    """

    def __init__(self, n: int, batch_size: int, gen: np.random.Generator):
        self.n = n
        self.batch_size = batch_size if 0 < batch_size < n else n
        self.gen = gen

    def batches(self, k: int) -> np.ndarray:
        """The next ``k`` batches as the rows of a (k, batch_size) array, each row sorted."""
        if self.batch_size >= self.n:
            return np.arange(self.n)[None].repeat(k, axis=0)
        epochs = -(-k * self.batch_size // self.n)
        order = np.concatenate([self.gen.permutation(self.n) for _ in range(epochs)])
        return np.sort(order[:k * self.batch_size].reshape(k, self.batch_size), axis=1)


@dataclass(frozen=True)
class PartitionResult:
    client_indices: list  # one sorted int array per client
    class_proportions: Optional[np.ndarray] = None  # (num_classes, num_clients), final accepted draw


def _row_blocks(n: int, size: int):
    for start in range(0, n, size):
        yield slice(start, start + size)


def _hessian_products(hessians: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Row i: H_i @ r_i, bit for bit (a batched matmul, unlike einsum, matches the per-row product).

    ``r`` is (N, d), or (P, N, d) for P points at once; one client's (d, d)
    Hessian takes a (d,) ``r``.
    """
    return np.matmul(hessians, r[..., None])[..., 0]


class FederatedProblem:
    """N clients' objectives, plus the closed-form constants its constructor derives.

    Row p of ``evaluate(points)`` holds the full-batch loss and gradient at
    ``points[p]``, the mean of the clients' ``client_loss`` and
    ``client_gradient`` up to summation order.  ``draw_round``,
    ``step_blocks`` and ``client_gradients`` give the training gradients of
    a round's sampled clients.  ``fedsim gradcheck`` uses step ``fd_step``
    and fails above ``fd_tolerance``.
    """

    num_clients: int
    dim: int
    fd_step: float
    fd_tolerance: float
    smoothness_L: Optional[float] = None  # the kinds that know it set it; run_training reads it on every kind

    def step_blocks(self, draws, n: int) -> list:
        """The ``n`` sampled rows as ``(rows, draws)`` blocks that take their K steps in turn: here one."""
        return [(slice(0, n), draws)]


class QuadraticPopulation(FederatedProblem):
    """f(x) = (1/N) sum_i 0.5 (x - b_i)^T H_i (x - b_i) over the stacked clients.

    The metric temporaries are (P, N, d) for P points, so the (N, d, d)
    Hessian stack is used whole.  A training gradient is the exact gradient
    plus zero-mean Gaussian noise with E||noise||^2 = ``noise_sigma**2``, so
    the bounded-variance constant is a direct knob; ``noise_sigma == 0``
    makes stochastic and full gradients identical.
    """

    # A central difference is exact on a quadratic at any step; h = 1 keeps its round-off,
    # eps * |f| / h, off coordinates whose gradient is near 0.
    fd_step = 1.0
    fd_tolerance = 1e-6

    def __init__(self, hessians: Sequence[np.ndarray], centers: Sequence[np.ndarray], noise_sigma: float = 0.0):
        """Stack positive-definite (H_i, b_i); L is the largest client Hessian eigenvalue."""
        self.hessians = np.asarray(hessians, dtype=np.float64)  # no copy when already stacked
        self.centers = np.asarray(centers, dtype=np.float64)
        self.noise_sigma = float(noise_sigma)
        self.num_clients, self.dim = self.centers.shape
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0.0):  # NaN or < 0 would draw no noise
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        finite = np.isfinite(self.hessians).all(axis=(1, 2)) & np.isfinite(self.centers).all(axis=1)
        if not finite.all():
            raise ValueError(f"the Hessian or centre of client {int(np.argmin(finite))} is not finite")
        eigs = np.linalg.eigvalsh(self.hessians)  # (N, d), each row ascending
        definite = eigs[:, 0] > 0
        if not definite.all():
            raise ValueError(f"the Hessian of client {int(np.argmin(definite))} is not positive definite")
        self.smoothness_L = float(eigs[:, -1].max())

    def draw_round(self, seed: int, round_index: int, ids: Sequence[int], k_local: int):
        """The sampled clients' Hessians, centres and K scaled noise vectors.

        ``ids`` are sorted and distinct.  At full participation they are
        0..N-1 and the stack itself is used; otherwise the sampled rows are
        gathered once for the whole round.  The noise is drawn into one
        (S, K, d) buffer: each client fills its (K, d) row in place on its own
        stream, the same values as K draws of one vector each, and the buffer
        is scaled in place.  It is returned as the (K, S, d) transposed view,
        so step k reads ``noise[k]`` without a copy.
        """
        full = len(ids) == len(self.centers)
        hessians = self.hessians if full else self.hessians[ids]
        centers = self.centers if full else self.centers[ids]
        noise = None
        if self.noise_sigma > 0.0:
            d = centers.shape[1]
            buf = np.empty((len(ids), k_local, d))
            for row, gen in zip(buf, round_generators(seed, round_index, ids, PURPOSE_BATCH)):
                gen.standard_normal(out=row)
            buf *= self.noise_sigma / np.sqrt(d)
            noise = buf.transpose(1, 0, 2)
        return hessians, centers, noise

    def step_blocks(self, draws, n: int) -> list:
        """Blocks of as many sampled clients as ``STEP_BLOCK_BYTES`` holds Hessians, each with its rows' draws."""
        hessians, centers, noise = draws
        size = max(1, STEP_BLOCK_BYTES // hessians[0].nbytes)
        return [(rows, (hessians[rows], centers[rows], None if noise is None else noise[:, rows]))
                for rows in _row_blocks(n, size)]

    def client_gradients(self, x: np.ndarray, draws, step: int) -> np.ndarray:
        """Row s: H_s (x_s - b_s) plus that client's noise for local step ``step``."""
        hessians, centers, noise = draws
        g = _hessian_products(hessians, x - centers)
        if noise is not None:
            g += noise[step]  # in place: a new array from a strided view costs more
        return g

    def client_loss(self, cid: int, points: np.ndarray) -> np.ndarray:
        """Client ``cid``'s losses 0.5 r^T H r, r = x - b, at the (P, d) ``points``."""
        r = points - self.centers[cid]
        return 0.5 * row_dots(np.matmul(r[:, None, :], self.hessians[cid])[:, 0], r)

    def client_gradient(self, cid: int, x: ParamVector) -> ParamVector:
        """Client ``cid``'s gradient H r, r = x - b, by the training product."""
        return _hessian_products(self.hessians[cid], x - self.centers[cid])

    def evaluate(self, points: np.ndarray):
        """Losses (P,) and gradients (P, d) at the (P, d) ``points``: one batched product for all P."""
        r = points[:, None, :] - self.centers
        hr = _hessian_products(self.hessians, r)
        n = len(self.centers)
        losses = 0.5 * np.sum(r * hr, axis=(1, 2)) / n
        # the form is positive definite: terms that overflow to +inf and -inf at a finite point sum to +inf
        losses[np.isnan(losses) & np.isfinite(points).all(axis=1)] = np.inf
        return losses, hr.sum(axis=1) / n


class _SampledPopulation(FederatedProblem):
    """Training draws and per-client oracles of the sample-based kinds, on rows of the stack."""

    fd_step = 1e-3  # the fourth-order difference's truncation, O(h^4), and round-off, O(eps / h), meet near here

    def __init__(self, features: np.ndarray, values: np.ndarray, partition: PartitionResult, batch: int):
        """Stack ``partition``'s samples in client-id order, with weights 1/(N n_i) and row ``spans``."""
        if values.shape != features.shape[:1]:  # the oracles take one scalar value per sample
            raise ValueError(f"values must have shape ({len(features)},), got {values.shape}")
        sizes = np.array([len(idx) for idx in partition.client_indices])
        bounds = np.concatenate([[0], np.cumsum(sizes)]).tolist()
        self.weights = np.repeat(1.0 / (len(sizes) * sizes), sizes)
        order = np.concatenate(partition.client_indices)
        self.features = features[order]
        self.values = values[order]
        self.spans = list(zip(bounds[:-1], bounds[1:]))  # client i's (start, stop) rows, Python ints
        self.batch = batch  # 0 or >= n_i is client i's full batch
        self.partition = partition
        self.num_clients = len(sizes)

    def draw_round(self, seed: int, round_index: int, ids: Sequence[int], k_local: int):
        """The sampled clients grouped by batch length: (positions in ``ids``, (K, G, B) stack rows) pairs.

        Each client's K minibatches are drawn on its own stream; a client
        with no more than ``batch`` samples takes its full, shorter batch.
        """
        groups: dict = {}
        gens = round_generators(seed, round_index, ids, PURPOSE_BATCH)
        for pos, (cid, gen) in enumerate(zip(ids, gens)):
            start, stop = self.spans[cid]
            batches = start + EpochSampler(stop - start, self.batch, gen).batches(k_local)
            groups.setdefault(batches.shape[1], []).append((pos, batches))
        return [(np.array([pos for pos, _ in members]), np.stack([rows for _, rows in members], axis=1))
                for members in groups.values()]

    def client_gradients(self, x: np.ndarray, draws, step: int) -> np.ndarray:
        """Row s: the minibatch gradient of client s at row s of ``x``, one batched call per group."""
        g = np.empty_like(x)
        for positions, rows in draws:
            g[positions] = self._rows_gradient(x[positions], rows[step])
        return g

    def client_gradient(self, cid: int, x: ParamVector) -> ParamVector:
        """Client ``cid``'s full-batch gradient: the training gradient of one row over all its rows."""
        return self._rows_gradient(x[None], np.arange(*self.spans[cid])[None])[0]


class LogisticPopulation(_SampledPopulation):
    """f(x) = sum_s w_s [log(1 + e^{z_s}) - y_s z_s] + 0.5 lam ||x||^2, w_s = 1/(N n_i), labels y the ``values``."""

    fd_tolerance = 1e-5

    def __init__(self, features: np.ndarray, labels: np.ndarray, partition: PartitionResult, batch: int,
                 weight_decay: float):
        """The smoothness constant is the analytic bound max_i [ lambda_max(X_i^T X_i) / (4 n_i) + weight_decay ]."""
        super().__init__(features, labels.astype(np.float64), partition, batch)
        self.weight_decay = float(weight_decay)
        self.dim = features.shape[1]
        self.smoothness_L = max(0.25 * float(np.linalg.eigvalsh(self.features[a:b].T @ self.features[a:b])[-1])
                                / (b - a) + self.weight_decay for a, b in self.spans)

    def client_loss(self, cid: int, points: np.ndarray) -> np.ndarray:
        """Client ``cid``'s losses at the (P, d) ``points``: mean log(1 + e^z) - y z, z = X x, plus 0.5 lam ||x||^2."""
        rows = slice(*self.spans[cid])
        z = np.matmul(self.features[rows], points[:, :, None])[..., 0]  # (P, n_i)
        data = np.mean(np.logaddexp(0.0, z) - self.values[rows] * z, axis=1)
        return data + 0.5 * self.weight_decay * row_dots(points, points)

    def _rows_gradient(self, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Row g: the gradient over stack rows ``rows[g]`` (G, B) at ``x[g]`` (G, d), one matmul per client."""
        xb = self.features[rows]
        r = _sigmoid(np.matmul(xb, x[:, :, None])[..., 0]) - self.values[rows]
        return np.matmul(xb.transpose(0, 2, 1), r[:, :, None])[..., 0] / rows.shape[1] + self.weight_decay * x

    def evaluate(self, points: np.ndarray):
        """Losses (P,) and gradients (P, d) at the (P, d) ``points``, in one blocked pass.

        Each block computes the margins Z = X_rows @ points^T of all points
        at once, laid out (P, B), as one batched product over the block's
        rows.  Its P matrix-vector products are each a single point's, so a
        row does not depend on the other points.
        """
        losses = np.zeros(len(points))
        grads = np.zeros_like(points)
        for rows in _row_blocks(len(self.weights), BLOCK_ROWS):
            xb = self.features[rows]
            labels = self.values[rows]
            z = np.matmul(points[:, None, :], xb.T)[:, 0]
            losses += row_dots(np.logaddexp(0.0, z) - labels * z, self.weights[rows])
            residuals = self.weights[rows] * (_sigmoid(z) - labels)
            grads += np.matmul(residuals[:, None, :], xb)[:, 0]
        decay = self.weight_decay
        return losses + 0.5 * decay * row_dots(points, points), grads + decay * points


class MlpPopulation(_SampledPopulation):
    """f(x) = sum_s w_s 0.5 (net(x_s) - t_s)^2, w_s = 1/(N n_i), with hand-coded backprop.

    The network is two-layer tanh with a scalar output, widths (d, h, 1), parameters packed flat as
    [W1 (h,d), b1 (h), w2 (h), b2] (see ``unpack_mlp``); the ``values`` are the targets t.
    """

    fd_tolerance = 1e-4

    def __init__(self, features: np.ndarray, targets: np.ndarray, partition: PartitionResult, batch: int,
                 hidden: int):
        super().__init__(features, targets, partition, batch)
        self.widths = (features.shape[1], hidden, 1)
        self.dim = hidden * (features.shape[1] + 2) + 1

    def client_loss(self, cid: int, points: np.ndarray) -> np.ndarray:
        """Client ``cid``'s losses at the (P, dim) ``points``: 0.5 mean squared residual, the (P, n_i, h) z in place."""
        rows = slice(*self.spans[cid])
        w1, b1, w2, b2 = unpack_mlp(points, self.widths)
        z = np.matmul(self.features[rows], w1.transpose(0, 2, 1))  # (P, n_i, h)
        z += b1[:, None, :]
        r = np.matmul(np.tanh(z, out=z), w2[:, :, None])[..., 0] + b2[:, None] - self.values[rows]
        return 0.5 * np.mean(r * r, axis=1)

    def _rows_gradient(self, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Row g: the gradient over stack rows ``rows[g]`` (G, B) at ``x[g]`` (G, dim), by backprop."""
        w1, b1, w2, b2 = unpack_mlp(x, self.widths)
        xb = self.features[rows]
        a1 = np.tanh(np.matmul(xb, w1.transpose(0, 2, 1)) + b1[:, None, :])  # (G, B, h)
        r = (np.matmul(a1, w2[:, :, None])[..., 0] + b2[:, None] - self.values[rows]) / rows.shape[1]
        # the outer product r w2 by matmul, which adds each product to 0 and so writes no -0
        dz1 = np.matmul(r[:, :, None], w2[:, None, :]) * (1.0 - a1 * a1)
        g_w1 = np.matmul(dz1.transpose(0, 2, 1), xb).reshape(len(x), -1)
        g_w2 = np.matmul(r[:, None, :], a1)[:, 0]
        return np.concatenate([g_w1, dz1.sum(axis=1), g_w2, r.sum(axis=1)[:, None]], axis=1)

    def evaluate(self, points: np.ndarray):
        """Losses (P,) and gradients (P, dim) at the (P, dim) ``points``, in one blocked pass.

        Hidden-major: a block of B rows is used as the transposed view
        X_rows^T (d, B), and the P first layers are stacked to (P h, d), so
        the hidden activations of all points are one (P h, B) product.  That
        array is the block's own: the bias, tanh and then the back-propagated
        dz1 = (w2 r) (1 - a1^2) are computed in it in place.
        """
        w1, b1, w2, b2 = unpack_mlp(points, self.widths)
        n_points, hidden, d_in = w1.shape
        w1 = w1.reshape(n_points * hidden, d_in)
        b1 = b1.reshape(n_points * hidden, 1)
        losses = np.zeros(n_points)
        grads = np.zeros_like(points)
        g_w1, g_b1, g_w2, g_b2 = unpack_mlp(grads, self.widths)
        for rows in _row_blocks(len(self.weights), BLOCK_ROWS):
            xb = self.features[rows]
            z = w1 @ xb.T  # (P h, B)
            z += b1
            a1 = np.tanh(z, out=z).reshape(n_points, hidden, -1)  # (P, h, B)
            r = np.matmul(w2[:, None, :], a1)[:, 0]  # (P, B)
            r += b2[:, None]
            r -= self.values[rows]
            losses += row_dots(r * r, self.weights[rows])
            r *= self.weights[rows]
            g_w2 += np.matmul(a1, r[:, :, None])[..., 0]
            g_b2 += r.sum(axis=1)
            dz1 = np.multiply(z, z, out=z)  # a1 is spent: dz1 takes its array
            np.subtract(1.0, dz1, out=dz1)
            dz1 *= (w2[:, :, None] * r[:, None, :]).reshape(dz1.shape)
            g_w1 += (dz1 @ xb).reshape(g_w1.shape)
            g_b1 += dz1.sum(axis=1).reshape(g_b1.shape)
        return 0.5 * losses, grads


@dataclass(frozen=True)
class ClientObjective:
    """Client ``cid``'s full-batch ``client_loss`` at a (P, d) stack and ``client_gradient`` at one point."""

    problem: FederatedProblem
    cid: int

    def loss(self, points: np.ndarray) -> np.ndarray:
        return self.problem.client_loss(self.cid, points)

    def full_gradient(self, x: ParamVector) -> ParamVector:
        return self.problem.client_gradient(self.cid, x)


def global_loss(problem: FederatedProblem, x: ParamVector) -> float:
    """f(x) = (1/N) sum_i f_i(x), full batch: the problem's ``evaluate`` at the single point x."""
    return float(problem.evaluate(x[None])[0][0])


def _largest_remainder_counts(quotas: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing to ``total`` that track fractional quotas."""
    base = np.floor(quotas).astype(int)
    short = total - int(base.sum())
    if short > 0:
        frac = quotas - np.floor(quotas)
        order = np.argsort(-frac, kind="stable")
        base[order[:short]] += 1
    return base


def dirichlet_partition(labels: np.ndarray, num_clients: int, concentration: Optional[float],
                        gen: np.random.Generator) -> PartitionResult:
    """Assign samples to clients, per-class, by Dirichlet-drawn proportions.

    For every class the label mass over clients is drawn from
    Dirichlet(concentration); smaller is more skewed.  Samples are dealt out
    with largest-remainder rounding so counts are conserved exactly.
    ``concentration is None`` gives a random equal (IID) split.  Retries with
    fresh draws (up to 10) if any client ends up empty, then raises
    :class:`PartitionError`.
    """
    labels = np.asarray(labels)
    n = labels.shape[0]
    if n < num_clients:
        raise PartitionError(f"{n} samples cannot cover {num_clients} clients")

    if concentration is None:
        perm = gen.permutation(n)
        sizes = np.full(num_clients, n // num_clients)
        sizes[: n % num_clients] += 1
        splits = np.split(perm, np.cumsum(sizes)[:-1])
        return PartitionResult([np.sort(s) for s in splits])

    if concentration <= 0:
        raise ValueError("Dirichlet concentration must be positive")
    class_values = np.unique(labels)
    for _ in range(10):
        assigned = [[] for _ in range(num_clients)]
        proportions = np.empty((len(class_values), num_clients))
        for ci, cls in enumerate(class_values):
            idx = gen.permutation(np.flatnonzero(labels == cls))
            p = gen.dirichlet(np.full(num_clients, float(concentration)))
            proportions[ci] = p
            counts = _largest_remainder_counts(p * len(idx), len(idx))
            start = 0
            for client, cnt in enumerate(counts):
                assigned[client].append(idx[start:start + cnt])
                start += cnt
        parts = [np.sort(np.concatenate(a)) if a else np.empty(0, dtype=np.intp) for a in assigned]
        if all(p.size > 0 for p in parts):
            return PartitionResult(parts, proportions)
    raise PartitionError("a client received no samples after 10 redraws")


def quadratic_problem(gen: np.random.Generator, *, n_clients: int, dim: int, heterogeneity: float,
                      sigma_l: float) -> FederatedProblem:
    """Random SPD quadratics, eigenvalues in [0.5, 2), centres spread proportionally to ``heterogeneity``."""
    hessians = np.empty((n_clients, dim, dim))
    centers = np.empty((n_clients, dim))
    with np.errstate(over="ignore"):  # QuadraticPopulation names the client whose centre overflowed
        for i in range(n_clients):
            q, _ = np.linalg.qr(gen.standard_normal((dim, dim)))
            eigs = gen.uniform(0.5, 2.0, size=dim)
            # in 16-row blocks: the same bytes at 1 and 2 BLAS threads up to d = 200 (README); one block at d <= 16
            h = np.concatenate([(q[r:r + 16] * eigs) @ q.T for r in range(0, dim, 16)])
            hessians[i] = 0.5 * (h + h.T)
            centers[i] = heterogeneity * gen.standard_normal(dim)
    return QuadraticPopulation(hessians, centers, sigma_l)


def _two_blob_dataset(gen: np.random.Generator, n: int, dim: int):
    """Two balanced Gaussian blobs of ``n`` points, 2 apart on a random axis."""
    labels = np.zeros(n, dtype=np.intp)
    labels[n // 2:] = 1
    labels = labels[gen.permutation(n)]
    direction = gen.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    shift = (labels[:, None] - 0.5) * 2.0 * direction
    features = gen.standard_normal((n, dim)) + shift
    return features, labels


def logreg_problem(gen: np.random.Generator, *, n_clients: int, concentration: Optional[float], batch_size: int,
                   dim: int, samples_per_client: int, weight_decay: float) -> FederatedProblem:
    """Synthetic two-blob logistic regression."""
    features, labels = _two_blob_dataset(gen, n_clients * samples_per_client, dim)
    part = dirichlet_partition(labels, n_clients, concentration, gen)
    return LogisticPopulation(features, labels, part, batch_size, weight_decay)


def mlp_problem(gen: np.random.Generator, *, n_clients: int, concentration: Optional[float], batch_size: int,
                dim: int, samples_per_client: int, mlp_hidden: int) -> FederatedProblem:
    """Two-layer tanh regression onto {0,1} blob labels, widths (dim, mlp_hidden, 1); no known constants."""
    features, labels = _two_blob_dataset(gen, n_clients * samples_per_client, dim)
    part = dirichlet_partition(labels, n_clients, concentration, gen)
    return MlpPopulation(features, labels.astype(np.float64), part, batch_size, mlp_hidden)


def ingest_csv(path: str, label_column: str):
    """Read a numeric-feature CSV with a header row of distinct names.

    Returns ``(labels, features)``: integer class labels (sorted unique
    values mapped to 0..C-1) and per-column standardized features
    (zero-variance columns map to all zeros).
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:  # -sig drops a byte-order mark
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError("empty file") from None
        header = [h.strip() for h in header]
        repeated = [name for name, count in Counter(header).items() if count > 1]
        if repeated:
            raise CsvFormatError(f"column '{repeated[0]}' appears more than once in header {header}")
        if label_column not in header:
            raise CsvFormatError(f"label column '{label_column}' not found in header {header}")
        if len(header) == 1:
            raise CsvFormatError("no feature columns")
        label_idx = header.index(label_column)
        raw_labels: list[str] = []
        rows: list[list[float]] = []
        for rownum, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise CsvFormatError(f"row {rownum} has {len(row)} fields, expected {len(header)}")
            feats = []
            for col, cell in enumerate(row):
                if col == label_idx:
                    raw_labels.append(cell.strip())
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    raise CsvFormatError(
                        f"non-numeric value '{cell.strip()}' at row {rownum}, column '{header[col]}'"
                    ) from None
                if not math.isfinite(value):
                    raise CsvFormatError(
                        f"non-finite value '{cell.strip()}' at row {rownum}, column '{header[col]}'")
                feats.append(value)
            rows.append(feats)
    if not rows:
        raise CsvFormatError("no data rows")
    features = np.asarray(rows, dtype=np.float64)
    mu = features.mean(axis=0)
    sd = features.std(axis=0)
    features = np.where(sd > 0, (features - mu) / np.where(sd > 0, sd, 1.0), 0.0)
    uniq = sorted(set(raw_labels), key=lambda v: (0, float(v)) if _is_number(v) else (1, v))
    mapping = {v: i for i, v in enumerate(uniq)}
    labels = np.array([mapping[v] for v in raw_labels], dtype=np.intp)
    return labels, features


def _is_number(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def csv_problem(gen: np.random.Generator, *, n_clients: int, concentration: Optional[float], batch_size: int,
                weight_decay: float, csv_path: str, label_column: str) -> FederatedProblem:
    """Logistic regression over the two-class CSV dataset at ``csv_path``."""
    labels, features = ingest_csv(csv_path, label_column)
    if len(np.unique(labels)) != 2:
        raise CsvFormatError("logistic objective needs exactly 2 label classes")
    part = dirichlet_partition(labels, n_clients, concentration, gen)
    return LogisticPopulation(features, labels, part, batch_size, weight_decay)
