"""Per-client reference objectives and server reductions for the tests, written apart from fedsim.

Each class is one client's objective, computed one client and one sample
set at a time: the loop that the batched population oracles replace.  The
tests compare the populations against it: the training gradients bit for
bit (same operations in the same order), the full-batch metrics to a
tolerance.  Nothing here imports population code; ``clients_of`` builds the
references on views of a problem's stacked data.

``QueueSampler`` draws one minibatch per call from a queue of shuffled
indices, the form that ``EpochSampler.batches`` replaces with one call for
all K batches; the tests hold the batches to it.

``_stack_by_client`` is the stacking the sample-based population
constructors do, as a function of its own; the tests hold their stacks,
weights and spans to it.

The three functions at the end are the server's reductions as one Python
loop over the client rows, the form that the loop-free reductions replace;
the tests hold those to these bytes.  ``delta_recursion_residual_loop`` is
the increment-recursion check with its own skip-zero loop over the history,
the form that ``verify_delta_recursion`` replaces with ``weighted_sum``.

``replay`` is the simulator's round loop without verification or metric
rows, from fedsim's public sampler and a round rule alone.  Every round
stream resets the shared generator before it draws, and ``replay`` yields
only after a round has finished its draws, so a replay that stops early, or
two replays in lockstep, draw what one full run draws.

``quadratic_data`` makes the draws of ``objectives.quadratic_problem`` and
forms each Hessian as one ``(q * eigs) @ q.T`` product, the form that the
product in 16-row blocks replaces; up to d = 16 that is one block, and the
tests hold the two to the same bytes.  ``known_optimum`` and ``pl_mu`` are a
quadratic population's closed-form minimizer and PL constant, which no
output of fedsim reads.
"""

from typing import Sequence

import numpy as np

from fedsim.algorithms import init_round_state
from fedsim.simulator import sample_clients


def replay(round_fn, problem, hyper, rounds, seed, sampled_orders=None, state=None):
    """``(state, artifacts)`` after each round, from ``state`` or the zero model; ``sampled_orders`` reorders ids."""
    if state is None:
        state = init_round_state(np.zeros(problem.dim), hyper.J)
    for t in range(rounds):
        sampled = sample_clients(problem.num_clients, hyper.s_participate, seed, t)
        if sampled_orders is not None:
            sampled = sampled_orders(sampled)
        state, art = round_fn(state, problem, hyper, sampled, seed)
        yield state, art


def quadratic_data(gen, n_clients, dim, heterogeneity):
    """The Hessians and centres of ``quadratic_problem``, each Hessian from one product."""
    hessians, centers = [], []
    for _ in range(n_clients):
        q, _ = np.linalg.qr(gen.standard_normal((dim, dim)))
        h = (q * gen.uniform(0.5, 2.0, size=dim)) @ q.T
        hessians.append(0.5 * (h + h.T))
        centers.append(heterogeneity * gen.standard_normal(dim))
    return np.array(hessians), np.array(centers)


def known_optimum(problem):
    """The minimizer x* of a quadratic population: it solves (sum H_i) x = sum H_i b_i."""
    rhs = np.matmul(problem.hessians, problem.centers[..., None])[..., 0].sum(axis=0)
    return np.linalg.solve(problem.hessians.sum(axis=0), rhs)


def pl_mu(problem):
    """The PL constant of a quadratic population: the smallest eigenvalue of its averaged Hessian."""
    return float(np.linalg.eigvalsh(problem.hessians.sum(axis=0) / problem.num_clients)[0])


class QueueSampler:
    """Minibatch index stream: each epoch is a fresh shuffle of all samples.

    Batches may straddle epoch boundaries so every sample is touched exactly
    once per epoch.  ``batch_size <= 0`` or >= n yields the full index range
    in natural order (full batch, no generator draws).
    """

    def __init__(self, n, batch_size, gen):
        self.n = n
        self.batch_size = batch_size if 0 < batch_size < n else n
        self.gen = gen
        self._queue = np.empty(0, dtype=np.intp)

    def next_batch(self):
        if self.batch_size >= self.n:
            return np.arange(self.n)
        while self._queue.size < self.batch_size:
            self._queue = np.concatenate([self._queue, self.gen.permutation(self.n)])
        batch = self._queue[: self.batch_size]
        self._queue = self._queue[self.batch_size:]
        return np.sort(batch)


class QuadraticClient:
    """f_i(x) = 0.5 (x - b)^T H (x - b); ``noisy_gradient`` adds noise with E||noise||^2 = sigma^2."""

    sample_count = 0

    def __init__(self, hessian, center, noise_sigma=0.0):
        self.hessian = np.asarray(hessian, dtype=np.float64)
        self.center = np.asarray(center, dtype=np.float64)
        self.noise_sigma = float(noise_sigma)

    def loss(self, x):
        r = x - self.center
        return 0.5 * float(r @ self.hessian @ r)

    def full_gradient(self, x):
        return self.hessian @ (x - self.center)

    def noisy_gradient(self, x, gen):
        g = self.full_gradient(x)
        if self.noise_sigma > 0.0:
            d = g.shape[0]
            g = g + (self.noise_sigma / np.sqrt(d)) * gen.standard_normal(d)
        return g


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class LogisticClient:
    """mean_s [log(1 + e^{z_s}) - y_s z_s] + 0.5 lam ||w||^2, z = X w, labels y in {0, 1}."""

    def __init__(self, features, labels, weight_decay):
        self.features = np.asarray(features, dtype=np.float64)
        self.labels = np.asarray(labels, dtype=np.float64)
        self.weight_decay = float(weight_decay)
        self.sample_count = self.features.shape[0]

    def loss(self, x):
        z = self.features @ x
        data = float(np.mean(np.logaddexp(0.0, z) - self.labels * z))
        return data + 0.5 * self.weight_decay * float(x @ x)

    def batch_gradient(self, x, indices):
        xb = self.features[indices]
        z = xb @ x
        r = _sigmoid(z) - self.labels[indices]
        return xb.T @ r / len(indices) + self.weight_decay * x

    def full_gradient(self, x):
        return self.batch_gradient(x, np.arange(self.sample_count))

    def smoothness_bound(self):
        gram_top = float(np.linalg.eigvalsh(self.features.T @ self.features)[-1])
        return 0.25 * gram_top / self.sample_count + self.weight_decay


class MlpClient:
    """Two-layer tanh network, squared loss, parameters flat as [W1 (h,d), b1 (h), W2 (o,h), b2 (o)]."""

    def __init__(self, features, targets, widths):
        self.features = np.asarray(features, dtype=np.float64)
        self.targets = np.asarray(targets, dtype=np.float64).reshape(len(self.features), -1)
        self.widths = tuple(widths)
        self.sample_count = self.features.shape[0]

    @property
    def dim(self):
        d, h, o = self.widths
        return h * d + h + o * h + o

    def unpack(self, x):
        d, h, o = self.widths
        return (x[:h * d].reshape(h, d), x[h * d:h * d + h],
                x[h * d + h:h * d + h + o * h].reshape(o, h), x[h * d + h + o * h:])

    def _forward(self, x, indices):
        w1, b1, w2, b2 = self.unpack(x)
        xb = self.features[indices]
        a1 = np.tanh(xb @ w1.T + b1)
        out = a1 @ w2.T + b2
        return xb, a1, out, w2

    def loss(self, x):
        _, _, out, _ = self._forward(x, np.arange(self.sample_count))
        r = out - self.targets
        return 0.5 * float(np.mean(np.sum(r * r, axis=1)))

    def batch_gradient(self, x, indices):
        xb, a1, out, w2 = self._forward(x, indices)
        r = (out - self.targets[indices]) / len(indices)
        g_w2 = r.T @ a1
        g_b2 = r.sum(axis=0)
        dz1 = (r @ w2) * (1.0 - a1 * a1)
        g_w1 = dz1.T @ xb
        g_b1 = dz1.sum(axis=0)
        return np.concatenate([g_w1.ravel(), g_b1, g_w2.ravel(), g_b2])

    def full_gradient(self, x):
        return self.batch_gradient(x, np.arange(self.sample_count))


def clients_of(problem):
    """One reference client per client of ``problem``, in id order, on views of its stacks."""
    if hasattr(problem, "hessians"):
        return [QuadraticClient(h, b, problem.noise_sigma) for h, b in zip(problem.hessians, problem.centers)]
    if hasattr(problem, "widths"):
        return [MlpClient(problem.features[a:b], problem.values[a:b], problem.widths) for a, b in problem.spans]
    return [LogisticClient(problem.features[a:b], problem.values[a:b], problem.weight_decay)
            for a, b in problem.spans]


def _stack_by_client(features: np.ndarray, values: np.ndarray, client_indices: Sequence[np.ndarray]):
    """Samples regrouped in client-id order.

    Returns the stacked features and values, the per-sample weights
    1/(N n_i), and each client's ``(start, stop)`` row range as Python ints.
    """
    sizes = np.array([len(idx) for idx in client_indices])
    bounds = np.concatenate([[0], np.cumsum(sizes)]).tolist()
    weights = np.repeat(1.0 / (len(sizes) * sizes), sizes)
    order = np.concatenate(client_indices)
    return features[order], values[order], weights, list(zip(bounds[:-1], bounds[1:]))


def mean_vectors_loop(vs):
    """Neumaier-compensated mean of the rows, one row at a time."""
    acc = vs[0].copy()
    comp = np.zeros_like(acc)
    for v in vs[1:]:
        total = acc + v
        comp += np.where(np.abs(acc) >= np.abs(v), (acc - total) + v, (v - total) + acc)
        acc = total
    return (acc + comp) / len(vs)


def local_consistency_loop(local_finals, global_next):
    """Mean of the rows' squared distances from ``global_next``, added as Python floats in row order."""
    total = 0.0
    for x in local_finals:
        r = x - global_next
        total += float(r @ r)
    return total / len(local_finals)


def total_grad_sum_loop(grad_sums):
    """Sum of the rows, added in place in row order."""
    total = grad_sums[0].copy()
    for row in grad_sums[1:]:
        total += row
    return total


def delta_recursion_residual_loop(delta_next, grad_sum, deltas, alpha, eta_l, s_participate, k_local):
    """Max-norm residual of delta_{t+1} = A * delta_tilde + sum_j alpha_j delta_{t-j}, zero alphas skipped."""
    a_scale = 1.0 - sum(alpha)
    delta_tilde = (eta_l / (s_participate * k_local)) * grad_sum
    predicted = a_scale * delta_tilde
    for a, d in zip(alpha, deltas):
        if a != 0.0:
            predicted = predicted + a * d
    return float(np.max(np.abs(delta_next - predicted)))
