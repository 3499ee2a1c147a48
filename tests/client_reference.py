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

The three functions at the end are the server's reductions as one Python
loop over the client rows, the form that the loop-free reductions replace;
the tests hold those to these bytes.
"""

import numpy as np


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
    """One reference client per client of ``problem``, in id order, on views of its population's stacks."""
    pop = problem.population
    if hasattr(pop, "hessians"):
        return [QuadraticClient(h, b, pop.noise_sigma) for h, b in zip(pop.hessians, pop.centers)]
    if hasattr(pop, "widths"):
        return [MlpClient(pop.features[a:b], pop.targets[a:b], pop.widths) for a, b in pop.spans]
    return [LogisticClient(pop.features[a:b], pop.labels[a:b], pop.weight_decay) for a, b in pop.spans]


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
