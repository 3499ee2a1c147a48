"""Per-client reference objectives for the tests, written apart from fedsim's population classes.

Each class is one client's objective, computed one client and one sample
set at a time: the loop that the batched population oracles replace.  The
tests compare the populations against it: the training gradients bit for
bit (same operations in the same order), the full-batch metrics to a
tolerance.  Nothing here imports population code; ``clients_of`` builds the
references on views of a problem's stacked data.
"""

import numpy as np


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
