"""Span recorder for the traced benchmark run.

The wrappers below are installed onto the public names where fedsim looks
them up at call time (module globals, the round-rule table, class
attributes), so the program under test is not edited.  Each span records its
name, start, end and parent span; spans stay in memory and are written out
when the run ends.  A span's self time is its duration minus the time its
child spans cover.  This module imports fedsim, so run.py imports it only
after putting the checkout's src/ on the path.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
from fedsim import algorithms, objectives, simulator, vectors

# A gradient-oracle call whose direct parent is one of these spans is
# measurement; every other oracle call is training.
MEASURE_PARENTS = ("objectives.global_gradient", "objectives.global_loss")

# (module, attribute, span name): module-level functions, patched where the
# caller looks them up.
MODULE_TARGETS = (
    (simulator, "sample_clients", "simulator.sample_clients"),
    (simulator, "global_loss", "objectives.global_loss"),
    (simulator, "global_gradient", "objectives.global_gradient"),
    (simulator, "compute_u", "analysis.compute_u"),
    (simulator, "verify_delta_recursion", "analysis.verify"),
    (simulator, "verify_u_update", "analysis.verify"),
    (simulator, "local_consistency", "analysis.local_consistency"),
    (algorithms, "mim_local_update", "algorithms.mim_local_update"),
    (algorithms, "mean_vectors", "vectors.mean_vectors"),
)


def oracle_cost(client, batch: int) -> tuple:
    """(flops, bytes) of one training-oracle call, computed from array shapes.

    Flops count each multiply-add of the matrix products as 2; elementwise
    work is not counted.  Bytes are the float64 operands the products read
    (the batch's feature rows or the Hessian) plus the parameter vector in
    and the gradient out.  Nothing here is measured.
    """
    if isinstance(client, objectives.QuadraticClient):  # H @ (x - b)
        d = client.center.shape[0]
        return 2 * d * d, 8 * (d * d + 2 * d)
    if isinstance(client, objectives.MlpClient):  # forward and backward through (d, h, o)
        d_in, hidden, d_out = client.widths
        return (4 * batch * d_in * hidden + 6 * batch * hidden * d_out,
                8 * (batch * d_in + 2 * client.dim))
    if isinstance(client, objectives.LogisticClient):  # X_b @ x and X_b.T @ r
        d = client.features.shape[1]
        return 4 * batch * d, 8 * (batch * d + 2 * d)
    return 0, 0


class Tracer:
    """Records spans around fedsim's public functions while installed."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self._restore: list = []
        self.missing: list = []  # targets not found at this commit
        self.clear()

    def clear(self) -> None:
        """Drop the recorded spans and counters (the wrappers stay installed)."""
        self.name_ids: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.stack = [-1]
        self.counters = defaultdict(int)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, name_id: int, fn, args, kwargs):
        sid = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self.stack[-1])
        self.ends.append(0)
        self.stack.append(sid)
        self.starts.append(time.perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[sid] = time.perf_counter_ns()
            self.stack.pop()

    def wrap(self, name: str, fn):
        name_id = self._id(name)

        def traced(*args, **kwargs):
            return self._span(name_id, fn, args, kwargs)

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        return self._span(self._id(name), fn, args, kwargs)

    def _wrap_batch_gradient(self, fn):
        train = self._id("objectives.batch_gradient.train")
        measure = self._id("objectives.batch_gradient.measure")
        measure_parents = {self._id(n) for n in MEASURE_PARENTS}

        def batch_gradient(client, x, indices, *args, **kwargs):
            parent = self.stack[-1]
            if parent >= 0 and self.name_ids[parent] in measure_parents:
                return self._span(measure, fn, (client, x, indices) + args, kwargs)
            self._count_training(client, len(indices))
            return self._span(train, fn, (client, x, indices) + args, kwargs)

        return batch_gradient

    def _wrap_noisy_gradient(self, fn):
        name_id = self._id("objectives.noisy_gradient")

        def noisy_gradient(client, *args, **kwargs):
            self._count_training(client, 0)
            return self._span(name_id, fn, (client,) + args, kwargs)

        return noisy_gradient

    def _count_training(self, client, samples: int) -> None:
        flops, nbytes = oracle_cost(client, samples)
        self.counters["train_samples"] += samples
        self.counters["train_flops"] += flops
        self.counters["train_bytes"] += nbytes

    def _patch(self, owner, attr: str, make) -> None:
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        setattr(owner, attr, make(original))
        self._restore.append(lambda: setattr(owner, attr, original))

    def install(self) -> None:
        self.missing = []
        for module, attr, name in MODULE_TARGETS:
            self._patch(module, attr, lambda fn, name=name: self.wrap(name, fn))

        table = simulator.ROUND_FUNCTIONS
        saved = dict(table)
        for key, fn in saved.items():
            table[key] = self.wrap("algorithms.round", fn)
        self._restore.append(lambda: table.update(saved))

        pending = list(objectives.ClientObjective.__subclasses__())
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "batch_gradient" in vars(cls):
                self._patch(cls, "batch_gradient", self._wrap_batch_gradient)
            if "noisy_gradient" in vars(cls):
                self._patch(cls, "noisy_gradient", self._wrap_noisy_gradient)
        self._patch(objectives.EpochSampler, "next_batch",
                    lambda fn: self.wrap("objectives.EpochSampler.next_batch", fn))
        self._patch(vectors.RngStream, "generator",
                    lambda prop: property(self.wrap("vectors.RngStream.generator", prop.fget)))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def summary(self) -> dict:
        """Span name -> (calls, total ms, self ms) over the recorded spans."""
        ids = np.asarray(self.name_ids, dtype=np.intp)
        dur = np.asarray(self.ends, dtype=np.int64) - np.asarray(self.starts, dtype=np.int64)
        parents = np.asarray(self.parents, dtype=np.intp)
        covered = np.zeros_like(dur)
        nested = parents >= 0
        np.add.at(covered, parents[nested], dur[nested])
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=dur - covered, minlength=k)
        return {name: (int(calls[i]), total[i] / 1e6, own[i] / 1e6) for i, name in enumerate(self.names)}

    def dump(self, path: Path) -> None:
        """Write the recorded spans as JSON: [name index, start ns, end ns, parent index]."""
        spans = [list(s) for s in zip(self.name_ids, self.starts, self.ends, self.parents)]
        path.write_text(json.dumps({"names": self.names, "spans": spans}, separators=(",", ":")) + "\n",
                        encoding="utf-8")
