import csv
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from client_reference import (LogisticClient, MlpClient, QueueSampler, _stack_by_client, client_loss_at, clients_of,
                              known_optimum, mlp_evaluate, pl_mu, quadratic_data, stacked)
from fedsim import objectives
from fedsim.objectives import (
    CsvFormatError,
    EpochSampler,
    LogisticPopulation,
    MlpPopulation,
    PartitionError,
    PartitionResult,
    QuadraticPopulation,
    dirichlet_partition,
    global_loss,
    ingest_csv,
    mlp_problem,
)
from fedsim.simulator import BUILDERS, ConfigError, ProblemConfig, build_problem
from fedsim.vectors import PURPOSE_BATCH, derive_rng, l2_norm_sq


def population_gradient(prob, x):
    """(1/N) sum_i grad f_i(x): the population oracle at the single point x."""
    return prob.evaluate(x[None])[1][0]


def data_rng(seed):
    return derive_rng(seed, 0, 0, 2)


class TestQuadraticProblem:
    def test_single_client_at_own_optimum(self):
        prob = QuadraticPopulation([np.eye(3)], [np.zeros(3)])
        assert np.array_equal(known_optimum(prob), np.zeros(3))
        assert l2_norm_sq(population_gradient(prob, np.zeros(3))) == 0.0

    def test_symmetric_pair(self):
        prob = QuadraticPopulation([np.eye(1), np.eye(1)],
                                   [np.array([-1.0]), np.array([1.0])])
        assert np.allclose(known_optimum(prob), [0.0])
        # f(0) = mean of 0.5*(0 -+ 1)^2 = 0.5
        assert global_loss(prob, np.zeros(1)) == pytest.approx(0.5)
        assert population_gradient(prob, np.zeros(1)) == pytest.approx(0.0)

    def test_generated_optimum_against_dense_solve(self):
        prob = build_problem(ProblemConfig(n_clients=5, dim=4, heterogeneity=2.0, sigma_l=0.0), 42)
        assert l2_norm_sq(population_gradient(prob, known_optimum(prob))) <= 1e-18
        # independent oracle: explicit inverse instead of the solver
        pop = prob
        h_sum = np.sum(list(pop.hessians), axis=0)
        rhs = np.sum([h @ b for h, b in zip(pop.hessians, pop.centers)], axis=0)
        oracle = np.linalg.inv(h_sum) @ rhs
        assert np.allclose(known_optimum(prob), oracle, atol=1e-10)

    def test_indefinite_client_rejected(self):
        # the mean Hessian diag(5/3, 1/3) is positive definite, but client 2's gradient is 3-Lipschitz
        hessians = [np.diag([2.0, 2.0]), np.diag([2.0, 2.0]), np.diag([1.0, -3.0])]
        with pytest.raises(ValueError, match="client 2 is not positive definite"):
            QuadraticPopulation(hessians, [np.zeros(2)] * 3)

    @pytest.mark.parametrize("hessian, center, client", [
        ([[1.0, 0.0], [0.0, 1.0]], [np.nan, 0.0], 0),  # built, with a NaN known_optimum
        ([[1.0, 0.0], [0.0, 1.0]], [0.0, -np.inf], 1),
        ([[np.inf, 0.0], [0.0, 1.0]], [0.0, 0.0], 1),  # was reported as "not positive definite"
        ([[1.0, np.nan], [np.nan, 1.0]], [0.0, 0.0], 0),
    ])
    def test_non_finite_client_rejected(self, hessian, center, client):
        hessians, centers = [np.eye(2), np.eye(2)], [np.zeros(2), np.zeros(2)]
        hessians[client], centers[client] = np.array(hessian), np.array(center)
        with pytest.raises(ValueError, match=f"the Hessian or centre of client {client} is not finite"):
            QuadraticPopulation(hessians, centers)

    @pytest.mark.parametrize("noise_sigma", [np.nan, -0.1, np.inf])  # NaN and -0.1 drew no noise
    def test_bad_noise_sigma_rejected(self, noise_sigma):
        with pytest.raises(ValueError, match="noise_sigma must be finite and >= 0"):
            QuadraticPopulation([np.eye(2)], [np.zeros(2)], noise_sigma)

    def test_smoothness_witness(self):
        prob = build_problem(ProblemConfig(n_clients=4, dim=5, heterogeneity=1.5, sigma_l=0.0), 3)
        gen = np.random.default_rng(0)
        for _ in range(1000):
            x, y = gen.standard_normal(5), gen.standard_normal(5)
            for cid in range(prob.num_clients):
                gx, gy = (prob.client_gradient(cid, p) for p in (x, y))
                lhs = np.linalg.norm(gx - gy)
                assert lhs <= prob.smoothness_L * np.linalg.norm(x - y) * (1 + 1e-12)

    def test_pl_witness(self):
        prob = build_problem(ProblemConfig(n_clients=4, dim=5, heterogeneity=1.5, sigma_l=0.0), 3)
        f_star = global_loss(prob, known_optimum(prob))
        gen = np.random.default_rng(1)
        for _ in range(1000):
            x = 3.0 * gen.standard_normal(5)
            gap = global_loss(prob, x) - f_star
            assert 0.5 * l2_norm_sq(population_gradient(prob, x)) >= pl_mu(prob) * gap * (1 - 1e-12)

    @given(dim=st.integers(1, 16), n_clients=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_one_block_up_to_16_rows(self, dim, n_clients, seed):
        """Up to d = 16 the Hessians built in 16-row blocks are one product: the bytes of the pinned problems."""
        prob = objectives.quadratic_problem(np.random.default_rng(seed), n_clients=n_clients, dim=dim,
                                            heterogeneity=1.0, sigma_l=0.0)
        hessians, centers = quadratic_data(np.random.default_rng(seed), n_clients, dim, 1.0)
        assert prob.hessians.tobytes() == hessians.tobytes()
        assert prob.centers.tobytes() == centers.tobytes()

    def test_noise_model(self):
        x = np.ones((1, 4))
        exact = QuadraticPopulation([np.eye(4)], [np.zeros(4)], 0.0)
        assert np.array_equal(exact.client_gradients(x, exact.draw_round(0, 0, [0], 1), 0), x)
        noisy = QuadraticPopulation([np.eye(4)], [np.zeros(4)], 0.3)
        k_local = 20000
        round_draws = noisy.draw_round(5, 0, [0], k_local)
        draws = np.array([noisy.client_gradients(x, round_draws, k)[0] - x[0] for k in range(k_local)])
        assert np.abs(draws.mean(axis=0)).max() < 0.01  # unbiased
        assert np.mean(np.sum(draws**2, axis=1)) == pytest.approx(0.09, rel=0.05)


class TestLogisticClient:
    def test_loss_at_zero_weights(self):
        x_data = np.array([[1.0, 0.0], [-1.0, 0.0]])
        y = np.array([1.0, 0.0])
        client = LogisticClient(x_data, y, weight_decay=0.0)
        assert client.loss(np.zeros(2)) == pytest.approx(math.log(2.0))

    def test_full_gradient_is_mean_of_per_sample(self):
        gen = np.random.default_rng(2)
        client = LogisticClient(gen.standard_normal((12, 3)), gen.integers(0, 2, 12), 1e-3)
        w = gen.standard_normal(3)
        per_sample = np.mean([client.batch_gradient(w, np.array([s])) for s in range(12)], axis=0)
        assert np.allclose(per_sample, client.full_gradient(w), atol=1e-12)

    def test_full_batch_is_bit_identical(self):
        gen = np.random.default_rng(3)
        client = LogisticClient(gen.standard_normal((9, 4)), gen.integers(0, 2, 9), 1e-3)
        w = gen.standard_normal(4)
        for batch_size in (0, 9, 12):  # a batch of every sample comes in index order
            batch = EpochSampler(9, batch_size, data_rng(1).generator).batches(1)[0]
            assert np.array_equal(client.batch_gradient(w, batch), client.full_gradient(w))

    def test_disjoint_cover_unbiasedness(self):
        gen = np.random.default_rng(4)
        client = LogisticClient(gen.standard_normal((40, 3)), gen.integers(0, 2, 40), 1e-3)
        w = gen.standard_normal(3)
        batches = [np.arange(i, i + 10) for i in range(0, 40, 10)]
        avg = np.mean([client.batch_gradient(w, b) for b in batches], axis=0)
        assert np.abs(avg - client.full_gradient(w)).max() <= 1e-12

    def test_smoothness_bound_formula(self):
        gen = np.random.default_rng(5)
        feats = gen.standard_normal((20, 3))
        client = LogisticClient(feats, gen.integers(0, 2, 20), 1e-3)
        gram_top = np.linalg.eigvalsh(feats.T @ feats)[-1]
        assert client.smoothness_bound() == pytest.approx(gram_top / 80.0 + 1e-3)

    def test_partition_fractions_track_drawn_proportions(self):
        # recompute per-client class fractions from the emitted assignment
        prob = build_problem(ProblemConfig(kind="logreg", n_clients=10, dim=5,
                                           concentration=0.1, samples_per_client=50), 7)
        p0, p1 = prob.partition.class_proportions
        clients = clients_of(prob)
        counts1 = np.array([c.labels.sum() for c in clients])
        sizes = np.array([c.sample_count for c in clients])
        n1 = counts1.sum()
        n0 = sizes.sum() - n1
        for i in range(10):
            implied = p1[i] * n1 / (p0[i] * n0 + p1[i] * n1)
            assert abs(counts1[i] / sizes[i] - implied) <= 2.0 / sizes[i] + 1e-9


class TestMlpClient:
    def _client(self, seed=0, n=15, widths=(4, 6, 1)):
        gen = np.random.default_rng(seed)
        return MlpClient(gen.standard_normal((n, widths[0])), gen.integers(0, 2, n), widths)

    def test_zero_network_zero_targets(self):
        client = MlpClient(np.zeros((3, 4)), np.zeros(3), (4, 6, 1))
        assert client.loss(np.zeros(client.dim)) == 0.0

    def test_gradient_matches_finite_differences(self):
        from fedsim.analysis import finite_difference_check
        client = self._client()
        gen = np.random.default_rng(9)
        x = 0.3 * gen.standard_normal(client.dim)
        assert finite_difference_check(stacked(client), x, 1e-6) <= 1e-5

    def test_hidden_unit_permutation_symmetry(self):
        client = self._client()
        gen = np.random.default_rng(10)
        x = gen.standard_normal(client.dim)
        w1, b1, w2, b2 = client.unpack(x)
        perm = gen.permutation(w1.shape[0])
        permuted = np.concatenate([w1[perm].ravel(), b1[perm], w2[:, perm].ravel(), b2])
        assert client.loss(permuted) == pytest.approx(client.loss(x), rel=1e-12)


class TestEpochSampler:
    def test_epoch_is_a_partition(self):
        gen = derive_rng(0, 0, 0, 1).generator
        seen = EpochSampler(20, 5, gen).batches(4)
        assert np.array_equal(np.sort(seen, axis=None), np.arange(20))

    def test_full_batch_uses_natural_order(self):
        sampler = EpochSampler(6, 0, derive_rng(0, 0, 0, 1).generator)
        assert np.array_equal(sampler.batches(1)[0], np.arange(6))

    @given(n=st.integers(1, 60), batch_size=st.integers(-1, 70), k=st.integers(1, 12),
           seed=st.integers(0, 2**64 - 1))
    @example(n=7, batch_size=3, k=5, seed=0)  # 3 does not divide 7: batches cross epoch boundaries
    @example(n=7, batch_size=0, k=3, seed=0)  # full batch
    @example(n=7, batch_size=7, k=3, seed=0)
    @example(n=7, batch_size=9, k=3, seed=0)
    @settings(max_examples=300, deadline=None)
    def test_batches_equal_queue_draws(self, n, batch_size, k, seed):
        gen, queue_gen = np.random.default_rng(seed), np.random.default_rng(seed)
        batches = EpochSampler(n, batch_size, gen).batches(k)
        queue = QueueSampler(n, batch_size, queue_gen)
        expected = np.stack([queue.next_batch() for _ in range(k)])
        assert batches.dtype == expected.dtype
        assert np.array_equal(batches, expected)  # values and shape
        assert gen.bit_generator.state == queue_gen.bit_generator.state  # the same permutations drawn


def assert_batches_match_streams(population, seed, round_index, ids, k_local):
    """Client s's K minibatches are its stack rows, drawn on derive_rng's (round, client, batch) stream."""
    placed = [(pos, batches) for positions, rows in population.draw_round(seed, round_index, ids, k_local)
              for pos, batches in zip(positions.tolist(), rows.transpose(1, 0, 2), strict=True)]
    assert sorted(pos for pos, _ in placed) == list(range(len(ids)))  # each client in exactly one group
    draws = [batches for _, batches in sorted(placed, key=lambda item: item[0])]
    for cid, batches in zip(ids, draws, strict=True):
        start, stop = population.spans[cid]
        if 0 < population.batch < stop - start:
            sampler = QueueSampler(stop - start, population.batch,
                                   derive_rng(seed, round_index, cid, PURPOSE_BATCH).generator)
            expected = [start + sampler.next_batch() for _ in range(k_local)]
        else:  # a client with no more than a batch of samples takes its full batch
            expected = [np.arange(start, stop)] * k_local
        assert [batch.tolist() for batch in batches] == [rows.tolist() for rows in expected]


class TestDrawRound:
    """Each population's round draws equal one derive_rng stream per sampled client."""

    @given(n_clients=st.integers(1, 8), dim=st.integers(1, 5), sigma_l=st.sampled_from([0.0, 0.3]),
           k_local=st.integers(1, 4), data=st.data(), seed=st.integers(0, 10_000),
           round_index=st.integers(0, 500))
    @settings(max_examples=60, deadline=None)
    def test_quadratic_noise(self, n_clients, dim, sigma_l, k_local, data, seed, round_index):
        population = build_problem(ProblemConfig(n_clients=n_clients, dim=dim, sigma_l=sigma_l), seed)
        ids = sorted(data.draw(st.sets(st.integers(0, n_clients - 1), min_size=1)))
        hessians, centers, noise = population.draw_round(seed, round_index, ids, k_local)
        assert np.array_equal(hessians, population.hessians[ids])
        assert np.array_equal(centers, population.centers[ids])
        if sigma_l == 0.0:
            assert noise is None
            return
        assert noise.shape == (k_local, len(ids), dim)
        for s, cid in enumerate(ids):
            ref = derive_rng(seed, round_index, cid, PURPOSE_BATCH).generator.standard_normal((k_local, dim))
            assert noise[:, s].tobytes() == ((sigma_l / np.sqrt(dim)) * ref).tobytes()

    @given(kind=st.sampled_from(["logreg", "mlp"]), n_clients=st.integers(1, 6), batch=st.integers(0, 12),
           k_local=st.integers(1, 4), data=st.data(), seed=st.integers(0, 10_000),
           round_index=st.integers(0, 500))
    @settings(max_examples=60, deadline=None)
    def test_sampled_batches(self, kind, n_clients, batch, k_local, data, seed, round_index):
        cfg = ProblemConfig(kind=kind, n_clients=n_clients, dim=2, samples_per_client=6, concentration=0.5,
                            batch_size=batch)
        try:
            population = build_problem(cfg, seed)
        except ConfigError:  # a Dirichlet draw that left a client empty
            reject()
        ids = sorted(data.draw(st.sets(st.integers(0, n_clients - 1), min_size=1)))
        assert_batches_match_streams(population, seed, round_index, ids, k_local)

    def test_small_and_large_clients_in_one_round(self):
        cfg = ProblemConfig(kind="logreg", n_clients=6, dim=2, samples_per_client=8, concentration=0.5,
                            batch_size=6)
        population = build_problem(cfg, 4)
        sizes = [stop - start for start, stop in population.spans]
        assert min(sizes) < 6 < max(sizes)
        assert_batches_match_streams(population, 4, 3, list(range(6)), 5)


class TestDirichletPartition:
    def test_iid_equal_split(self):
        labels = np.tile([0, 1], 50)
        part = dirichlet_partition(labels, 4, None, data_rng(0).generator)
        assert [len(p) for p in part.client_indices] == [25, 25, 25, 25]

    @given(st.integers(min_value=0, max_value=50), st.integers(min_value=2, max_value=6))
    @settings(max_examples=30, deadline=None)
    def test_partition_property(self, seed, n_clients):
        labels = np.tile([0, 1, 2], 40)
        part = dirichlet_partition(labels, n_clients, 0.5, data_rng(seed).generator)
        merged = np.concatenate(part.client_indices)
        assert len(merged) == len(labels)
        assert np.array_equal(np.sort(merged), np.arange(len(labels)))

    def test_near_uniform_concentration(self):
        labels = np.tile([0, 1], 5000)
        part = dirichlet_partition(labels, 5, 1e6, data_rng(0).generator)
        for idx in part.client_indices:
            assert abs(labels[idx].mean() - 0.5) <= 0.05

    def test_low_concentration_creates_skew(self):
        # Monte Carlo over seeds: nearly every draw has a >=90% single-class client
        hits = 0
        labels = np.repeat([0, 1], 250)
        for seed in range(10):
            part = dirichlet_partition(labels, 5, 0.1, data_rng(seed).generator)
            hits += any(max(labels[i].mean(), 1 - labels[i].mean()) >= 0.9
                        for i in part.client_indices)
        assert hits >= 8

    def test_exhausted_retries_raise(self):
        # 2 classes over 10 clients at concentration 0.1 rarely covers everyone
        labels = np.repeat([0, 1], 250)
        with pytest.raises(PartitionError):
            dirichlet_partition(labels, 10, 0.1, data_rng(0).generator)

    def test_determinism(self):
        labels = np.tile([0, 1], 30)
        a = dirichlet_partition(labels, 3, 0.3, data_rng(11).generator)
        b = dirichlet_partition(labels, 3, 0.3, data_rng(11).generator)
        for pa, pb in zip(a.client_indices, b.client_indices):
            assert np.array_equal(pa, pb)


class TestProblemGenerators:
    def test_logreg_sets_conservative_smoothness(self):
        prob = build_problem(ProblemConfig(kind="logreg", n_clients=4, dim=3, samples_per_client=25), 1)
        assert prob.smoothness_L == max(c.smoothness_bound() for c in clients_of(prob))
        assert prob.dim == 3 and prob.num_clients == 4

    def test_mlp_problem_shapes(self):
        prob = build_problem(ProblemConfig(kind="mlp", n_clients=3, dim=4, mlp_hidden=5,
                                           samples_per_client=10), 2)
        assert prob.dim == 5 * 4 + 5 + 5 + 1
        assert prob.smoothness_L is None

    @pytest.mark.parametrize("shape", [(6, 2), (6, 1), (5,), ()], ids=["two-columns", "one-column", "short", "0-d"])
    @pytest.mark.parametrize("population, extra", [(LogisticPopulation, 0.01), (MlpPopulation, 4)],
                             ids=["logreg", "mlp"])
    def test_values_must_be_one_per_sample(self, population, extra, shape):
        # the oracles take one scalar per sample; an mlp with two target columns failed at the first metric row
        gen = np.random.default_rng(0)
        part = PartitionResult([np.arange(3), np.arange(3, 6)])
        with pytest.raises(ValueError, match=r"^values must have shape \(6,\), got "):
            population(gen.standard_normal((6, 3)), np.zeros(shape), part, 0, extra)

    @given(sizes=st.lists(st.integers(1, 6), min_size=1, max_size=8), dim=st.integers(1, 4),
           seed=st.integers(0, 10_000))
    @example(sizes=[1], dim=1, seed=0)
    @example(sizes=[1, 6, 1, 1], dim=3, seed=1)
    @settings(max_examples=60, deadline=None)
    def test_constructors_stack_as_reference(self, sizes, dim, seed):
        # any partition, one-sample clients included, its index sets in shuffled order
        gen = np.random.default_rng(seed)
        n = sum(sizes)
        features = gen.standard_normal((n, dim))
        labels = gen.integers(0, 2, n)
        part = PartitionResult(np.split(gen.permutation(n), np.cumsum(sizes)[:-1]))
        values = labels.astype(np.float64)
        for prob in (LogisticPopulation(features, labels, part, 0, 0.01), MlpPopulation(features, values, part, 0, 3)):
            ref_features, ref_values, ref_weights, ref_spans = _stack_by_client(features, values,
                                                                                part.client_indices)
            for got, want in [(prob.features, ref_features), (prob.values, ref_values),
                              (prob.weights, ref_weights), (prob.spans, ref_spans)]:
                assert np.array_equal(got, want)
                assert np.asarray(got).dtype == np.asarray(want).dtype
            assert all(type(bound) is int for span in prob.spans for bound in span)
            assert prob.num_clients == len(sizes) and prob.partition is part
        assert prob.widths == (dim, 3, 1) and prob.dim == 3 * (dim + 2) + 1


def _random_problem(kind, n_clients, dim, concentration, samples, seed, csv_dir, hidden=3):
    path = Path(csv_dir) / "data.csv"
    if kind == "csv":
        gen = np.random.default_rng(seed)
        n_rows = n_clients * samples
        labels = gen.permutation(np.arange(n_rows) % 2)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"f{j}" for j in range(dim)] + ["label"])
            for row, lab in zip(gen.standard_normal((n_rows, dim)), labels):
                writer.writerow([f"{v:.17g}" for v in row] + [int(lab)])
    fields = dict(dim=dim, heterogeneity=1.5, sigma_l=0.1, concentration=concentration,
                  samples_per_client=samples, weight_decay=0.01, mlp_hidden=hidden, csv_path=str(path),
                  label_column="label")
    read = BUILDERS[kind][1]  # the other keys are a ConfigError for this kind
    cfg = ProblemConfig(kind=kind, n_clients=n_clients,
                        **{key: value for key, value in fields.items() if key in read})
    return build_problem(cfg, seed)


class TestPopulationOracle:
    @given(kind=st.sampled_from(["csv", "logreg", "mlp", "quadratic"]),
           n_clients=st.integers(min_value=1, max_value=6),
           dim=st.integers(min_value=1, max_value=5),
           concentration=st.sampled_from([0.5, 1.0, 5.0]),
           samples=st.integers(min_value=3, max_value=40),
           block_rows=st.sampled_from([1, 7, objectives.BLOCK_ROWS]),
           n_points=st.integers(min_value=1, max_value=3),
           seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=80, deadline=None)
    def test_matches_explicit_client_mean(self, kind, n_clients, dim, concentration, samples,
                                          block_rows, n_points, seed):
        with tempfile.TemporaryDirectory() as csv_dir:
            try:
                prob = _random_problem(kind, n_clients, dim, concentration, samples, seed, csv_dir)
            except ConfigError:  # a Dirichlet draw that left a client empty
                reject()
        clients = clients_of(prob)
        points = 0.5 * np.random.default_rng(seed).standard_normal((n_points, prob.dim))
        with mock.patch.object(objectives, "BLOCK_ROWS", block_rows):
            losses, grads = prob.evaluate(points)
            again = prob.evaluate(points)
            single = (points[0], global_loss(prob, points[0]), population_gradient(prob, points[0]))
        assert losses.shape == (n_points,) and grads.shape == points.shape
        assert losses.tobytes() == again[0].tobytes() and grads.tobytes() == again[1].tobytes()
        for x, loss, grad in [single, *zip(points, losses, grads)]:
            client_losses = [c.loss(x) for c in clients]
            client_grads = [c.full_gradient(x) for c in clients]
            expected_loss = sum(client_losses) / len(client_losses)
            expected_grad = sum(client_grads) / len(client_grads)
            # a mean is only as exact as its terms: scale the gradient tolerance by them
            grad_scale = max(float(np.abs(g).max()) for g in client_grads)
            assert abs(loss - expected_loss) <= 1e-12 * abs(expected_loss)
            np.testing.assert_allclose(grad, expected_grad, rtol=1e-12, atol=1e-12 * grad_scale)
            # the per-client oracle, client by client
            for cid, (client_loss, client_grad) in enumerate(zip(client_losses, client_grads)):
                got_loss, got_grad = prob.client_loss(cid, x[None])[0], prob.client_gradient(cid, x)
                assert abs(got_loss - client_loss) <= 1e-12 * abs(client_loss)
                np.testing.assert_allclose(got_grad, client_grad, rtol=1e-12,
                                           atol=1e-12 * float(np.abs(client_grad).max()))

    @given(kind=st.sampled_from(["logreg", "mlp", "quadratic"]), n_clients=st.integers(1, 4), cid=st.integers(0, 3),
           dim=st.integers(1, 50), hidden=st.sampled_from([1, 3, 8]), samples=st.integers(1, 200),
           n_points=st.integers(1, 6), scale=st.sampled_from([0.1, 1.0, 30.0]), seed=st.integers(0, 10_000))
    @example(kind="mlp", n_clients=2, cid=0, dim=50, hidden=8, samples=100, n_points=4, scale=1.0,
             seed=0)  # mlp-measure's layers and gradcheck's four probes
    @settings(max_examples=60, deadline=None)
    def test_stacked_client_loss_matches_one_point_bytes(self, kind, n_clients, cid, dim, hidden, samples, n_points,
                                                         scale, seed):
        # an IID split leaves no client empty
        prob = _random_problem(kind, n_clients, dim, None, samples, seed, "", hidden)
        cid %= n_clients
        points = scale * np.random.default_rng(seed).standard_normal((n_points, prob.dim))
        want = np.array([client_loss_at(prob, cid, x) for x in points])
        one_by_one = np.concatenate([prob.client_loss(cid, x[None]) for x in points])
        assert prob.client_loss(cid, points).tobytes() == want.tobytes() == one_by_one.tobytes()


class TestMlpEvaluate:
    # beyond one block: the pinned mlp problems and the tests above stop below 1,024 rows
    @given(n_clients=st.integers(1, 12), samples=st.integers(1, 200), dim=st.integers(1, 6),
           hidden=st.sampled_from([1, 3, 8]), concentration=st.sampled_from([None, 0.5]),
           block_rows=st.sampled_from([1, 7, 1024]), n_points=st.sampled_from([1, 2]),
           seed=st.integers(0, 10_000))
    @example(n_clients=100, samples=100, dim=50, hidden=8, concentration=0.5, block_rows=1024, n_points=2,
             seed=1)  # mlp-measure's shape: 10,000 rows in ten blocks
    @settings(max_examples=60, deadline=None)
    def test_in_place_pass_matches_reference_bytes(self, n_clients, samples, dim, hidden, concentration,
                                                   block_rows, n_points, seed):
        try:
            prob = mlp_problem(data_rng(seed).generator, n_clients=n_clients, concentration=concentration,
                               batch_size=20, dim=dim, samples_per_client=samples, mlp_hidden=hidden)
        except PartitionError:
            reject()
        points = 0.5 * np.random.default_rng(seed).standard_normal((n_points, prob.dim))
        with mock.patch.object(objectives, "BLOCK_ROWS", block_rows):
            losses, grads = prob.evaluate(points)
        want_losses, want_grads = mlp_evaluate(prob, points, block_rows)
        assert losses.tobytes() == want_losses.tobytes()
        assert grads.tobytes() == want_grads.tobytes()


class TestCsvIngestion:
    def _write(self, tmp_path, rows, header="a,b,label"):
        path = tmp_path / "data.csv"
        path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
        return str(path)

    def test_constant_column_becomes_zero(self, tmp_path):
        path = self._write(tmp_path, ["1.0,7.5,0", "2.0,7.5,1", "3.0,7.5,0"])
        labels, feats = ingest_csv(path, "label")
        assert np.array_equal(labels, [0, 1, 0])
        assert np.all(feats[:, 1] == 0.0)
        assert feats[:, 0].mean() == pytest.approx(0.0, abs=1e-15)

    def test_header_only_file(self, tmp_path):
        path = self._write(tmp_path, [])
        with pytest.raises(CsvFormatError, match="no data rows"):
            ingest_csv(path, "label")

    def test_non_numeric_cell_reports_location(self, tmp_path):
        path = self._write(tmp_path, ["1.0,2.0,0", "1.0,oops,1"])
        with pytest.raises(CsvFormatError, match="row 3, column 'b'"):
            ingest_csv(path, "label")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_reports_location(self, tmp_path, cell):
        # used to parse, after which standardization zeroed the whole column
        path = self._write(tmp_path, ["1.0,2.0,0", f"1.0,{cell},1", "2.0,3.0,0"])
        with pytest.raises(CsvFormatError, match=f"non-finite value '{cell}' at row 3, column 'b'"):
            ingest_csv(path, "label")

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # a BOM used to stick to the first header field, so label column 'y' was not found
        text = "y,a,b\n0,1.0,2.0\n1,3.0,5.0\n0,2.0,4.5\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        plain_labels, plain_feats = ingest_csv(str(plain), "y")
        bom_labels, bom_feats = ingest_csv(str(marked), "y")
        assert np.array_equal(bom_labels, plain_labels) and np.array_equal(bom_feats, plain_feats)

    def test_repeated_column_name(self, tmp_path):
        # the second 'y' (here 1 - label) used to be standardized as a feature
        path = self._write(tmp_path, ["1,0,1", "2,1,0", "3,0,1", "4,1,0"], header="a,y,y")
        with pytest.raises(CsvFormatError, match="column 'y' appears more than once"):
            ingest_csv(path, "y")

    def test_missing_label_column(self, tmp_path):
        path = self._write(tmp_path, ["1.0,2.0,0"])
        with pytest.raises(CsvFormatError, match="not found"):
            ingest_csv(path, "y")

    def test_round_trip(self, tmp_path):
        # emit an already standardized dataset; ingestion must return it intact
        gen = np.random.default_rng(8)
        feats = gen.standard_normal((40, 3))
        feats = (feats - feats.mean(axis=0)) / feats.std(axis=0)
        labels = gen.integers(0, 2, 40)
        path = tmp_path / "round.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["f0", "f1", "f2", "label"])
            for row, lab in zip(feats, labels):
                writer.writerow([f"{v:.17g}" for v in row] + [int(lab)])
        got_labels, got_feats = ingest_csv(str(path), "label")
        assert np.array_equal(got_labels, labels)
        assert np.abs(got_feats - feats).max() <= 1e-12
