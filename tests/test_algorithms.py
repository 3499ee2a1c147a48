import dataclasses
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from client_reference import QueueSampler, clients_of, known_optimum, replay
from fedsim import objectives
from fedsim.algorithms import (
    ROUND_FUNCTIONS,
    AdamAux,
    DivergenceError,
    MimHyper,
    RoundState,
    adam_server_step,
    compute_delta,
    current_eta,
    eta_l_bound,
    fedadam_round,
    fedavg_round,
    fedcm_round,
    init_round_state,
    mim_local_update,
    mim_round,
    scaffold_round,
)
from fedsim.objectives import FederatedProblem, QuadraticPopulation
from fedsim.simulator import BUILDERS, ConfigError, ProblemConfig, build_problem, sample_clients
from fedsim.vectors import PURPOSE_BATCH, derive_rng


def symmetric_pair(sigma=0.0):
    return QuadraticPopulation([np.eye(1), np.eye(1)],
                               [np.array([-1.0]), np.array([1.0])], sigma)


class TestMimHyper:
    def test_padding_to_common_length(self):
        hyper = MimHyper(alpha=(0.5,), beta=(0.2, 0.1, 0.05))
        assert hyper.alpha == (0.5, 0.0, 0.0) and hyper.J == 3

    def test_derived_quantities(self):
        hyper = MimHyper(alpha=(0.6, 0.3), beta=(0.9, 0.1))
        assert hyper.A == pytest.approx(0.1)

    def test_decay_schedule_is_exact_power(self):
        hyper = MimHyper(eta_l=0.1, lr_decay=0.998)
        assert current_eta(hyper, 200) == 0.1 * 0.998**200


class TestComputeDelta:
    def test_no_movement(self):
        assert np.array_equal(compute_delta(np.ones(3), np.ones(3), 5), np.zeros(3))

    def test_scalar_case(self):
        assert compute_delta(np.array([1.5]), np.array([1.0]), 5) == pytest.approx([-0.1])

    def test_vector_case(self):
        got = compute_delta(np.array([2.0, 0.0]), np.array([0.0, 2.0]), 2)
        assert np.allclose(got, [-1.0, 1.0])

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            compute_delta(np.ones(2), np.ones(3), 1)


class PairBlocks(FederatedProblem):
    """Gradient c for client c, except NaN at local step k for each (c, k) in ``nan_at``.

    The even positions in ``ids`` are one block and the odd ones the other, so the blocks' rows interleave.
    """

    def __init__(self, num_clients, dim, nan_at=()):
        self.num_clients, self.dim, self.nan_at = num_clients, dim, set(nan_at)

    def draw_round(self, seed, round_index, ids, k_local):
        return [(np.arange(first, len(ids), 2), ids[first::2]) for first in (0, 1)]

    def client_gradients(self, x, ids, step):
        g = np.repeat(np.array(ids, dtype=float)[:, None], x.shape[1], axis=1)
        g[[row for row, cid in enumerate(ids) if (cid, step) in self.nan_at]] = np.nan
        return g


def one_client(hessian, center, sigma=0.0, copies=1):
    return QuadraticPopulation([hessian] * copies, [center] * copies, sigma)


class TestMimLocalUpdate:
    """The batched kernel on one sampled client: its single row is that client's update."""

    def test_plain_sgd_step(self):
        hyper = MimHyper(alpha=(0.0,), beta=(0.0,), eta_l=0.1, k_local=1)
        x_final, _ = mim_local_update(one_client(np.eye(1), np.zeros(1)), [0],
                                      RoundState(np.array([1.0]), (np.zeros(1),)), hyper, 0)
        assert x_final[0] == pytest.approx([0.9])

    def test_single_step_hand_example(self):
        # oracle: exact rational evaluation of one momentum step on f(x) = x^2/2
        a = b = Fraction(1, 2)
        delta, eta, x0 = Fraction(1, 5), Fraction(1, 10), Fraction(1)
        y1 = x0 - a * delta
        y2 = x0 - b * delta
        grad = y2  # gradient of x^2/2
        expected = y1 - (1 - a) * eta * grad
        assert expected == Fraction(171, 200)

        hyper = MimHyper(alpha=(0.5,), beta=(0.5,), eta_l=0.1, k_local=1)
        x_final, _ = mim_local_update(one_client(np.eye(1), np.zeros(1)), [0],
                                      RoundState(np.array([1.0]), (np.array([0.2]),)), hyper, 0)
        assert x_final[0] == pytest.approx([float(expected)], abs=1e-15)

    def test_zero_history_matches_zero_momentum_trajectory(self):
        state = RoundState(np.array([1.0, -2.0]), (np.zeros(2), np.zeros(2)))
        with_momentum = MimHyper(alpha=(0.4, 0.2), beta=(0.5, 0.1), eta_l=0.05, k_local=3)
        problem = one_client(np.eye(2), np.zeros(2))
        x_m, _ = mim_local_update(problem, [0], state, with_momentum, 0)
        # same A so the gradient scaling matches; history is all zero
        zero = MimHyper(alpha=(0.4, 0.2), beta=(0.0, 0.0), eta_l=0.05, k_local=3)
        x_z, _ = mim_local_update(problem, [0], state, zero, 0)
        assert np.array_equal(x_m, x_z)

    def test_grad_sum_collection(self):
        hyper = MimHyper(alpha=(0.0,), beta=(0.0,), eta_l=0.1, k_local=4)
        _, grad_sum = mim_local_update(one_client(np.eye(1), np.zeros(1)), [0],
                                       RoundState(np.array([1.0]), (np.zeros(1),)), hyper, 0)
        assert grad_sum[0] == pytest.approx([1.0 + 0.9 + 0.81 + 0.729])

    def test_divergence_detection(self):
        hyper = MimHyper(alpha=(0.0,), beta=(0.0,), eta_l=1e8, k_local=60)
        problem = one_client(np.eye(1), np.zeros(1), copies=4)
        with pytest.raises(DivergenceError) as err:
            mim_local_update(problem, [3], RoundState(np.array([1.0]), (np.zeros(1),)), hyper, 0)
        assert err.value.client_id == 3
        assert err.value.iteration > 0
        # only client 3 diverges: in blocks of two clients it is in the second, and the report is one block's
        hyper = MimHyper(alpha=(0.0,), beta=(0.0,), eta_l=0.1, k_local=400, s_participate=4)
        problem = QuadraticPopulation([np.eye(1)] * 3 + [100.0 * np.eye(1)], [np.zeros(1)] * 4)
        reports = []
        for budget in (objectives.STEP_BLOCK_BYTES, 2 * 8):
            with mock.patch.object(objectives, "STEP_BLOCK_BYTES", budget), pytest.raises(DivergenceError) as err:
                mim_local_update(problem, [0, 1, 2, 3], RoundState(np.array([1.0]), (np.zeros(1),)), hyper, 0)
            reports.append((err.value.client_id, err.value.iteration))
        assert reports == [(3, 321)] * 2  # x_k = (-9)^k, and the gradient 100 x_k overflows at k = 321
        # every entry finite, but a block's sum overflows: the row test finds no bad row
        hyper = MimHyper(alpha=(0.0,), beta=(0.0,), eta_l=0.1, k_local=3, s_participate=4)
        start = np.array([1e308, -1e308, 1e308, 1e308])
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.add.reduce(np.tile(start, (2, 1)), axis=None))
        finals, _ = mim_local_update(PairBlocks(4, 4), [0, 1, 2, 3], RoundState(start, (np.zeros(4),)), hyper, 0)
        assert finals.tobytes() == np.tile(start, (4, 1)).tobytes()  # each step moves an entry by under 1 ulp
        # blocks {0, 2} and {1, 3}: each block writes its rows back to its own clients' positions
        finals, _ = mim_local_update(PairBlocks(10, 1), [1, 4, 6, 9], RoundState(np.zeros(1), (np.zeros(1),)),
                                     hyper, 0)
        assert finals[:, 0].tolist() == [0.0 - 0.1 * c - 0.1 * c - 0.1 * c for c in (1, 4, 6, 9)]
        # NaNs for client 3 at step 1 (block {1, 3}) and client 2 at step 4 (block {0, 2}): the lowest client,
        # its first step
        hyper = dataclasses.replace(hyper, k_local=6)
        with pytest.raises(DivergenceError) as err:
            mim_local_update(PairBlocks(4, 1, nan_at=[(3, 1), (2, 4)]), [0, 1, 2, 3],
                             RoundState(np.ones(1), (np.zeros(1),)), hyper, 0)
        assert (err.value.client_id, err.value.iteration) == (2, 4)


def _reference_shift(weights, deltas):
    terms = [w * d for w, d in zip(weights, deltas) if w != 0.0]
    if not terms:
        return None
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def reference_local_updates(problem, ids, x_start, deltas, hyper, seed, round_index, eta, batch_size,
                            correction):
    """The local updates one client at a time, through the reference clients' own oracles."""
    shift_a = _reference_shift(hyper.alpha, deltas)
    shift_b = _reference_shift(hyper.beta, deltas)
    clients = clients_of(problem)
    finals, grad_sums = [], []
    for row, cid in enumerate(ids):
        client = clients[cid]
        gen = derive_rng(seed, round_index, cid, PURPOSE_BATCH).generator
        sampler = QueueSampler(client.sample_count, batch_size, gen) if client.sample_count else None
        x = x_start.copy()
        grad_sum = np.zeros_like(x)
        for _ in range(hyper.k_local):
            y2 = x if shift_b is None else x - shift_b
            if sampler is None:
                g = client.noisy_gradient(y2, gen)
            else:
                g = client.batch_gradient(y2, sampler.next_batch())
            grad_sum += g
            if correction is not None:
                g = g + correction[row]
            x = (x if shift_a is None else x - shift_a) - hyper.A * eta * g
        finals.append(x)
        grad_sums.append(grad_sum)
    return finals, grad_sums


@st.composite
def kernel_cases(draw):
    kind = draw(st.sampled_from(["quadratic", "logreg", "mlp"]))
    n_clients = draw(st.integers(min_value=1, max_value=6))
    j_depth = draw(st.integers(min_value=1, max_value=3))
    weights = st.lists(st.sampled_from([0.0, 0.05, 0.2, 0.45, 0.9]), min_size=j_depth, max_size=j_depth)
    return dict(
        kind=kind,
        n_clients=n_clients,
        s_participate=draw(st.integers(min_value=1, max_value=n_clients)),
        k_local=draw(st.integers(min_value=1, max_value=5)),
        alpha=tuple(draw(weights.filter(lambda a: sum(a) < 1))),
        beta=tuple(draw(weights)),
        batch_size=draw(st.integers(min_value=0, max_value=12)),
        correction=draw(st.booleans()),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
    )


def random_problem(case):
    fields = dict(dim=case.get("dim", 3), sigma_l=0.3, concentration=0.5, samples_per_client=15, mlp_hidden=3,
                  batch_size=case["batch_size"])
    read = BUILDERS[case["kind"]][1]  # the other keys are a ConfigError for this kind
    cfg = ProblemConfig(kind=case["kind"], n_clients=case["n_clients"],
                        **{key: value for key, value in fields.items() if key in read})
    try:
        return build_problem(cfg, case["seed"])
    except ConfigError:  # a Dirichlet draw that left a client empty
        reject()


class TestBatchedKernel:
    # ``block``: the clients per block of local steps, by a patched byte budget (None: the shipped budget)
    @given(case=kernel_cases(), block=st.integers(min_value=1, max_value=3))
    # clients 0-5 hold 20, 7, 32, 5, 12 and 14 samples and clients 0, 1, 3, 4, 5 are sampled: batch
    # lengths 12, 7, 5, 12, 12 in id order, so the rows of the 12-group interleave with two shorter groups
    @example(case=dict(kind="mlp", n_clients=6, s_participate=5, k_local=3, alpha=(0.2, 0.05), beta=(0.9, 0.1),
                       batch_size=12, correction=True, seed=1), block=1)
    @example(case=dict(kind="logreg", n_clients=6, s_participate=5, k_local=3, alpha=(0.2, 0.05),
                       beta=(0.9, 0.1), batch_size=12, correction=True, seed=1), block=1)
    # at d = 100 the shipped budget holds 13 Hessians, so 20 sampled clients take two blocks
    @example(case=dict(kind="quadratic", n_clients=24, s_participate=20, k_local=3, alpha=(0.2, 0.05),
                       beta=(0.9, 0.1), batch_size=0, correction=True, seed=1, dim=100), block=None)
    @settings(max_examples=60, deadline=None)
    def test_rows_match_per_client_reference_bytes(self, case, block):
        problem = random_problem(case)
        budget = objectives.STEP_BLOCK_BYTES if block is None else block * 8 * problem.dim ** 2
        gen = np.random.default_rng(case["seed"])
        hyper = MimHyper(alpha=case["alpha"], beta=case["beta"], eta_l=0.05, k_local=case["k_local"],
                         s_participate=case["s_participate"])
        ids = sorted(int(i) for i in gen.choice(problem.num_clients, case["s_participate"], replace=False))
        x_start = 0.3 * gen.standard_normal(problem.dim)
        deltas = [0.1 * gen.standard_normal(problem.dim) for _ in range(hyper.J)]
        correction = 0.2 * gen.standard_normal((len(ids), problem.dim)) if case["correction"] else None
        round_index = 4

        with mock.patch.object(objectives, "STEP_BLOCK_BYTES", budget):
            finals, grad_sums = mim_local_update(
                problem, ids, RoundState(x_start, tuple(deltas), round_index), hyper, case["seed"],
                correction=correction)
        ref_finals, ref_grad_sums = reference_local_updates(
            problem, ids, x_start, deltas, hyper, case["seed"], round_index, current_eta(hyper, round_index),
            case["batch_size"], correction)

        assert finals.shape == grad_sums.shape == (len(ids), problem.dim)
        for row in range(len(ids)):
            assert finals[row].tobytes() == ref_finals[row].tobytes()
            assert grad_sums[row].tobytes() == ref_grad_sums[row].tobytes()

    @given(case=kernel_cases(), algorithm=st.sampled_from(sorted(ROUND_FUNCTIONS)))
    @settings(max_examples=40, deadline=None)
    def test_sampled_order_leaves_round_unchanged(self, case, algorithm):
        problem = random_problem(case)
        hyper = MimHyper(alpha=case["alpha"], beta=case["beta"], eta_l=0.05, k_local=case["k_local"],
                         s_participate=case["s_participate"])
        gen = np.random.default_rng(case["seed"])
        states = [init_round_state(np.zeros(problem.dim), hyper.J)] * 2
        for t in range(2):
            sampled = sample_clients(problem.num_clients, hyper.s_participate, case["seed"], t)
            orders = (sampled, [int(i) for i in gen.permutation(sampled)])
            results = [ROUND_FUNCTIONS[algorithm](state, problem, hyper, order, case["seed"])
                       for state, order in zip(states, orders)]
            (a, art_a), (b, art_b) = results
            assert a.x.tobytes() == b.x.tobytes()
            assert [d.tobytes() for d in a.delta_history] == [d.tobytes() for d in b.delta_history]
            for name in ("c", "c_clients", "m", "v"):
                if hasattr(a.algo_aux, name):
                    assert getattr(a.algo_aux, name).tobytes() == getattr(b.algo_aux, name).tobytes()
            assert art_a.local_finals.tobytes() == art_b.local_finals.tobytes()
            assert art_a.grad_sum.tobytes() == art_b.grad_sum.tobytes()
            states = [a, b]


def run_rounds(round_fn, problem, hyper, rounds, seed, sampled_orders=None):
    """The start state, then the state after each round; the start is the object the first round read."""
    start = init_round_state(np.zeros(problem.dim), hyper.J)
    return [start] + [state for state, _ in replay(round_fn, problem, hyper, rounds, seed, sampled_orders, start)]


class TestMimRound:
    def test_full_participation_single_step_is_gradient_descent(self):
        problem = build_problem(ProblemConfig(n_clients=3, dim=4, heterogeneity=1.0, sigma_l=0.0), 5)
        hyper = MimHyper(alpha=(0.0,), beta=(0.0,), eta_l=0.05, k_local=1,
                         s_participate=3, lr_decay=1.0)
        state = init_round_state(np.zeros(4), 1)
        state, _ = mim_round(state, problem, hyper, [0, 1, 2], 5)
        expected = -0.05 * problem.evaluate(np.zeros((1, 4)))[1][0]
        assert np.allclose(state.x, expected, atol=1e-15)

    @pytest.mark.parametrize("algorithm", sorted(ROUND_FUNCTIONS))
    def test_non_finite_server_step_raises(self, algorithm):
        # one step takes each client to its finite centre 1e308; the sum inside their mean overflows
        hyper = MimHyper(alpha=(0.0,), beta=(0.0,), eta_l=1.0, k_local=1, s_participate=2)
        with np.errstate(over="ignore", invalid="ignore"):  # building the problem overflows too
            problem = QuadraticPopulation([np.eye(1)] * 2, [np.array([1e308])] * 2, 0.0)
            with pytest.raises(DivergenceError) as err:
                ROUND_FUNCTIONS[algorithm](init_round_state(np.zeros(1), 1), problem, hyper, [0, 1], 0)
        assert (err.value.client_id, err.value.iteration) == (None, None)
        assert str(err.value) == "non-finite parameters (server step)"

    def test_symmetric_fixed_point(self):
        problem = symmetric_pair()
        hyper = MimHyper(alpha=(0.0,), beta=(0.0,), eta_l=0.1, k_local=5, s_participate=2)
        for state in run_rounds(mim_round, problem, hyper, 50, seed=1):
            assert state.x == pytest.approx([0.0], abs=1e-16)

    def test_delta_bookkeeping(self):
        problem = build_problem(ProblemConfig(n_clients=4, dim=3, heterogeneity=1.0, sigma_l=0.1), 9)
        hyper = MimHyper(s_participate=2, k_local=4, eta_l=0.05)
        states = run_rounds(mim_round, problem, hyper, 10, seed=2)
        for prev, cur in zip(states, states[1:]):
            expected = compute_delta(cur.x, prev.x, hyper.k_local)
            assert np.array_equal(cur.delta_history[0], expected)
            assert cur.delta_history[1:] == prev.delta_history[: hyper.J - 1]

    def test_sampled_order_does_not_matter(self):
        problem = build_problem(ProblemConfig(n_clients=5, dim=3, heterogeneity=1.0, sigma_l=0.1), 3)
        hyper = MimHyper(s_participate=3, k_local=3, eta_l=0.05)
        a = run_rounds(mim_round, problem, hyper, 5, seed=3)[-1]
        b = run_rounds(mim_round, problem, hyper, 5, seed=3,
                       sampled_orders=lambda ids: list(reversed(ids)))[-1]
        assert np.array_equal(a.x, b.x)

    def test_wrong_sample_count_rejected(self):
        problem = symmetric_pair()
        hyper = MimHyper(s_participate=2, k_local=1)
        state = init_round_state(np.zeros(1), hyper.J)
        with pytest.raises(ValueError, match="sampled clients"):
            mim_round(state, problem, hyper, [0], 0)

    @pytest.mark.parametrize("sampled", [[1, 1], [0, 2], [-1, 0]])
    def test_repeated_or_unknown_ids_rejected(self, sampled):
        problem = symmetric_pair()
        hyper = MimHyper(s_participate=2, k_local=1)
        state = init_round_state(np.zeros(1), hyper.J)
        with pytest.raises(ValueError, match="distinct and in"):
            mim_round(state, problem, hyper, sampled, 0)

    @pytest.mark.parametrize("algorithm", sorted(ROUND_FUNCTIONS))
    def test_more_sampled_ids_than_clients_rejected(self, algorithm):
        # S > N leaves no room for S distinct ids in [0, N), so the id check catches it
        problem = symmetric_pair()
        hyper = MimHyper(s_participate=3, k_local=1)
        state = init_round_state(np.zeros(1), hyper.J)
        with pytest.raises(ValueError, match=r"distinct and in \[0, 2\)"):
            ROUND_FUNCTIONS[algorithm](state, problem, hyper, [0, 1, 2], 0)

    def test_zero_history_alpha_scaling_identity(self):
        # round 1 with sigma=0 and K=1: the step scales exactly with A
        problem = build_problem(ProblemConfig(n_clients=4, dim=3, heterogeneity=1.0, sigma_l=0.0), 11)
        x0 = np.zeros(3)
        base = MimHyper(alpha=(0.0,), beta=(0.0,), eta_l=0.1, k_local=1, s_participate=4)
        half = MimHyper(alpha=(0.5,), beta=(0.0,), eta_l=0.1, k_local=1, s_participate=4)
        sa, _ = mim_round(init_round_state(x0, 1), problem, base, [0, 1, 2, 3], 0)
        sb, _ = mim_round(init_round_state(x0, 1), problem, half, [0, 1, 2, 3], 0)
        assert np.abs((sb.x - x0) - 0.5 * (sa.x - x0)).max() <= 1e-12


class TestFedAvgDegeneracy:
    def test_bitwise_equal_to_zero_momentum_mim(self):
        problem = build_problem(ProblemConfig(n_clients=6, dim=4, heterogeneity=1.5, sigma_l=0.1), 21)
        hyper = MimHyper(alpha=(0.0, 0.0), beta=(0.0, 0.0), s_participate=3, k_local=5, eta_l=0.05)
        mim_states = run_rounds(mim_round, problem, hyper, 100, seed=21)
        avg_states = run_rounds(fedavg_round, problem, hyper, 100, seed=21)
        for sm, sa in zip(mim_states, avg_states):
            assert np.array_equal(sm.x, sa.x)

    def test_single_client_full_batch_is_plain_gd(self):
        problem = QuadraticPopulation([np.eye(2)], [np.ones(2)])
        hyper = MimHyper(s_participate=1, k_local=1, eta_l=0.1, lr_decay=1.0)
        states = run_rounds(fedavg_round, problem, hyper, 20, seed=0)
        x = np.zeros(2)
        for state in states[1:]:
            x = x - 0.1 * (x - np.ones(2))
            assert np.allclose(state.x, x, atol=1e-14)


class TestFedCm:
    def test_zero_weight_matches_fedavg(self):
        problem = build_problem(ProblemConfig(n_clients=4, dim=3, heterogeneity=1.0, sigma_l=0.1), 31)
        hyper = MimHyper(s_participate=2, k_local=5, eta_l=0.05)
        cm = run_rounds(fedcm_round, problem, dataclasses.replace(hyper, fedcm_alpha=0.0), 30, seed=4)
        avg = run_rounds(fedavg_round, problem, hyper, 30, seed=4)
        for sc, sa in zip(cm, avg):
            assert np.array_equal(sc.x, sa.x)

    def test_first_round_scales_gradient_only(self):
        problem = build_problem(ProblemConfig(n_clients=3, dim=3, heterogeneity=1.0, sigma_l=0.0), 8)
        hyper = MimHyper(s_participate=3, k_local=1, eta_l=0.1)
        s_cm, _ = fedcm_round(init_round_state(np.zeros(3), hyper.J), problem,
                              dataclasses.replace(hyper, fedcm_alpha=0.3), [0, 1, 2], 0)
        s_avg, _ = fedavg_round(init_round_state(np.zeros(3), hyper.J), problem, hyper,
                                [0, 1, 2], 0)
        assert np.abs(s_cm.x - 0.7 * s_avg.x).max() <= 1e-15


class TestScaffold:
    def test_homogeneous_controls_align_after_first_round(self):
        hessians = [np.eye(2)] * 3
        centers = [np.ones(2)] * 3
        problem = QuadraticPopulation(hessians, centers, 0.0)
        hyper = MimHyper(s_participate=3, k_local=4, eta_l=0.1)
        state = init_round_state(np.zeros(2), hyper.J)
        state, _ = scaffold_round(state, problem, hyper, [0, 1, 2], 0)
        aux = state.algo_aux
        for c_i in aux.c_clients:
            assert np.allclose(c_i, aux.c, atol=1e-15)
        # correction vanishes: next round equals fedavg round from same state
        s2, _ = scaffold_round(state, problem, hyper, [0, 1, 2], 0)
        f2, _ = fedavg_round(dataclasses.replace(state, algo_aux=None), problem, hyper,
                             [0, 1, 2], 0)
        assert np.allclose(s2.x, f2.x, atol=1e-12)

    def test_single_client_reduces_to_fedavg(self):
        problem = QuadraticPopulation([np.eye(2)], [np.ones(2)])
        hyper = MimHyper(s_participate=1, k_local=5, eta_l=0.05)
        sc = run_rounds(scaffold_round, problem, hyper, 40, seed=2)
        av = run_rounds(fedavg_round, problem, hyper, 40, seed=2)
        for s, a in zip(sc, av):
            assert np.allclose(s.x, a.x, atol=1e-14)

    def test_heterogeneous_fixed_point_is_global_optimum(self):
        problem = QuadraticPopulation([1.5 * np.eye(1), 0.5 * np.eye(1)],
                                      [np.array([-1.0]), np.array([2.0])], 0.0)
        hyper = MimHyper(s_participate=2, k_local=5, eta_l=0.05, lr_decay=1.0)
        final = run_rounds(scaffold_round, problem, hyper, 5000, seed=1)[-1]
        assert np.abs(final.x - known_optimum(problem)).max() <= 1e-8


class TestFedAdam:
    def test_zero_pseudo_gradient_is_fixed_point(self):
        # all clients already at the shared optimum: nothing moves
        problem = QuadraticPopulation([np.eye(2)] * 2, [np.zeros(2)] * 2, 0.0)
        hyper = MimHyper(s_participate=2, k_local=3, eta_l=0.1)
        state = init_round_state(np.zeros(2), hyper.J)
        state, _ = fedadam_round(state, problem, hyper, [0, 1], 0)
        assert np.array_equal(state.x, np.zeros(2))

    def test_constant_pseudo_gradient_limit(self):
        # closed form without bias correction: m_t = 1 - b1^t, v_t = 1 - b2^t
        hyper = MimHyper(global_lr=0.1, adam_beta1=0.9, adam_beta2=0.99, adam_eps=1e-3)
        aux = AdamAux(np.zeros(1), np.zeros(1))
        pg = np.array([1.0])
        for t in range(1, 5001):
            aux, update = adam_server_step(aux, pg, hyper)
            m_t, v_t = 1 - 0.9**t, 1 - 0.99**t
            expected = 0.1 * m_t / (np.sqrt(v_t) + 1e-3)
            assert update[0] == pytest.approx(expected, rel=1e-9)
        limit = 0.1 / (1.0 + 1e-3)
        assert update[0] == pytest.approx(limit, abs=1e-6)
        assert abs(update[0] - 0.1) <= 0.1 * 2e-3

    def test_degenerate_betas_large_eps(self):
        hyper = MimHyper(global_lr=0.1, adam_beta1=0.0, adam_beta2=0.0, adam_eps=1e6)
        aux, update = adam_server_step(AdamAux(np.zeros(2), np.zeros(2)), np.array([1.0, -2.0]), hyper)
        assert np.allclose(update, 0.1 / 1e6 * np.array([1.0, -2.0]), rtol=1e-5)


class TestExactRecurrenceOracle:
    """Re-derive several rounds with exact rationals, independently of the library.

    Scalar quadratics f_i(x) = (x - b_i)^2 / 2, full batch, full participation:
    every quantity stays rational, so the whole trajectory has a closed form
    that the float implementation must track to rounding error.
    """

    def _oracle(self, centers, alpha, beta, eta, k_local, rounds):
        j_depth = len(alpha)
        x = Fraction(0)
        deltas = [Fraction(0)] * j_depth
        a_scale = 1 - sum(alpha)
        states = [x]
        for _ in range(rounds):
            finals = []
            shift_a = sum(a * d for a, d in zip(alpha, deltas))
            shift_b = sum(b * d for b, d in zip(beta, deltas))
            for b_i in centers:
                xi = x
                for _ in range(k_local):
                    grad = (xi - shift_b) - b_i
                    xi = (xi - shift_a) - a_scale * eta * grad
                finals.append(xi)
            x_next = sum(finals) / len(finals)
            deltas = [-(x_next - x) / k_local] + deltas[: j_depth - 1]
            x = x_next
            states.append(x)
        return states

    def test_three_round_trajectory_matches(self):
        centers = (Fraction(-1), Fraction(1, 2), Fraction(2))
        alpha = (Fraction(1, 2), Fraction(1, 4))
        beta = (Fraction(3, 4), Fraction(1, 8))
        eta, k_local, rounds = Fraction(1, 10), 2, 4
        oracle = self._oracle(centers, alpha, beta, eta, k_local, rounds)

        problem = QuadraticPopulation([np.eye(1)] * 3,
                                      [np.array([float(b)]) for b in centers], 0.0)
        hyper = MimHyper(alpha=(0.5, 0.25), beta=(0.75, 0.125), eta_l=0.1,
                         k_local=2, s_participate=3, lr_decay=1.0)
        state = init_round_state(np.zeros(1), hyper.J)
        for t in range(rounds):
            state, _ = mim_round(state, problem, hyper, [0, 1, 2], 0)
            assert state.x[0] == pytest.approx(float(oracle[t + 1]), abs=1e-14)

    def test_three_step_history_depth(self):
        centers = (Fraction(-2), Fraction(3))
        alpha = (Fraction(2, 5), Fraction(1, 5), Fraction(1, 10))
        beta = (Fraction(1, 2), Fraction(0), Fraction(1, 4))
        eta, k_local, rounds = Fraction(1, 20), 3, 5
        oracle = self._oracle(centers, alpha, beta, eta, k_local, rounds)

        problem = QuadraticPopulation([np.eye(1)] * 2,
                                      [np.array([float(b)]) for b in centers], 0.0)
        hyper = MimHyper(alpha=(0.4, 0.2, 0.1), beta=(0.5, 0.0, 0.25), eta_l=0.05,
                         k_local=3, s_participate=2, lr_decay=1.0)
        state = init_round_state(np.zeros(1), hyper.J)
        for t in range(rounds):
            state, _ = mim_round(state, problem, hyper, [0, 1], 0)
            assert state.x[0] == pytest.approx(float(oracle[t + 1]), abs=1e-13)


class TestValidateEtaL:
    def test_closed_form_case_one(self):
        bound = eta_l_bound(1.0, 10, 0.1)
        assert bound == pytest.approx(0.01875, abs=1e-12)
        assert 0.01 <= bound

    def test_closed_form_case_two(self):
        bound = eta_l_bound(1.0, 1, 1.0)
        assert bound == pytest.approx(0.1875, abs=1e-12)
        assert not 0.2 <= bound

    def test_warning_carries_both_numbers(self):
        assert eta_l_bound(2.0, 4, 0.5) < 0.5
