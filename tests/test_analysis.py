from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from client_reference import LogisticClient, MlpClient, QuadraticClient
from fedsim.analysis import (
    compute_u,
    finite_difference_check,
    local_consistency,
    verify_delta_recursion,
    verify_u_update,
)
from test_acceptance import fit_geometric_rate

small_floats = st.floats(min_value=-100, max_value=100, allow_nan=False)


class TestLocalConsistency:
    def test_identical_locals(self):
        v = np.array([1.0, 2.0])
        assert local_consistency([v, v, v], v) == 0.0

    def test_two_point_case(self):
        assert local_consistency([np.array([1.0]), np.array([3.0])], np.array([2.0])) == 1.0

    def test_quadratic_scaling(self):
        locals_ = [np.array([1.0, 0.0]), np.array([0.0, 2.0])]
        mean = np.array([0.5, 1.0])
        base = local_consistency(locals_, mean)
        scaled = local_consistency([3 * v for v in locals_], 3 * mean)
        assert scaled == pytest.approx(9 * base, rel=1e-12)

    @given(st.lists(st.lists(small_floats, min_size=3, max_size=3), min_size=1, max_size=6),
           st.lists(small_floats, min_size=3, max_size=3))
    @settings(max_examples=50)
    def test_translation_invariance(self, locals_, shift):
        locals_ = [np.array(v) for v in locals_]
        shift = np.array(shift)
        mean = np.mean(locals_, axis=0)
        a = local_consistency(locals_, mean)
        b = local_consistency([v + shift for v in locals_], mean + shift)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            local_consistency([np.ones(2)], np.ones(3))


class TestComputeU:
    def test_zero_alpha_returns_x_bitwise(self):
        x = np.array([1.234, -5.678])
        deltas = [np.array([0.3, 0.2]), np.array([0.1, -0.1])]
        assert np.array_equal(compute_u(x, deltas, (0.0, 0.0), 7), x)

    def test_zero_history_returns_x(self):
        x = np.array([2.0, 3.0])
        assert np.array_equal(compute_u(x, [np.zeros(2), np.zeros(2)], (0.6, 0.3), 5), x)

    def test_double_sum_hand_example(self):
        # independent oracle: enumerate (j, s) pairs with exact rationals
        alpha = (Fraction(6, 10), Fraction(3, 10))
        deltas = (Fraction(1, 10), Fraction(2, 10))
        k_local = 5
        a_scale = 1 - sum(alpha)
        shift = Fraction(0)
        for j in range(2):
            for s in range(j, 2):
                shift += alpha[s] * deltas[j]
        expected_offset = Fraction(k_local, 1) / a_scale * shift
        assert expected_offset == Fraction(15, 2)  # 7.5

        x = np.array([10.0])
        u = compute_u(x, [np.array([0.1]), np.array([0.2])], (0.6, 0.3), 5)
        assert u == pytest.approx([10.0 - 7.5], rel=1e-12)

    def test_alpha_sum_must_stay_below_one(self):
        with pytest.raises(ValueError):
            compute_u(np.ones(1), [np.ones(1)], (1.0,), 3)

    @given(st.lists(st.floats(min_value=0.0, max_value=0.3), min_size=1, max_size=4)
           .filter(lambda alpha: sum(alpha) < 1.0),  # compute_u's domain
           st.integers(min_value=1, max_value=20), st.integers(min_value=0, max_value=100))
    @settings(max_examples=60)
    def test_matches_explicit_double_sum(self, alpha, k_local, seed):
        # independent enumeration over (j, s) pairs
        gen = np.random.default_rng(seed)
        j_depth = len(alpha)
        x = gen.standard_normal(3)
        deltas = [gen.standard_normal(3) for _ in range(j_depth)]
        a_scale = 1.0 - sum(alpha)
        shift = np.zeros(3)
        for j in range(j_depth):
            for s in range(j, j_depth):
                shift = shift + alpha[s] * deltas[j]
        expected = x - (k_local / a_scale) * shift
        got = compute_u(x, deltas, tuple(alpha), k_local)
        assert np.abs(got - expected).max() <= 1e-9 * (1 + np.abs(expected).max())


class TestIdentityResiduals:
    def test_zero_gradients_keep_u(self):
        u = np.array([1.0, 2.0])
        assert verify_u_update(u, u, np.zeros(2), 0.1, 4) == 0.0

    def test_fedavg_aggregation_identity(self):
        # alpha = 0: u == x and both identities reduce to plain averaging
        gen = np.random.default_rng(0)
        clients = [QuadraticClient(np.eye(3), gen.standard_normal(3)) for _ in range(4)]
        x = gen.standard_normal(3)
        eta, k_local = 0.05, 6
        finals, grad_sum = [], np.zeros(3)
        for c in clients:
            xi = x.copy()
            for _ in range(k_local):
                g = c.full_gradient(xi)
                grad_sum += g
                xi = xi - eta * g
            finals.append(xi)
        x_next = np.mean(finals, axis=0)
        delta_next = -(x_next - x) / k_local
        assert verify_u_update(x, x_next, grad_sum, eta, 4) <= 1e-12
        assert verify_delta_recursion(delta_next, grad_sum, [np.zeros(3)], (0.0,),
                                      eta, 4, k_local) <= 1e-12

    def test_first_round_recursion_base_case(self):
        # zero history: delta_1 must equal A * delta_tilde exactly
        grad_sum = np.array([2.0, -4.0])
        eta, s, k = 0.1, 2, 5
        alpha = (0.6, 0.3)
        delta_tilde = eta / (s * k) * grad_sum
        delta_next = (1.0 - sum(alpha)) * delta_tilde
        res = verify_delta_recursion(delta_next, grad_sum, [np.zeros(2), np.zeros(2)],
                                     alpha, eta, s, k)
        assert res == 0.0


class TestGeometricRateFit:
    # the fit is a helper of acceptance criterion 05 and lives next to it
    def test_exact_geometric_series(self):
        series = [(t, 2.0**-t) for t in range(40)]
        assert fit_geometric_rate(series) == pytest.approx(0.5, abs=1e-9)

    def test_constant_series(self):
        series = [(t, 3.14) for t in range(20)]
        assert fit_geometric_rate(series) == pytest.approx(1.0, abs=1e-12)

    def test_gradient_descent_contraction_oracle(self):
        # simulate GD on f(x) = x^2/2 with step 0.1: gap contracts by 0.81/round
        x, series = 1.0, []
        for t in range(60):
            series.append((t, 0.5 * x * x))
            x -= 0.1 * x
        assert fit_geometric_rate(series) == pytest.approx(0.81, abs=0.01)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            fit_geometric_rate([(t, 1.0 - 0.2 * t) for t in range(12)])

    def test_requires_ten_points(self):
        with pytest.raises(ValueError):
            fit_geometric_rate([(t, 1.0) for t in range(9)])


class TestFiniteDifferenceCheck:
    def test_quadratic_is_nearly_exact(self):
        gen = np.random.default_rng(1)
        client = QuadraticClient(np.eye(4) * 1.7, gen.standard_normal(4))
        assert finite_difference_check(client, gen.standard_normal(4), 1e-6) <= 1e-7

    def test_logreg_oracle(self):
        gen = np.random.default_rng(2)
        client = LogisticClient(gen.standard_normal((30, 4)), gen.integers(0, 2, 30), 1e-3)
        assert finite_difference_check(client, 0.5 * gen.standard_normal(4), 1e-6) <= 1e-5

    def test_mlp_oracle(self):
        gen = np.random.default_rng(3)
        client = MlpClient(gen.standard_normal((12, 3)), gen.integers(0, 2, 12), (3, 5, 1))
        x = 0.2 * gen.standard_normal(client.dim)
        assert finite_difference_check(client, x, 1e-5) <= 1e-4

    def test_rejects_bad_step(self):
        client = QuadraticClient(np.eye(1), np.zeros(1))
        with pytest.raises(ValueError):
            finite_difference_check(client, np.zeros(1), 0.0)
