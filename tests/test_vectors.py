import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedsim.vectors import (
    RngStream,
    derive_rng,
    l2_norm_sq,
    max_abs,
    mean_vectors,
)

finite_components = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def vec(*values):
    return np.array(values, dtype=np.float64)


class TestNormAndMean:
    def test_zero_vector(self):
        assert l2_norm_sq(vec(0, 0, 0)) == 0.0

    def test_three_four_five(self):
        assert l2_norm_sq(vec(3, 4)) == 25.0

    def test_ones(self):
        assert l2_norm_sq(vec(1, 1, 1, 1)) == 4.0

    def test_max_abs(self):
        assert max_abs(vec(-3, 2)) == 3.0

    def test_two_point_mean(self):
        assert np.array_equal(mean_vectors([vec(1), vec(3)]), vec(2))

    def test_singleton_identity(self):
        assert np.array_equal(mean_vectors([vec(5, 5)]), vec(5, 5))

    def test_closed_form(self):
        assert np.array_equal(mean_vectors([vec(1, 0), vec(0, 1), vec(2, 2)]), vec(1, 1))

    def test_empty_list(self):
        with pytest.raises(ValueError, match="empty"):
            mean_vectors([])

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            mean_vectors([vec(1), vec(1, 2)])

    @given(st.lists(finite_components, min_size=1, max_size=8),
           st.integers(min_value=1, max_value=8))
    def test_mean_of_repeats(self, values, count):
        v = np.array(values)
        m = mean_vectors([v] * count)
        if count in (1, 2, 4, 8):
            assert np.array_equal(m, v)
        else:
            # summation of identical values then division is within 1 ulp
            assert np.all(np.abs(m - v) <= np.spacing(np.abs(v)))


class TestRngDerivation:
    def test_identical_paths_identical_draws(self):
        a = derive_rng(42, 0, 0, 0).generator.uniform(size=100)
        b = derive_rng(42, 0, 0, 0).generator.uniform(size=100)
        assert np.array_equal(a, b)

    def test_different_client_diverges(self):
        a = derive_rng(42, 0, 0, 0).generator.uniform(size=100)
        b = derive_rng(42, 0, 1, 0).generator.uniform(size=100)
        assert np.sum(a != b) >= 95

    def test_different_purpose_diverges(self):
        a = derive_rng(7, 3, 2, 0).generator.uniform(size=100)
        b = derive_rng(7, 3, 2, 1).generator.uniform(size=100)
        assert np.sum(a != b) >= 95

    def test_path_fields_recorded(self):
        stream = derive_rng(7, 3, 2, 1)
        assert stream.master_seed == 7 and stream.path == (3, 2, 1)

    def test_root_stream(self):
        assert RngStream(5).path == ()

    def test_streams_look_uniform(self):
        # loose collision/uniformity sanity check over many derived streams
        draws = np.array([derive_rng(1, r, c, 0).generator.uniform()
                          for r in range(20) for c in range(10)])
        assert len(np.unique(draws)) == draws.size
        assert 0.4 < draws.mean() < 0.6
        assert draws.min() < 0.1 and draws.max() > 0.9
