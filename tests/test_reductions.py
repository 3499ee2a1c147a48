"""The loop-free server reductions against their row loops in ``client_reference``.

The mean and the gradient sum must match byte for byte, sign bits
included, and the consistency metric must be the same float.  The stacks
cover one to 80 rows, row scales from 1e-8 to 1e8, identical rows, rows
that cancel, and -0.0 entries and columns.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from client_reference import local_consistency_loop, mean_vectors_loop, total_grad_sum_loop
from fedsim.algorithms import _total_grad_sum
from fedsim.analysis import local_consistency
from fedsim.vectors import mean_vectors


@st.composite
def row_stacks(draw, max_rows=80, max_dim=300):
    """An (S, d) float64 stack built from a drawn seed and drawn layout choices."""
    s = draw(st.integers(1, max_rows))
    d = draw(st.integers(1, max_dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vs = rng.standard_normal((s, d)) * 10.0 ** rng.uniform(-8, 8, size=(s, 1))
    layout = draw(st.sampled_from(["scaled", "identical", "cancelling"]))
    if layout == "identical":
        vs[:] = vs[0]
    elif layout == "cancelling":
        vs[1::2] = -vs[0:s - 1:2]
    if draw(st.booleans()):
        vs[:, rng.random(d) < 0.3] = -0.0
    if draw(st.booleans()):
        vs[rng.random((s, d)) < 0.2] = draw(st.sampled_from([0.0, -0.0]))
    return vs


small_stacks = hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 4)),
                          elements=st.floats(-1e100, 1e100, allow_nan=False))


class TestMeanVectors:
    @given(row_stacks())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_loop_bytes(self, vs):
        expected = mean_vectors_loop(vs).tobytes()
        assert mean_vectors(vs).tobytes() == expected
        assert mean_vectors(list(vs)).tobytes() == expected

    @given(small_stacks)
    @settings(max_examples=300, deadline=None)
    def test_equals_the_loop_bytes_on_any_floats(self, vs):
        assert mean_vectors(vs).tobytes() == mean_vectors_loop(vs).tobytes()

    def test_single_row_clears_negative_zero(self):
        out = mean_vectors(np.array([[-0.0, 1.0]]))
        assert out.tobytes() == np.array([0.0, 1.0]).tobytes()


class TestLocalConsistency:
    @given(row_stacks(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_loop(self, vs, at_mean):
        model = mean_vectors(vs) if at_mean else vs[-1] * 0.5
        expected = local_consistency_loop(vs, model)
        assert local_consistency(vs, model) == expected
        assert local_consistency(list(vs), model) == expected

    def test_column_stack_is_not_broadcast(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            local_consistency(np.ones((4, 1)), np.ones(3))


class TestTotalGradSum:
    @given(row_stacks())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_loop_bytes(self, grad_sums):
        assert _total_grad_sum(grad_sums).tobytes() == total_grad_sum_loop(grad_sums).tobytes()
