import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedsim.vectors import (
    PURPOSE_BATCH,
    PURPOSE_DATA,
    PURPOSE_SAMPLING,
    derive_rng,
    l2_norm_sq,
    max_abs,
    mean_vectors,
    round_generators,
    round_keys,
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
        # a ragged list does not convert to an (S, d) array; numpy raises the ValueError
        with pytest.raises(ValueError):
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

    def test_streams_look_uniform(self):
        # loose collision/uniformity sanity check over many derived streams
        draws = np.array([derive_rng(1, r, c, 0).generator.uniform()
                          for r in range(20) for c in range(10)])
        assert len(np.unique(draws)) == draws.size
        assert 0.4 < draws.mean() < 0.6
        assert draws.min() < 0.1 and draws.max() > 0.9


WORD = 2**32
master_seeds = st.one_of(st.integers(0, 2**16), st.integers(0, WORD - 1), st.integers(0, 2**140),
                         st.integers(2**128, 2**200))  # past four words, the seed has more words than the pool
purposes = st.sampled_from([PURPOSE_SAMPLING, PURPOSE_BATCH, PURPOSE_DATA])
id_subsets = st.one_of(st.sets(st.integers(0, 60), max_size=12),
                       st.sets(st.integers(0, WORD - 1), max_size=6)).map(sorted)


class TestRoundGenerators:
    """The one-pass keys and the reused Philox reproduce SeedSequence / derive_rng exactly."""

    @given(master_seed=master_seeds, round_index=st.integers(0, WORD - 1), ids=id_subsets, purpose=purposes)
    @settings(max_examples=200, deadline=None)
    def test_keys_equal_seed_sequence(self, master_seed, round_index, ids, purpose):
        expected = [np.random.SeedSequence(master_seed, spawn_key=(round_index, cid, purpose)).generate_state(
            2, np.uint64) for cid in ids]
        keys = round_keys(master_seed, round_index, ids, purpose)
        assert keys.dtype == np.uint64 and keys.shape == (len(ids), 2)
        assert np.array_equal(keys, np.array(expected, dtype=np.uint64).reshape(-1, 2))

    @given(master_seed=master_seeds, round_index=st.integers(0, WORD - 1), ids=id_subsets, purpose=purposes,
           n=st.integers(1, 30))
    @settings(max_examples=100, deadline=None)
    def test_draws_equal_derive_rng(self, master_seed, round_index, ids, purpose, n):
        gens = round_generators(master_seed, round_index, ids, purpose)
        for cid, gen in zip(ids, gens, strict=True):
            ref = derive_rng(master_seed, round_index, cid, purpose).generator
            # three 32-bit draws leave half a 64-bit word buffered; the next id must not see it
            raw = dict(high=WORD, size=3, dtype=np.uint32)
            assert np.array_equal(gen.integers(0, **raw), ref.integers(0, **raw))
            assert np.array_equal(gen.standard_normal((2, 3)), ref.standard_normal((2, 3)))
            assert np.array_equal(gen.permutation(n), ref.permutation(n))

    @given(first=st.tuples(master_seeds, st.integers(0, WORD - 1), id_subsets.filter(len), purposes),
           second=st.tuples(master_seeds, st.integers(0, WORD - 1), id_subsets, purposes),
           normals=st.integers(0, 5), words=st.integers(0, 9), halves=st.integers(0, 4).map(lambda k: 2 * k + 1))
    @settings(max_examples=100, deadline=None)
    def test_reset_carries_nothing_between_calls(self, first, second, normals, words, halves):
        """After arbitrary draws on one call's streams, every stream of another call equals derive_rng's."""
        for gen in round_generators(*first):
            gen.standard_normal(normals)
            gen.integers(0, 2**64, size=words, dtype=np.uint64)
            gen.integers(0, WORD, size=halves, dtype=np.uint32)  # an odd count keeps a half word
        state = gen.bit_generator.state
        assert state["has_uint32"] == 1
        assume(state["buffer_pos"] < 4)  # the last stream left its Philox buffer partly used
        master_seed, round_index, ids, purpose = second
        for cid, gen in zip(ids, round_generators(*second), strict=True):
            ref = derive_rng(master_seed, round_index, cid, purpose).generator
            raw = dict(high=WORD, size=3, dtype=np.uint32)
            assert np.array_equal(gen.integers(0, **raw), ref.integers(0, **raw))
            assert np.array_equal(gen.standard_normal(5), ref.standard_normal(5))

    def test_every_id_shares_one_generator(self):
        gens = list(round_generators(1, 2, [3, 4, 5], PURPOSE_BATCH))
        assert all(gen is gens[0] for gen in gens)

    def test_no_ids(self):
        assert round_keys(1, 2, [], PURPOSE_BATCH).shape == (0, 2)
        assert list(round_generators(1, 2, [], PURPOSE_BATCH)) == []

    @pytest.mark.parametrize("master_seed, round_index, ids, purpose", [
        (0, WORD, [0], PURPOSE_BATCH),
        (0, -1, [0], PURPOSE_BATCH),
        (0, 0, [1, WORD], PURPOSE_BATCH),
        (0, 0, [-1, 2], PURPOSE_BATCH),
        (0, 0, [0], WORD),
        (-1, 0, [0], PURPOSE_BATCH),
    ])
    def test_word_out_of_range_is_rejected(self, master_seed, round_index, ids, purpose):
        with pytest.raises(ValueError):
            round_generators(master_seed, round_index, ids, purpose)
