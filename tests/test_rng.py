import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crslab.rng import chunks, rows, spawn_key, stream


def test_same_tags_same_stream():
    a = stream(7, "fill-vertex", 3, 0).random(16)
    b = stream(7, "fill-vertex", 3, 0).random(16)
    assert np.array_equal(a, b)


def test_different_tags_different_streams():
    a = stream(7, "fill-vertex", 3, 0).random(16)
    b = stream(7, "fill-vertex", 3, 1).random(16)
    c = stream(7, "fill-edge", 3, 0).random(16)
    d = stream(8, "fill-vertex", 3, 0).random(16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_string_tags_are_stable_words():
    # string hashing must not depend on process state (PYTHONHASHSEED etc.)
    assert spawn_key("trials-vertex", 2) == spawn_key("trials-vertex", 2)
    assert spawn_key("a") != spawn_key("b")


def test_int_tags_must_be_unsigned():
    with pytest.raises(ValueError):
        spawn_key(-1)


def test_unsupported_tag_type():
    with pytest.raises(TypeError):
        spawn_key(3.5)


def test_large_int_tags_keep_all_bits():
    assert spawn_key(2**40) != spawn_key(2**40 + 1)
    assert spawn_key(2**40) != spawn_key(0)


@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=0, max_value=100))
def test_streams_reproducible_property(seed, tag):
    assert np.array_equal(stream(seed, tag).random(4), stream(seed, tag).random(4))


def test_chunk_draws_equal_its_stream():
    got = list(chunks(7, 2500, 1000, "trials-vertex"))
    assert [(lo, count) for _, lo, count in got] == [(0, 1000), (1000, 1000), (2000, 500)]
    for i, (rng, _, _) in enumerate(got):
        assert np.array_equal(rng.random(16), stream(7, "trials-vertex", i).random(16))


@settings(deadline=None, derandomize=True)  # (10000, 1) makes 10,000 stream keys
@given(st.integers(min_value=1, max_value=10_000), st.integers(min_value=1, max_value=3_000))
def test_chunk_counts_cover_total_and_only_the_last_is_partial(total, size):
    spans = [(lo, count) for _, lo, count in chunks(0, total, size, "t")]
    assert sum(count for _, count in spans) == total
    assert all(count == size for _, count in spans[:-1])
    assert 0 < spans[-1][1] <= size
    assert [lo for lo, _ in spans] == list(range(0, total, size))


def test_total_below_size_gives_one_chunk():
    (rng, lo, count), = chunks(7, 999, 1000, "fill-edge", 3)
    assert (lo, count) == (0, 999)
    assert np.array_equal(rng.random(16), stream(7, "fill-edge", 3, 0).random(16))


def test_zero_total_yields_nothing():
    assert list(chunks(0, 0, 1000, "t")) == []


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=300),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=320),
    st.integers(min_value=0, max_value=320),
)
def test_row_slices_equal_the_eager_draw(count, width, lo, hi):
    lazy_rng, eager_rng = stream(5, "rows", count, width), stream(5, "rows", count, width)
    seen = []

    def then(start, block):
        seen.append((start, block.shape))
        return block * 2.0 + start

    lazy = rows(lazy_rng, count, width, then)
    eager = eager_rng.random((count, width))
    assert lazy.shape == eager.shape
    # the generator ends where the eager draw leaves it
    assert lazy_rng.bit_generator.state == eager_rng.bit_generator.state
    assert np.array_equal(lazy_rng.random(3), eager_rng.random(3))
    lo, hi = min(lo, count), min(hi, count)
    got = lazy[lo:hi]
    assert np.array_equal(got, eager[lo:hi] * 2.0 + lo)
    assert seen == [(lo, (max(hi - lo, 0), width))]
    assert np.array_equal(rows(stream(5, "rows", count, width), count, width)[lo:hi], eager[lo:hi])


def test_row_slices_are_contiguous_only():
    with pytest.raises(IndexError):
        rows(stream(5, "rows"), 10, 3)[::2]
