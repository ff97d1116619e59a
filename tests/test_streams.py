import numpy as np
import pytest

from htmix.errors import DomainError
from htmix.streams import DEFAULT_SEED, RandomStream


def test_same_pair_is_bit_identical():
    a = RandomStream(7, 3).generator().standard_normal(1000)
    b = RandomStream(7, 3).generator().standard_normal(1000)
    np.testing.assert_array_equal(a, b)


def test_generator_is_fresh_each_call():
    """generator() must not share state across calls."""
    s = RandomStream(7, 3)
    first = s.generator().standard_normal(10)
    again = s.generator().standard_normal(10)
    np.testing.assert_array_equal(first, again)


@pytest.mark.parametrize("other", [(7, 4), (8, 3)])
def test_different_pair_differs(other):
    a = RandomStream(7, 3).generator().standard_normal(100)
    b = RandomStream(*other).generator().standard_normal(100)
    assert not np.array_equal(a, b)


def test_shifted_matches_explicit_substream():
    s = RandomStream(42, 5)
    a = s.shifted(9).generator().random(50)
    b = RandomStream(42, 14).generator().random(50)
    np.testing.assert_array_equal(a, b)


def test_substream_cross_correlation_is_small():
    a = RandomStream(1, 0).generator().standard_normal(200_000)
    b = RandomStream(1, 1).generator().standard_normal(200_000)
    corr = float(np.corrcoef(a, b)[0, 1])
    assert abs(corr) < 0.01


def test_default_seed_is_stable():
    assert isinstance(DEFAULT_SEED, int)
    assert DEFAULT_SEED == 1729


@pytest.mark.parametrize(
    "seed,sub",
    [(-1, 0), (2**64, 0), (1.5, 0), (0, -1), (0, 2.5), ("x", 0), (0, 2**32)],
)
def test_invalid_construction(seed, sub):
    with pytest.raises(DomainError):
        RandomStream(seed, sub)


def test_shifted_rejects_negative_offset():
    with pytest.raises(DomainError):
        RandomStream(0, 3).shifted(-1)


@pytest.mark.parametrize("block", [-1, 2**32, 1.0])
def test_block_generator_rejects_bad_index(block):
    with pytest.raises(DomainError):
        RandomStream(7, 3).block_generator(block)
