"""Batched substream seeding against one SeedSequence per path."""
import itertools

import numpy as np
import pytest

from refscore.util import substream, substreams

# each changes how many 32-bit words SeedSequence splits the entropy into:
# 0 and values below 2**32 take one, larger ones two; negative ints are
# masked to 64 bits, strings hash to 64 bits
EDGE_INTS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, -1, -(2**40), np.int64(7), np.int64(-3)]
LABELS = ["de", "mock-style", "", "é", "kwic"]


def first_draws(rng):
    return rng.integers(0, 2**63, size=4), rng.random(3)


def assert_same_streams(paths):
    batched = list(substreams(paths))
    assert len(batched) == len(paths)
    for path, rng in zip(paths, batched):
        expected, got = first_draws(substream(*path)), first_draws(rng)
        assert all(np.array_equal(e, g) for e, g in zip(expected, got)), path


def test_no_paths_no_generators():
    assert list(substreams([])) == []


def test_empty_path():
    assert_same_streams([()])


@pytest.mark.parametrize("value", EDGE_INTS, ids=repr)
def test_edge_integers(value):
    assert_same_streams([(value,), (1, value), (value, "de", value)])


def test_hashed_strings():
    assert_same_streams([(label,) for label in LABELS] + [(3, "de", 17), ("mock-latent", "u1-a001")])


@pytest.mark.parametrize("length", range(1, 7))
def test_paths_of_one_to_six_labels(length):
    # six 64-bit labels give up to 12 words, past SeedSequence's pool of 4,
    # so its extra-entropy loop runs
    labels = EDGE_INTS[:5] + LABELS[:3]
    paths = list(itertools.islice(itertools.product(labels, repeat=length), 60))
    rng = np.random.default_rng(length)
    paths += [tuple(labels[i] for i in rng.integers(0, len(labels), length)) for _ in range(40)]
    assert_same_streams(paths)


def test_mixed_word_counts_keep_path_order():
    paths = [(0,), ("de",), (2**64 - 1, 5), (), (1, "de", 2, "x"), (0,), (2**32,)]
    assert_same_streams(paths)
