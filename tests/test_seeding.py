import numpy as np
import pytest

from eivtls.seeding import (
    _bit_generators,
    column_subseed,
    derive_subseed,
    pcg64_seed_words,
    splitmix64,
    streams,
)

MASK = (1 << 64) - 1
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 1, 2**63, 2**64 - 1]


def reference_splitmix64(x: int) -> int:
    """SplitMix64 on Python ints, one value at a time."""
    x = (x + 0x9E3779B97F4A7C15) & MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK
    return (x ^ (x >> 31)) & MASK


def random_seeds(count, seed=3):
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**64, count, dtype=np.uint64)]


class TestArrayDerivation:
    def test_splitmix64_array_equals_python_ints(self):
        values = EDGE_SEEDS + random_seeds(2000)
        out = splitmix64(np.array(values, dtype=np.uint64))
        assert out.dtype == np.uint64
        assert out.tolist() == [reference_splitmix64(v) for v in values]
        assert [splitmix64(v) for v in values] == out.tolist()

    def test_subseeds_array_equal_scalar(self):
        reps = np.arange(3000, dtype=np.uint64)
        for master, cell in [(0, 0), (123, 4), (2**64 - 1, 7), (-5, 2)]:
            derived = derive_subseed(master, reps, cell)
            assert derived.tolist() == [derive_subseed(master, r, cell) for r in range(3000)]
        seeds = EDGE_SEEDS + random_seeds(500)
        for column in (1, 2, 4):
            out = column_subseed(np.array(seeds, dtype=np.uint64), column)
            assert out.tolist() == [column_subseed(s, column) for s in seeds]


class TestDeriveSubseed:
    def test_deterministic(self):
        assert derive_subseed(5, 3, 1) == derive_subseed(5, 3, 1)

    def test_sensitive_to_each_argument(self):
        base = derive_subseed(5, 3, 1)
        assert derive_subseed(6, 3, 1) != base
        assert derive_subseed(5, 4, 1) != base
        assert derive_subseed(5, 3, 2) != base

    def test_no_collisions_over_large_grid(self):
        # The array form equals the scalar one (test_subseeds_array_equal_scalar).
        reps = np.arange(100_000, dtype=np.uint64)
        seen = np.sort(np.concatenate([derive_subseed(123, reps, cell) for cell in range(10)]))
        assert seen.size == 1_000_000 and np.all(seen[1:] != seen[:-1])


class TestPcg64States:
    SEEDS = EDGE_SEEDS + random_seeds(3000, seed=11)

    def test_words_equal_seed_sequence(self):
        words = pcg64_seed_words(np.array(self.SEEDS, dtype=np.uint64))
        assert words.shape == (4, len(self.SEEDS)) and words.dtype == np.uint64
        for seed, column in zip(self.SEEDS, words.T):
            expected = np.random.SeedSequence(seed).generate_state(4, np.uint64)
            assert np.array_equal(column, expected)

    def test_states_equal_pcg64(self):
        words = pcg64_seed_words(np.array(self.SEEDS, dtype=np.uint64))
        count = 0
        for seed, bit_generator in zip(self.SEEDS, _bit_generators(words)):
            assert bit_generator.state == np.random.PCG64(seed).state
            count += 1
        assert count == len(self.SEEDS)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, 987654321])
    def test_draws_equal_a_fresh_stream_after_any_use(self, seed):
        # The seed's words sit between two others, so each stream reads its own row.
        seeds = np.array([seed ^ 1, seed, seed ^ 2], dtype=np.uint64)
        _, built, _ = streams(pcg64_seed_words(seeds))
        fresh = np.random.default_rng(seed)
        draw = dict(low=0, high=10, size=5, dtype=np.uint32)
        # An odd count of 32-bit draws leaves a buffered half; normals and raw words draw past it.
        assert np.array_equal(built.integers(**draw), fresh.integers(**draw))
        assert np.array_equal(built.standard_normal(9), fresh.standard_normal(9))
        assert np.array_equal(built.bit_generator.random_raw(4), fresh.bit_generator.random_raw(4))
        assert built.bit_generator.state == fresh.bit_generator.state
