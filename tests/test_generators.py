import math
import random

import pytest

from semimatch.bucket import class_index, deterministic_ratio_bound, run_deterministic
from semimatch.generators import (
    ExponentialClassWeights,
    RandomInstanceConfig,
    UniformWeights,
    permute_stream,
    random_instance,
    tight_instance,
    tight_instance_opt_weight,
)
from semimatch.oracle import max_weight_matching_exact


class TestTightInstance:
    def test_edge_count_formula(self):
        for k in (1, 2, 3, 5):
            stream = tight_instance(2.0, k, 1e-6)
            assert len(stream) == 4 * k + 3
            assert stream.num_vertices == 4 * k + 4

    def test_deterministic_output_is_center_edge(self):
        stream = tight_instance(2.0, 2, 1e-6)
        result = run_deterministic(stream, 2.0, 0.01)
        assert result.keys() == {(0, 1)}
        assert result.weight == 4.0

    def test_oracle_value_and_ratio(self):
        stream = tight_instance(2.0, 2, 1e-6)
        opt = max_weight_matching_exact(stream.edges).weight
        assert opt == pytest.approx(27.999994, abs=1e-12)
        assert opt == pytest.approx(tight_instance_opt_weight(2.0, 2, 1e-6), abs=1e-12)
        ratio = opt / run_deterministic(stream, 2.0, 0.01).weight
        assert ratio == pytest.approx(6.9999985, abs=1e-9)
        assert ratio < deterministic_ratio_bound(2.0)

    def test_class_roles(self):
        gamma, k = 3.513, 3
        stream = tight_instance(gamma, k, 1e-6)
        for e in stream.edges:
            assert class_index(e.weight, gamma) in range(k + 1)

    def test_partial_order_center_before_outer(self):
        stream = tight_instance(2.0, 3, 1e-6)
        position = {e.key: i for i, e in enumerate(stream.edges)}
        x, y = 0, 1
        for i in range(3):
            alpha, beta, a, b = 2 + 4 * i, 3 + 4 * i, 4 + 4 * i, 5 + 4 * i
            assert position[(min(alpha, x), max(alpha, x))] < position[(alpha, a)]
            assert position[(min(y, beta), max(y, beta))] < position[(beta, b)]
        ak, bk = 2 + 4 * 3, 3 + 4 * 3
        assert position[(x, y)] < position[(min(ak, x), max(ak, x))]
        assert position[(x, y)] < position[(min(bk, y), max(bk, y))]

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            tight_instance(2.0, 2, 1.5)
        with pytest.raises(ValueError):
            tight_instance(2.0, 2, 0.0)

    def test_gamma_two_is_the_lowest_accepted(self):
        assert len(tight_instance(2.0, 1, 0.5).edges) == 7
        below = math.nextafter(2.0, 0.0)
        with pytest.raises(ValueError) as info:
            tight_instance(below, 1, 0.5)
        assert str(info.value) == f"gamma must be finite and at least 2, got {below}"

    @pytest.mark.parametrize("eps", [0.0, 1.0])
    def test_eps_bounds_are_open(self, eps):
        with pytest.raises(ValueError) as info:
            tight_instance(2.0, 1, eps)
        assert str(info.value) == (
            f"eps must lie in (0, gamma-1) to keep weights positive and ordered, got {eps}")

    @pytest.mark.parametrize("gamma", [math.inf, math.nan])
    def test_rejects_non_finite_gamma(self, gamma):
        with pytest.raises(ValueError, match="^gamma must be finite"):
            tight_instance(gamma, 1, 1.0)

    @pytest.mark.parametrize("k, message", [
        (1.5, "k must be a positive integer, got 1.5"),
        (True, "k must be a positive integer, got True"),
        (2.0, "k must be a positive integer, got 2.0")])
    def test_rejects_non_int_k(self, k, message):
        with pytest.raises(ValueError) as info:
            tight_instance(2.0, k, 1e-6)
        assert str(info.value) == message

    def test_rejects_top_level_outside_its_class(self):
        # Level 0's 2 - eps rounds to the float below 2, but the top
        # edges' 4 - eps rounds to 4, which is class 2.
        with pytest.raises(ValueError, match="level-1 weights inside class 1"):
            tight_instance(2.0, 1, 1.5 * 2 ** -53)

    def test_rejects_eps_below_float_resolution(self):
        # 2^41 - 1e-6 rounds back to 2^41, which would shift the class role
        with pytest.raises(ValueError, match="class"):
            tight_instance(2.0, 45, 1e-6)

    @pytest.mark.parametrize("build", [tight_instance, tight_instance_opt_weight])
    @pytest.mark.parametrize("gamma, k", [(2.0, 2000), (1e200, 2)])
    def test_rejects_a_weight_beyond_the_float_range(self, build, gamma, k):
        with pytest.raises(ValueError) as info:
            build(gamma, k, 0.5)
        assert str(info.value) == f"gamma**(k+1) must be a finite float, got gamma={gamma}, k={k}"

    def test_opt_weight_checks_the_ladder_as_the_instance_does(self):
        for args in ((2.0, 2, 1.5), (2.0, 0, 1e-6), (2.0, 45, 1e-6)):
            with pytest.raises(ValueError) as built:
                tight_instance(*args)
            with pytest.raises(ValueError) as summed:
                tight_instance_opt_weight(*args)
            assert str(summed.value) == str(built.value)


class TestRandomInstance:
    def test_empty(self):
        stream = random_instance(RandomInstanceConfig(
            n=6, m=0, weight_law=UniformWeights(1, 2), seed=0))
        assert len(stream) == 0

    def test_same_seed_identical(self):
        config = RandomInstanceConfig(
            n=10, m=20, weight_law=UniformWeights(1, 100), seed=99)
        a = random_instance(config)
        b = random_instance(config)
        assert a.edges == b.edges

    def test_counts_and_ranges(self):
        stream = random_instance(RandomInstanceConfig(
            n=12, m=30, weight_law=UniformWeights(1, 100), seed=7))
        assert len(stream) == 30
        assert len({e.key for e in stream.edges}) == 30
        assert all(1 <= e.weight <= 100 for e in stream.edges)
        assert all(0 <= e.u < 12 and 0 <= e.v < 12 for e in stream.edges)

    def test_exponential_class_law(self):
        law = ExponentialClassWeights(gamma=2.0, depth=6)
        stream = random_instance(RandomInstanceConfig(n=20, m=60, weight_law=law, seed=1))
        classes = {class_index(e.weight, 2.0) for e in stream.edges}
        assert classes <= set(range(6))
        assert len(classes) >= 3

    def test_uniform_law_bounds(self):
        assert UniformWeights(1, 1).sample(random.Random(0)) == 1
        with pytest.raises(ValueError) as info:
            UniformWeights(0.0, 1.0)
        assert str(info.value) == "need 0 < lo <= hi and a finite hi, got [0.0, 1.0]"

    def test_uniform_law_refuses_non_finite_hi(self):
        with pytest.raises(ValueError, match="finite hi"):
            UniformWeights(1.0, math.inf)

    def test_exponential_class_law_refuses_overflow(self):
        assert ExponentialClassWeights(gamma=2.0, depth=1023).sample(random.Random(0)) < math.inf
        for gamma, depth in ((2.0, 1024), (2.0, 2000), (math.inf, 1)):
            with pytest.raises(ValueError, match="gamma\\*\\*depth must be a finite float"):
                ExponentialClassWeights(gamma=gamma, depth=depth)

    @pytest.mark.parametrize("gamma, depth, message", [
        (1.0, 3, "gamma must exceed 1, got 1.0"),
        (0.5, 3, "gamma must exceed 1, got 0.5"),
        (math.nan, 3, "gamma must exceed 1, got nan"),
        (2.0, 0, "depth must be a positive integer, got 0"),
        (2.0, -1, "depth must be a positive integer, got -1"),
        (2.0, 2.5, "depth must be a positive integer, got 2.5"),
        (2.0, True, "depth must be a positive integer, got True")])
    def test_exponential_class_law_refusals(self, gamma, depth, message):
        with pytest.raises(ValueError) as info:
            ExponentialClassWeights(gamma=gamma, depth=depth)
        assert str(info.value) == message

    @pytest.mark.parametrize("n, m, message", [
        (12.5, 30, "n and m must be ints, got n=12.5, m=30"),
        (12, 2.5, "n and m must be ints, got n=12, m=2.5"),
        (True, 0, "n and m must be ints, got n=True, m=0"),
        (12, False, "n and m must be ints, got n=12, m=False")])
    def test_rejects_non_int_counts(self, n, m, message):
        with pytest.raises(ValueError) as info:
            RandomInstanceConfig(n=n, m=m, weight_law=UniformWeights(1, 2), seed=0)
        assert str(info.value) == message

    def test_m_too_large(self):
        with pytest.raises(ValueError, match="impossible"):
            RandomInstanceConfig(n=4, m=10, weight_law=UniformWeights(1, 2), seed=0)


class TestPermuteStream:
    def test_deterministic(self):
        stream = random_instance(RandomInstanceConfig(
            n=10, m=20, weight_law=UniformWeights(1, 100), seed=3))
        assert permute_stream(stream, 5).edges == permute_stream(stream, 5).edges

    def test_multiset_preserved(self):
        stream = random_instance(RandomInstanceConfig(
            n=10, m=20, weight_law=UniformWeights(1, 100), seed=3))
        shuffled = permute_stream(stream, 11)
        assert sorted(e.key for e in shuffled.edges) == sorted(e.key for e in stream.edges)
        assert shuffled.edges != stream.edges  # overwhelmingly likely for m=20

    def test_single_edge_unchanged(self):
        stream = random_instance(RandomInstanceConfig(
            n=4, m=1, weight_law=UniformWeights(1, 2), seed=0))
        assert permute_stream(stream, 123).edges == stream.edges


class TestStoredUnionOptimum:
    @pytest.mark.parametrize("gamma", [2.0, 3.513])
    def test_exact_matching_over_stored_edges_gains_nothing(self, gamma):
        # on the ladder, solving the stored classes exactly instead of
        # greedily still yields just the center edge once gamma >= 2
        from semimatch.bucket import stream_bucket_run

        stream = tight_instance(gamma, 3, 1e-6)
        state = stream_bucket_run(stream, gamma, 0.01)
        stored = [e for slot in state.matchings.values() for e in slot]
        stored_opt = max_weight_matching_exact(stored).weight
        assert stored_opt == state.finalize().weight == gamma ** 3


class TestGuaranteeUnderPermutation:
    def test_fifty_permutations(self):
        gamma, epsilon = 2.0, 0.01
        stream = random_instance(RandomInstanceConfig(
            n=14, m=35, weight_law=UniformWeights(1, 400), seed=21))
        opt = max_weight_matching_exact(stream.edges).weight
        bound = deterministic_ratio_bound(gamma) + gamma * epsilon
        for seed in range(50):
            alg = run_deterministic(permute_stream(stream, seed), gamma, epsilon)
            assert opt / alg.weight <= bound
