import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from semimatch.bucket import stream_bucket_run
from semimatch.core import Edge, Matching
from semimatch.generators import (
    RandomInstanceConfig,
    UniformWeights,
    random_instance,
    tight_instance,
)
from semimatch.preemptive import DEFAULT_VICTIMS, HoldFirst, ThresholdPreemptive, make_victim


def E(u, v, w):
    return Edge(u, v, w)


class TestThresholdPreemptive:
    def test_accepts_on_empty(self):
        alg = ThresholdPreemptive(1.0)
        alg.on_edge(E(0, 1, 1.0))
        assert alg.current_matching.keys() == {(0, 1)}

    def test_strict_comparison_rejects_equal(self):
        alg = ThresholdPreemptive(1.0)
        alg.on_edge(E(0, 1, 5.0))
        alg.on_edge(E(1, 2, 5.0))
        assert alg.current_matching.keys() == {(0, 1)}

    def test_preempts_both_blockers(self):
        alg = ThresholdPreemptive(1.0)
        alg.on_edge(E(0, 1, 2.0))
        alg.on_edge(E(2, 3, 2.0))
        assert alg.current_matching.keys() == {(0, 1), (2, 3)}
        alg.on_edge(E(1, 2, 5.0))
        assert alg.current_matching.keys() == {(1, 2)}

    def test_current_matching_lists_each_held_edge_once_in_acceptance_order(self):
        alg = ThresholdPreemptive(1.0)
        a, b, c = E(0, 1, 2.0), E(3, 2, 2.0), E(5, 4, 1.0)
        for e in (a, b, c):
            alg.on_edge(e)
        assert list(alg.current_matching) == [a, b, c]
        both = E(1, 2, 5.0)  # preempts a at vertex 1 and b at vertex 2
        alg.on_edge(both)
        assert list(alg.current_matching) == [c, both]
        refill = E(6, 3, 1.0)  # re-covers 3, freed when b went
        alg.on_edge(refill)
        assert list(alg.current_matching) == [c, both, refill]

    def test_current_matching_is_one_object_until_the_hold_changes(self):
        alg = ThresholdPreemptive(1.5)
        empty = alg.current_matching
        assert alg.current_matching is empty and not empty.edges
        alg.on_edge(E(0, 1, 2.0))  # accepted on an empty hold
        first = alg.current_matching
        assert first is not empty and first.keys() == {(0, 1)}
        alg.on_edge(E(1, 2, 3.0))  # declined: 3 is not above 1.5 * 2
        assert alg.current_matching is first
        alg.on_edge(E(2, 3, 1.0))  # accepted, nothing blocks it
        second = alg.current_matching
        assert second is not first and second.keys() == {(0, 1), (2, 3)}
        alg.on_edge(E(0, 3, 10.0))  # preempts both: 10 > 1.5 * 3
        third = alg.current_matching
        assert third is not second and third.keys() == {(0, 3)}
        assert alg.current_matching is third
        assert first.keys() == {(0, 1)}  # a returned hold is frozen

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=2),
           st.lists(st.floats(min_value=5e-324, max_value=1.79e308), min_size=3, max_size=3),
           st.sampled_from([1, 1.5, 1 + 1 / math.sqrt(2), 2, 3]),
           st.lists(st.booleans(), min_size=3, max_size=3))
    def test_accepts_exactly_above_c_times_the_blocked_weight(self, count, weights, c, flips):
        # Blockers (0, 1) and (2, 3), each in a drawn orientation; the offered edge
        # meets none of them at 4-5, one at 1-4 or both at 1-2, either end first.
        held = [E(*((1, 0) if flips[0] else (0, 1)), weights[0]),
                E(*((3, 2) if flips[1] else (2, 3)), weights[1])][:count]
        ends = [(4, 5), (1, 4), (1, 2)][count]
        edge = E(*(ends[::-1] if flips[2] else ends), weights[2])
        alg = ThresholdPreemptive(c)
        for f in held:
            alg.on_edge(f)
        try:
            accept = edge.weight > c * math.fsum(f.weight for f in held)
        except OverflowError:  # the two blockers' sum leaves the float range, as does the hold's
            with pytest.raises(OverflowError):
                alg.on_edge(edge)
            return
        assert list(alg.current_matching) == held
        alg.on_edge(edge)
        assert list(alg.current_matching) == ([edge] if accept else held)

    def test_two_blockers_past_the_float_range_raise(self):
        # Their exact sum, 3.4e308, has no float: fsum raises rather than round it to inf.
        alg = ThresholdPreemptive(1.0)
        alg.on_edge(E(0, 1, 1.7e308))
        alg.on_edge(E(2, 3, 1.7e308))
        with pytest.raises(OverflowError, match="intermediate overflow in fsum"):
            alg.on_edge(E(1, 2, 1.0))

    def test_an_int_factor_rounds_its_product_as_a_float(self):
        # 3 * (2**53 - 3) is 3 * 2**53 - 9 exactly, which rounds to the offered weight.
        alg = ThresholdPreemptive(3)
        alg.on_edge(E(0, 1, 2 ** 53 - 3))
        alg.on_edge(E(1, 2, 3 * 2 ** 53 - 8))
        assert alg.current_matching.keys() == {(0, 1)}

    def test_duplicate_presentation_rejected(self):
        alg = ThresholdPreemptive(1.0)
        alg.on_edge(E(0, 1, 1.0))
        with pytest.raises(ValueError, match="twice"):
            alg.on_edge(E(1, 0, 2.0))

    def test_factor_below_one_rejected(self):
        with pytest.raises(ValueError):
            ThresholdPreemptive(0.5)


class TestHoldFirst:
    def test_basic(self):
        alg = HoldFirst()
        for e in (E(0, 1, 1.0), E(1, 2, 50.0), E(2, 3, 1.0)):
            alg.on_edge(e)
        assert alg.current_matching.keys() == {(0, 1), (2, 3)}

    def test_current_matching_is_one_object_until_the_hold_changes(self):
        alg = HoldFirst()
        empty = alg.current_matching
        assert alg.current_matching is empty and not empty.edges
        alg.on_edge(E(0, 1, 1.0))
        first = alg.current_matching
        assert first is not empty and first.keys() == {(0, 1)}
        alg.on_edge(E(1, 2, 50.0))  # vertex 1 is covered: declined
        assert alg.current_matching is first
        alg.on_edge(E(2, 3, 1.0))
        second = alg.current_matching
        assert second is not first and second.keys() == {(0, 1), (2, 3)}
        assert alg.current_matching is second


class TestRegistry:
    def test_names(self):
        assert isinstance(make_victim("hold-first"), HoldFirst)
        alg = make_victim("threshold:1.5")
        assert isinstance(alg, ThresholdPreemptive)
        assert alg.improvement_factor == 1.5

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown victim"):
            make_victim("greedy")
        with pytest.raises(ValueError, match="threshold factor"):
            make_victim("threshold:zippy")

    @pytest.mark.parametrize("name", ["threshold:nan", "threshold:inf"])
    def test_factor_must_be_finite(self, name):
        # c = nan or inf would reject even a free edge: w > c * 0 is false.
        with pytest.raises(ValueError, match="finite"):
            make_victim(name)

    def test_default_victims_constructible(self):
        for name in DEFAULT_VICTIMS:
            make_victim(name)


def replay_irrevocability(victim, edges):
    """Feed edges, recording held keys after every call; each edge must be
    held over one contiguous interval starting at its own presentation."""
    history = []
    for e in edges:
        victim.on_edge(e)
        history.append(victim.current_matching.keys())
    for idx, e in enumerate(edges):
        held_at = [e.key in keys for keys in history[idx:]]
        if True in held_at:
            first = held_at.index(True)
            assert first == 0, f"{e} appeared only after its presentation step"
            span = held_at[: held_at.index(False)] if False in held_at else held_at
            assert all(span)
            assert not any(held_at[len(span):]), f"{e} reappeared after being dropped"


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from([1.0, 1.3, 2.0]),
       st.integers(min_value=1, max_value=40))
def test_irrevocability_property(seed, factor, m):
    rng = random.Random(seed)
    stream = random_instance(RandomInstanceConfig(
        n=10, m=min(m, 45), weight_law=UniformWeights(0.5, 50), seed=seed))
    replay_irrevocability(ThresholdPreemptive(factor), stream.edges)
    replay_irrevocability(HoldFirst(), stream.edges)


def test_rejected_edges_were_sufficiently_blocked():
    # whenever threshold(c) rejects, the blockers it held weighed >= w/c
    c = 1.5
    alg = ThresholdPreemptive(c)
    stream = random_instance(RandomInstanceConfig(
        n=12, m=40, weight_law=UniformWeights(1, 100), seed=13))
    for e in stream.edges:
        held_before = {v: f for f in alg.current_matching for v in (f.u, f.v)}
        alg.on_edge(e)
        if e.key not in alg.current_matching.keys():
            blockers = {f.key: f for f in (held_before.get(e.u), held_before.get(e.v))
                        if f is not None}
            assert math.fsum(f.weight for f in blockers.values()) >= e.weight / c


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bucketed_run_stores_edges_that_are_not_a_matching(k):
    # Why the bucketed run is not preemptive: the class matchings it stores
    # overlap, and only finalize turns them into one matching.
    stream = tight_instance(2.0, k, 1e-6)
    state = stream_bucket_run(stream, 2.0, 0.01)
    with pytest.raises(ValueError, match="not a matching"):
        Matching(e for slot in state.matchings.values() for e in slot)
    assert state.finalize().keys() == {(0, 1)}
