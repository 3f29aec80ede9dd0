import math
import random
import re
import sys

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from semimatch import bucket
from semimatch.bucket import (
    MAX_COPIES,
    choose_q,
    class_index,
    delta_grid,
    deterministic_ratio_bound,
    ensemble_ratio_bound,
    ensemble_states,
    expected_rounded_weight,
    randomized_ratio_bound,
    run_deterministic,
    run_ensemble,
    stream_bucket_run,
)
from semimatch.certificate import filter_to_final_window
from semimatch.core import Edge, GreedyMatching, Matching, StreamSource
from semimatch.generators import (
    ExponentialClassWeights,
    RandomInstanceConfig,
    UniformWeights,
    random_instance,
    tight_instance,
)
from semimatch.oracle import max_weight_matching_exact

from model import ModelCopy


def E(u, v, w):
    return Edge(u, v, w)


def power(base, exponent):
    """base ** exponent, or +inf where it overflows."""
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


class TestClassIndex:
    def test_unit_weight(self):
        assert class_index(1.0, 2.0, 0.0) == 0

    def test_five_in_class_two(self):
        assert class_index(5.0, 2.0, 0.0) == 2

    def test_shifted(self):
        assert class_index(2 ** 3.2, 2.0, 0.5) == 2

    def test_exact_floor_belongs_to_class(self):
        # weights exactly at gamma^(i+delta) land in class i
        for gamma, delta, i in [(2.0, 0.0, 3), (3.513, 0.0, 3), (3.513, 0.25, -2), (1.7, 0.9, 11)]:
            w = gamma ** (i + delta)
            assert class_index(w, gamma, delta) == i

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            class_index(0.0, 2.0, 0.0)

    @pytest.mark.parametrize("w, gamma, name", [
        (math.inf, 2.0, "weight"), (math.nan, 2.0, "weight"),
        (1.0, math.inf, "gamma"), (1.0, math.nan, "gamma")])
    def test_rejects_non_finite(self, w, gamma, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            class_index(w, gamma)

    @given(st.floats(min_value=1e-9, max_value=1e12),
           st.floats(min_value=1.01, max_value=20.0),
           st.floats(min_value=0.0, max_value=0.999))
    def test_containment(self, w, gamma, delta):
        i = class_index(w, gamma, delta)
        assert gamma ** (i + delta) <= w < gamma ** (i + 1 + delta)

    def test_top_of_float_range(self):
        # the ceiling 2**1024 overflows a float and counts as +inf
        assert class_index(1.7e308, 2.0) == 1023
        assert class_index(sys.float_info.max, 2.0) == 1023

    @given(st.floats(min_value=5e-324, max_value=1.79e308),
           st.floats(min_value=1.01, max_value=20.0),
           st.sampled_from(delta_grid(14)))
    def test_containment_over_float_range(self, w, gamma, delta):
        i = class_index(w, gamma, delta)
        assert power(gamma, i + delta) <= w < power(gamma, i + 1 + delta)


    @given(st.floats(min_value=5e-324, max_value=1.79e308),
           st.floats(min_value=1.0, max_value=20.0, exclude_min=True),
           st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    def test_containment_for_every_gamma(self, w, gamma, delta):
        i = class_index(w, gamma, delta)
        assert bucket._power(gamma, i + delta) <= w < bucket._power(gamma, i + 1 + delta)

    @pytest.mark.parametrize("gamma, cell", [
        (1 + 1e-9, class_index),
        # One copy's grid, whose cells are the classes at delta 0.
        (1.000002, lambda w, gamma: bucket._Grid(gamma, 1.0, 3, (0.0,))._cell(w))],
        ids=["class_index", "grid_cell"])
    def test_run_of_equal_floors_is_bisected(self, monkeypatch, gamma, cell):
        calls, power = 0, bucket._power

        def counting(base, exponent):
            nonlocal calls
            calls += 1
            return power(base, exponent)

        monkeypatch.setattr(bucket, "_power", counting)
        # About ln(3)/ln(gamma) classes just above 5e-324 have floors that
        # round to one float; a walk one class at a time takes a step for
        # each of them, or does not finish.
        i = cell(5e-324, gamma)
        assert calls <= 200
        assert power(gamma, i) <= 5e-324 < power(gamma, i + 1)


class TestLast:
    @given(st.integers(min_value=-10 ** 18, max_value=10 ** 18),
           st.integers(min_value=-10 ** 18, max_value=10 ** 18))
    def test_finds_the_last_integer_that_holds(self, k, t):
        calls = 0

        def holds(i):
            nonlocal calls
            calls += 1
            return i <= t

        assert bucket._last(k, holds) == t
        assert calls <= 2 * math.log2(abs(k - t) + 1) + 4


def shifted_run(stream, gamma, epsilon, delta):
    """One pass with classes shifted by gamma^delta, then finalize."""
    return stream_bucket_run(stream, gamma, epsilon, delta).finalize()


def make_state(gamma=2.0, epsilon=0.1, n=4, delta=0.0):
    return stream_bucket_run(StreamSource(n, ()), gamma, epsilon, delta)


class TestProcessEdge:
    def test_first_edge_always_accepted(self):
        state = make_state()
        state.process(E(0, 1, 1.0))
        assert state._grid.w_max == 1.0
        assert [e.key for e in state.matchings[0]] == [(0, 1)]

    def test_same_class_conflict_discarded(self):
        state = make_state(n=6)
        state.process(E(0, 1, 5.0))
        state.process(E(1, 2, 6.0))
        assert [e.key for e in state.matchings[2]] == [(0, 1)]

    def test_same_class_disjoint_appended(self):
        state = make_state(n=6)
        state.process(E(0, 1, 5.0))
        state.process(E(2, 3, 7.0))
        assert [e.key for e in state.matchings[2]] == [(0, 1), (2, 3)]
        assert state.stored_edge_count == 2

    def test_below_window_discarded_forever(self):
        state = make_state(gamma=2.0, epsilon=1.0, n=4)
        state.process(E(0, 1, 1024.0))
        # threshold = 2*1*1024/4 = 512; class 8 straddles, classes below die
        state.process(E(2, 3, 1.0))
        assert state.stored_edge_count == 1


class TestPruneClasses:
    def test_threshold_example(self):
        # gamma=2, eps=0.5, n=8: w_max 1 -> 1024 gives threshold 128,
        # classes with 2^(i+1) <= 128 (i <= 6) must be deleted
        state = make_state(gamma=2.0, epsilon=0.5, n=8)
        state.process(E(0, 1, 1.0))
        assert sorted(state.matchings) == [0]
        state.process(E(2, 3, 1024.0))
        assert state.window == (7, 10)
        assert sorted(state.matchings) == [10]
        assert state.stored_edge_count == 1

    def test_threshold_example_progressive(self):
        # same deletions applied max-by-max: only the top four classes survive
        state = make_state(gamma=2.0, epsilon=0.5, n=8)
        for i in range(11):
            state.process(E(2 * i, 2 * i + 1, float(2 ** i)))
        assert sorted(state.matchings) == [7, 8, 9, 10]
        assert state.window == (7, 10)
        assert state.stored_edge_count == 4
        assert state.stored_edge_peak == 4

    def test_one_count_per_pruning_move(self, monkeypatch):
        # gamma=2, eps=0.5, n=16: classes 0..4 each hold an edge; w_max
        # 2**20 moves the threshold to 2**16 and prunes all five at once.
        state = make_state(gamma=2.0, epsilon=0.5, n=16)
        for i in range(5):
            state.process(E(2 * i, 2 * i + 1, float(2 ** i)))
        assert sorted(state.matchings) == [0, 1, 2, 3, 4]
        calls, count = 0, bucket._Grid.count

        def counting(grid, j):
            nonlocal calls
            calls += 1
            return count(grid, j)

        monkeypatch.setattr(bucket._Grid, "count", counting)
        state.process(E(10, 11, float(2 ** 20)))
        # The copy's count is read once for the move, not once per pruned slot.
        assert calls == 1
        assert sorted(state.matchings) == [20]
        assert state.stored_edge_peak == 5

    def test_straddling_class_retained(self):
        # threshold falls inside class lo: the class intersects and stays
        state = make_state(gamma=2.0, epsilon=0.5, n=8)
        state.process(E(0, 1, 100.0))  # class 6
        state.process(E(2, 3, 1024.0))  # threshold 128 inside class 7
        assert 6 not in state.matchings
        state2 = make_state(gamma=2.0, epsilon=0.5, n=8)
        state2.process(E(0, 1, 150.0))  # class 7, straddles threshold 128
        state2.process(E(2, 3, 1024.0))
        assert [e.key for e in state2.matchings[7]] == [(0, 1)]


FULL_RANGE = st.floats(min_value=5e-324, max_value=1.79e308)


@st.composite
def window_cases(draw):
    """A bucket config and weights that stress the window's class floors.

    Weights come from the whole float range, from within a few classes of
    one weight, or from class floors (and their float neighbours) near one
    weight, both for w_max and for the threshold 2*epsilon*w_max/n.
    """
    gamma = draw(st.floats(min_value=1.01, max_value=20.0))
    delta = draw(st.sampled_from(delta_grid(14)))
    epsilon = draw(st.floats(min_value=1e-3, max_value=1e3))
    n = draw(st.integers(min_value=2, max_value=1000))
    kind = draw(st.sampled_from(["full", "narrow", "floors"]))
    if kind == "full":
        weights = draw(st.lists(FULL_RANGE, min_size=1, max_size=40))
    elif kind == "narrow":
        base = draw(FULL_RANGE)
        span = st.floats(min_value=1.0, max_value=30.0)
        weights = [base * f for f in draw(st.lists(span, min_size=1, max_size=40))]
    else:
        k = class_index(draw(FULL_RANGE), gamma, delta)
        weights = []
        for _ in range(draw(st.integers(1, 40))):
            w = power(gamma, k + draw(st.integers(-3, 3)) + delta)
            if draw(st.booleans()):
                w *= n / (2.0 * epsilon)  # puts the threshold near a floor
            for _ in range(draw(st.integers(0, 2))):
                w = math.nextafter(w, draw(st.sampled_from([0.0, math.inf])))
            weights.append(w)
    weights = [w for w in weights if 0 < w < 1.79e308]
    if draw(st.booleans()):
        weights.sort()
    return gamma, delta, epsilon, n, weights


class TestWindowCache:
    """The grid's fine cells give the same window and slots as class_index."""

    @settings(max_examples=300)
    @given(window_cases(), st.randoms(use_true_random=False))
    def test_window_and_slots_exact(self, case, rng):
        gamma, delta, epsilon, n, weights = case
        state = make_state(gamma=gamma, epsilon=epsilon, n=n, delta=delta)
        edges = []
        for w in weights:
            u, v = rng.sample(range(6), 2)
            edges.append(E(u, v, w))
            state.process(edges[-1])
            lo, hi = state.window
            assert (lo, hi) == (class_index(state._grid.threshold, gamma, delta),
                                class_index(state._grid.w_max, gamma, delta))
            assert all(i >= lo for i in state.matchings)
            for i, slot in state.matchings.items():
                assert all(class_index(e.weight, gamma, delta) == i for e in slot)
        # The certificate's filter compares against the floor of class lo.
        assert filter_to_final_window(state, edges) == [
            e for e in edges if class_index(e.weight, gamma, delta) >= lo]

    def test_weights_at_window_floors(self):
        # gamma=2, eps=0.5, n=8, w_max=1024: threshold 128 = 2^7, window (7, 10)
        below = math.nextafter(128.0, 0.0)
        under_top = math.nextafter(1024.0, 0.0)
        state = make_state(gamma=2.0, epsilon=0.5, n=8)
        for u, w in enumerate([1024.0, 128.0, below, under_top, 1024.0]):
            state.process(E(2 * u, 2 * u + 1, w))
        assert state.window == (7, 10)
        assert {i: [e.weight for e in slot] for i, slot in state.matchings.items()} \
            == {10: [1024.0, 1024.0], 7: [128.0], 9: [under_top]}

    def test_threshold_never_falls_where_the_product_overflows(self):
        # 2*eps*w1 is the largest finite product and 2*eps*w0, w0 the float
        # after w1, overflows.  Divided by n first, w0's threshold would fall
        # an ulp below w1's, which is the floor of class 80.
        gamma, epsilon, n, delta = 5834.438195258898, 0.5117887789824292, 5972, 0.8493555705315856
        w1 = 1.7562842413589084e+308
        w0 = math.nextafter(w1, math.inf)
        assert 2.0 * epsilon * w1 < math.inf == 2.0 * epsilon * w0
        state = make_state(gamma=gamma, epsilon=epsilon, n=n, delta=delta)
        model = ModelCopy(gamma, epsilon, n, delta)
        state.process(E(0, 1, w1))
        model.process(E(0, 1, w1))
        threshold = state._grid.threshold
        assert state.floor(80) == threshold
        below = math.nextafter(threshold, 0.0)
        for e in (E(2, 3, w0), E(4, 5, below)):
            state.process(e)
            model.process(e)
        assert state._grid.threshold >= threshold
        assert state.window == (class_index(state._grid.threshold, gamma, delta),
                                class_index(w0, gamma, delta)) == (80, 81)
        assert state.matchings == model.matchings
        assert sorted(state.matchings) == [80, 81]

    def test_cell_derivations_on_ascending_stream(self, monkeypatch):
        edges = ascending_class_edges()
        gamma, epsilon = 3.513, 0.5
        calls = 0
        cell = bucket._Grid._cell

        def counting(grid, w):
            nonlocal calls
            calls += 1
            return cell(grid, w)

        monkeypatch.setattr(bucket._Grid, "_cell", counting)
        for delta in delta_grid(14)[:3]:
            state = make_state(gamma=gamma, epsilon=epsilon, n=1000, delta=delta)
            calls, moves = 0, 0
            for e in edges:
                before = state.window
                state.process(e)
                moves += state.window != before
            # Only a move derives a cell: an interior edge reads the table.
            assert calls <= 2 * moves
            # Every arrival raises w_max, yet the window moves rarely.
            assert calls < len(edges) // 10

    def test_one_feed_moves_only_when_a_copys_window_changes(self, monkeypatch):
        # One feed over the whole stream reads both triggers again from the
        # floor table after each move, and each move derives two cells, those
        # of w_max and of the threshold.
        edges = ascending_class_edges()
        gamma, epsilon, q = 3.513, 0.5, 14
        moves = cells = 0
        move, cell = bucket._Grid._move, bucket._Grid._cell

        def counting_move(grid, threshold):
            nonlocal moves
            moves += 1
            return move(grid, threshold)

        def counting_cell(grid, w):
            nonlocal cells
            cells += 1
            return cell(grid, w)

        monkeypatch.setattr(bucket._Grid, "_move", counting_move)
        monkeypatch.setattr(bucket._Grid, "_cell", counting_cell)
        ensemble_states(StreamSource(1000, edges), gamma, epsilon, q)
        models = [ModelCopy(gamma, epsilon, 1000, delta) for delta in delta_grid(q)]
        changes, windows = 0, None
        for e in edges:
            for model in models:
                model.process(e)
            now = [model.window for model in models]
            changes += now != windows
            windows = now
        assert (moves, cells) == (changes, 2 * changes)
        assert changes < len(edges) // 5


def ascending_class_edges():
    """2,000 edges over 40 binary weight classes, in ascending weight order."""
    stream = random_instance(RandomInstanceConfig(
        n=1000, m=2000, weight_law=ExponentialClassWeights(2.0, 40), seed=1))
    return sorted(stream.edges, key=lambda e: (e.weight, e.key))


class TestEnsembleDriver:
    """The ensemble's copies share one pass, yet each ends as if it ran alone."""

    @settings(max_examples=200)
    @given(window_cases(), st.integers(min_value=1, max_value=8),
           st.randoms(use_true_random=False))
    def test_each_copy_equals_its_own_run(self, case, q, rng):
        gamma, _, epsilon, n, weights = case
        # Few vertices, so that edges of one class often share an end.
        pairs = [(u, v) for v in range(min(n, 10)) for u in range(v)]
        rng.shuffle(pairs)
        stream = StreamSource(n, [E(u, v, w) for (u, v), w in zip(pairs, weights)])
        for j, state in enumerate(ensemble_states(stream, gamma, epsilon, q)):
            alone = stream_bucket_run(stream, gamma, epsilon, j / q)
            assert state._grid.w_max == alone._grid.w_max
            for field in ("window", "stored_edge_count", "stored_edge_peak", "edges_processed"):
                assert getattr(state, field) == getattr(alone, field), field
            assert state.matchings == alone.matchings

    def test_threshold_derived_once_per_raise(self, monkeypatch):
        edges = ascending_class_edges()
        derived = 0
        threshold = bucket._Grid.threshold

        def counting(grid):
            nonlocal derived
            derived += 1
            return threshold.fget(grid)

        monkeypatch.setattr(bucket._Grid, "threshold", property(counting))
        states = ensemble_states(StreamSource(1000, edges), 3.513, 0.5, 14)
        raises, w_max = 0, 0.0
        for e in edges:
            raises += e.weight > w_max
            w_max = max(w_max, e.weight)
        assert raises == len(edges) == 2000
        # The 14 copies share w_max, so the threshold is derived once per
        # raise, not once per copy (28,000).
        assert derived <= raises
        assert sum(state.edges_processed for state in states) == 14 * len(edges)


@st.composite
def grid_cases(draw):
    """A weight, a gamma in (1, 20] and a number of copies q in 1..50.

    Below gamma = 1.01 the weight is a normal float: just above 5e-324 a
    floor keeps one value over about ln(3)/ln(gamma) classes, and the
    cell derivation walks them one by one.
    """
    gamma = draw(st.floats(min_value=1.0, max_value=20.0, exclude_min=True))
    low = 5e-324 if gamma >= 1.01 else sys.float_info.min
    return draw(st.floats(min_value=low, max_value=1.79e308)), gamma, draw(st.integers(1, 50))


class TestFineGrid:
    """One fine cell per edge gives each copy the class class_index gives it."""

    @settings(max_examples=200)
    @given(grid_cases())
    def test_cell_gives_every_copy_its_class(self, case):
        w, gamma, q = case
        try:
            grid = bucket._Grid(gamma, 1.0, 2, tuple(delta_grid(q)))
        except ValueError:  # a window of more grid positions than the limit
            assume(False)
        # A fresh grid computes each floor; after an edge, its table holds them.
        k = grid._cell(w)
        assert [(k - j) // q for j in range(q)] == \
            [class_index(w, gamma, j / q) for j in range(q)]
        grid.feed(((0, 1, w, None),))
        assert grid.top == grid._cell(w) == k

    def test_decreasing_floors_are_refused(self, monkeypatch):
        power = bucket._power

        def dented(base, exponent):
            # Class 3 of copy 0 at gamma=2, q=4: 8/3, below 2**2.75.
            return power(base, exponent) / (3.0 if exponent == 3 else 1.0)

        monkeypatch.setattr(bucket, "_power", dented)
        with pytest.raises(ValueError, match=r"^gamma=2\.0, q=4: the class floors decrease"):
            ensemble_states(StreamSource(2, [E(0, 1, 8.0)]), 2.0, 0.5, 4)

    def test_each_floor_computed_once_as_w_max_climbs(self, monkeypatch):
        calls, power = 0, bucket._power

        def counting(base, exponent):
            nonlocal calls
            calls += 1
            return power(base, exponent)

        monkeypatch.setattr(bucket, "_power", counting)
        q = 14
        # Each edge raises w_max by three classes, 42 positions, so every
        # edge moves the window past the end of the floor table.
        edges = [(t, t + 500, 1.5 * 8.0 ** t, None) for t in range(300)]
        grid = ensemble_states(StreamSource(1000, ()), 2.0, 0.01, q)[0]._grid
        grid.feed(edges[:1])
        first = grid.alive
        grid.feed(edges[1:])
        # Every floor from the first window's alive position up to top + q
        # is computed once; a move's two cell derivations add a few.
        assert calls <= (grid.top + q - first + 1) + 4 * len(edges)

    def test_full_range_ascending_stream(self):
        gamma, epsilon, q, n, m = 3.513, 0.5, 14, 1000, 600
        low, high = math.log(5e-324), math.log(1.79e308)
        weights = [5e-324] + [math.exp(low + (high - low) * t / m) for t in range(1, m - 1)] \
            + [1.79e308]
        rng = random.Random(5)
        pairs = rng.sample([(u, v) for v in range(50) for u in range(v)], m)
        edges = [E(u, v, w) for (u, v), w in zip(pairs, sorted(weights))]
        states = ensemble_states(StreamSource(n, ()), gamma, epsilon, q)
        grid, peaks, bases = states[0]._grid, [0] * q, []
        for e in edges:
            states[0].process(e)
            peaks = [max(peak, state.stored_edge_count) for peak, state in zip(peaks, states)]
            # Bits, slots and floors below the alive position are dropped as it rises.
            bound = 2 * (grid.top - grid.alive) + 1
            assert len(grid.slots) <= bound
            assert all(bits.bit_length() <= bound for bits in grid.cover.values())
            assert len(grid.floors) <= bound + q
            bases.append(grid.base)
        assert bases[-1] - bases[0] > 1100 * q  # the window climbed about 1,150 classes
        # Each copy's peak, read only before a prune and at the end, is its
        # count's largest value after any edge.
        assert [state.stored_edge_peak for state in states] == peaks
        stream = StreamSource(n, edges)
        for j, state in enumerate(states):
            delta = j / q
            alone = stream_bucket_run(stream, gamma, epsilon, delta)
            assert state._grid.w_max == alone._grid.w_max
            for field in ("window", "stored_edge_count", "stored_edge_peak", "edges_processed"):
                assert getattr(state, field) == getattr(alone, field), field
            assert state.matchings == alone.matchings
            assert state.window == (class_index(state._grid.threshold, gamma, delta),
                                    class_index(state._grid.w_max, gamma, delta))
            for i, slot in state.matchings.items():
                assert all(class_index(e.weight, gamma, delta) == i for e in slot)


@st.composite
def model_cases(draw):
    """A pass of q in {1, 2, 3, 14} copies and up to 40 edges on 10 vertices.

    Weights are uniform, log-uniform over e^±700, subnormal, near the
    largest float, tied, or on the grid's floors and their neighbours, in
    arrival order or sorted.
    """
    q = draw(st.sampled_from([1, 2, 3, 14]))
    gamma = draw(st.floats(min_value=1.01, max_value=20.0))
    epsilon = draw(st.floats(min_value=1e-3, max_value=1e3))
    n = draw(st.integers(min_value=10, max_value=1000))
    kind = draw(st.sampled_from(["uniform", "log", "subnormal", "huge", "tied", "floors"]))
    if kind == "uniform":
        weight = st.floats(min_value=1.0, max_value=100.0)
    elif kind == "log":
        weight = st.floats(min_value=-700.0, max_value=700.0).map(math.exp)
    elif kind == "subnormal":
        weight = st.integers(min_value=1, max_value=1000).map(lambda k: k * 5e-324)
    elif kind == "huge":
        weight = st.floats(min_value=1.7e308, max_value=1.79e308)
    elif kind == "tied":
        weight = st.sampled_from(draw(st.lists(
            st.floats(min_value=-700.0, max_value=700.0).map(math.exp), min_size=1, max_size=3)))
    else:
        k = class_index(math.exp(draw(st.floats(min_value=-700.0, max_value=700.0))), gamma)
        floor = st.builds(lambda i, j: power(gamma, i + j / q),
                          st.integers(k - 3, k + 3), st.integers(0, q - 1))
        weight = floor | floor.map(lambda w: math.nextafter(w, 0.0)) \
            | floor.map(lambda w: math.nextafter(w, math.inf))
    weights = [w for w in draw(st.lists(weight, min_size=1, max_size=40)) if 0 < w < 1.79e308]
    if draw(st.booleans()):
        weights.sort()
    pairs = draw(st.permutations([(u, v) for v in range(10) for u in range(v)]))
    return gamma, epsilon, q, StreamSource(n, [E(u, v, w) for (u, v), w in zip(pairs, weights)])


class TestModel:
    """Every copy of the grid's pass reads as the paper's pass of one copy (tests/model.py)."""

    @settings(max_examples=300, deadline=None)
    @given(model_cases())
    def test_every_copy_equals_the_model(self, case):
        gamma, epsilon, q, stream = case
        states = ensemble_states(stream, gamma, epsilon, q)
        for delta, state in zip(delta_grid(q), states):
            model = ModelCopy(gamma, epsilon, stream.num_vertices, delta)
            for e in stream.edges:
                model.process(e)
            assert state.window == model.window
            assert state.matchings == model.matchings
            assert state.stored_edge_peak == model.stored_edge_peak
            expected = model.finalize()
            try:
                final = state.finalize().edges
            except OverflowError:  # the exact sum of the weights exceeds the largest float
                with pytest.raises(OverflowError):
                    Matching(expected)
            else:
                assert final == tuple(expected)


@st.composite
def tied_streams(draw):
    """Up to 40 edges on 10 vertices, their weights drawn from at most four values.

    A value may be 1.7e308, so that a copy's matching can weigh more than
    the largest float.
    """
    values = draw(st.lists(st.floats(min_value=1.0, max_value=100.0) | st.just(1.7e308),
                           min_size=1, max_size=4))
    weights = draw(st.lists(st.sampled_from(values), min_size=1, max_size=40))
    pairs = draw(st.permutations([(u, v) for v in range(10) for u in range(v)]))
    return StreamSource(10, [E(u, v, w) for (u, v), w in zip(pairs, weights)])


class TestFinalize:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([1, 3, 14]), st.sampled_from([2.0, 3.513]), tied_streams())
    @example(14, 2.0, StreamSource(4, [E(0, 1, 1.7e308), E(2, 3, 1.7e308)]))
    def test_every_copy_finalizes_as_a_loop_of_add(self, q, gamma, stream):
        for state in ensemble_states(stream, gamma, 0.5, q):
            stored = [e for _, slot in sorted(state.matchings.items(), reverse=True) for e in slot]
            added = GreedyMatching()
            kept = [added.add(e) for e in stored]
            extended = GreedyMatching()
            extended.extend(stored)
            assert extended.edges == added.edges == [e for e, k in zip(stored, kept) if k]
            assert extended.cover == added.cover
            try:
                checked = Matching(added.edges)
            except OverflowError:  # the exact sum of the weights exceeds the largest float
                with pytest.raises(OverflowError):
                    state.finalize()
            else:
                assert state.finalize() == checked  # the same edges and the same weight

    def test_greedy_by_class(self):
        state = make_state(gamma=2.0, epsilon=0.1, n=6)
        state.process(E(0, 1, 2.0))  # class 1
        state.process(E(1, 2, 1.0))  # class 0
        state.process(E(3, 4, 1.0))  # class 0
        result = state.finalize()
        assert result.keys() == {(0, 1), (3, 4)}
        assert result.weight == 3.0

    def test_tight_instance_single_edge(self):
        stream = tight_instance(2.0, 2, 1e-6)
        state = stream_bucket_run(stream, 2.0, 0.1)
        result = state.finalize()
        assert result.keys() == {(0, 1)}
        assert result.weight == 4.0

    def test_empty_state(self):
        assert make_state().finalize().weight == 0.0


class TestRunDeterministic:
    def test_tight_k3(self):
        stream = tight_instance(2.0, 3, 1e-6)
        alg = run_deterministic(stream, 2.0, 0.01)
        assert alg.weight == 8.0
        opt = max_weight_matching_exact(stream.edges).weight
        assert opt == pytest.approx(59.999992, abs=1e-12)
        assert opt / alg.weight == pytest.approx(7.499999, abs=1e-9)

    def test_single_edge_stream(self):
        stream = StreamSource(2, [E(0, 1, 3.3)])
        assert run_deterministic(stream, 2.0, 0.1).keys() == {(0, 1)}

    def test_two_disjoint_same_class(self):
        stream = StreamSource(4, [E(0, 1, 5.0), E(2, 3, 6.0)])
        assert run_deterministic(stream, 2.0, 0.1).keys() == {(0, 1), (2, 3)}


class TestNonFiniteParameters:
    @pytest.mark.parametrize("gamma, epsilon, name", [
        (math.inf, 0.5, "gamma"), (math.nan, 0.5, "gamma"),
        (2.0, math.inf, "epsilon"), (2.0, math.nan, "epsilon")])
    def test_run_deterministic_refuses(self, gamma, epsilon, name):
        stream = StreamSource(4, [E(0, 1, 1.0), E(2, 3, 2.0)])
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            run_deterministic(stream, gamma, epsilon)

    @pytest.mark.parametrize("gamma", [math.inf, math.nan])
    def test_choose_q_refuses(self, gamma):
        with pytest.raises(ValueError, match="^gamma must be finite"):
            choose_q(gamma, 0.5)


class TestBucketStateRefusals:
    @pytest.mark.parametrize("args, message", [
        ((1.0, 0.1, 4), "gamma must be finite and exceed 1, got 1.0"),
        ((math.inf, 0.1, 4), "gamma must be finite and exceed 1, got inf"),
        ((2.0, 0.0, 4), "epsilon must be finite and positive, got 0.0"),
        ((2.0, math.nan, 4), "epsilon must be finite and positive, got nan"),
        ((2.0, 0.1, 4, 1.0), "delta must lie in [0, 1), got 1.0"),
        ((2.0, 0.1, 4, -0.1), "delta must lie in [0, 1), got -0.1"),
        ((2.0, 0.1, 4, math.nan), "delta must lie in [0, 1), got nan"),
        ((2.0, 0.1, 0), "num_vertices must be positive"),
        ((2.0, 0.1, -3), "num_vertices must be positive")])
    def test_each_refusal_word_for_word(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_state(*args)

    def test_refuses_a_window_wider_than_the_limit(self):
        # log(1000/0.02)/log(1.00001) + 2 classes: about 1.08M positions.
        with pytest.raises(ValueError, match=r"up to 1081986 grid positions, more than the "
                                             r"limit of 1048576$"):
            make_state(1.00001, 0.01, 1000)
        assert make_state(1.0001, 0.01, 1000).window is None  # about 108,000
        # A one-class window still counts the ratio as 3: ln(3)/1e-9 positions.
        with pytest.raises(ValueError, match=r"num_vertices=2 and q=1 give a window"):
            make_state(1 + 1e-9, 1.0, 2)
        with pytest.raises(ValueError, match=r"and q=10 give a window"):
            ensemble_states(StreamSource(1000, ()), 1.0001, 0.01, 10)

    def test_stream_bucket_run_reads_n_from_its_stream(self):
        stream = StreamSource(7, [E(0, 1, 1.0), E(5, 6, 3.0)])
        state = stream_bucket_run(stream, 2.0, 0.1, 0.25)
        assert (state.gamma, state.epsilon, state.num_vertices, state.delta) == (2.0, 0.1, 7, 0.25)
        with pytest.raises(ValueError, match=r"^delta must lie in \[0, 1\), got 1\.5$"):
            stream_bucket_run(stream, 2.0, 0.1, 1.5)


class TestRunShifted:
    def test_delta_zero_identical_to_deterministic(self):
        stream = random_instance(RandomInstanceConfig(
            n=12, m=30, weight_law=UniformWeights(1, 100), seed=3))
        a = run_deterministic(stream, 2.0, 0.1)
        b = shifted_run(stream, 2.0, 0.1, 0.0)
        assert a.edges == b.edges

    def test_negative_class_single_edge(self):
        gamma = 2.0
        stream = StreamSource(2, [E(0, 1, gamma ** 0.5)])
        result = shifted_run(stream, gamma, 0.1, 0.6)
        assert result.keys() == {(0, 1)}
        assert class_index(gamma ** 0.5, gamma, 0.6) == -1

    def test_tight_shifted_ratio(self):
        gamma = 3.513
        stream = tight_instance(gamma, 3, 1e-6)
        alg = shifted_run(stream, gamma, 0.01, 0.5)
        opt = max_weight_matching_exact(stream.edges).weight
        assert opt / alg.weight <= 4.92


class TestChooseQ:
    def test_gamma_two(self):
        assert choose_q(2.0, 0.5) == 8
        assert 2.0 ** (1 / 8) <= 1.1 < 2.0 ** (1 / 7)

    def test_gamma_optimal(self):
        assert choose_q(3.513, 0.5) == 14
        assert 3.513 ** (1 / 14) <= 1.1 < 3.513 ** (1 / 13)

    def test_monotone_in_epsilon(self):
        qs = [choose_q(2.0, eps) for eps in (0.8, 0.4, 0.2, 0.1, 0.05)]
        assert qs == sorted(qs)
        assert qs[-1] > qs[0]

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            choose_q(2.0, 1.5)

    def test_epsilon_bounds_are_open(self):
        for epsilon in (0.0, 1.0):
            with pytest.raises(ValueError) as info:
                choose_q(2.0, epsilon)
            assert str(info.value) == f"epsilon must lie in (0, 1), got {epsilon}"
        # 2**(1/4) <= 1 + epsilon/5 < 2**(1/3) just inside the upper bound
        assert choose_q(2.0, math.nextafter(1.0, 0.0)) == 4

    def test_rejects_epsilon_lost_in_rounding(self):
        # 1 + 1e-17/5 == 1.0: no number of copies meets the test
        with pytest.raises(ValueError, match="too small"):
            choose_q(2.0, 1e-17)

    @given(st.floats(min_value=1.001, max_value=1e3),
           st.floats(min_value=1e-3, max_value=0.999))
    def test_equals_linear_search(self, gamma, epsilon):
        q = 1
        while gamma ** (1.0 / q) > 1.0 + epsilon / 5.0:
            q += 1
        if q <= MAX_COPIES:
            assert choose_q(gamma, epsilon) == q
        else:
            with pytest.raises(ValueError, match=f"needs q={q} "):
                choose_q(gamma, epsilon)

    def test_tiny_epsilon_is_smallest_q(self):
        # about 2e15 copies: a search one q at a time would not finish.  The
        # error names the smallest q.
        with pytest.raises(ValueError, match=r"needs q=(\d+) ") as info:
            choose_q(2.0, 1e-15)
        q = int(re.search(r"needs q=(\d+) ", str(info.value)).group(1))
        assert 2.0 ** (1.0 / q) <= 1.0 + 1e-15 / 5.0 < 2.0 ** (1.0 / (q - 1))

    def test_refuses_more_copies_than_the_limit(self):
        assert MAX_COPIES == 10_000
        with pytest.raises(ValueError, match=r"gamma=2\.0, epsilon=1e-09 needs q=3465733693 "):
            choose_q(2.0, 1e-9)
        # the largest q within the limit is still returned
        epsilon = 5.0 * (2.0 ** (1.0 / MAX_COPIES) - 1.0)
        assert choose_q(2.0, epsilon) == MAX_COPIES

    def test_delta_grid_refuses_before_allocating(self):
        assert len(delta_grid(MAX_COPIES)) == MAX_COPIES
        for q in (0, MAX_COPIES + 1, 10 ** 9):
            with pytest.raises(ValueError, match="q must lie in"):
                delta_grid(q)


class TestRunEnsemble:
    def test_q1_equals_deterministic(self):
        stream = random_instance(RandomInstanceConfig(
            n=10, m=20, weight_law=UniformWeights(1, 100), seed=11))
        best, per_copy = run_ensemble(stream, 2.0, 0.1, 1)
        assert per_copy == [best]
        assert best.edges == run_deterministic(stream, 2.0, 0.1).edges

    def test_best_is_max_and_ties_go_to_smallest_delta(self):
        stream = random_instance(RandomInstanceConfig(
            n=12, m=25, weight_law=UniformWeights(1, 100), seed=123))
        best, per_copy = run_ensemble(stream, 2.0, 0.1, 6)
        weights = [m.weight for m in per_copy]
        assert best.weight == max(weights)
        assert best is per_copy[weights.index(max(weights))]

    def test_matches_independent_shifted_runs(self):
        # the single-pass fan-out equals q separate passes, copy by copy
        stream = random_instance(RandomInstanceConfig(
            n=12, m=30, weight_law=UniformWeights(1, 100), seed=9))
        _, per_copy = run_ensemble(stream, 3.513, 0.2, 5)
        for d, copy in zip(delta_grid(5), per_copy):
            assert copy.edges == shifted_run(stream, 3.513, 0.2, d).edges

    def test_ensemble_dominates_average(self):
        for seed in range(10):
            stream = random_instance(RandomInstanceConfig(
                n=10, m=22, weight_law=UniformWeights(1, 50), seed=seed))
            best, per_copy = run_ensemble(stream, 2.0, 0.3, 7)
            avg = sum(m.weight for m in per_copy) / len(per_copy)
            assert best.weight >= avg - 1e-12

    def test_bound_on_seeded_instances(self):
        gamma, q = 3.513, 14
        bound = ensemble_ratio_bound(gamma, q)
        assert bound == pytest.approx(5.3719, abs=1e-3)
        for seed in range(100):
            stream = random_instance(RandomInstanceConfig(
                n=12, m=30, weight_law=UniformWeights(1, 100), seed=seed))
            opt = max_weight_matching_exact(stream.edges).weight
            best, _ = run_ensemble(stream, gamma, 0.001, q)
            assert opt / best.weight <= bound + 0.01


class TestExpectedRoundedWeight:
    def test_gamma_e(self):
        assert expected_rounded_weight(1.0, math.e) == pytest.approx(
            1 - 1 / math.e, abs=1e-12)

    def test_gamma_two(self):
        assert expected_rounded_weight(10.0, 2.0) == pytest.approx(
            7.213475204444817, abs=1e-12)

    def test_riemann_cross_check(self):
        w, gamma, grid = 10.0, 2.0, 10_000
        total = 0.0
        for j in range(grid):
            d = (j + 0.5) / grid
            total += gamma ** (class_index(w, gamma, d) + d)
        assert total / grid == pytest.approx(
            expected_rounded_weight(w, gamma), rel=1e-3)

    @pytest.mark.parametrize("w, gamma, message", [
        (0.0, 2.0, "weight must be finite and positive, got 0.0"),
        (math.inf, 2.0, "weight must be finite and positive, got inf"),
        (1.0, 1.0, "gamma must be finite and exceed 1, got 1.0"),
        (1.0, math.inf, "gamma must be finite and exceed 1, got inf")])
    def test_refusals(self, w, gamma, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            expected_rounded_weight(w, gamma)

    @given(st.floats(min_value=1e-3, max_value=1e6),
           st.floats(min_value=1.1, max_value=10.0))
    def test_linearity(self, w, gamma):
        assert expected_rounded_weight(2 * w, gamma) == pytest.approx(
            2 * expected_rounded_weight(w, gamma), rel=1e-12)


class TestBounds:
    def test_deterministic_bound_optimum_at_two(self):
        assert deterministic_ratio_bound(2.0) == 8.0
        grid = [1.5 + 0.05 * i for i in range(120)]
        assert min(grid, key=deterministic_ratio_bound) == pytest.approx(2.0, abs=0.05)

    def test_randomized_bound_values(self):
        assert randomized_ratio_bound(2.0) == pytest.approx(5.5452, abs=1e-3)
        assert randomized_ratio_bound(3.513) == pytest.approx(4.9108, abs=1e-3)

    def test_minimizer(self):
        # The least bound on a grid of step 1e-4 over (1.5, 10).
        gamma_star = min((1.5 + 1e-4 * i for i in range(1, 85_000)), key=randomized_ratio_bound)
        assert gamma_star == pytest.approx(3.513, abs=0.01)
        assert randomized_ratio_bound(gamma_star) == pytest.approx(4.9108, abs=0.001)


def _replay_maximality(stream, gamma, epsilon, delta=0.0):
    """Unrestricted-memory replay: per streamed edge, note the window at its
    arrival (after its own w_max update), then check final per-class
    maximality for classes that survived."""
    state = stream_bucket_run(stream, gamma, epsilon, delta)
    final_lo = state.window[0]
    w_max = 0.0
    offered = []  # (edge, class) for edges whose class was live at arrival
    for e in stream.edges:
        w_max = max(w_max, e.weight)
        threshold = 2 * epsilon * w_max / stream.num_vertices
        i = class_index(e.weight, gamma, delta)
        if i >= class_index(threshold, gamma, delta):
            offered.append((e, i))
    for e, i in offered:
        if i < final_lo:
            continue  # class pruned later; nothing to check
        slot = state.matchings.get(i)
        assert slot is not None
        in_matching = any(f.key == e.key for f in slot)
        ends = {x for f in slot for x in (f.u, f.v)}
        conflicts = e.u in ends or e.v in ends
        assert in_matching or conflicts


class TestInvariants:
    def test_per_class_maximality(self):
        for seed in range(15):
            stream = random_instance(RandomInstanceConfig(
                n=14, m=40, weight_law=UniformWeights(0.5, 5000), seed=seed))
            _replay_maximality(stream, 2.0, 0.25)
            _replay_maximality(stream, 3.513, 0.25, delta=0.4)

    def test_memory_bound_every_step(self):
        gamma, epsilon, n = 2.0, 0.1, 60
        bound = (n / 2) * (math.ceil(math.log(n / (2 * epsilon), gamma)) + 2)
        stream = random_instance(RandomInstanceConfig(
            n=n, m=400, weight_law=UniformWeights(0.01, 1e7), seed=77))
        state = make_state(gamma, epsilon, n)
        for e in stream.edges:
            state.process(e)
            assert state.stored_edge_count <= bound
        assert state.stored_edge_peak <= bound

    def test_stored_count_tracks_matchings(self):
        stream = random_instance(RandomInstanceConfig(
            n=20, m=80, weight_law=UniformWeights(0.1, 1e5), seed=4))
        state = stream_bucket_run(stream, 2.0, 0.5)
        assert state.stored_edge_count == sum(
            len(slot) for slot in state.matchings.values())

    def test_grid_expectation_bound(self):
        # mean rounded-opt over the grid is controlled by mean alg weight
        gamma, epsilon, q = 2.0, 0.001, 8
        for seed in range(8):
            stream = random_instance(RandomInstanceConfig(
                n=10, m=24, weight_law=UniformWeights(1, 100), seed=seed))
            opt = max_weight_matching_exact(stream.edges)
            opt_rounded_sum = 0.0
            alg_sum = 0.0
            for d in delta_grid(q):
                opt_rounded_sum += math.fsum(
                    gamma ** (class_index(e.weight, gamma, d) + d) for e in opt)
                alg_sum += shifted_run(stream, gamma, epsilon, d).weight
            lhs = opt_rounded_sum / q
            rhs = (2 * gamma / (gamma - 1) + epsilon) * (alg_sum / q)
            assert lhs <= rhs * (1 + 1e-9)

    def test_window_matches_intersection_rule(self):
        state = make_state(gamma=2.0, epsilon=0.5, n=8)
        for w in (1.0, 17.0, 400.0, 1024.0):
            state.process(E(0, 1, w) if state._grid.w_max == 0 else
                          E(2 * int(math.log2(w)) % 6 + 2, 2 * int(math.log2(w)) % 6 + 3, w))
        lo, hi = state.window
        threshold = state._grid.threshold
        # every class in the window intersects [threshold, w_max]
        for i in range(lo, hi + 1):
            assert 2.0 ** (i + 1) > threshold and 2.0 ** i <= state._grid.w_max
        # the classes just outside do not
        assert 2.0 ** lo <= threshold
        assert 2.0 ** (hi + 1) > state._grid.w_max
