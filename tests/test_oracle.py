import dataclasses
import hashlib
import math
import random

import pytest
from hypothesis import given, strategies as st

from semimatch import oracle
from semimatch.core import Edge, Matching
from semimatch.generators import tight_instance
from semimatch.oracle import (
    max_weight_matching_dual,
    max_weight_matching_exact,
    verify_dual,
)

from bruteforce import max_weight_matching_bruteforce


def E(u, v, w):
    return Edge(u, v, w)


def _networkx_optimum(edges):
    nx = pytest.importorskip("networkx")
    graph = nx.Graph()
    graph.add_weighted_edges_from((e.u, e.v, e.weight) for e in edges)
    return math.fsum(graph[u][v]["weight"] for u, v in nx.max_weight_matching(graph))


class TestExact:
    def test_triangle_takes_heaviest(self):
        edges = [E(0, 1, 3.0), E(1, 2, 2.0), E(2, 0, 2.0)]
        matching = max_weight_matching_exact(edges)
        assert matching.weight == 3.0
        assert matching.keys() == {(0, 1)}

    def test_path_middle_wins(self):
        edges = [E(0, 1, 1.0), E(1, 2, 3.0), E(2, 3, 1.0)]
        weight = max_weight_matching_exact(edges).weight
        assert weight == 3.0

    def test_path_outer_pair_wins(self):
        edges = [E(0, 1, 2.0), E(1, 2, 3.0), E(2, 3, 2.0)]
        matching = max_weight_matching_exact(edges)
        assert matching.weight == 4.0
        assert matching.keys() == {(0, 1), (2, 3)}

    def test_tight_ladder_value(self):
        stream = tight_instance(2.0, 2, 1e-6)
        weight = max_weight_matching_exact(stream.edges).weight
        assert weight == pytest.approx(27.999994, abs=1e-12)
        assert weight == max_weight_matching_bruteforce(stream.edges)

    def test_empty(self):
        matching = max_weight_matching_exact([])
        assert matching.weight == 0.0
        assert len(matching) == 0

    def test_no_vertex_limit(self):
        # 11 disjoint edges on 22 vertices
        rng = random.Random(11)
        edges = [E(2 * i, 2 * i + 1, rng.uniform(1, 100)) for i in range(11)]
        assert max_weight_matching_exact(edges).weight == _networkx_optimum(edges)

    def test_no_edge_limit(self):
        # 65 edges among 20 vertices
        rng = random.Random(65)
        pairs = [(u, v) for u in range(20) for v in range(u + 1, 20)]
        edges = [E(u, v, rng.uniform(1, 100)) for u, v in pairs[:65]]
        assert max_weight_matching_exact(edges).weight == _networkx_optimum(edges)

    def test_deterministic_tie_break(self):
        # two disjoint optimal single edges of equal weight: lexicographic first
        edges = [E(2, 3, 5.0), E(0, 1, 5.0), E(1, 2, 5.0)]
        matching = max_weight_matching_exact(edges)
        assert matching.weight == 10.0
        assert matching.keys() == {(0, 1), (2, 3)}


class TestBruteForce:
    def test_empty(self):
        assert max_weight_matching_bruteforce([]) == 0.0

    def test_single_edge(self):
        assert max_weight_matching_bruteforce([E(0, 1, 7.0)]) == 7.0

    def test_rejects_too_many_edges(self):
        edges = [E(i, i + 20, 1.0) for i in range(17)]
        with pytest.raises(ValueError, match="16"):
            max_weight_matching_bruteforce(edges)


def _random_edges(rng, n, m):
    seen = set()
    edges = []
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        key = (min(u, v), max(u, v))
        if key in seen:
            continue
        seen.add(key)
        edges.append(Edge(u, v, rng.uniform(0.1, 100.0)))
    return edges


def test_branch_and_bound_matches_brute_force():
    rng = random.Random(20240811)
    for _ in range(300):
        n = rng.randint(3, 10)
        m = rng.randint(0, min(16, n * (n - 1) // 2))
        edges = _random_edges(rng, n, m)
        matching = max_weight_matching_exact(edges)
        assert matching.weight == max_weight_matching_bruteforce(edges)
        # sanity: the cached weight really is the exactly-rounded edge sum
        assert matching.weight == math.fsum(e.weight for e in matching)


def test_agrees_with_networkx_on_random_instances():
    rng = random.Random(60)
    for index in range(200):
        n = rng.randint(2, 60)
        pairs = n * (n - 1) // 2
        m = (rng.randint(1, min(pairs, 2 * n)) if index % 2
             else rng.randint(min(pairs, 2 * n), min(pairs, 6 * n)))
        edges = _random_edges(rng, n, m)
        if index % 4 == 3:  # small integer weights: many ties and blossoms
            edges = [E(e.u, e.v, float(rng.randint(1, 4))) for e in edges]
        assert max_weight_matching_exact(edges).weight == _networkx_optimum(edges), index


def _tied_instances(rng, count):
    """Graphs with integer weights 1..4: many ties and blossoms."""
    for _ in range(count):
        n = rng.randint(6, 40)
        edges = _random_edges(rng, n, rng.randint(n, 3 * n))
        yield [E(e.u, e.v, float(rng.randint(1, 4))) for e in edges]


def _wide_instance():
    return _random_edges(random.Random(300), 300, 3000)


def test_agrees_with_networkx_at_300_vertices():
    edges = _wide_instance()
    assert max_weight_matching_exact(edges).weight == _networkx_optimum(edges)


@pytest.mark.parametrize("instances, expected", [
    (lambda: (_random_edges(random.Random(48 + i), 20, 48) for i in range(100)),
     "80e96c97be98d5a2b66db818f812c04937cab3161626bcd653ca1fe7c47456bc"),
    (lambda: _tied_instances(random.Random(4), 100),
     "e291bafcfacd5177259ab12c6966a8b1c526c3f08f4cada2674ef4bdf5123d26"),
    (lambda: [_wide_instance()],
     "9b91129e9bdc970350798a175922848464e1d3cf64175dd2fd41646ac7e31274"),
], ids=["seeded-n20-m48", "integer-weights-1-to-4", "n300-m3000"])
def test_optimum_digest_is_pinned(instances, expected):
    # Which optimum, potentials and blossoms the solver returns depends on
    # every comparison and iteration order in it, not only on OPT's weight.
    digest = hashlib.sha256()
    for edges in instances():
        matching, dual = max_weight_matching_dual(edges)
        digest.update(repr((sorted(matching.keys()), dual.scale, list(dual.potential.items()),
                            [(sorted(members), z) for members, z in dual.blossoms])).encode())
    assert digest.hexdigest() == expected


@pytest.mark.parametrize("gamma", [2.0, 3.513])
def test_agrees_with_networkx_on_tight_ladders(gamma):
    for k in range(1, 9):
        edges = tight_instance(gamma, k, 1e-6).edges
        assert max_weight_matching_exact(edges).weight == _networkx_optimum(edges), k


@st.composite
def _small_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12))
    weights = draw(st.lists(st.floats(min_value=5e-324, max_value=1.79e308),
                            min_size=len(chosen), max_size=len(chosen)))
    return [E(u, v, w) for (u, v), w in zip(chosen, weights)]


@given(_small_graphs())
def test_blossom_equals_brute_force_over_the_float_range(edges):
    try:
        expected = max_weight_matching_bruteforce(edges)
    except OverflowError:  # the optimum's weight exceeds the float range
        with pytest.raises(OverflowError):
            max_weight_matching_exact(edges)
        return
    matching, dual = max_weight_matching_dual(edges)
    verify_dual(edges, matching, dual)
    assert matching.weight == expected


def test_expansion_relabels_the_odd_side():
    # Expanding a T-blossom here relabels a child on its odd side after
    # skipping an S-labelled one.
    edges = [E(u, v, float(w)) for u, v, w in [
        (1, 6, 1), (4, 5, 2), (3, 4, 2), (0, 3, 1), (1, 4, 3), (1, 3, 2), (2, 3, 1),
        (2, 4, 1), (0, 1, 3), (0, 4, 3), (2, 6, 1), (0, 5, 2), (1, 5, 2), (1, 2, 1)]]
    matching, dual = max_weight_matching_dual(edges)
    verify_dual(edges, matching, dual)
    assert matching.weight == max_weight_matching_bruteforce(edges) == 6.0


def _raise_matched_ends(edges, matching, dual):
    e = matching.edges[0]
    raised = {**dual.potential, e.u: dual.potential[e.u] + 1, e.v: dual.potential[e.v] + 1}
    return edges, matching, dataclasses.replace(dual, potential=raised)


class TestVerifyDual:
    # Two triangles joined by one edge: the optimum needs blossoms.
    EDGES = [E(0, 1, 6.0), E(1, 2, 6.0), E(0, 2, 6.0), E(2, 3, 5.0),
             E(3, 4, 6.0), E(4, 5, 6.0), E(3, 5, 6.0), E(5, 6, 1.5)]

    def solved(self):
        matching, dual = max_weight_matching_dual(self.EDGES)
        verify_dual(self.EDGES, matching, dual)
        return matching, dual

    def test_rejects_a_lowered_potential(self):
        matching, dual = self.solved()
        vertex = next(v for v, y in dual.potential.items() if y > 0)
        lowered = dataclasses.replace(
            dual, potential={**dual.potential, vertex: dual.potential[vertex] - 1})
        with pytest.raises(ValueError, match="violates"):
            verify_dual(self.EDGES, matching, lowered)

    def test_rejects_a_dropped_matched_edge(self):
        matching, dual = self.solved()
        with pytest.raises(ValueError, match="unmatched"):
            verify_dual(self.EDGES, Matching(matching.edges[1:]), dual)

    def test_rejects_z_on_a_blossom_that_is_not_full(self):
        matching, dual = self.solved()
        # No matched edge lies inside {0, 3, 6}; a larger z keeps every edge feasible.
        padded = dataclasses.replace(dual, blossoms=dual.blossoms + ((frozenset({0, 3, 6}), 2),))
        with pytest.raises(ValueError, match="not odd and full"):
            verify_dual(self.EDGES, matching, padded)

    @pytest.mark.parametrize("mutate, message", [
        (lambda edges, matching, dual: (edges, matching, dataclasses.replace(
            dual, potential={**dual.potential, 6: -1})), "negative potential"),
        (lambda edges, matching, dual: (edges, matching, dataclasses.replace(
            dual, blossoms=dual.blossoms + ((frozenset({0, 1, 2}), -2),))), "negative z"),
        (_raise_matched_ends, "has slack 2"),
        (lambda edges, matching, dual: (
            [e for e in edges if e != matching.edges[0]], matching, dual), "not an input edge"),
    ], ids=["negative-potential", "negative-z", "slack-on-matched-edge", "not-an-input-edge"])
    def test_rejects_each_broken_condition(self, mutate, message):
        matching, dual = self.solved()
        with pytest.raises(ValueError, match=message):
            verify_dual(*mutate(self.EDGES, matching, dual))

    def test_accepts_an_even_blossom_with_z_zero(self):
        # z = 0 adds nothing to any constraint, so no size or fill is asked of it.
        matching, dual = self.solved()
        zero = dataclasses.replace(dual, blossoms=dual.blossoms + ((frozenset({0, 3, 5, 6}), 0),))
        verify_dual(self.EDGES, matching, zero)

    def test_rejects_a_scale_too_coarse_for_a_weight(self):
        edges = [E(0, 1, 1.5)]
        matching, dual = max_weight_matching_dual(edges)
        with pytest.raises(ValueError) as info:
            verify_dual(edges, matching, dataclasses.replace(dual, scale=0))
        assert str(info.value) == "weight 1.5 is not a multiple of 2**-0"

    def test_exact_raises_when_the_check_fails(self, monkeypatch):
        matching, dual = self.solved()
        monkeypatch.setattr(oracle, "max_weight_matching_dual",
                            lambda edges: (Matching(matching.edges[1:]), dual))
        with pytest.raises(RuntimeError, match="oracle bug"):
            max_weight_matching_exact(self.EDGES)
