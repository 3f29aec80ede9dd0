import math
import random

import pytest

from semimatch.core import Edge
from semimatch.generators import TightExampleConfig, tight_instance
from semimatch.oracle import (
    OracleLimitError,
    max_weight_matching_bruteforce,
    max_weight_matching_exact,
)


def E(u, v, w):
    return Edge(u, v, w)


class TestExact:
    def test_triangle_takes_heaviest(self):
        edges = [E(0, 1, 3.0), E(1, 2, 2.0), E(2, 0, 2.0)]
        matching, weight = max_weight_matching_exact(edges)
        assert weight == 3.0
        assert matching.keys() == {(0, 1)}

    def test_path_middle_wins(self):
        edges = [E(0, 1, 1.0), E(1, 2, 3.0), E(2, 3, 1.0)]
        _, weight = max_weight_matching_exact(edges)
        assert weight == 3.0

    def test_path_outer_pair_wins(self):
        edges = [E(0, 1, 2.0), E(1, 2, 3.0), E(2, 3, 2.0)]
        matching, weight = max_weight_matching_exact(edges)
        assert weight == 4.0
        assert matching.keys() == {(0, 1), (2, 3)}

    def test_tight_ladder_value(self):
        stream = tight_instance(TightExampleConfig(gamma=2.0, k=2, eps=1e-6))
        _, weight = max_weight_matching_exact(stream.edges)
        assert weight == pytest.approx(27.999994, abs=1e-12)
        assert weight == max_weight_matching_bruteforce(stream.edges)

    def test_empty(self):
        matching, weight = max_weight_matching_exact([])
        assert weight == 0.0
        assert len(matching) == 0

    def test_vertex_limit(self):
        edges = [E(2 * i, 2 * i + 1, 1.0) for i in range(11)]
        with pytest.raises(OracleLimitError, match="vertices"):
            max_weight_matching_exact(edges)

    def test_edge_limit(self):
        # 65 edges among 20 vertices: within the vertex limit, one edge over 64
        pairs = [(u, v) for u in range(20) for v in range(u + 1, 20)]
        edges = [E(u, v, 1.0) for u, v in pairs[:65]]
        with pytest.raises(OracleLimitError, match="65 edges"):
            max_weight_matching_exact(edges)

    def test_deterministic_tie_break(self):
        # two disjoint optimal single edges of equal weight: lexicographic first
        edges = [E(2, 3, 5.0), E(0, 1, 5.0), E(1, 2, 5.0)]
        matching, weight = max_weight_matching_exact(edges)
        assert weight == 10.0
        assert matching.keys() == {(0, 1), (2, 3)}


class TestBruteForce:
    def test_empty(self):
        assert max_weight_matching_bruteforce([]) == 0.0

    def test_single_edge(self):
        assert max_weight_matching_bruteforce([E(0, 1, 7.0)]) == 7.0

    def test_rejects_too_many_edges(self):
        edges = [E(i, i + 20, 1.0) for i in range(17)]
        with pytest.raises(OracleLimitError, match="16"):
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
        matching, weight = max_weight_matching_exact(edges)
        assert weight == max_weight_matching_bruteforce(edges)
        # sanity: reported weight really is the exactly-rounded edge sum
        assert weight == math.fsum(e.weight for e in matching)
