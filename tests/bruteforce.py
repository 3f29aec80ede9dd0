"""All-subsets brute force for the maximum matching weight: the tests' reference for the blossom."""

import math
from typing import Iterable

from semimatch.core import Edge
from semimatch.oracle import _number_vertices, _scaled

_BRUTEFORCE_MAX_EDGES = 16


def max_weight_matching_bruteforce(edges: Iterable[Edge]) -> float:
    """Optimal weight by exhausting all 2^m edge subsets.

    Subsets are swept in mask order with an incremental
    is-a-matching/cover table, which visits every subset exactly once.
    Subset weights are exact integers (weights times a common power of
    two), so no rounding can prefer a lighter subset.  Rejects instances
    above 16 edges with ValueError.
    """
    edges = list(edges)
    m = len(edges)
    if m > _BRUTEFORCE_MAX_EDGES:
        raise ValueError(f"brute force handles at most {_BRUTEFORCE_MAX_EDGES} edges, got {m}")
    if m == 0:
        return 0.0

    _vertices, endpoint = _number_vertices(edges)
    masks = [1 << endpoint[2 * k] | 1 << endpoint[2 * k + 1] for k in range(m)]
    scale = max(e.weight.as_integer_ratio()[1].bit_length() - 1 for e in edges)
    scaled = [_scaled(e.weight, scale) for e in edges]
    size = 1 << m
    valid = bytearray(size)
    cover = [0] * size
    weight = [0] * size
    valid[0] = 1
    best = 0
    best_mask = 0
    for s in range(1, size):
        low = s & -s
        rest = s ^ low
        if not valid[rest]:
            continue
        idx = low.bit_length() - 1
        if cover[rest] & masks[idx]:
            continue
        valid[s] = 1
        cover[s] = cover[rest] | masks[idx]
        weight[s] = weight[rest] + scaled[idx]
        if weight[s] > best:
            best = weight[s]
            best_mask = s
    # Exactly-rounded total for the winning subset, matching how
    # Matching caches weights.
    return math.fsum(edges[i].weight for i in range(m) if best_mask >> i & 1)
