"""Exact maximum-weight matching for desk-scale instances.

Two independent routes: a branch-and-bound search used as ground truth
throughout the test suite, and an all-subsets brute force that exists to
check the branch-and-bound itself.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .core import Edge, Matching

__all__ = [
    "MAX_VERTICES",
    "MAX_EDGES",
    "OracleLimitError",
    "max_weight_matching_exact",
    "max_weight_matching_bruteforce",
]

# The largest instance the branch and bound accepts.
MAX_VERTICES = 20
MAX_EDGES = 64

_BRUTEFORCE_MAX_EDGES = 16

# Relative inflation applied to the branch bound so float rounding can
# never prune a strictly better completion.
_BOUND_SLACK = 1e-12


class OracleLimitError(ValueError):
    """Instance exceeds the oracle size limit."""


def _vertex_masks(edges: Sequence[Edge]) -> list[int]:
    """Each edge's two endpoints as bits, numbering vertices by first appearance."""
    vertex_bit: dict[int, int] = {}
    masks = []
    for e in edges:
        for vertex in (e.u, e.v):
            if vertex not in vertex_bit:
                vertex_bit[vertex] = 1 << len(vertex_bit)
        masks.append(vertex_bit[e.u] | vertex_bit[e.v])
    return masks


def max_weight_matching_exact(edges: Iterable[Edge]) -> tuple[Matching, float]:
    """Globally optimal matching by branch and bound.

    Edges are explored in decreasing weight order (ties broken by
    lexicographic endpoints, so the result is deterministic); the
    admissible bound at a node is the remaining-edge weight sum.
    Instances above MAX_VERTICES or MAX_EDGES raise OracleLimitError.
    """
    edges = sorted(edges, key=lambda e: (-e.weight, e.key))
    num_vertices = len({v for e in edges for v in (e.u, e.v)})
    if num_vertices > MAX_VERTICES:
        raise OracleLimitError(f"{num_vertices} vertices exceed oracle limit {MAX_VERTICES}")
    m = len(edges)
    if m > MAX_EDGES:
        raise OracleLimitError(f"{m} edges exceed oracle limit {MAX_EDGES}")
    if m == 0:
        return Matching.empty(), 0.0

    # suffix[i] = sum of weights of edges[i:], inflated for a safe bound
    suffix = [0.0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] + edges[i].weight
    masks = _vertex_masks(edges)

    best_weight = 0.0
    best_pick: tuple[int, ...] = ()

    def search(i: int, covered: int, weight: float, pick: list[int]) -> None:
        nonlocal best_weight, best_pick
        if weight > best_weight:
            best_weight = weight
            best_pick = tuple(pick)
        if i == m:
            return
        if (weight + suffix[i]) * (1.0 + _BOUND_SLACK) <= best_weight:
            return
        if not covered & masks[i]:
            pick.append(i)
            search(i + 1, covered | masks[i], weight + edges[i].weight, pick)
            pick.pop()
        search(i + 1, covered, weight, pick)

    search(0, 0, 0.0, [])
    matching = Matching.from_edges(edges[i] for i in best_pick)
    return matching, matching.weight


def max_weight_matching_bruteforce(edges: Iterable[Edge]) -> float:
    """Optimal weight by exhausting all 2^m edge subsets.

    Subsets are swept in mask order with an incremental
    is-a-matching/cover table, which visits every subset exactly once.
    Rejects instances above 16 edges.
    """
    edges = list(edges)
    m = len(edges)
    if m > _BRUTEFORCE_MAX_EDGES:
        raise OracleLimitError(f"brute force handles at most {_BRUTEFORCE_MAX_EDGES} edges, got {m}")
    if m == 0:
        return 0.0

    masks = _vertex_masks(edges)
    size = 1 << m
    valid = bytearray(size)
    cover = [0] * size
    weight = [0.0] * size
    valid[0] = 1
    best = 0.0
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
        weight[s] = weight[rest] + edges[idx].weight
        if weight[s] > best:
            best = weight[s]
            best_mask = s
    # Exactly-rounded total for the winning subset, matching how
    # Matching caches weights.
    return math.fsum(edges[i].weight for i in range(m) if best_mask >> i & 1)
