"""Instance generators: the tight ladder family, random graphs, permutations."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Union

from .bucket import _power, class_index
from .core import Edge, StreamSource

__all__ = [
    "UniformWeights",
    "ExponentialClassWeights",
    "RandomInstanceConfig",
    "tight_instance",
    "tight_instance_opt_weight",
    "random_instance",
    "permute_stream",
]


def _ladder_levels(gamma: float, k: int, eps: float) -> list[tuple[float, float]]:
    """Check the ladder's parameters and return level i's two weights, gamma^i
    and gamma^(i+1) - eps, for i = 0..k; level k is the center edge and the
    two top edges."""
    if not 2 <= gamma < math.inf:
        raise ValueError(f"gamma must be finite and at least 2, got {gamma}")
    if type(k) is not int or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if not 0 < eps < gamma - 1:
        raise ValueError(
            f"eps must lie in (0, gamma-1) to keep weights positive and ordered, got {eps}")
    if _power(gamma, k + 1) == math.inf:
        raise ValueError(f"gamma**(k+1) must be a finite float, got gamma={gamma}, k={k}")
    levels = [(gamma ** i, gamma ** (i + 1) - eps) for i in range(k + 1)]
    for i, (low, high) in enumerate(levels):
        if class_index(low, gamma) != i or class_index(high, gamma) != i:
            raise ValueError(
                f"eps={eps} does not keep level-{i} weights inside class {i} "
                f"(gamma={gamma}); reduce k or increase eps")
    return levels


def tight_instance(gamma: float, k: int, eps: float) -> StreamSource:
    """Emit the ladder on which the deterministic variant's ratio is tight.

    The instance has a center edge (x, y) of weight gamma^k, per level
    i < k a pair of center-touching edges of weight gamma^i and a pair
    of outer edges of weight gamma^(i+1) - eps, and two top edges of
    weight gamma^(k+1) - eps; 4k + 3 edges on 4k + 4 vertices.

    The order only has to put every class-i center edge before the
    outer edge that conflicts with it at the shared vertex (so each
    class matching ends maximal exactly as intended); the rest of the
    total order is fixed canonically per level for reproducibility.
    """
    levels = _ladder_levels(gamma, k, eps)
    x, y = 0, 1
    edges: list[Edge] = []
    for i, (center_w, outer_w) in enumerate(levels[:k]):
        alpha, beta, a, b = 2 + 4 * i, 3 + 4 * i, 4 + 4 * i, 5 + 4 * i
        edges.append(Edge(alpha, x, center_w))
        edges.append(Edge(y, beta, center_w))
        edges.append(Edge(alpha, a, outer_w))
        edges.append(Edge(beta, b, outer_w))
    center_w, top_w = levels[k]
    edges.append(Edge(x, y, center_w))
    edges.append(Edge(2 + 4 * k, x, top_w))
    edges.append(Edge(3 + 4 * k, y, top_w))
    return StreamSource(4 * k + 4, edges)


def tight_instance_opt_weight(gamma: float, k: int, eps: float) -> float:
    """Closed-form optimum of the ladder: all outer and top edges."""
    return 2.0 * math.fsum(high for _, high in _ladder_levels(gamma, k, eps))


@dataclass(frozen=True, slots=True)
class UniformWeights:
    """Weights drawn uniformly from [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not 0 < self.lo <= self.hi < math.inf:
            raise ValueError(f"need 0 < lo <= hi and a finite hi, got [{self.lo}, {self.hi}]")

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.lo, self.hi)


@dataclass(frozen=True, slots=True)
class ExponentialClassWeights:
    """Log-uniform weights spanning `depth` geometric classes of ratio gamma."""

    gamma: float
    depth: int

    def __post_init__(self) -> None:
        if not self.gamma > 1:
            raise ValueError(f"gamma must exceed 1, got {self.gamma}")
        if type(self.depth) is not int or self.depth < 1:
            raise ValueError(f"depth must be a positive integer, got {self.depth!r}")
        if _power(self.gamma, self.depth) == math.inf:
            raise ValueError(
                f"gamma**depth must be a finite float, got gamma={self.gamma}, depth={self.depth}")

    def sample(self, rng: random.Random) -> float:
        return self.gamma ** (rng.random() * self.depth)


WeightLaw = Union[UniformWeights, ExponentialClassWeights]


@dataclass(frozen=True, slots=True)
class RandomInstanceConfig:
    """Seeded random graph: n vertices, m distinct edges, weights per law."""

    n: int
    m: int
    weight_law: WeightLaw
    seed: int

    def __post_init__(self) -> None:
        if type(self.n) is not int or type(self.m) is not int:
            raise ValueError(f"n and m must be ints, got n={self.n!r}, m={self.m!r}")
        if self.n < 2:
            raise ValueError(f"need at least 2 vertices, got {self.n}")
        if self.m < 0 or self.m > self.n * (self.n - 1) // 2:
            raise ValueError(
                f"m={self.m} impossible on {self.n} vertices "
                f"(max {self.n * (self.n - 1) // 2})")


def random_instance(config: RandomInstanceConfig) -> StreamSource:
    """Reproducible random stream: same config, same edges in the same order."""
    rng = random.Random(config.seed)
    seen: set[tuple[int, int]] = set()
    edges: list[Edge] = []
    while len(edges) < config.m:
        u = rng.randrange(config.n)
        v = rng.randrange(config.n)
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if key in seen:
            continue
        seen.add(key)
        edges.append(Edge(u, v, config.weight_law.sample(rng)))
    return StreamSource(config.n, edges)


def permute_stream(stream: StreamSource, seed: int) -> StreamSource:
    """Seeded shuffle of the arrival order; same edge multiset."""
    rng = random.Random(seed)
    edges = list(stream.edges)
    rng.shuffle(edges)
    return StreamSource(stream.num_vertices, edges)
