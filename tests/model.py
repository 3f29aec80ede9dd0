"""The paper's one pass, one copy at a time, written from its definition: the tests' reference for the grid."""

import math
import sys

from semimatch.bucket import class_index
from semimatch.core import Edge


class ModelCopy:
    """One copy shifted by delta: per class, its matching's edges and the vertices they cover."""

    def __init__(self, gamma: float, epsilon: float, num_vertices: int, delta: float):
        self.gamma, self.epsilon, self.n, self.delta = gamma, epsilon, num_vertices, delta
        self.w_max, self.window, self.peak = 0.0, None, 0
        self.classes: dict[int, tuple[list[Edge], set[int]]] = {}

    def threshold(self) -> float:
        """2*epsilon*w_max/n, at most w_max, at least ulp(0).

        A product that overflows is divided by n first, and read as at least
        max_float/n, so the threshold never falls as w_max rises.
        """
        t = 2.0 * self.epsilon * self.w_max / self.n
        if t == math.inf:
            t = max(self.w_max / self.n * (2.0 * self.epsilon), sys.float_info.max / self.n)
        return min(t, self.w_max) or math.ulp(0.0)

    def process(self, e: Edge) -> None:
        if e.weight > self.w_max:  # a raise moves the window and drops the classes below it
            self.w_max = e.weight
            lo = class_index(self.threshold(), self.gamma, self.delta)
            self.window = (lo, class_index(self.w_max, self.gamma, self.delta))
            dead = [i for i in self.classes if i < lo]
            if dead:
                self.peak = max(self.peak, self.stored_edge_count)
            for i in dead:
                del self.classes[i]
        i = class_index(e.weight, self.gamma, self.delta)
        edges, cover = self.classes.get(i, ([], set()))
        if i >= self.window[0] and e.u not in cover and e.v not in cover:
            self.classes[i] = edges + [e], cover | {e.u, e.v}

    @property
    def matchings(self) -> dict[int, list[Edge]]:
        return {i: edges for i, (edges, _) in sorted(self.classes.items())}

    @property
    def stored_edge_count(self) -> int:
        return sum(len(edges) for edges, _ in self.classes.values())

    @property
    def stored_edge_peak(self) -> int:
        return max(self.peak, self.stored_edge_count)

    def finalize(self) -> list[Edge]:
        """Greedy over the stored edges, highest class first, each class in arrival order."""
        taken, cover = [], set()
        for i in sorted(self.classes, reverse=True):
            for e in self.classes[i][0]:
                if e.u not in cover and e.v not in cover:
                    taken.append(e)
                    cover |= {e.u, e.v}
        return taken
