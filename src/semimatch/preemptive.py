"""Preemptive online matching baselines, the victims of the adversary game.

A preemptive algorithm must hold a feasible matching at all times; it
may discard (preempt) a held edge, but an edge that was rejected or
preempted is gone forever.  A victim's held matching,
``current_matching``, is the whole record of what it accepted and
preempted: ``on_edge`` returns nothing.  Both baselines build that
``Matching`` on its first read and return the same object until ``on_edge``
changes the hold.
"""

from __future__ import annotations

import abc
import math
from typing import Optional

from .core import Edge, GreedyMatching, Matching

__all__ = [
    "PreemptiveAlgorithm",
    "ThresholdPreemptive",
    "HoldFirst",
    "make_victim",
    "DEFAULT_VICTIMS",
]


class PreemptiveAlgorithm(abc.ABC):
    """Receives edges one at a time; exposes its held matching at any time."""

    @abc.abstractmethod
    def on_edge(self, edge: Edge) -> None:
        """Irrevocably accept (possibly preempting held edges) or reject."""

    @property
    @abc.abstractmethod
    def current_matching(self) -> Matching:
        """The feasible matching currently held.

        While the hold is unchanged this may be the same frozen ``Matching``
        as at the last read.  The game checks every hold but the very object
        it checked at the last offer, which it takes as that hold again.
        """


class _PresentedMixin:
    """Duplicate-presentation guard shared by the baselines."""

    def __init__(self) -> None:
        self._presented: set[tuple[int, int]] = set()

    def _note_presented(self, edge: Edge) -> None:
        key = edge.key
        if key in self._presented:
            raise ValueError(f"edge between {key} presented twice")
        self._presented.add(key)


class ThresholdPreemptive(_PresentedMixin, PreemptiveAlgorithm):
    """Accept an edge iff it outweighs c times its held blockers, preempting them."""

    def __init__(self, improvement_factor: float):
        super().__init__()
        if not 1 <= improvement_factor < math.inf:
            raise ValueError(f"threshold factor must be finite and >= 1, got {improvement_factor}")
        # A float, so that c times the one blocker's weight is a float product, as c times
        # an fsum is, also for an int factor and an int weight.
        self.improvement_factor = float(improvement_factor)
        # Each held edge under both of its ends, in the order it was accepted.
        self._cover: dict[int, Edge] = {}
        self._matching: Optional[Matching] = None  # the hold as last read; None once it changes

    def on_edge(self, edge: Edge) -> None:
        self._note_presented(edge)
        # A held edge covers both of its ends with one object, so `is` tells one blocker from two.
        at_u, at_v = self._cover.get(edge.u), self._cover.get(edge.v)
        if at_u is None or at_u is at_v:  # at most one blocker: put it first
            at_u, at_v = at_v, None
        # The blocked weight: none, the one blocker's, or the exactly rounded sum of two.
        if at_u is None:
            blocked = 0.0
        elif at_v is None:
            blocked = at_u.weight
        else:
            blocked = math.fsum((at_u.weight, at_v.weight))
        if edge.weight > self.improvement_factor * blocked:
            if at_u is not None:
                del self._cover[at_u.u], self._cover[at_u.v]
                if at_v is not None:
                    del self._cover[at_v.u], self._cover[at_v.v]
            self._cover[edge.u] = edge
            self._cover[edge.v] = edge
            self._matching = None

    @property
    def current_matching(self) -> Matching:
        if self._matching is None:
            # Each held edge once, at its u end, in acceptance order.  A list, which the
            # Matching copies to a tuple of its exact size; from a generator it would resize one.
            self._matching = Matching([e for vertex, e in self._cover.items() if vertex == e.u])
        return self._matching


class HoldFirst(_PresentedMixin, PreemptiveAlgorithm):
    """Accept whatever fits, never preempt; a degenerate victim."""

    def __init__(self) -> None:
        super().__init__()
        self._held = GreedyMatching()
        self._matching: Optional[Matching] = None  # as in ThresholdPreemptive

    def on_edge(self, edge: Edge) -> None:
        self._note_presented(edge)
        if self._held.add(edge):
            self._matching = None

    @property
    def current_matching(self) -> Matching:
        if self._matching is None:
            self._matching = self._held.matching()
        return self._matching


DEFAULT_VICTIMS: tuple[str, ...] = (
    "threshold:1", "threshold:1.5", "threshold:2", "hold-first")


def make_victim(name: str) -> PreemptiveAlgorithm:
    """Build a registered victim: ``threshold:<c>`` or ``hold-first``."""
    if name == "hold-first":
        return HoldFirst()
    if name.startswith("threshold:"):
        try:
            c = float(name.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad threshold factor in victim name {name!r}") from None
        return ThresholdPreemptive(c)
    raise ValueError(f"unknown victim {name!r} (use 'threshold:<c>' or 'hold-first')")
