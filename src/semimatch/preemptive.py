"""Preemptive online matching baselines and the bucket-run adapter.

A preemptive algorithm must hold a feasible matching at all times; it
may discard (preempt) a held edge, but an edge that was rejected or
preempted is gone forever.  The baselines here are victims for the
adversary game; the adapter wraps a bucketed run to demonstrate that
its finalize step breaks exactly that irrevocability contract.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Optional

from .bucket import BucketConfig, BucketState, greedy_merge
from .core import Edge, GreedyMatching, Matching

__all__ = [
    "Decision",
    "PreemptiveAlgorithm",
    "ThresholdPreemptive",
    "HoldFirst",
    "BucketPreemptiveAdapter",
    "make_victim",
    "DEFAULT_VICTIMS",
]


@dataclass(frozen=True, slots=True)
class Decision:
    """Outcome of presenting one edge."""

    accepted: bool
    preempted: tuple[Edge, ...] = ()


class PreemptiveAlgorithm(abc.ABC):
    """Receives edges one at a time; exposes its held matching at any time."""

    @abc.abstractmethod
    def on_edge(self, edge: Edge) -> Decision:
        """Irrevocably accept (possibly preempting held edges) or reject."""

    @property
    @abc.abstractmethod
    def current_matching(self) -> Matching:
        """The feasible matching currently held."""


class _PresentedMixin:
    """Duplicate-presentation guard shared by the baselines."""

    def __init__(self) -> None:
        self._presented: set[tuple[int, int]] = set()

    def _note_presented(self, edge: Edge) -> None:
        if edge.key in self._presented:
            raise ValueError(f"edge between {edge.key} presented twice")
        self._presented.add(edge.key)


class ThresholdPreemptive(_PresentedMixin, PreemptiveAlgorithm):
    """Accept an edge iff it outweighs c times its held blockers, preempting them."""

    def __init__(self, improvement_factor: float):
        super().__init__()
        if not 1 <= improvement_factor < math.inf:
            raise ValueError(f"threshold factor must be finite and >= 1, got {improvement_factor}")
        self.improvement_factor = improvement_factor
        self._held: dict[tuple[int, int], Edge] = {}
        self._cover: dict[int, Edge] = {}

    def on_edge(self, edge: Edge) -> Decision:
        self._note_presented(edge)
        blockers: list[Edge] = []
        for f in (self._cover.get(edge.u), self._cover.get(edge.v)):
            if f is not None and f not in blockers:
                blockers.append(f)
        if edge.weight > self.improvement_factor * math.fsum(f.weight for f in blockers):
            for f in blockers:
                del self._held[f.key]
                del self._cover[f.u]
                del self._cover[f.v]
            self._held[edge.key] = edge
            self._cover[edge.u] = edge
            self._cover[edge.v] = edge
            return Decision(accepted=True, preempted=tuple(blockers))
        return Decision(accepted=False)

    @property
    def current_matching(self) -> Matching:
        return Matching(self._held.values())


class HoldFirst(_PresentedMixin, PreemptiveAlgorithm):
    """Accept whatever fits, never preempt; a degenerate victim."""

    def __init__(self) -> None:
        super().__init__()
        self._held = GreedyMatching()

    def on_edge(self, edge: Edge) -> Decision:
        self._note_presented(edge)
        return Decision(accepted=self._held.add(edge))

    @property
    def current_matching(self) -> Matching:
        return Matching(self._held.edges)


class BucketPreemptiveAdapter(_PresentedMixin, PreemptiveAlgorithm):
    """View a bucketed run through the preemptive-online contract.

    Per step the stored class matchings are projected to a greedy
    matching in arrival order (what a preemption-free scan of the
    stored edges would hold); :meth:`finish` swaps in the true
    finalize output.  ``violation_step`` records the first step at
    which an edge re-entered the exposed matching after being absent
    from it, the irrevocability breach that shows the bucketed
    algorithm is not a preemptive online algorithm.
    """

    def __init__(self, config: BucketConfig):
        super().__init__()
        self.state = BucketState(config)
        self._by_key: dict[tuple[int, int], Edge] = {}
        self._arrival: dict[tuple[int, int], int] = {}
        self._steps = 0
        self._projection: Matching = Matching()
        self._ever_absent: set[tuple[int, int]] = set()
        self.violation_step: Optional[int] = None
        self.finished = False

    def _project(self) -> Matching:
        stored = [e for slot in self.state.matchings.values() for e in slot.edges]
        stored.sort(key=lambda e: self._arrival[e.key])
        return greedy_merge(stored)

    def _expose(self, matching: Matching) -> None:
        keys = matching.keys()
        if self.violation_step is None and keys & self._ever_absent:
            self.violation_step = self._steps
        self._ever_absent.update(self._presented - keys)
        self._projection = matching

    def on_edge(self, edge: Edge) -> Decision:
        if self.finished:
            raise RuntimeError("stream already finished")
        self._note_presented(edge)
        self._steps += 1
        self._by_key[edge.key] = edge
        self._arrival[edge.key] = self._steps
        self.state.process(edge)
        before = self._projection.keys()
        self._expose(self._project())
        after = self._projection.keys()
        return Decision(
            accepted=edge.key in after,
            preempted=tuple(self._by_key[k] for k in sorted(before - after)),
        )

    def finish(self) -> Matching:
        """End of stream: expose the finalize output and return it."""
        self._steps += 1
        final = self.state.finalize()
        self._expose(final)
        self.finished = True
        return final

    @property
    def current_matching(self) -> Matching:
        return self._projection


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
