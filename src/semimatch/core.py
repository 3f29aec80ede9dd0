"""Graph primitives shared by every other module: edges, matchings, streams.

All values are immutable after construction and safe to share between
concurrent tasks.  The edge-stream text format understood by
:func:`parse_stream_text` is one edge per line, ``<u> <v> <weight>``
whitespace-separated, ``#`` comment lines, and an optional ``n=<num>``
header (required when vertex labels are non-numeric).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

__all__ = [
    "Edge",
    "Matching",
    "StreamSource",
    "ValidityReport",
    "StreamFormatError",
    "validate_matching",
    "matching_weight",
    "parse_stream_text",
    "format_stream",
    "load_stream",
]


@dataclass(frozen=True, slots=True)
class Edge:
    """Undirected edge between two distinct vertices with weight > 0."""

    u: int
    v: int
    weight: float

    def __post_init__(self) -> None:
        if type(self.u) is not int or type(self.v) is not int:
            raise ValueError(f"vertex ids must be ints, got ({self.u!r}, {self.v!r})")
        if self.u < 0 or self.v < 0:
            raise ValueError(f"vertex ids must be non-negative, got ({self.u}, {self.v})")
        if self.u == self.v:
            raise ValueError(f"self-loop at vertex {self.u}")
        if not (self.weight > 0 and math.isfinite(self.weight)):
            raise ValueError(f"edge weight must be a positive finite real, got {self.weight}")

    @property
    def key(self) -> tuple[int, int]:
        """Orientation-independent identity of the edge."""
        return (self.u, self.v) if self.u < self.v else (self.v, self.u)


@dataclass(frozen=True, slots=True)
class ValidityReport:
    """Outcome of a matching validity scan.

    ``conflict`` holds the first pair of edges sharing a vertex, together
    with the shared vertex, when ``ok`` is False.
    """

    ok: bool
    conflict: Optional[tuple[Edge, Edge, int]] = None


def validate_matching(edges: Iterable[Edge]) -> ValidityReport:
    """Report whether no vertex appears in two of the given edges."""
    cover: dict[int, Edge] = {}
    for e in edges:
        for vertex in (e.u, e.v):
            if vertex in cover:
                return ValidityReport(ok=False, conflict=(cover[vertex], e, vertex))
        cover[e.u] = e
        cover[e.v] = e
    return ValidityReport(ok=True)


def matching_weight(edges: Iterable[Edge]) -> float:
    """Combined weight of the edges.

    Uses an exactly-rounded sum, so the result does not depend on the
    order of the edge list.
    """
    if isinstance(edges, Matching):
        edges = edges.edges
    return math.fsum(e.weight for e in edges)


@dataclass(frozen=True, slots=True)
class Matching:
    """Vertex-disjoint edge set with its cached total weight."""

    edges: tuple[Edge, ...]
    weight: float

    def __post_init__(self) -> None:
        report = validate_matching(self.edges)
        if not report.ok:
            a, b, vertex = report.conflict  # type: ignore[misc]
            raise ValueError(f"not a matching: vertex {vertex} shared by {a} and {b}")
        exact = math.fsum(e.weight for e in self.edges)
        if abs(self.weight - exact) > 1e-12 * max(1.0, abs(exact)):
            raise ValueError(f"cached weight {self.weight} != edge sum {exact}")

    @classmethod
    def from_edges(cls, edges: Iterable[Edge]) -> "Matching":
        edges = tuple(edges)
        return cls(edges=edges, weight=math.fsum(e.weight for e in edges))

    @classmethod
    def empty(cls) -> "Matching":
        return cls(edges=(), weight=0.0)

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self) -> Iterator[Edge]:
        return iter(self.edges)

    def keys(self) -> set[tuple[int, int]]:
        return {e.key for e in self.edges}


class StreamSource:
    """A declared vertex count plus a sequence of distinct edges.

    Iterating delivers the edges one at a time, in order.  ``passes``
    counts how many iterations have been requested; single-pass
    algorithms are audited against it.
    """

    def __init__(self, num_vertices: int, edges: Iterable[Edge]):
        if num_vertices < 1:
            raise ValueError("num_vertices must be positive")
        edges = tuple(edges)
        seen: set[tuple[int, int]] = set()
        for e in edges:
            if e.u >= num_vertices or e.v >= num_vertices:
                raise ValueError(f"edge {e} has a vertex id >= num_vertices={num_vertices}")
            if e.key in seen:
                raise ValueError(f"duplicate edge between {e.key[0]} and {e.key[1]}")
            seen.add(e.key)
        self.num_vertices = num_vertices
        self.edges = edges
        self.passes = 0

    def __iter__(self) -> Iterator[Edge]:
        self.passes += 1
        return iter(self.edges)

    def __len__(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        return f"StreamSource(n={self.num_vertices}, m={len(self.edges)})"


class StreamFormatError(ValueError):
    """Malformed edge-stream text; carries the offending line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


def parse_stream_text(text: str) -> tuple[StreamSource, Optional[dict[str, int]]]:
    """Parse the edge-stream text format.

    Returns the stream plus the label-to-id mapping when vertex labels
    were non-numeric (None when ids were used verbatim).  Non-numeric
    labels require the ``n=`` header and are remapped densely in order
    of first appearance.
    """
    header_n: Optional[int] = None
    rows: list[tuple[int, str, str, str]] = []
    saw_edge = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("n="):
            if saw_edge:
                raise StreamFormatError("n= header must precede edge lines", lineno)
            if header_n is not None:
                raise StreamFormatError("duplicate n= header", lineno)
            try:
                header_n = int(line[2:])
            except ValueError:
                raise StreamFormatError(f"bad vertex count {line[2:]!r}", lineno) from None
            if header_n < 1:
                raise StreamFormatError("n= must be positive", lineno)
            continue
        parts = line.split()
        if len(parts) != 3:
            raise StreamFormatError(
                f"expected '<u> <v> <weight>', got {len(parts)} fields", lineno)
        rows.append((lineno, parts[0], parts[1], parts[2]))
        saw_edge = True

    def _as_id(token: str) -> Optional[int]:
        try:
            value = int(token)
        except ValueError:
            return None
        return value if value >= 0 else None

    numeric = all(
        _as_id(a) is not None and _as_id(b) is not None for _, a, b, _w in rows)
    mapping: Optional[dict[str, int]] = None
    if not numeric:
        if header_n is None:
            first = next(
                ln for ln, a, b, _w in rows if _as_id(a) is None or _as_id(b) is None)
            raise StreamFormatError(
                "n= header is required when vertex labels are non-numeric", first)
        mapping = {}

    edges: list[Edge] = []
    seen: set[tuple[int, int]] = set()
    max_id = -1
    for lineno, a, b, w in rows:
        if numeric:
            u, v = int(a), int(b)
        else:
            assert mapping is not None
            for label in (a, b):
                if label not in mapping:
                    mapping[label] = len(mapping)
            u, v = mapping[a], mapping[b]
        if header_n is not None and max(u, v) >= header_n:
            offender = a if u > v else b
            what = f"vertex id {max(u, v)}" if numeric else f"label {offender!r} (id {max(u, v)})"
            raise StreamFormatError(f"{what} exceeds declared n={header_n}", lineno)
        try:
            weight = float(w)
        except ValueError:
            raise StreamFormatError(f"bad weight {w!r}", lineno) from None
        try:
            edge = Edge(u, v, weight)
        except ValueError as exc:
            raise StreamFormatError(str(exc), lineno) from None
        if edge.key in seen:
            raise StreamFormatError(f"duplicate edge between {a} and {b}", lineno)
        seen.add(edge.key)
        max_id = max(max_id, u, v)
        edges.append(edge)

    num_vertices = header_n if header_n is not None else max_id + 1
    if num_vertices < 1:
        raise StreamFormatError("empty stream needs an n= header")
    return StreamSource(num_vertices, edges), mapping


def format_stream(stream: StreamSource) -> str:
    """Render a stream in the text format (always with the n= header)."""
    lines = [f"n={stream.num_vertices}"]
    lines.extend(f"{e.u} {e.v} {e.weight!r}" for e in stream.edges)
    return "\n".join(lines) + "\n"


def load_stream(path: str) -> tuple[StreamSource, Optional[dict[str, int]]]:
    """Read and parse an edge-stream file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_stream_text(handle.read())
