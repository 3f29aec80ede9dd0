"""Graph primitives shared by every other module: edges, matchings, streams.

Values other than the :class:`GreedyMatching` builder are immutable and
safe to share between concurrent tasks.  The edge-stream text format of
:func:`parse_stream_text` is one edge per line, ``<u> <v> <weight>``
whitespace-separated, ``#`` comment lines, and an optional ``n=<count>``
header (required when vertex labels are non-numeric).
"""

from __future__ import annotations

import io
import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, TextIO

__all__ = [
    "Edge", "Matching", "GreedyMatching", "StreamSource", "StreamEdgeError",
    "StreamFormatError", "parse_stream_text", "format_stream", "load_stream",
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
class Matching:
    """Vertex-disjoint edge set; ``weight`` is their exactly-rounded sum.

    Takes any iterable of edges (``Matching()`` is empty) and raises
    ValueError when two of them share a vertex.
    """

    edges: tuple[Edge, ...] = ()
    weight: float = field(init=False)

    def __post_init__(self) -> None:
        edges = tuple(self.edges)
        cover: dict[int, Edge] = {}
        for e in edges:
            for vertex in (e.u, e.v):
                if vertex in cover:
                    raise ValueError(
                        f"not a matching: vertex {vertex} shared by {cover[vertex]} and {e}")
                cover[vertex] = e
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "weight", math.fsum(e.weight for e in edges))

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self) -> Iterator[Edge]:
        return iter(self.edges)

    def keys(self) -> set[tuple[int, int]]:
        return {e.key for e in self.edges}


class GreedyMatching:
    """A matching grown greedily in ``edges``, whose endpoints are ``cover``."""

    __slots__ = ("edges", "cover")

    def __init__(self) -> None:
        self.edges: list[Edge] = []
        self.cover: set[int] = set()

    def add(self, edge: Edge) -> bool:
        """Keep the edge if neither end is covered; return whether it was kept."""
        if edge.u in self.cover or edge.v in self.cover:
            return False
        self.edges.append(edge)
        self.cover.add(edge.u)
        self.cover.add(edge.v)
        return True


class StreamEdgeError(ValueError):
    """An edge that :class:`StreamSource` rejects; ``index`` is its position."""

    def __init__(self, message: str, index: int):
        self.index = index
        super().__init__(message)


class StreamSource:
    """A declared vertex count plus a sequence of distinct edges.

    Construction checks each edge's ids against the count and rejects a
    repeated vertex pair in either orientation (:class:`StreamEdgeError`).
    Iterating delivers the edges one at a time, in order.  ``passes``
    counts how many iterations have been requested; single-pass
    algorithms are audited against it.
    """

    def __init__(self, num_vertices: int, edges: Iterable[Edge]):
        if num_vertices < 1:
            raise ValueError("num_vertices must be positive")
        edges = tuple(edges)
        seen: set[tuple[int, int]] = set()
        for index, e in enumerate(edges):
            if e.u >= num_vertices or e.v >= num_vertices:
                raise StreamEdgeError(f"vertex id {max(e.u, e.v)} exceeds the largest id "
                                      f"{num_vertices - 1} for num_vertices={num_vertices}", index)
            key = e.key
            if key in seen:
                raise StreamEdgeError(f"duplicate edge between {key[0]} and {key[1]}", index)
            seen.add(key)
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
    were not ids (None when ids were used verbatim).  A token is an id
    only when it is canonical ASCII decimal (``0`` or ``[1-9][0-9]*``);
    one other token makes every token a label.  A line of three fields is
    an edge line; any other line that starts with ``n=`` is the header,
    whose count must be canonical and positive.  Labels require the
    header and are remapped densely in order of first appearance.  Faults
    within a line are reported first; id range (for labels, more labels
    than ``n``) and duplicate edges are checked by :class:`StreamSource`.
    A line ends at LF, CRLF or CR.
    """
    return _parse_lines(io.StringIO(text, newline=None))


def _is_header(line: str) -> bool:
    """Whether a stripped line is the ``n=`` header: three fields are always an edge."""
    return line.startswith("n=") and len(line.split()) != 3


def _parse_lines(handle: TextIO) -> tuple[StreamSource, Optional[dict[str, int]]]:
    """Parse a handle in one forward pass; only a fault found by StreamSource seeks back."""
    header_n: Optional[int] = None
    mapping: Optional[dict[str, int]] = None
    edges: list[Edge] = []
    for lineno, raw in enumerate(handle, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            if not _is_header(line):
                raise StreamFormatError(
                    f"expected '<u> <v> <weight>', got {len(parts)} fields", lineno)
            if edges:
                raise StreamFormatError("n= header must precede edge lines", lineno)
            if header_n is not None:
                raise StreamFormatError("duplicate n= header", lineno)
            count = line[2:]
            try:
                if not (count.isascii() and count.isdigit() and (count[0] != "0" or count == "0")):
                    raise ValueError(count)
                header_n = int(count)  # also raises past int()'s digit limit
            except ValueError:
                raise StreamFormatError(f"bad vertex count {count!r}", lineno) from None
            if header_n < 1:
                raise StreamFormatError("n= must be positive", lineno)
            continue
        a, b, w = parts
        if (mapping is None and a.isdigit() and b.isdigit() and a.isascii() and b.isascii()
                and (a[0] != "0" or a == "0") and (b[0] != "0" or b == "0")):
            try:
                u, v = int(a), int(b)
            except ValueError:
                raise StreamFormatError(
                    f"vertex id of {max(len(a), len(b))} digits is longer than int() reads",
                    lineno) from None
        else:
            if mapping is None:
                if header_n is None:
                    raise StreamFormatError(
                        "n= header is required when vertex labels are non-numeric", lineno)
                # A canonical id prints back as its own label.
                mapping = {}
                edges = [Edge(mapping.setdefault(str(e.u), len(mapping)),
                              mapping.setdefault(str(e.v), len(mapping)), e.weight)
                         for e in edges]
            u = mapping.setdefault(a, len(mapping))
            v = mapping.setdefault(b, len(mapping))
        try:
            weight = float(w)
        except ValueError:
            raise StreamFormatError(f"bad weight {w!r}", lineno) from None
        try:
            edges.append(Edge(u, v, weight))
        except ValueError as exc:
            raise StreamFormatError(str(exc), lineno) from None
    num_vertices = (header_n if header_n is not None
                    else 1 + max((max(e.u, e.v) for e in edges), default=-1))
    if num_vertices < 1:
        raise StreamFormatError("empty stream needs an n= header")
    try:
        return StreamSource(num_vertices, edges), mapping
    except StreamEdgeError as exc:
        handle.seek(0)
        edge_lines = ((lineno, line) for lineno, raw in enumerate(handle, start=1)
                      if (line := raw.strip()) and not line.startswith("#")
                      and not _is_header(line))
        lineno, line = next(itertools.islice(edge_lines, exc.index, None))
        raise StreamFormatError(f"{exc}: {line!r}", lineno) from None


def format_stream(stream: StreamSource) -> str:
    """Render a stream in the text format (always with the n= header)."""
    lines = [f"n={stream.num_vertices}"]
    lines.extend(f"{e.u} {e.v} {e.weight!r}" for e in stream.edges)
    return "\n".join(lines) + "\n"


def _not_utf8(data: bytes, exc: UnicodeDecodeError) -> StreamFormatError:
    """Report the first byte of a file that is not UTF-8, on its line.

    ``exc`` comes from the text decoder, whose offsets count from its
    chunk, so the bytes are decoded again whole.  No UTF-8 sequence holds a
    CR or LF byte, so line ends are counted on the bytes before the fault.
    """
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as whole:
        lineno = 1 + len(re.findall(rb"\r\n|\r|\n", data[:whole.start]))
        return StreamFormatError(
            f"byte 0x{data[whole.start]:02x} is not UTF-8 ({whole.reason})", lineno)
    return StreamFormatError(f"not UTF-8 ({exc.reason}); the file changed while read")


def load_stream(path: str) -> tuple[StreamSource, Optional[dict[str, int]]]:
    """Read and parse an edge-stream file; a pipe, which cannot be reread, is refused.

    A byte that is not UTF-8 raises :class:`StreamFormatError` with its line.
    """
    with open(path, "r", encoding="utf-8") as handle:
        if not handle.seekable():
            raise ValueError(f"stream {path!r} is not seekable; pass a regular file, not a pipe")
        try:
            return _parse_lines(handle)
        except UnicodeDecodeError as exc:
            handle.seek(0)
            raise _not_utf8(handle.buffer.read(), exc) from None
