import gc
import math
import os
import random
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from semimatch.core import (
    Edge,
    GreedyMatching,
    Matching,
    StreamFormatError,
    StreamSource,
    format_stream,
    load_stream,
)
from semimatch.oracle import max_weight_matching_exact
from semimatch.preemptive import make_victim

_CANONICAL = ("0", "1", "7", "10", "12")
_TOKENS = _CANONICAL + ("007", "07", "+7", "1_0", "-0", "\u0663")


def E(u, v, w=1.0):
    return Edge(u, v, w)


def held(text):
    """The held stream of ``text``, written as UTF-8 to a file of its own.

    It makes its own directory rather than take a fixture, so that tests
    under hypothesis can call it once per example.
    """
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "stream.txt")
        with open(path, "wb") as handle:
            handle.write(text.encode("utf-8"))
        stream = load_stream(path)
        stream.hold()
        return stream


# Canonical ids (some at or above a small n) and labels, among them "007".
_VERTEX = st.sampled_from(("0", "1", "2", "3", "7", "x", "y", "007"))
# A valid Edge weight: a positive finite float, or an int that a float holds exactly.
_EDGE_WEIGHT = st.one_of(st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
                         st.integers(min_value=1, max_value=2 ** 53))
_WEIGHT = st.sampled_from(("1.0", "2.5", "0.5", "4.0", "1.5", "3.0", "2.0", "oops"))


@st.composite
def _stream_lines(draw):
    """Edge lines, some repeating an earlier pair in either orientation, among
    comment and blank lines."""
    lines = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        earlier = [line.split()[:2] for line in lines if line[:1] not in ("", " ", "#")]
        kind = draw(st.sampled_from(("edge", "edge", "edge", "repeat", "repeat", "other", "loop")))
        if kind == "repeat" and earlier:
            pair = draw(st.permutations(draw(st.sampled_from(earlier))))
        elif kind == "other":
            lines.append(draw(st.sampled_from(("# c", "", "  ", "#0 1 1.0"))))
            continue
        elif kind == "loop":
            pair = [draw(_VERTEX)] * 2
        else:
            pair = draw(st.lists(_VERTEX, min_size=2, max_size=2, unique=True))
        lines.append(" ".join([*pair, draw(_WEIGHT)]))
    return lines


def _naive_scan(header, lines, first_line):
    """What parsing ``lines`` after an optional ``n=header`` gives, by the README's rules.

    Returns ("fault", line, text in the message) or ("ok", n, edges, mapping).
    """
    edge_lines = [(lineno, *line.split()) for lineno, line in enumerate(lines, first_line)
                  if len(line.split()) == 3 and not line.startswith("#")]
    canonical = lambda t: t.isdigit() and t.isascii() and (t[0] != "0" or t == "0")
    labels = not all(canonical(a) and canonical(b) for _, a, b, _ in edge_lines)
    for lineno, a, b, w in edge_lines:
        if header is None and not (canonical(a) and canonical(b)):
            return "fault", lineno, "n= header is required"
        if w == "oops":
            return "fault", lineno, "bad weight"
        if a == b:
            return "fault", lineno, "self-loop"
    mapping = {t: i for i, t in enumerate(dict.fromkeys(
        t for _, a, b, _ in edge_lines for t in (a, b)))} if labels else None
    vertex = mapping.__getitem__ if labels else int
    edges = tuple(Edge(vertex(a), vertex(b), float(w)) for _, a, b, w in edge_lines)
    n = header if header else 1 + max((max(e.u, e.v) for e in edges), default=-1)
    if n < 1:
        return "fault", None, "empty stream"
    seen = set()
    for (lineno, *_), e in zip(edge_lines, edges):
        if max(e.u, e.v) >= n:
            return "fault", lineno, "exceeds"
        if e.key in seen:
            return "fault", lineno, "duplicate"
        seen.add(e.key)
    return "ok", n, edges, mapping


class TestEdge:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Edge(3, 3, 1.0)

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            Edge(0, 1, 0.0)
        with pytest.raises(ValueError):
            Edge(0, 1, -2.5)

    def test_rejects_negative_vertex(self):
        with pytest.raises(ValueError):
            Edge(-1, 2, 1.0)

    @pytest.mark.parametrize("u,v", [(0.0, 1), (1, 2.5), (True, 2), (0, False)])
    def test_rejects_non_int_vertex(self, u, v):
        with pytest.raises(ValueError, match="must be ints"):
            Edge(u, v, 1.0)

    def test_rejects_bool_weight(self):
        with pytest.raises(ValueError) as info:
            Edge(0, 1, True)
        assert str(info.value) == "edge weight must be a positive finite real, got True"

    @pytest.mark.parametrize("weight", [2 ** 53 + 1, 10 ** 400], ids=["odd_past_2_53", "past_max_float"])
    def test_rejects_int_weight_float_cannot_hold(self, weight):
        # The text format would read 2**53 + 1 back as 2**53, a different edge.
        with pytest.raises(ValueError, match="^edge weight must be a positive finite real"):
            Edge(0, 1, weight)

    def test_int_weight_float_holds_round_trips(self):
        s = StreamSource(2, [E(0, 1, 2 ** 60)])
        parsed = held(format_stream(s))
        assert parsed.edges == s.edges

    def test_key_is_orientation_independent(self):
        assert Edge(5, 2, 1.0).key == Edge(2, 5, 1.0).key == (2, 5)


class TestValidateMatching:
    """The Matching constructor checks every matching that GreedyMatching does not build."""

    def test_every_matching_but_the_greedy_one_is_checked(self, monkeypatch):
        checked = []
        check = Matching.__post_init__

        def spy(self):
            check(self)
            checked.append(self.edges)

        monkeypatch.setattr(Matching, "__post_init__", spy)
        edges = [E(0, 1, 2.0), E(1, 2, 3.0), E(2, 3, 1.0)]
        opt = max_weight_matching_exact(edges)
        victims = [make_victim(name) for name in ("threshold:1", "hold-first")]
        for victim in victims:
            for e in edges:
                victim.on_edge(e)
        held = [victim.current_matching for victim in victims]
        assert checked == [opt.edges, held[0].edges]  # the oracle's and the threshold victim's
        greedy = GreedyMatching()
        greedy.extend(edges)
        assert greedy.matching() == held[1] and len(checked) == 2

    def test_empty_is_a_matching(self):
        assert Matching().edges == Matching([]).edges == ()

    def test_shared_endpoint_conflicts(self):
        with pytest.raises(ValueError) as info:
            Matching(iter([E(0, 1), E(1, 2)]))
        assert str(info.value) == ("not a matching: vertex 1 shared by "
                                   f"{E(0, 1)} and {E(1, 2)}")

    def test_disjoint_edges_ok(self):
        assert Matching([E(0, 1, 1.0), E(2, 3, 5.0)]).keys() == {(0, 1), (2, 3)}


class TestMatchingWeight:
    def test_empty(self):
        assert Matching().weight == 0.0

    def test_single(self):
        assert Matching([E(0, 1, 3.5)]).weight == 3.5

    def test_two(self):
        assert Matching([E(0, 1, 1.0), E(2, 3, 2.0)]).weight == 3.0

    @given(st.lists(st.floats(min_value=1e-3, max_value=1e6), min_size=0, max_size=12),
           st.randoms(use_true_random=False))
    def test_permutation_invariant(self, weights, rng):
        edges = [E(2 * i, 2 * i + 1, w) for i, w in enumerate(weights)]
        shuffled = list(edges)
        rng.shuffle(shuffled)
        assert Matching(edges).weight == Matching(shuffled).weight


class TestMatching:
    def test_from_edges_caches_weight(self):
        m = Matching(e for e in [E(0, 1, 1.5), E(2, 3, 2.5)])
        assert m.edges == (E(0, 1, 1.5), E(2, 3, 2.5))
        assert m.weight == 4.0
        assert len(m) == 2

    def test_rejects_conflict(self):
        with pytest.raises(ValueError, match="not a matching"):
            Matching([E(0, 1), E(1, 2)])

    def test_weight_is_derived(self):
        edges = (E(0, 1, 0.1), E(2, 3, 0.2), E(4, 5, 0.3))
        with pytest.raises(TypeError):
            Matching(edges=edges, weight=3.0)
        assert Matching(edges).weight == math.fsum(e.weight for e in edges)


class TestGreedyMatching:
    def test_keeps_an_edge_only_when_both_ends_are_free(self):
        greedy = GreedyMatching()
        kept = [greedy.add(e) for e in (E(0, 1), E(1, 2), E(2, 3), E(3, 0), E(4, 5))]
        assert kept == [True, False, True, False, True]
        assert greedy.edges == [E(0, 1), E(2, 3), E(4, 5)]
        assert greedy.cover == {0, 1, 2, 3, 4, 5}

    def test_matching_is_what_the_checked_constructor_gives(self):
        greedy = GreedyMatching()
        greedy.extend([E(0, 1, 0.1), E(1, 2, 5.0), E(2, 3, 0.2), E(4, 5, 0.3)])
        matching = greedy.matching()
        assert matching == Matching(greedy.edges)
        assert matching.edges == (E(0, 1, 0.1), E(2, 3, 0.2), E(4, 5, 0.3))
        assert matching.weight == math.fsum([0.1, 0.2, 0.3])
        greedy.add(E(6, 7, 1.0))  # a later edge leaves the matching taken before it alone
        assert len(matching) == 3 and len(greedy.matching()) == 4


class TestStreamSource:
    def test_counts_passes(self):
        s = StreamSource(4, [E(0, 1), E(2, 3)])
        assert s.passes == 0
        list(s.rows())
        list(s.rows())
        assert s.passes == 2

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(ValueError, match="num_vertices"):
            StreamSource(2, [E(0, 5)])
        with pytest.raises(ValueError, match="vertex id 3 exceeds the largest id 2"):
            StreamSource(3, [E(0, 1), E(1, 2), E(2, 3)])

    @pytest.mark.parametrize("n, message", [
        (2.5, "num_vertices must be an int, got 2.5"),
        (3.0, "num_vertices must be an int, got 3.0"),
        (True, "num_vertices must be an int, got True")])
    def test_rejects_non_int_count(self, n, message):
        with pytest.raises(ValueError) as info:
            StreamSource(n, [E(0, 1, 1.0)])
        assert str(info.value) == message

    def test_repr_gives_the_counts(self):
        assert repr(StreamSource(4, [E(0, 1), E(2, 3)])) == "StreamSource(n=4, m=2)"

    def test_rejects_duplicate_either_orientation(self):
        with pytest.raises(ValueError, match="duplicate"):
            StreamSource(3, [E(0, 1, 1.0), E(1, 0, 2.0)])
        with pytest.raises(ValueError, match="duplicate edge between 2 and 3"):
            StreamSource(4, [E(0, 1), E(2, 3), E(3, 2)])


class TestFileStream:
    def test_length_is_known_once_the_read_ends(self, tmp_path):
        path = tmp_path / "stream.txt"
        path.write_text("n=4\n0 1 1.0\n2 3 2.0\n")
        stream = load_stream(str(path))
        with pytest.raises(ValueError, match="no length until its read ends"):
            len(stream)
        assert list(stream.rows()) == [(0, 1, 1.0, None), (2, 3, 2.0, None)]
        assert len(stream) == 2
        # A read that raises has no length either.
        path.write_text("n=4\n0 1 1.0\n1 0 2.0\n")
        stream = load_stream(str(path))
        with pytest.raises(StreamFormatError, match="duplicate"):
            list(stream.rows())
        with pytest.raises(ValueError, match="no length until its read ends"):
            len(stream)
        # A file without the header is held as it opens.
        path.write_text("0 1 1.0\n2 3 2.0\n")
        assert len(load_stream(str(path))) == 2

    def test_repr_of_a_lazy_stream_gives_its_count_once_read(self, tmp_path):
        path = tmp_path / "stream.txt"
        path.write_text("n=4\n0 1 1.0\n2 3 2.0\n")
        stream = load_stream(str(path))
        assert repr(stream) == "StreamSource(n=4, m=?)"
        list(stream.rows())
        assert repr(stream) == "StreamSource(n=4, m=2)"
        assert (stream.ids, stream.labels, len(stream.sha256)) == ([0, 1, 2, 3], None, 64)
        built = StreamSource(4, [E(0, 1), E(2, 3)])
        built.hold()  # a stream built from edges is held already
        assert (built.ids, built.labels, built.sha256, built.passes) == (None, None, None, 0)

    def test_a_stream_read_by_its_pass_is_not_held_after(self, tmp_path):
        path = tmp_path / "stream.txt"
        path.write_text("n=4\n0 1 1.0\n2 3 2.0\n")
        stream = load_stream(str(path))
        list(stream.rows())
        for again in (stream.hold, stream.rows):
            with pytest.raises(ValueError, match="is read once"):
                again()
        assert (stream.edges, len(stream), stream.passes) == (None, 2, 1)

    def test_a_held_stream_drops_the_numbering_of_its_tokens(self, tmp_path):
        # 10,000 distinct ids in 5,000 edges: the edges and their ids take 0.68 MiB,
        # and the numbering of the tokens, once held with them, took 1.07 MiB more.
        path = tmp_path / "stream.txt"
        path.write_text("n=10000\n" + "".join(f"{i} {i + 5000} 1.0\n" for i in range(5000)))
        gc.collect()
        tracemalloc.start()
        try:
            stream = load_stream(str(path))
            stream.hold()
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert (stream.ids, stream.labels, len(stream)) == (None, None, 5000)
        assert stream.edges[-1] == Edge(4999, 9999, 1.0)
        assert kept / 2**20 < 1.0
        # A label file keeps its labels.
        stream = held("n=3\n007 7 1.0\n7 alice 2.0\n")
        assert stream.labels == {"007": 0, "7": 1, "alice": 2}
        assert stream.ids is None
        assert stream.edges == (Edge(0, 1, 1.0), Edge(1, 2, 2.0))


class TestParsing:
    def test_numeric_round_trip(self):
        s = StreamSource(6, [E(0, 1, 1.25), E(4, 5, 0.5)])
        parsed = held(format_stream(s))
        assert parsed.labels is None
        assert parsed.num_vertices == 6
        assert parsed.edges == s.edges

    def test_comments_and_blanks(self):
        text = "# a comment\n\nn=3\n0 1 2.0\n# trailing\n"
        parsed = held(text)
        assert len(parsed) == 1
        assert parsed.num_vertices == 3

    def test_string_labels_need_header(self):
        with pytest.raises(StreamFormatError, match="n= header is required"):
            held("alice bob 2.0\n")
        # a negative id is a label, not an id
        with pytest.raises(StreamFormatError, match="n= header is required") as excinfo:
            held("0 1 1.0\n-1 2 2.0\n")
        assert excinfo.value.line == 2

    def test_string_labels_remapped_in_order(self):
        parsed = held("n=4\nalice bob 2.0\ncarol alice 1.0\n")
        assert parsed.labels == {"alice": 0, "bob": 1, "carol": 2}
        assert parsed.edges[1] == Edge(2, 0, 1.0)
        # numeric labels before the first other label are remapped too
        parsed = held("n=4\n5 6 1.0\nalice 5 2.0\n")
        assert parsed.labels == {"5": 0, "6": 1, "alice": 2}
        assert parsed.edges == (Edge(0, 1, 1.0), Edge(2, 0, 2.0))
        parsed = held("n=3\n-1 0 1.0\n")
        assert parsed.labels == {"-1": 0, "0": 1}
        # distinct labels that int() reads as one id are not a self-loop in a label file
        parsed = held("n=4\n007 7 1.0\nalice 7 1.0\n")
        assert parsed.labels == {"007": 0, "7": 1, "alice": 2}
        assert parsed.edges == (Edge(0, 1, 1.0), Edge(2, 1, 1.0))
        # three fields make an edge line, even one whose first label starts with n=
        parsed = held("n=3\nn=x y 1.0\n")
        assert parsed.labels == {"n=x": 0, "y": 1}
        assert parsed.edges == (Edge(0, 1, 1.0),)

    def test_error_carries_line_number(self):
        with pytest.raises(StreamFormatError) as excinfo:
            held("0 1 2.0\n0 1\n")
        assert excinfo.value.line == 2
        assert "line 2" in str(excinfo.value)

    @pytest.mark.parametrize("text, message, line", [
        ("0 1 1.0\nn=2\n", "n= header must precede edge lines", 2),
        ("n=2\n# again\nn=2\n", "duplicate n= header", 3),
        ("n=3\nn=x\n", "duplicate n= header", 2),
        # Three fields are an edge line, which the duplicate's locator counts too.
        ("n=4\nn=x y 1.0\nn=x y 2.0\n", "duplicate edge between 0 and 1", 3),
        ("n=x\n0 1 1.0\n", "bad vertex count 'x'", 1),
        ("# n\nn=1_0\n0 1 1.0\n", "bad vertex count '1_0'", 2),
        ("n=+4\n", "bad vertex count '\\+4'", 1),
        ("n= 4\n", "bad vertex count ' 4'", 1),
        ("n=\u0663\n", "bad vertex count '\u0663'", 1),
        ("n=04\n", "bad vertex count '04'", 1),
        ("n=-1\n", "bad vertex count '-1'", 1),
        ("n=\n", "bad vertex count ''", 1),
        pytest.param("n=" + "9" * 5000 + "\n", "bad vertex count '9999", 1,
                     id="count-past-int-digit-limit"),
        ("n=0\n", "n= must be positive", 1),
        ("# nothing\n\n", "empty stream needs an n= header", None),
    ])
    def test_header_faults(self, text, message, line):
        with pytest.raises(StreamFormatError, match=message) as excinfo:
            held(text)
        assert excinfo.value.line == line

    def test_one_id_twice_is_self_loop_in_numeric_file(self):
        with pytest.raises(StreamFormatError, match="self-loop at vertex 7") as excinfo:
            held("n=8\n0 1 1.0\n7 7 1.0\n2 3 1.0\n")
        assert excinfo.value.line == 3

    def test_only_canonical_decimal_tokens_are_ids(self):
        # "007" is a label, not a second spelling of 7: the file becomes a label file.
        parsed = held("n=8\n0 1 1.0\n007 7 1.0\n2 3 1.0\n")
        assert parsed.labels == {"0": 0, "1": 1, "007": 2, "7": 3, "2": 4, "3": 5}
        assert parsed.edges == (Edge(0, 1, 1.0), Edge(2, 3, 1.0), Edge(4, 5, 1.0))
        parsed = held("n=11\n0 1_0 1.0\n0 10 2.0\n")
        assert parsed.labels == {"0": 0, "1_0": 1, "10": 2}
        assert parsed.edges == (Edge(0, 1, 1.0), Edge(0, 2, 2.0))
        for token in ("007", "+7", "1_0", "-0", "\u0663"):
            with pytest.raises(StreamFormatError, match="n= header is required") as excinfo:
                held(f"0 1 1.0\n{token} 2 1.0\n")
            assert excinfo.value.line == 2

    def test_id_beyond_int_digit_limit(self):
        # int() refuses more than 4,300 digits; a canonical token that long is still an id.
        with pytest.raises(StreamFormatError, match="5000 digits") as excinfo:
            held("n=3\n0 1 1.0\n1 " + "9" * 5000 + " 1.0\n")
        assert excinfo.value.line == 3

    @given(st.lists(st.tuples(st.sampled_from(_TOKENS), st.sampled_from(_TOKENS)), max_size=12))
    def test_tokens_name_vertices_one_to_one(self, pairs):
        pairs = list({frozenset(p): p for p in pairs if p[0] != p[1]}.values())
        # n=13 exceeds every canonical id and the number of distinct tokens.
        text = "n=13\n" + "".join(f"{a} {b} 1.0\n" for a, b in pairs)
        parsed = held(text)
        vertex_of: dict[str, int] = {}
        for (a, b), e in zip(pairs, parsed.edges, strict=True):
            assert vertex_of.setdefault(a, e.u) == e.u
            assert vertex_of.setdefault(b, e.v) == e.v
        assert len(set(vertex_of.values())) == len(vertex_of)
        tokens = [t for pair in pairs for t in pair]
        if all(t in _CANONICAL for t in tokens):
            assert parsed.labels is None
        else:
            assert parsed.labels == {t: i for i, t in enumerate(dict.fromkeys(tokens))}

    def test_labels_over_n_are_an_id_range_fault(self):
        # More labels than n is held until the file ends, after every in-line fault.
        with pytest.raises(StreamFormatError, match="bad weight 'oops'") as excinfo:
            held("n=2\nalice bob 1.0\ncarol alice 1.0\nx y oops\n")
        assert excinfo.value.line == 4
        with pytest.raises(StreamFormatError) as excinfo:
            held("n=2\nalice bob 1.0\ncarol alice 1.0\n")
        assert str(excinfo.value) == ("line 3: vertex id 2 exceeds the largest id 1 for "
                                      "num_vertices=2: 'carol alice 1.0'")

    def test_bad_weight_line_number(self):
        with pytest.raises(StreamFormatError) as excinfo:
            held("0 1 2.0\n2 3 oops\n")
        assert excinfo.value.line == 2

    def test_duplicate_edge_rejected(self):
        with pytest.raises(StreamFormatError, match="duplicate"):
            held("0 1 2.0\n1 0 3.0\n")
        with pytest.raises(StreamFormatError, match="duplicate") as excinfo:
            held("n=4\nalice bob 1.0\n# again\n\nbob alice 2.0\n")
        assert excinfo.value.line == 5
        assert "bob alice" in str(excinfo.value)

    def test_id_exceeding_header(self):
        with pytest.raises(StreamFormatError, match="exceeds") as excinfo:
            held("n=2\n0 5 1.0\n")
        assert excinfo.value.line == 2
        with pytest.raises(StreamFormatError, match="exceeds") as excinfo:
            held("n=3\n# c\n0 1 1.0\n\n1 2 1.0\n2 3 1.0\n")
        assert excinfo.value.line == 6

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_line_breaks_from_a_file(self, tmp_path, newline):
        # A label file with a duplicate: the ids read before the first label
        # are remapped, and the duplicate's line is found in the same pass.
        text = newline.join(["n=4", "0 1 1.0", "# c", "", "alice 1 1.0", "1 alice 2.0", ""])
        path = tmp_path / "stream.txt"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(StreamFormatError, match="duplicate") as excinfo:
            load_stream(str(path)).hold()
        assert excinfo.value.line == 6
        path.write_bytes(text.replace("1 alice", "bob alice").encode("utf-8"))
        parsed = load_stream(str(path))
        parsed.hold()
        assert parsed.labels == {"0": 0, "1": 1, "alice": 2, "bob": 3}
        assert parsed.edges == (Edge(0, 1, 1.0), Edge(2, 1, 1.0), Edge(3, 2, 2.0))

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_non_utf8_byte_reported_at_its_line(self, tmp_path, newline):
        # The byte sits past the decoder's first chunk, in the 5,001st edge.
        lines = ["n=5002"] + [f"{i} {i + 1} 1.5" for i in range(5000)]
        path = tmp_path / "stream.txt"
        path.write_bytes(newline.join(lines + ["5000 5001 2.5\xff", ""]).encode("latin-1"))
        with pytest.raises(StreamFormatError, match="0xff is not UTF-8") as excinfo:
            load_stream(str(path)).hold()
        assert excinfo.value.line == 5002

    def test_fault_before_a_bad_byte_in_one_decoder_chunk(self, tmp_path):
        # Both lines lie in the reader's first 8 KiB; the earlier line's fault wins.
        lines = ["n=50", "0 1 oops"] + [f"{i} {i + 1} 1.5" for i in range(2, 39)]
        path = tmp_path / "stream.txt"
        path.write_bytes("\n".join(lines + ["39 40 2.5\xff", ""]).encode("latin-1"))
        assert path.stat().st_size < 8192
        with pytest.raises(StreamFormatError, match="bad weight 'oops'") as excinfo:
            load_stream(str(path)).hold()
        assert excinfo.value.line == 2

    @pytest.mark.parametrize("data", [b"n=3\n0 1 1.0\n1 x\xff 2.0\n", b"n=3\n0 1 1.0\n# c\xff\n"],
                             ids=["label", "comment"])
    def test_non_utf8_byte_in_a_label_or_a_comment(self, tmp_path, data):
        path = tmp_path / "stream.txt"
        path.write_bytes(data)
        with pytest.raises(StreamFormatError) as excinfo:
            load_stream(str(path)).hold()
        assert str(excinfo.value) == "line 3: byte 0xff is not UTF-8 (invalid start byte)"

    def test_only_lf_crlf_cr_end_lines(self):
        # A form feed is whitespace inside a line, not a line break.
        with pytest.raises(StreamFormatError, match="6 fields") as excinfo:
            held("0 1 1.0\f2 3 1.0\n")
        assert excinfo.value.line == 1

    def test_too_many_labels_for_header(self):
        with pytest.raises(StreamFormatError) as excinfo:
            held("n=2\nalice bob 1.0\ncarol alice 1.0\n")
        assert excinfo.value.line == 3
        assert "carol" in str(excinfo.value)

    @settings(max_examples=500)
    @given(st.sampled_from((None, 1, 3, 4, 6, 8)), _stream_lines())
    def test_one_pass_matches_a_naive_scan(self, header, lines):
        text = "".join(f"{line}\n" for line in ([f"n={header}"] if header else []) + lines)
        expected = _naive_scan(header, lines, first_line=2 if header else 1)
        try:
            parsed = held(text)
        except StreamFormatError as exc:
            assert expected[0] == "fault", (text, exc)
            assert (exc.line, expected[2] in str(exc)) == (expected[1], True), (text, exc)
            return
        assert expected[0] == "ok", text
        _, num_vertices, edges, labels = expected
        public = StreamSource(parsed.num_vertices,
                              [Edge(e.u, e.v, e.weight) for e in parsed.edges])
        assert (public.num_vertices, public.edges) == (parsed.num_vertices, parsed.edges)
        assert (parsed.num_vertices, parsed.edges, parsed.labels) == (num_vertices, edges, labels)

    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9), _EDGE_WEIGHT)
                    .filter(lambda row: row[0] != row[1]),
                    max_size=20, unique_by=lambda row: frozenset(row[:2])),
           st.integers(min_value=0, max_value=3))
    def test_format_then_parse_gives_the_stream_back(self, rows, extra):
        edges = [Edge(u, v, w) for u, v, w in rows]
        stream = StreamSource(1 + extra + max((max(e.u, e.v) for e in edges), default=0), edges)
        parsed = held(format_stream(stream))
        assert parsed.labels is None
        assert (parsed.num_vertices, parsed.edges) == (stream.num_vertices, stream.edges)

    @given(st.integers(min_value=0, max_value=2 ** 31), st.integers(min_value=2, max_value=9),
           st.integers(min_value=0, max_value=12))
    def test_random_round_trip(self, seed, n, m):
        rng = random.Random(seed)
        seen = set()
        edges = []
        for _ in range(m):
            u, v = rng.sample(range(n), 2)
            key = (min(u, v), max(u, v))
            if key in seen:
                continue
            seen.add(key)
            edges.append(Edge(u, v, rng.uniform(0.001, 1e6)))
        stream = StreamSource(n, edges)
        parsed = held(format_stream(stream))
        assert parsed.edges == stream.edges
        assert parsed.num_vertices == stream.num_vertices
