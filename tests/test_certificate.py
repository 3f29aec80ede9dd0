import pytest
from hypothesis import given, strategies as st

from semimatch.bucket import stream_bucket_run
from semimatch.certificate import (
    AnalysisCertificate,
    build_certificate,
    filter_to_final_window,
)
from semimatch.core import Edge, Matching, StreamSource
from semimatch.generators import (
    RandomInstanceConfig,
    UniformWeights,
    random_instance,
    tight_instance,
)
from semimatch.oracle import max_weight_matching_exact

REL = 1e-9


def chain_assert(cert):
    g = cert.gamma
    slack = 1 + REL
    assert cert.opt_rounded <= cert.opt_weight * slack
    assert cert.opt_weight <= g * cert.opt_rounded * slack
    assert cert.opt_rounded <= cert.total_associated_weight * slack
    assert cert.total_associated_weight <= (2 * g / (g - 1)) * cert.alg_weight * slack
    assert cert.chain_holds()


def build_for(stream, gamma, epsilon, delta=0.0):
    state = stream_bucket_run(stream, gamma, epsilon, delta)
    survivors = filter_to_final_window(state, stream.edges)
    opt = max_weight_matching_exact(survivors)
    return state, build_certificate(state, opt)


class TestSingleClass:
    def test_one_edge(self):
        stream = StreamSource(2, [Edge(0, 1, 1.5)])
        state, cert = build_for(stream, 2.0, 0.1)
        # one class-0 edge: both endpoints associated at weight phi*gamma^0 = 1
        assert cert.per_vertex_association == {0: (0, 1.0), 1: (0, 1.0)}
        assert cert.total_associated_weight == 2.0
        assert cert.opt_rounded == 1.0
        chain_assert(cert)


class TestTightInstance:
    def test_chain_and_tightness(self):
        stream = tight_instance(2.0, 2, 1e-6)
        state, cert = build_for(stream, 2.0, 0.01)
        chain_assert(cert)
        # rounded optimum equals the associated weight exactly on this family
        assert cert.opt_rounded == cert.total_associated_weight == 14.0
        # the rounding inequality is epsilon-tight here
        assert cert.gamma * cert.opt_rounded - cert.opt_weight == pytest.approx(
            6e-6, rel=1e-6)


class TestVertexAssociation:
    def test_highest_class_claims_vertex(self):
        # vertex 0 appears in the class-3 and class-1 matchings: associated with 3
        edges = [Edge(0, 1, 2.0), Edge(0, 2, 9.0)]
        state = stream_bucket_run(StreamSource(8, ()), 2.0, 0.01)
        for e in edges:
            state.process(e)
        assert sorted(state.matchings) == [1, 3]
        opt = max_weight_matching_exact(filter_to_final_window(state, edges))
        cert = build_certificate(state, opt)
        assert cert.per_vertex_association[0] == (3, 8.0)
        assert cert.per_vertex_association[1] == (1, 2.0)
        assert cert.per_vertex_association[2] == (3, 8.0)

    def test_association_sets_disjoint(self):
        stream = random_instance(RandomInstanceConfig(
            n=12, m=30, weight_law=UniformWeights(1, 500), seed=8))
        state, cert = build_for(stream, 2.0, 0.1)
        # dict keys are unique by construction; check weights match class floors
        for vertex, (i, w) in cert.per_vertex_association.items():
            assert w == pytest.approx(2.0 ** (i + state.delta), rel=1e-12)


class TestShiftedFloors:
    @given(st.floats(min_value=1.01, max_value=20.0), st.floats(min_value=0.0, max_value=0.999),
           st.integers(min_value=-60, max_value=60))
    def test_edge_at_a_floor_rounds_to_itself(self, gamma, delta, i):
        # OPT' rounds down to the floors class_index uses, gamma**(i+delta).
        stream = StreamSource(2, [Edge(0, 1, gamma ** (i + delta))])
        _state, cert = build_for(stream, gamma, 0.1, delta)
        assert cert.opt_rounded == cert.opt_weight


class TestErrors:
    def test_oracle_edge_below_final_threshold_rejected(self):
        state = stream_bucket_run(StreamSource(4, ()), 2.0, 1.0)
        state.process(Edge(0, 1, 1.0))
        state.process(Edge(2, 3, 4096.0))  # threshold 2048, window clamps high
        dead = Matching([Edge(0, 1, 1.0)])
        with pytest.raises(ValueError, match="below the final discard threshold"):
            build_certificate(state, dead)

    def test_oracle_edge_one_class_below_the_window_rejected(self):
        # At gamma=2, epsilon=1 and n=4, one edge of weight 4096 puts the threshold
        # at 4096/4*2 = 2048: the window starts at class 11, and 1024 is in class 10.
        state = stream_bucket_run(StreamSource(4, ()), 2.0, 1.0)
        state.process(Edge(2, 3, 4096.0))
        assert state.window[0] == 11
        build_certificate(state, Matching([Edge(0, 1, 2048.0)]))  # the window's own class
        with pytest.raises(ValueError, match=r"class 10, window \(11, "):
            build_certificate(state, Matching([Edge(0, 1, 1024.0)]))


class TestChainOnRandomInstances:
    @pytest.mark.parametrize("gamma,delta", [(2.0, 0.0), (3.513, 0.0), (2.0, 0.3), (3.513, 0.7)])
    def test_chain(self, gamma, delta):
        for seed in range(12):
            stream = random_instance(RandomInstanceConfig(
                n=12, m=30, weight_law=UniformWeights(0.5, 800), seed=seed))
            _state, cert = build_for(stream, gamma, 0.05, delta)
            chain_assert(cert)


def hand_cert(**fields):
    values = dict(gamma=2.0, alg_weight=1.0, opt_weight=1.0,
                  opt_rounded=1.0, total_associated_weight=1.0,
                  per_vertex_association={})
    values.update(fields)
    return AnalysisCertificate(**values)


class TestLinks:
    def test_four_named_links(self):
        assert hand_cert().links() == {
            "opt_rounded_le_opt": True,
            "opt_le_gamma_opt_rounded": True,
            "opt_rounded_le_tw": True,
            "tw_le_bound_times_alg": True,
        }

    def test_rounded_above_opt_breaks_chain(self):
        # OPT' exceeds OPT by far more than the 1e-9 relative slack
        cert = hand_cert(opt_weight=1.0, opt_rounded=1.5, total_associated_weight=1.5)
        links = cert.links()
        assert links["opt_rounded_le_opt"] is False
        assert all(ok for name, ok in links.items() if name != "opt_rounded_le_opt")
        assert cert.chain_holds() is False

    def test_links_share_chain_holds_slack(self):
        # a multiplicative (1 + 1e-9) factor on TW = 0 rejects OPT' = 1e-12;
        # the absolute floor of the shared slack accepts it
        cert = hand_cert(opt_weight=1e-12, opt_rounded=1e-12,
                         total_associated_weight=0.0, alg_weight=0.0)
        assert not cert.opt_rounded <= cert.total_associated_weight * (1 + 1e-9)
        assert cert.links()["opt_rounded_le_tw"] is True
        assert all(cert.links().values())
        assert cert.chain_holds() is True


class TestLinkBounds:
    # Each link reads True at its bound and False at (1 + 1e-6) times it, so a
    # link loosened by a larger factor, such as gamma, fails here.  The other
    # weights are 1.0, and OPT 1.5, so that every other link stays slack.
    @pytest.mark.parametrize("gamma", [2.0, 3.513])
    @pytest.mark.parametrize("link,side,bound", [
        ("opt_le_gamma_opt_rounded", "opt_weight", lambda g: g),
        ("opt_rounded_le_tw", "opt_rounded", lambda g: 1.0),
        ("tw_le_bound_times_alg", "total_associated_weight", lambda g: 2.0 * g / (g - 1.0)),
    ])
    def test_link_reads_false_just_past_its_bound(self, link, side, bound, gamma):
        for factor, holds in ((1.0, True), (1.0 + 1e-6, False)):
            links = hand_cert(**{"gamma": gamma, "opt_weight": 1.5,
                                 side: factor * bound(gamma)}).links()
            assert links == {name: holds if name == link else True for name in links}, factor
