import math

import networkx as nx
import numpy as np
import pytest

from conftest import random_cactus, random_connected_positive, random_cut_signed, random_signed
from resistnet import (
    DisconnectedGraphError,
    GraphConstructionError,
    MARGINAL,
    STABLE,
    SingularMatrixError,
    UNSTABLE,
    build_graph,
    classify_stability,
    connected_components,
    effective_resistance,
    is_psd,
    laplacian,
    lmi_psd_check,
    multi_negative_edge_thresholds,
    negative_cut_verdict,
    positive_subgraph,
    signature_of,
    signed_partition,
    single_negative_edge_threshold,
    total_resistance_necessary_check,
)

TRIANGLE = build_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])


def test_classify_triangle_stable():
    v = classify_stability(TRIANGLE)
    assert v.classification == STABLE
    assert v.signature.as_tuple() == (2, 0, 1)
    assert v.witnesses is None


def test_classify_marginal_triangle():
    g = build_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, -0.5)])
    v = classify_stability(g)
    assert v.classification == MARGINAL
    assert v.signature.as_tuple() == (1, 0, 2)


def test_classify_unstable_triangle():
    g = build_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, -0.6)])
    v = classify_stability(g)
    assert v.classification == UNSTABLE
    assert v.signature.as_tuple() == (1, 1, 1)
    assert v.witnesses is None  # not explained by a cut


def test_classify_unstable_with_cut_witnesses():
    g = build_graph(3, [(0, 1, 1.0), (1, 2, -1.0)])
    v = classify_stability(g)
    assert v.classification == UNSTABLE
    assert v.witnesses == (1,)


def test_classification_matches_direct_eigensolve():
    rng = np.random.default_rng(71)
    for _ in range(120):
        g = random_signed(rng)
        v = classify_stability(g)
        assert v.signature.as_tuple() == signature_of(laplacian(g)).as_tuple()


def test_disconnected_positive_graph_is_stable_with_extra_zeros():
    g = build_graph(4, [(0, 1, 1.0), (2, 3, 2.0)])
    v = classify_stability(g)
    assert v.classification == STABLE
    assert v.signature.as_tuple() == (2, 0, 2)


def test_lmi_psd_check_agrees_with_signature():
    rng = np.random.default_rng(73)
    # signed weights spread over 8 decades, so |W_-|^{-1} and W_+ differ by up to 1e8
    for _ in range(2000):
        g = random_signed(rng)
        g = build_graph(g.node_count, [(u, v, math.copysign(10.0 ** rng.uniform(-4, 4), w))
                                       for u, v, w in g.edges])
        psd = classify_stability(g).signature.n_minus == 0
        assert lmi_psd_check(g) == psd
    # positive graphs are PSD by structure; the dense eigensolve agrees,
    # also with weights spanning 9 decades
    for _ in range(60):
        g = random_connected_positive(rng)
        wide = build_graph(g.node_count, [(u, v, float(10.0 ** rng.uniform(-6, 3)))
                                          for u, v, _ in g.edges])
        for h in (g, wide):
            assert lmi_psd_check(h) is True
            assert is_psd(laplacian(h))


def test_lmi_boundary_cases():
    assert lmi_psd_check(build_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, -0.5)]))
    assert not lmi_psd_check(build_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, -0.6)]))


@pytest.mark.parametrize("g", [
    build_graph(3, [(0, 1, 8.465405873191932e-4), (1, 2, -1.3107757390152599e-05)]),
    build_graph(4, [(0, 1, -2.2677441935858138e-05), (0, 2, 0.012347899967758381),
                    (1, 3, 0.24237225536583298)]),
])
def test_lmi_psd_check_sees_a_negative_cut_at_any_weight_ratio(g):
    # a negative edge joins two components of G+, so L is indefinite at any
    # magnitude; one zero cut on a matrix holding both 1/|w_-| and w_+
    # would call these PSD
    assert classify_stability(g).classification == UNSTABLE
    assert lmi_psd_check(g) == (classify_stability(g).signature.n_minus == 0)
    assert lmi_psd_check(g) is False


@pytest.mark.parametrize("w, psd", [(-0.4, True), (-0.5, True), (-0.6, False)])
def test_lmi_psd_check_on_disconnected_graphs(w, psd):
    # negative edge inside one of two components: the other one adds zeros only
    g = build_graph(7, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, w),
                        (3, 4, 1.0), (3, 5, 2.0), (4, 5, 1.0), (5, 6, 0.5)])
    assert connected_components(g)[0] == 2
    assert lmi_psd_check(g) is psd
    assert lmi_psd_check(g) == (classify_stability(g).signature.n_minus == 0)


def test_lmi_psd_check_raises_where_total_resistance_check_does():
    # weights over 12 decades: the positive subgraph's kernel is sometimes
    # numerically singular, and both certificates read it through R_-
    rng = np.random.default_rng(83)
    raised = 0
    for _ in range(600):
        g = random_signed(rng, n_max=10)
        g = build_graph(g.node_count, [(u, v, math.copysign(10.0 ** rng.uniform(-6, 6), w))
                                       for u, v, w in g.edges])
        if connected_components(positive_subgraph(g))[0] != 1:
            continue
        outcomes = []
        for check in (lmi_psd_check, total_resistance_necessary_check):
            try:
                check(g)
                outcomes.append(None)
            except SingularMatrixError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        raised += outcomes[0] is not None
    assert raised >= 5


def test_negative_edge_certificates_skip_the_public_pair_check(monkeypatch):
    # R_- comes from the endpoints that build_graph checked, not through
    # node_pair_resistance_matrix's index and component checks
    from resistnet import resistance as rs

    def refuse(*args, **kwargs):
        raise AssertionError("node_pair_resistance_matrix was called")

    g = build_graph(5, [(0, 1, -0.3), (0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0), (2, 4, 1.0), (3, 4, -0.3)])
    monkeypatch.setattr(rs, "node_pair_resistance_matrix", refuse)
    assert lmi_psd_check(g)
    assert multi_negative_edge_thresholds(g).thresholds == {0: pytest.approx(0.5), 5: pytest.approx(0.5)}
    assert total_resistance_necessary_check(g)


def test_negative_cut_verdict():
    assert negative_cut_verdict(build_graph(3, [(0, 1, 1.0), (1, 2, -1.0)])) == "indefinite_by_cut"
    assert negative_cut_verdict(TRIANGLE) == "inconclusive"


def test_negative_cut_instability_any_magnitude():
    rng = np.random.default_rng(79)
    for mag in (1e-6, 1e6):
        for _ in range(10):
            g = random_cut_signed(rng, mag)
            assert classify_stability(g).signature.n_minus >= 1


def test_single_negative_edge_threshold_triangle():
    base = build_graph(3, [(0, 1, 1.0), (0, 2, 1.0)])
    thr = single_negative_edge_threshold(base, (1, 2))
    assert thr == pytest.approx(0.5)
    # attach the negative edge at, below, and above the threshold
    at = build_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, -thr)])
    below = build_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, -0.99 * thr)])
    above = build_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, -1.01 * thr)])
    assert classify_stability(at).classification == MARGINAL
    assert classify_stability(below).classification == STABLE
    assert classify_stability(above).classification == UNSTABLE


def test_single_negative_edge_threshold_preconditions():
    with pytest.raises(GraphConstructionError):
        single_negative_edge_threshold(build_graph(2, [(0, 1, -1.0)]), (0, 1))
    with pytest.raises(DisconnectedGraphError):
        single_negative_edge_threshold(build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)]), (1, 2))


def test_multi_edge_thresholds_two_triangles():
    # two unit triangles sharing node 2: thresholds 0.5 on each negative edge
    g = build_graph(
        5,
        [
            (0, 1, -0.3),
            (0, 2, 1.0),
            (1, 2, 1.0),
            (2, 3, 1.0),
            (2, 4, 1.0),
            (3, 4, -0.3),
        ],
    )
    res = multi_negative_edge_thresholds(g)
    assert res.applicable
    assert res.thresholds == {0: pytest.approx(0.5), 5: pytest.approx(0.5)}
    assert res.overlap is None


def test_multi_edge_thresholds_iff_direction():
    # below both thresholds -> PSD; pushing one above -> indefinite
    def g_at(m0, m5):
        return build_graph(
            5,
            [
                (0, 1, -m0),
                (0, 2, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (2, 4, 1.0),
                (3, 4, -m5),
            ],
        )

    assert classify_stability(g_at(0.45, 0.45)).signature.n_minus == 0
    assert classify_stability(g_at(0.55, 0.45)).signature.n_minus >= 1
    assert classify_stability(g_at(0.45, 0.55)).signature.n_minus >= 1


def test_multi_edge_thresholds_overlap_detected():
    # both negative edges chord the same 4-cycle: supports share edges
    g = build_graph(
        4,
        [
            (0, 1, 1.0),
            (0, 2, -0.1),
            (0, 3, 1.0),
            (1, 2, 1.0),
            (1, 3, -0.1),
            (2, 3, 1.0),
        ],
    )
    res = multi_negative_edge_thresholds(g)
    assert not res.applicable
    assert res.thresholds is None
    assert res.overlap == (1, 4)


def test_multi_edge_thresholds_match_simple_path_enumeration():
    # three or more negative edges: supports are read per edge from the
    # positive subgraph, never from the blocks of g itself, where blocks
    # merge through the negative edges and can name a pair that does not
    # overlap; random cactus graphs with one negative edge per ring add
    # applicable cases
    def enumerated(g):
        plus = nx.Graph()
        plus.add_nodes_from(range(g.node_count))
        plus.add_edges_from((u, v) for u, v, w in g.edges if w > 0)
        neg = [k for k, (_, _, w) in enumerate(g.edges) if w < 0]
        support = {}
        for k in neg:
            paths = nx.all_simple_paths(plus, g.edges[k][0], g.edges[k][1])
            support[k] = {frozenset(e) for p in paths for e in zip(p[:-1], p[1:])}
        return next(((a, b) for i, a in enumerate(neg) for b in neg[i + 1:]
                     if support[a] & support[b]), None)

    def usable(g):
        plus = positive_subgraph(g)
        return len(signed_partition(g).negative_edges) >= 3 and connected_components(plus)[0] == 1

    rng = np.random.default_rng(97)
    graphs = []
    while len(graphs) < 300:
        g = random_signed(rng, n_max=10)
        if usable(g):
            graphs.append(g)
    while len(graphs) < 360:
        g, blocks = random_cactus(rng, n_cap=24)
        flip = {int(rng.choice(b)) for b in blocks if len(b) > 2 and rng.random() < 0.8}
        g = build_graph(g.node_count, [(u, v, -w if k in flip else w)
                                       for k, (u, v, w) in enumerate(g.edges)])
        if usable(g):
            graphs.append(g)
    verdicts = set()
    for g in graphs:
        pair = enumerated(g)
        res = multi_negative_edge_thresholds(g)
        assert (res.applicable, res.overlap) == (pair is None, pair)
        verdicts.add(res.applicable)
    assert verdicts == {True, False}


def test_multi_edge_thresholds_c4_diagonal():
    # 4-cycle with one negative diagonal: threshold 1/R_02 = 1
    g = build_graph(4, [(0, 1, 1.0), (0, 2, -0.5), (0, 3, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    res = multi_negative_edge_thresholds(g)
    assert res.applicable
    assert res.thresholds == {1: pytest.approx(1.0)}


def test_multi_edge_thresholds_requires_connected_positive_part():
    g = build_graph(3, [(0, 1, 1.0), (1, 2, -1.0)])
    with pytest.raises(DisconnectedGraphError):
        multi_negative_edge_thresholds(g)


def test_multi_edge_thresholds_no_negative_edges():
    res = multi_negative_edge_thresholds(TRIANGLE)
    assert res.applicable and res.thresholds == {}


def test_total_resistance_check_boundary_and_direction():
    base = build_graph(3, [(0, 1, 1.0), (0, 2, 1.0)])
    r = effective_resistance(base, 1, 2)  # = 2
    # capacity 1/|w| exactly equal to the total resistance passes
    eq = build_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, -1.0 / r)])
    assert total_resistance_necessary_check(eq)
    fail = build_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, -1.2 / r)])
    assert not total_resistance_necessary_check(fail)
    ok = build_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, -0.5 / r)])
    assert total_resistance_necessary_check(ok)


def test_total_resistance_check_is_scale_free():
    # the same graphs with every weight scaled by s give the same answer
    def scaled(g, s):
        return build_graph(g.node_count, [(u, v, s * w) for u, v, w in g.edges])

    graphs = [
        build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, -1.0)]),  # fails: 1 < 2
        build_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, -0.5)]),  # boundary: 2 == 2
    ]
    rng = np.random.default_rng(271)
    while len(graphs) < 80:
        g = random_signed(rng, neg_prob=0.3)
        if signed_partition(g).negative_edges and connected_components(positive_subgraph(g))[0] == 1:
            graphs.append(g)
    answers = [total_resistance_necessary_check(g) for g in graphs]
    assert answers[:2] == [False, True] and set(answers) == {True, False}
    for s in (1e-9, 1e-3, 1e3, 1e9, 1e12):
        assert [total_resistance_necessary_check(scaled(g, s)) for g in graphs] == answers


def test_total_resistance_check_is_necessary():
    # stable (PSD) network never fails the check
    rng = np.random.default_rng(83)
    checked = 0
    for _ in range(400):
        g = random_signed(rng, neg_prob=0.25)
        if classify_stability(g).signature.n_minus > 0:
            continue
        try:
            result = total_resistance_necessary_check(g)
        except DisconnectedGraphError:
            continue
        checked += 1
        assert result
    assert checked >= 30


def test_total_resistance_check_trivial_without_negatives():
    rng = np.random.default_rng(89)
    assert total_resistance_necessary_check(random_connected_positive(rng))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: the verdict counts the negative bridge as a zero")
def test_lmi_psd_check_matches_the_verdict_on_a_widely_spread_negative_cut():
    # the negative edge is a cut, so L is indefinite; its weight sits below
    # tol * max |lambda|, so the verdict calls the graph marginal (1, 0, 2)
    g = build_graph(3, [(0, 1, -3.299944933115822e-05), (1, 2, 155183.70427629334)])
    assert not lmi_psd_check(g)
    assert lmi_psd_check(g) == (classify_stability(g).signature.n_minus == 0)
