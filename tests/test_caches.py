"""Per-graph caches give the answers a fresh computation gives.

A graph keeps its component labels, neighbor lists, blocks and block-cut
tree, its verdict per zero threshold and its margin gains per uncertain-edge
set.  Each test here compares a cached answer with one computed without the
cache: on a freshly built graph, through the formula the cache replaced, or
through the per-edge block search it replaced.
"""

import numpy as np
import pytest

from conftest import random_cactus, random_connected_positive, random_signed, triangle_chain
from resistnet import (
    MARGINAL,
    UNSTABLE,
    NotApplicableError,
    SectorSpec,
    UncertaintySpec,
    build_graph,
    classify_stability,
    connected_components,
    disjoint_paths_margin,
    multi_negative_edge_thresholds,
    path_edge_set,
    positive_subgraph,
    sector_stability_check,
    signed_partition,
    single_edge_margin,
    single_edge_sector_check,
    small_gain_margin,
    worst_single_edge,
)
from resistnet import graph as gr
from resistnet import resistance as rs
from resistnet import robustness as rb
from resistnet import spectral as sp


def fresh(g):
    return build_graph(g.node_count, g.edges)


def test_graph_caches_fill_the_instance_dict_once():
    calls = []

    class Probe:
        @gr._cached_property
        def value(self):
            """The probe's value."""
            calls.append(self)
            return object()

    probe = Probe()
    first = probe.value
    assert probe.value is first and probe.__dict__["value"] is first
    assert calls == [probe] and Probe.value.__doc__ == "The probe's value."
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 2.0)])
    assert g.weights is g.__dict__["weights"] and g.weights is g.weights


def test_component_labels_are_one_read_only_array():
    g = build_graph(5, [(0, 1, 1.0), (3, 4, 2.0)])
    count, labels = connected_components(g)
    assert count == 3 and labels.tolist() == [0, 0, 1, 2, 2]
    assert connected_components(g)[1] is labels
    with pytest.raises(ValueError):
        labels[0] = 7


def test_verdict_per_tol_in_either_order():
    # a negative chord just past its threshold 1/R = 0.5: the smallest pencil
    # eigenvalue is about -1e-6, negative at tol 1e-9 and zero at tol 1e-3
    def near_boundary():
        return build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, -0.5 * (1 + 2e-6))])

    tight, loose = 1e-9, 1e-3
    expected = {tol: classify_stability(near_boundary(), tol) for tol in (tight, loose)}
    assert expected[tight].classification == UNSTABLE
    assert expected[loose].classification == MARGINAL
    for order in ((tight, loose), (loose, tight)):
        g = near_boundary()
        for tol in order + order:
            assert classify_stability(g, tol) == expected[tol]


def margin_calls(edge_set):
    """The margin entry points, in an order that shares every cached gain
    (the all-edge set, then ``edge_set``, then its first edge)."""
    every = lambda g: UncertaintySpec(tuple(range(g.edge_count)))  # noqa: E731
    spec = UncertaintySpec(edge_set)
    sectors = SectorSpec(tuple((-0.1, 0.4) for _ in edge_set))

    def paths(g):
        try:
            return disjoint_paths_margin(g, spec)
        except NotApplicableError:
            return None

    return {
        "worst": worst_single_edge,
        "all": lambda g: small_gain_margin(g, every(g)),
        "all_gains": lambda g: rb._gains(g, every(g), sp.DEFAULT_TOL),
        "paths": paths,
        "sector": lambda g: sector_stability_check(g, spec, sectors),
        "set": lambda g: small_gain_margin(g, spec),
        "set_gains": lambda g: rb._gains(g, spec, sp.DEFAULT_TOL),
        "single": lambda g: single_edge_margin(g, edge_set[0]),
        "scalar_sector": lambda g: single_edge_sector_check(g, edge_set[0], -0.1, 0.4),
    }


def same(a, b):
    if isinstance(a, tuple):  # (resistances, sigma) gains
        return np.array_equal(a[0], b[0]) and a[1] == b[1]
    return a == b


def test_memoized_margins_equal_a_fresh_graph():
    rng = np.random.default_rng(808)
    checked = applied = 0
    for _ in range(60):
        g, blocks = random_cactus(rng)
        for size in (1, 2, 3)[:len(blocks)]:
            picks = rng.permutation(len(blocks))[:size]
            edge_set = tuple(sorted(int(rng.choice(blocks[j])) for j in picks))
            calls = margin_calls(edge_set)
            shared = {name: call(g) for name, call in calls.items()}
            for name, call in calls.items():
                assert same(call(g), shared[name]), name
                assert same(call(fresh(g)), shared[name]), name
            checked += 1
            applied += shared["paths"] is not None
    assert checked >= 100 and applied >= 50


def test_cached_gains_are_read_only():
    g = triangle_chain(3)
    r, _ = rb._gains(g, UncertaintySpec((0, 4)), sp.DEFAULT_TOL)
    with pytest.raises(ValueError):
        r[0] = 0.0


def test_pair_gram_row_take_matches_ix_formula_bit_for_bit():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(2, 30))
        X = rng.standard_normal((n, n))
        G = X @ X.T
        size = int(rng.integers(1, 12))
        a = rng.integers(0, n, size)  # repeats allowed
        b = rng.integers(0, n, size)
        M = G[np.ix_(a, a)] - G[np.ix_(a, b)] - G[np.ix_(b, a)] + G[np.ix_(b, b)]
        assert np.array_equal(rs._pair_gram(G, a, b), 0.5 * (M + M.T))


def test_one_edge_sigma_equals_eigvalsh_of_its_gram():
    rng = np.random.default_rng(47)
    checked = 0
    for _ in range(80):
        g = random_connected_positive(rng)
        if g.edge_count < 2:
            continue
        G = g.grounded_inverse
        for k in range(g.edge_count):
            _, sigma = rb._gains(g, UncertaintySpec((k,)), sp.DEFAULT_TOL)
            gram = rs._pair_gram(G, g.tails[[k]], g.heads[[k]])
            assert sigma == float(np.linalg.eigvalsh(gram)[-1])
            checked += 1
    assert checked > 300


def virtual_edge_support(g, u, v):
    """Edges sharing a block with a virtual u-v edge: one block search of a
    copy of ``g`` per pair, as path supports were read before the block-cut
    tree."""
    copy = gr.WeightedGraph(g.node_count, g.edges + ((min(u, v), max(u, v), 1.0),))
    block = gr._edge_blocks(copy)[0]
    return {k for k in range(g.edge_count) if block[k] == block[-1]}


def test_block_cut_tree_supports_match_virtual_edge_blocks():
    rng = np.random.default_rng(59)
    verdicts = set()
    pairs = 0
    for _ in range(300):
        g = random_signed(rng, n_max=9)
        plus = positive_subgraph(g)
        for u in range(g.node_count):
            for v in range(u + 1, g.node_count):
                assert path_edge_set(plus, u, v) == virtual_edge_support(plus, u, v)
                pairs += 1
        if connected_components(plus)[0] != 1:
            continue
        neg = signed_partition(g).negative_edges
        support = {k: virtual_edge_support(plus, *g.edges[k][:2]) for k in neg}
        overlap = next(((a, b) for i, a in enumerate(neg) for b in neg[i + 1:]
                        if support[a] & support[b]), None)
        res = multi_negative_edge_thresholds(g)
        assert (res.applicable, res.overlap) == (overlap is None, overlap)
        verdicts.add(res.applicable)
    assert verdicts == {True, False}
    assert pairs > 3000
