import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

import networkx as nx

from conftest import random_cactus, random_connected_positive, random_signed, triangle_chain
from resistnet import (
    GraphConstructionError,
    GraphFormatError,
    NotApplicableError,
    UncertaintySpec,
    build_graph,
    connected_components,
    component_indicators,
    disjoint_paths_margin,
    essential_edge_laplacian,
    edge_laplacian,
    forest_left_inverse,
    generate_rgg,
    graph_from_dict,
    graph_to_dict,
    incidence_matrix,
    is_balanced,
    laplacian,
    load_graph,
    negative_cut_components,
    negative_subgraph,
    path_edge_set,
    positive_subgraph,
    save_graph,
    signed_partition,
    spanning_forest,
    weighted_cut_matrix,
)
from resistnet import graph as gr
from resistnet.graph import WeightedGraph

TRIANGLE = build_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])


def to_networkx(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.node_count))
    for u, v, w in g.edges:
        G.add_edge(u, v, weight=w)
    return G


# ---------------------------------------------------------------- building


def test_build_graph_canonicalizes_orientation():
    g = build_graph(3, [(2, 0, 1.5), (1, 0, 2.0)])
    assert g.edges == ((0, 2, 1.5), (0, 1, 2.0))


def test_build_graph_rejects_bad_inputs():
    with pytest.raises(GraphConstructionError):
        build_graph(0, [])
    with pytest.raises(GraphConstructionError):
        build_graph(3, [(0, 0, 1.0)])
    with pytest.raises(GraphConstructionError):
        build_graph(3, [(0, 3, 1.0)])
    with pytest.raises(GraphConstructionError):
        build_graph(3, [(-1, 2, 1.0)])
    with pytest.raises(GraphConstructionError):
        build_graph(3, [(0, 1, 0.0)])
    with pytest.raises(GraphConstructionError):
        build_graph(3, [(0, 1, float("nan"))])
    with pytest.raises(GraphConstructionError):
        build_graph(3, [(0, 1, float("inf"))])
    # duplicate pair, either orientation
    with pytest.raises(GraphConstructionError):
        build_graph(3, [(0, 1, 1.0), (1, 0, 2.0)])
    # bools are ints in python; reject them as endpoints
    with pytest.raises(GraphConstructionError):
        build_graph(3, [(True, 2, 1.0)])


def test_build_graph_error_names_offending_edge():
    with pytest.raises(GraphConstructionError, match="edge 1"):
        build_graph(3, [(0, 1, 1.0), (1, 1, 2.0)])


def per_edge_build_graph(node_count, edges):
    """The per-edge loop that once built every graph; the oracle for ``build_graph``."""
    if isinstance(node_count, bool) or not isinstance(node_count, (int, np.integer)) or node_count < 1:
        raise GraphConstructionError(f"node_count must be a positive integer, got {node_count!r}")
    canon = []
    seen = set()
    for k, edge in enumerate(edges):
        try:
            u, v, w = edge
        except (TypeError, ValueError) as exc:
            raise GraphConstructionError(f"edge {k}: expected (u, v, w), got {edge!r}") from exc
        if (isinstance(u, bool) or isinstance(v, bool)
                or not isinstance(u, (int, np.integer)) or not isinstance(v, (int, np.integer))):
            raise GraphConstructionError(f"edge {k} ({u!r}, {v!r}): endpoints must be integers")
        u, v = int(u), int(v)
        if not (0 <= u < node_count) or not (0 <= v < node_count):
            raise GraphConstructionError(f"edge {k} ({u}, {v}): endpoint out of range for {node_count} nodes")
        if u == v:
            raise GraphConstructionError(f"edge {k} ({u}, {v}): self-loops are not allowed")
        w = float(w)
        if not math.isfinite(w):
            raise GraphConstructionError(f"edge {k} ({u}, {v}): weight {w!r} is not finite")
        if w == 0.0:
            raise GraphConstructionError(
                f"edge {k} ({u}, {v}): weight zero is not a valid edge; drop the edge instead")
        tail, head = (u, v) if u < v else (v, u)
        if (tail, head) in seen:
            raise GraphConstructionError(f"edge {k} ({u}, {v}): duplicate node pair")
        seen.add((tail, head))
        canon.append((tail, head, w))
    return WeightedGraph(int(node_count), tuple(canon))


# 48 good edges on 50 nodes, both orientations and int and float weights: long
# enough that build_graph checks them as whole arrays
GOOD_EDGES = [((k * 7) % 50, (k * 7 + 1 + k % 5) % 50, 0.25 + k if k % 3 else k + 1)
              for k in range(48)]
GOOD_EDGES = [(v, u, w) if k % 2 else (u, v, w) for k, (u, v, w) in enumerate(GOOD_EDGES)]


def _spliced(*extra, at=20):
    return GOOD_EDGES[:at] + list(extra) + GOOD_EDGES[at:]


BUILD_CASES = {
    "well formed": GOOD_EDGES,
    "list rows": [list(e) for e in GOOD_EDGES],
    "tuple input": tuple(GOOD_EDGES),
    "short list": GOOD_EDGES[:5],
    "bool endpoint": _spliced((True, 40, 1.0)),
    "bool endpoint first": _spliced((3, False, 1.0), at=0),
    "float endpoint": _spliced((3.0, 40, 1.0)),
    "np.integer endpoints": _spliced((np.int64(3), np.int32(40), 1.0)),
    "np.integer endpoint out of range": _spliced((np.int64(50), 3, 1.0)),
    "out of range": _spliced((3, 50, 1.0)),
    "far out of range": _spliced((3, 2 ** 70, 1.0)),
    "negative endpoint": _spliced((-1, 3, 1.0)),
    "very negative endpoint": _spliced((-(2 ** 70), 3, 1.0)),
    "self-loop": _spliced((7, 7, 1.0)),
    "self-loop at the end": _spliced((49, 49, 1.0), at=48),
    "duplicate pair": _spliced(GOOD_EDGES[3]),
    "reversed duplicate pair": _spliced(GOOD_EDGES[3][1::-1] + (2.0,)),
    "nan weight": _spliced((3, 40, float("nan"))),
    "inf weight": _spliced((3, 40, float("inf"))),
    "-inf weight": _spliced((3, 40, -float("inf"))),
    "zero weight": _spliced((3, 40, 0.0)),
    "int zero weight": _spliced((3, 40, 0)),
    "negative zero weight": _spliced((3, 40, -0.0)),
    "negative weights": [(u, v, -w if k % 4 == 0 else w) for k, (u, v, w) in enumerate(GOOD_EDGES)],
    "int weights above 2**53": _spliced((3, 40, 2 ** 53 + 1), (4, 41, 2 ** 64 + 3), (5, 42, -(10 ** 30) - 1)),
    "random int weights above 2**53": [
        (u, v, w if k % 2 else -w) for k, ((u, v, _), w) in enumerate(zip(
            GOOD_EDGES, np.random.default_rng(5).integers(2 ** 53, 2 ** 62, 48).tolist()))],
    "int weight beyond the float range": _spliced((3, 40, 10 ** 400)),
    "bool weight": _spliced((3, 40, True)),
    "string weight": _spliced((3, 40, "2.5")),
    "np.float64 weight": _spliced((3, 40, np.float64(2.5))),
    "short tuple": _spliced((3, 40)),
    "long tuple": _spliced((3, 40, 1.0, 2.0)),
    "string row": _spliced("abc"),
    "two faults": _spliced((3, 3, 1.0), (4, 50, 1.0)),
    "fault after a duplicate": _spliced(GOOD_EDGES[0], (3, 40, float("nan"))),
    "fault before a duplicate": _spliced((3, 40, float("nan")), GOOD_EDGES[0]),
}


def _outcome(build, n, edges):
    try:
        g = build(n, edges)
    except Exception as exc:  # compared by class and message
        return type(exc), str(exc)
    return g.node_count, g.edges, tuple(map(type, g.edges[0])) if g.edges else ()


# the cases that build a graph, and whether the whole-array path builds it
VALID_CASES = {"well formed": True, "list rows": True, "tuple input": True, "negative weights": True,
               "int weights above 2**53": True, "random int weights above 2**53": True,
               "short list": False, "np.integer endpoints": False, "bool weight": False,
               "string weight": False, "np.float64 weight": False}


@pytest.mark.parametrize("name", sorted(BUILD_CASES))
def test_build_graph_matches_the_per_edge_loop(name):
    edges = BUILD_CASES[name]
    want = _outcome(per_edge_build_graph, 50, edges)
    assert _outcome(build_graph, 50, edges) == want
    assert _outcome(build_graph, 50, (e for e in edges)) == want  # a generator
    assert (name in VALID_CASES) == (not isinstance(want[0], type))
    if name in VALID_CASES:
        g = build_graph(50, edges)
        assert ("weights" in g.__dict__) == VALID_CASES[name]  # preset by the whole-array path
        assert all(type(u) is int and type(v) is int and type(w) is float for u, v, w in g.edges)
        assert np.array_equal(g.weights, [w for _, _, w in want[1]])


FLAGS = ("C_CONTIGUOUS", "F_CONTIGUOUS", "OWNDATA", "WRITEABLE", "ALIGNED", "WRITEBACKIFCOPY")


def test_build_graph_arrays_match_the_lazily_built_ones():
    g = build_graph(50, GOOD_EDGES)
    assert {"tails", "heads", "weights"} <= set(g.__dict__)  # set by the whole-array path
    lazy = WeightedGraph(g.node_count, g.edges)
    for name in ("tails", "heads", "weights"):
        got, want = getattr(g, name), getattr(lazy, name)
        assert np.array_equal(got, want) and got.dtype == want.dtype
        assert {f: got.flags[f] for f in FLAGS} == {f: want.flags[f] for f in FLAGS}
    assert np.array_equal(laplacian(g), laplacian(lazy))


# ----------------------------------------------------- incidence/laplacian


def test_incidence_matrix_triangle():
    E = incidence_matrix(TRIANGLE)
    expected = np.array([[1, 1, 0], [-1, 0, 1], [0, -1, -1]], dtype=float)
    assert np.array_equal(E, expected)


def test_incidence_columns_sum_to_zero():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = random_signed(rng)
        E = incidence_matrix(g)
        assert np.all(E.sum(axis=0) == 0)
        assert np.all(np.abs(E[E != 0]) == 1)


def test_laplacian_matches_networkx():
    rng = np.random.default_rng(11)
    for _ in range(30):
        g = random_connected_positive(rng)
        L = laplacian(g)
        Lx = nx.laplacian_matrix(to_networkx(g), nodelist=range(g.node_count),
                                 weight="weight").toarray()
        assert np.allclose(L, Lx, atol=1e-12)


def test_laplacian_rows_sum_to_zero_signed():
    rng = np.random.default_rng(13)
    for _ in range(20):
        g = random_signed(rng)
        L = laplacian(g)
        assert np.allclose(L.sum(axis=1), 0.0, atol=1e-12)
        assert np.allclose(L, L.T)


def test_edge_laplacian_spectrum_matches_laplacian():
    # nonzero eigenvalues of W^{1/2} E^T E W^{1/2} equal those of E W E^T
    rng = np.random.default_rng(17)
    for _ in range(10):
        g = random_connected_positive(rng)
        le = np.linalg.eigvalsh(edge_laplacian(g))
        lv = np.linalg.eigvalsh(laplacian(g))
        nz = lambda a: np.sort(a[np.abs(a) > 1e-9])
        assert np.allclose(nz(le), nz(lv), atol=1e-8)


def test_edge_laplacian_rejects_negative_weights():
    g = build_graph(2, [(0, 1, -1.0)])
    with pytest.raises(GraphConstructionError):
        edge_laplacian(g)


# ------------------------------------------------------------- components


def test_connected_components_labels_by_smallest_node():
    # component ids are sequential, ordered by each component's smallest node
    g = build_graph(5, [(3, 4, 1.0), (0, 1, 1.0)])
    count, labels = connected_components(g)
    assert count == 3
    assert list(labels) == [0, 0, 1, 2, 2]


def test_component_indicators_orthonormal():
    g = build_graph(5, [(3, 4, 1.0), (0, 1, 1.0)])
    N = component_indicators(g, normalized=True)
    assert N.shape == (5, 3)
    assert np.allclose(N.T @ N, np.eye(3))
    raw = component_indicators(g)
    assert np.array_equal(raw.sum(axis=1), np.ones(5))


# --------------------------------------------------------- spanning forest


def test_spanning_forest_triangle():
    f = spanning_forest(TRIANGLE)
    assert f.forest_edges == (0, 1)
    assert f.cycle_edges == (2,)
    assert f.component_count == 1
    assert np.allclose(f.tucker_matrix, [[-1.0], [1.0]])
    assert np.allclose(f.cut_matrix, [[1, 0, -1], [0, 1, 1]])


def test_cut_matrix_reconstructs_incidence():
    # E = E_F R for random signed graphs, disconnected ones included
    rng = np.random.default_rng(19)
    for _ in range(30):
        g = random_signed(rng)
        f = spanning_forest(g)
        E = incidence_matrix(g)
        EF = E[:, list(f.forest_edges)]
        assert np.allclose(E, EF @ f.cut_matrix, atol=1e-9)
        # identity on the forest columns
        R_forest = f.cut_matrix[:, list(f.forest_edges)]
        assert np.allclose(R_forest, np.eye(len(f.forest_edges)))


def test_forest_left_inverse_property():
    rng = np.random.default_rng(23)
    for _ in range(10):
        g = random_connected_positive(rng)
        f = spanning_forest(g)
        X = forest_left_inverse(g, f)
        EF = incidence_matrix(g)[:, list(f.forest_edges)]
        assert np.allclose(X @ EF, np.eye(len(f.forest_edges)), atol=1e-9)


def test_essential_edge_laplacian_carries_nonzero_spectrum():
    g = TRIANGLE
    f = spanning_forest(g)
    ess = essential_edge_laplacian(g, f)
    assert np.allclose(np.sort(np.linalg.eigvals(ess).real), [3.0, 3.0], atol=1e-9)


def test_weighted_cut_matrix_congruent_to_laplacian():
    rng = np.random.default_rng(29)
    for _ in range(20):
        g = random_signed(rng)
        f = spanning_forest(g)
        A = weighted_cut_matrix(g, f)
        E = incidence_matrix(g)
        EF = E[:, list(f.forest_edges)]
        # E_F (R W R^T) E_F^T = L
        assert np.allclose(EF @ A @ EF.T, laplacian(g), atol=1e-9)


def test_spanning_forest_on_disconnected_graph():
    g = build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    f = spanning_forest(g)
    assert f.component_count == 2
    assert f.forest_edges == (0, 1)
    assert f.cycle_edges == ()


# ---------------------------------------------------------------- signs


def test_signed_partition_and_subgraphs():
    g = build_graph(3, [(0, 1, 1.0), (0, 2, -2.0), (1, 2, 3.0)])
    part = signed_partition(g)
    assert part.positive_edges == (0, 2)
    assert part.negative_edges == (1,)
    plus = positive_subgraph(g)
    minus = negative_subgraph(g)
    assert plus.node_count == minus.node_count == 3
    assert plus.edges == ((0, 1, 1.0), (1, 2, 3.0))
    assert minus.edges == ((0, 2, -2.0),)


def test_positive_subgraph_is_cached():
    g = build_graph(3, [(0, 1, 1.0), (0, 2, -2.0), (1, 2, 3.0)])
    assert positive_subgraph(g) is positive_subgraph(g)
    assert positive_subgraph(g).edges == ((0, 1, 1.0), (1, 2, 3.0))


def test_negative_cut_components():
    bridge = build_graph(3, [(0, 1, 1.0), (1, 2, -1.0)])
    cut_exists, cut_edges = negative_cut_components(bridge)
    assert cut_exists and cut_edges == (1,)
    tri = build_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, -0.4)])
    cut_exists, cut_edges = negative_cut_components(tri)
    assert not cut_exists and cut_edges == ()


# ----------------------------------------------------------- path supports


def test_path_edge_set_matches_simple_path_enumeration():
    rng = np.random.default_rng(31)
    for _ in range(25):
        g = random_connected_positive(rng, n_max=7)
        G = to_networkx(g)
        index = {(u, v): k for k, (u, v, _) in enumerate(g.edges)}
        u = int(rng.integers(0, g.node_count))
        v = int(rng.integers(0, g.node_count))
        if u == v:
            continue
        expected = set()
        for path in nx.all_simple_paths(G, u, v):
            for a, b in zip(path[:-1], path[1:]):
                expected.add(index[(min(a, b), max(a, b))])
        assert path_edge_set(g, u, v) == expected


def test_path_edge_set_disconnected_and_errors():
    g = build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    assert path_edge_set(g, 0, 2) == set()
    with pytest.raises(GraphConstructionError):
        path_edge_set(g, 1, 1)
    with pytest.raises(GraphConstructionError):
        path_edge_set(g, 0, 4)


@pytest.mark.parametrize("node", [True, np.bool_(False), 1.5, np.float64(1.0)])
def test_path_edge_set_nodes_must_be_integers(node):
    g = build_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
    for u, v in ((node, 2), (2, node)):
        with pytest.raises(GraphConstructionError, match="nodes must be integers"):
            path_edge_set(g, u, v)
    assert path_edge_set(g, np.int64(0), 2) == {0, 1, 2}


def test_path_edge_set_complete_graph():
    # K12 (66 edges) is one block: every edge lies on a simple 0-1 path
    n = 12
    edges = [(u, v, 1.0) for u in range(n) for v in range(u + 1, n)]
    g = build_graph(n, edges)
    assert path_edge_set(g, 0, 1) == set(range(66))


def test_path_edge_set_matches_networkx_blocks():
    # beyond 20 edges: the support of an edge is its own block, and that of
    # a non-adjacent pair is the block of a virtual edge joining them
    rng = np.random.default_rng(37)
    graphs = [generate_rgg(n, 1.9 * np.sqrt(np.log(n) / (np.pi * n)), seed=9) for n in (60, 100)]
    graphs.append(triangle_chain(8))
    graphs += [random_cactus(rng, n_cap=30)[0] for _ in range(5)]
    graphs.append(build_graph(9, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (2, 3, 1.0),
                                  (5, 6, 1.0), (6, 7, 1.0), (5, 7, 1.0)]))

    def block_of(H, index, u, v):
        # edge indices of g in the block of H that holds the pair (u, v)
        key = (min(u, v), max(u, v))
        for comp in nx.biconnected_component_edges(H):
            comp = {(min(a, b), max(a, b)) for a, b in comp}
            if key in comp:
                return {index[e] for e in comp if e in index}
        raise AssertionError(f"pair {key} is in no block")

    for g in graphs:
        G = to_networkx(g)
        index = {(u, v): k for k, (u, v, _) in enumerate(g.edges)}
        for u, v, _ in g.edges:
            assert path_edge_set(g, u, v) == block_of(G, index, u, v)
        for _ in range(20):
            u, v = (int(x) for x in rng.choice(g.node_count, 2, replace=False))
            if G.has_edge(u, v):
                continue
            H = G.copy()
            H.add_edge(u, v)
            assert path_edge_set(g, u, v) == block_of(H, index, u, v)


def pairwise_first_overlap(supports):
    """The least (i, j) whose supports intersect, by comparing every pair."""
    for i, a in enumerate(supports):
        for j in range(i + 1, len(supports)):
            if a & supports[j]:
                return i, j
    return None


def test_first_overlap_names_the_pairwise_loops_pair():
    # the single-block supports of uncertain edges (disjoint_paths_margin)
    # and the block-path supports of node pairs (multi_negative_edge_thresholds)
    rng = np.random.default_rng(41)
    found = 0
    for _ in range(60):
        g, _ = random_cactus(rng, n_cap=int(rng.integers(4, 30)))
        block, _, _ = g._blocks
        for _ in range(5):
            size = int(rng.integers(1, g.edge_count + 1))
            keys = sorted(int(k) for k in rng.choice(g.edge_count, size, replace=False))
            pair = pairwise_first_overlap([{block[k]} for k in keys])
            assert gr._first_overlap([block[k]] for k in keys) == pair
            if pair is not None:
                a, b = keys[pair[0]], keys[pair[1]]
                with pytest.raises(NotApplicableError, match=f"edges {a} and {b} overlap"):
                    disjoint_paths_margin(g, UncertaintySpec(tuple(keys)))
            ends = [tuple(int(x) for x in rng.choice(g.node_count, 2, replace=False))
                    for _ in range(int(rng.integers(1, 6)))]
            supports = [gr._path_blocks(g, u, v) for u, v in ends]
            pair_paths = pairwise_first_overlap(supports)
            assert gr._first_overlap(supports) == pair_paths
            found += (pair is not None) + (pair_paths is not None)
    assert found >= 100


# -------------------------------------------------------------- balance


def exhaustive_balanced(g):
    # try every 2-coloring with node 0 fixed
    n = g.node_count
    for bits in range(1 << max(0, n - 1)):
        color = [0] + [(bits >> i) & 1 for i in range(n - 1)]
        ok = True
        for u, v, w in g.edges:
            same = color[u] == color[v]
            if (w > 0 and not same) or (w < 0 and same):
                ok = False
                break
        if ok:
            return True
    return False


def test_is_balanced_matches_exhaustive_two_coloring():
    rng = np.random.default_rng(37)
    for _ in range(60):
        g = random_signed(rng, n_max=7)
        assert is_balanced(g) == exhaustive_balanced(g)


# ------------------------------------------------------------------- I/O


def test_graph_round_trip(tmp_path):
    g = build_graph(4, [(0, 1, 1.5), (1, 2, -0.25), (2, 3, 2.0)])
    path = tmp_path / "g.json"
    save_graph(g, path)
    g2 = load_graph(path)
    assert g2 == g
    assert graph_from_dict(graph_to_dict(g)) == g


def test_load_graph_error_diagnostics(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"nodes": 2}')
    with pytest.raises(GraphFormatError, match="edges"):
        load_graph(path)
    path.write_text('{"nodes": 2, "edges": [{"u": 0, "w": 1.0}]}')
    with pytest.raises(GraphFormatError, match=r"edges\[0\]"):
        load_graph(path)
    path.write_text('{"nodes": 2, "edges": [{"u": 0, "v": 1, "w": true}]}')
    with pytest.raises(GraphFormatError):
        load_graph(path)
    path.write_text("{broken")
    with pytest.raises(GraphFormatError, match="line"):
        load_graph(path)


def per_item_graph_from_dict(data):
    """The per-item loop that once checked every document; the oracle for its messages."""
    if not isinstance(data, dict):
        raise GraphFormatError(f"graph document must be an object, got {type(data).__name__}")
    for key in ("nodes", "edges"):
        if key not in data:
            raise GraphFormatError(f"graph document is missing the '{key}' field")
    nodes = data["nodes"]
    if isinstance(nodes, bool) or not isinstance(nodes, int):
        raise GraphFormatError(f"field 'nodes' must be an integer, got {nodes!r}")
    raw_edges = data["edges"]
    if not isinstance(raw_edges, list):
        raise GraphFormatError("field 'edges' must be a list of {u, v, w} objects")
    triples = []
    for k, item in enumerate(raw_edges):
        if not isinstance(item, dict):
            raise GraphFormatError(f"edges[{k}] must be an object with fields u, v, w")
        for field in ("u", "v", "w"):
            if field not in item:
                raise GraphFormatError(f"edges[{k}] is missing field '{field}'")
        u, v, w = item["u"], item["v"], item["w"]
        if isinstance(u, bool) or isinstance(v, bool) or not isinstance(u, int) or not isinstance(v, int):
            raise GraphFormatError(f"edges[{k}]: fields 'u' and 'v' must be integers")
        if isinstance(w, bool) or not isinstance(w, (int, float)):
            raise GraphFormatError(f"edges[{k}]: field 'w' must be a number, got {w!r}")
        triples.append((u, v, float(w)))
    try:
        return build_graph(nodes, triples)
    except GraphConstructionError as exc:
        raise GraphFormatError(str(exc)) from exc


def _edges(*bad, at=1):
    """Three good unit edges on 4 nodes with ``bad`` items spliced in from position ``at``."""
    good = [{"u": 0, "v": 1, "w": 1.0}, {"u": 1, "v": 2, "w": 2}, {"u": 2, "v": 3, "w": 0.5}]
    return {"nodes": 4, "edges": good[:at] + list(bad) + good[at:]}


MALFORMED_DOCUMENTS = {
    "list item": _edges([0, 3, 1.0]),
    "string item": _edges("0-3"),
    "null item": _edges(None, at=0),
    "missing u": _edges({"v": 3, "w": 1.0}),
    "missing v": _edges({"u": 0, "w": 1.0}),
    "missing w": _edges({"u": 0, "v": 3}, at=3),
    "bool endpoint": _edges({"u": True, "v": 3, "w": 1.0}),
    "float endpoint": _edges({"u": 0, "v": 3.0, "w": 1.0}),
    "string endpoint": _edges({"u": "0", "v": 3, "w": 1.0}),
    "bool weight": _edges({"u": 0, "v": 3, "w": False}),
    "string weight": _edges({"u": 0, "v": 3, "w": "1.0"}),
    "null weight": _edges({"u": 0, "v": 3, "w": None}),
    "two faulty items": _edges({"u": 0, "v": 3}, {"u": "0", "v": 2, "w": 1.0}),
    "format fault after a range fault": _edges({"u": 0, "v": 9, "w": 1.0}, {"u": 0, "v": 3, "w": "x"}),
    "range fault": _edges({"u": 0, "v": 9, "w": 1.0}),
    "duplicate pair": _edges({"u": 1, "v": 0, "w": 1.0}),
    "zero weight": _edges({"u": 0, "v": 3, "w": 0}),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_DOCUMENTS))
def test_malformed_document_errors_match_the_per_item_loop(name, tmp_path):
    doc = MALFORMED_DOCUMENTS[name]
    with pytest.raises(Exception) as expected:
        per_item_graph_from_dict(doc)
    with pytest.raises(Exception) as got:
        graph_from_dict(doc)
    assert (type(got.value), str(got.value)) == (type(expected.value), str(expected.value))
    assert type(got.value) is GraphFormatError
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(GraphFormatError) as loaded:
        load_graph(path)
    assert str(loaded.value) == f"{path}: {expected.value}"


def test_well_formed_documents_match_the_per_item_loop():
    # int weights, dict subclasses and int subclasses take the per-item path or not,
    # but build the same graph either way
    class Count(int):
        pass

    class Item(dict):
        pass

    for doc in (
        _edges(),
        _edges({"u": 0, "v": 3, "w": 7}),
        _edges(Item(u=0, v=3, w=1.0)),
        _edges({"u": Count(0), "v": 3, "w": 1.0}),
        {"nodes": 1, "edges": []},
    ):
        g = graph_from_dict(doc)
        assert g == per_item_graph_from_dict(doc)
        assert all(type(w) is float for _, _, w in g.edges)


# long enough that graph_from_dict checks the edge list as whole arrays
GOOD_ITEMS = [{"u": u, "v": v, "w": w} for u, v, w in GOOD_EDGES]
LONG_DOCUMENT_FAULTS = {
    "list item": [[0, 3, 1.0]],
    "null item": [None],
    "missing w": [{"u": 0, "v": 3}],
    "bool endpoint": [{"u": True, "v": 3, "w": 1.0}],
    "float endpoint": [{"u": 0, "v": 3.0, "w": 1.0}],
    "string endpoint": [{"u": "0", "v": 3, "w": 1.0}],
    "bool weight": [{"u": 0, "v": 3, "w": False}],
    "string weight": [{"u": 0, "v": 3, "w": "1.0"}],
    "range fault": [{"u": 0, "v": 50, "w": 1.0}],
    "far range fault": [{"u": 2 ** 70, "v": 3, "w": 1.0}],
    "negative endpoint": [{"u": -1, "v": 3, "w": 1.0}],
    "self-loop": [{"u": 3, "v": 3, "w": 1.0}],
    "duplicate pair": [{"u": GOOD_EDGES[5][1], "v": GOOD_EDGES[5][0], "w": 1.0}],
    "zero weight": [{"u": 0, "v": 3, "w": 0}],
    "negative zero weight": [{"u": 0, "v": 3, "w": -0.0}],
    "format fault after a range fault": [{"u": 0, "v": 50, "w": 1.0}, {"u": 0, "v": 3, "w": "x"}],
    "well formed": [],
    "int weights": [{"u": 0, "v": 3, "w": 7}, {"u": 1, "v": 4, "w": 2 ** 60 + 1}],
    "dict subclass": [type("Item", (dict,), {})(u=0, v=3, w=1.0)],
    "int subclass": [{"u": type("Count", (int,), {})(0), "v": 3, "w": 1.0}],
}


@pytest.mark.parametrize("name", sorted(LONG_DOCUMENT_FAULTS))
def test_long_documents_match_the_per_item_loop(name):
    doc = {"nodes": 50, "edges": GOOD_ITEMS[:20] + LONG_DOCUMENT_FAULTS[name] + GOOD_ITEMS[20:]}
    outcomes = []
    for build in (per_item_graph_from_dict, graph_from_dict):
        try:
            outcomes.append(build(doc))
        except Exception as exc:  # compared by class and message
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]
    assert isinstance(outcomes[1], WeightedGraph) == (name in {"well formed", "int weights",
                                                               "dict subclass", "int subclass"})


def test_graph_json_schema_shape(tmp_path):
    g = build_graph(2, [(0, 1, 0.5)])
    path = tmp_path / "g.json"
    save_graph(g, path)
    doc = json.loads(path.read_text())
    assert doc == {"nodes": 2, "edges": [{"u": 0, "v": 1, "w": 0.5}]}


def json_layout(g):
    """The graph file as the json module lays it out: the oracle for ``save_graph``."""
    return (json.dumps(graph_to_dict(g), indent=2, sort_keys=True) + "\n").encode()


def mixed_weights(rng, m, n):
    """m signed weights mixing 24 decades, subnormals, integral floats and +-1e308/(n-1)."""
    special = [5e-324, -2.5e-310, 1e-315, 2.0, -7.0, 1e22, 3.0e15, 1e308 / (n - 1), -1e308 / (n - 1)]
    w = (rng.choice([-1.0, 1.0], m) * 10.0 ** rng.uniform(-12, 12, m)).tolist()
    for k, x in enumerate(special[:m]):
        w[(k * 7) % m] = x
    return w


def writer_graphs(rng):
    """Graphs from every constructor, on both sides of the whole-array path."""
    pairs = [(u, v) for u in range(12) for v in range(u + 1, 12)]  # 66
    order = rng.permutation(len(pairs))
    w = mixed_weights(rng, len(pairs), 12)
    long_edges = [(*pairs[i], x) for i, x in zip(order, w)]
    graphs = {"edgeless": build_graph(5, []), "one node": build_graph(1, [])}
    for m in (gr._COLUMN_MIN_EDGES - 1, gr._COLUMN_MIN_EDGES, len(pairs)):
        graphs[f"build_graph, {m} edges"] = build_graph(12, long_edges[:m])
        doc = {"nodes": 12, "edges": [{"u": u, "v": v, "w": x} for u, v, x in long_edges[:m]]}
        graphs[f"graph_from_dict, {m} edges"] = graph_from_dict(json.loads(json.dumps(doc)))
    for n in (2, 50, 500, 3000):
        graphs[f"rgg {n}"] = generate_rgg(n, 1.9 * math.sqrt(math.log(n) / (math.pi * n)), seed=n)
    signed = graphs[f"build_graph, {len(pairs)} edges"]
    graphs["positive subgraph"] = positive_subgraph(signed)
    graphs["negative subgraph"] = negative_subgraph(signed)
    graphs["zero weights"] = gr._with_weights(signed, [0.0 if k % 5 == 0 else -0.0 if k % 5 == 1 else x
                                                       for k, (_, _, x) in enumerate(signed.edges)])
    return graphs


def test_save_graph_writes_the_json_layout_byte_for_byte(tmp_path):
    graphs = writer_graphs(np.random.default_rng(20))
    assert graphs["negative subgraph"].edge_count and graphs["rgg 3000"].edge_count > 40000
    for name, g in graphs.items():
        path = tmp_path / "g.json"
        save_graph(g, path)
        assert path.read_bytes() == json_layout(g), name
        if all(w != 0.0 for _, _, w in g.edges):  # bit for bit back
            back = load_graph(path)
            assert back.node_count == g.node_count
            assert [(u, v, w.hex()) for u, v, w in back.edges] == [(u, v, w.hex()) for u, v, w in g.edges]
        else:  # a zero weight is no edge of a graph file
            with pytest.raises(GraphFormatError, match="weight zero"):
                load_graph(path)
    assert b'"edges": [],' in json_layout(graphs["edgeless"])


def test_save_graph_needs_no_json_encoder(tmp_path, monkeypatch):
    g = writer_graphs(np.random.default_rng(21))["build_graph, 66 edges"]
    want = json_layout(g)

    def refused(*args, **kwargs):
        raise AssertionError("the json encoder was called")

    monkeypatch.setattr(json, "dump", refused)
    monkeypatch.setattr(json, "dumps", refused)
    save_graph(g, tmp_path / "g.json")
    assert (tmp_path / "g.json").read_bytes() == want


def test_load_graph_refuses_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"nodes": 1, "edges": []}'.encode("utf-16-le"))
    with pytest.raises(GraphFormatError, match="utf16.json: the file is not UTF-8 text"):
        load_graph(path)


# ---------------------------------------------------------- degree overflow


def overflowing_nodes(n, edges):
    """Nodes whose exact sum of |w| rounds beyond the float range, ties to even."""
    totals = [Fraction(0)] * n
    for u, v, w in edges:
        totals[u] += Fraction(abs(w))
        totals[v] += Fraction(abs(w))
    return [node for node, total in enumerate(totals) if total >= 2 ** 1024 - 2 ** 970]


def test_degree_overflow_is_refused_exactly():
    rng = np.random.default_rng(52)
    top = sys.float_info.max
    refused = accepted = 0
    for trial in range(300):
        n = int(rng.integers(3, 9)) if trial % 2 else 40  # the per-edge loop, or the whole-array path
        pairs = [(0, v) for v in range(1, n)] + [(u, u + 1) for u in range(1, n - 1)]
        scale = top / (3.0 if n < 40 else 40.0)
        w = rng.choice([-1.0, 1.0], len(pairs)) * scale * rng.uniform(0.6, 1.4, len(pairs))
        edges = [(u, v, float(x)) for (u, v), x in zip(pairs, w)]
        over = overflowing_nodes(n, edges)
        doc = {"nodes": n, "edges": [{"u": u, "v": v, "w": x} for u, v, x in edges]}
        if over:
            message = f"node {over[0]}: its weighted degree (the sum of |w| over its edges) is beyond the float range"
            with pytest.raises(GraphConstructionError) as exc:
                build_graph(n, edges)
            assert str(exc.value) == message
            with pytest.raises(GraphFormatError) as exc:
                graph_from_dict(doc)
            assert str(exc.value) == message
            refused += 1
        else:
            assert build_graph(n, edges) == graph_from_dict(doc) == per_edge_build_graph(n, edges)
            accepted += 1
    assert min(refused, accepted) >= 50
    half = top / 2
    assert build_graph(3, [(0, 1, half), (0, 2, -half)]).edge_count == 2  # a degree of exactly the float max
    with pytest.raises(GraphConstructionError, match="node 0"):  # the tie rounds up, beyond it
        build_graph(3, [(0, 1, half), (0, 2, float(np.nextafter(half, top)))])
    with pytest.raises(GraphConstructionError, match="node 0"):
        build_graph(3, [(0, 1, 1e308), (0, 2, 1e308), (1, 2, 1e308)])
    assert build_graph(3, [(0, 1, 8.9e307), (0, 2, 8.9e307), (1, 2, 8.9e307)]).edge_count == 3
