import json

import numpy as np
import pytest

import networkx as nx

from conftest import random_cactus, random_connected_positive, random_signed, triangle_chain
from resistnet import (
    GraphConstructionError,
    GraphFormatError,
    build_graph,
    connected_components,
    component_indicators,
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


def test_graph_json_schema_shape(tmp_path):
    g = build_graph(2, [(0, 1, 0.5)])
    path = tmp_path / "g.json"
    save_graph(g, path)
    doc = json.loads(path.read_text())
    assert doc == {"nodes": 2, "edges": [{"u": 0, "v": 1, "w": 0.5}]}
