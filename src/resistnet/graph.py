"""Weighted graphs, incidence structure, and spanning-forest decompositions.

A network is an undirected graph on nodes ``0..n-1`` with real nonzero edge
weights (negative and positive weights both allowed).  Edges carry a fixed
reference orientation, tail -> head with ``tail < head``, which makes the
incidence matrix and every derived object deterministic.  Edge indices are
positions in the edge tuple and are preserved by every operation here.

Each graph computes every fact about itself once, on first use, and keeps
it for its lifetime; nothing it keeps refers back to the graph, so the
graph and its arrays go as soon as the last reference to it does.  It
keeps:

* one factorization that every analysis shares: the eigenvalues of the
  grounded Laplacian pencil (``grounded_eigvals``) and the grounded inverse
  built through the same scaling (``grounded_inverse``); the pencil itself
  is dropped once both exist;
* its neighbor lists, shared by the breadth-first search (component labels,
  read-only, and the spanning forest), the block search and the balance
  test;
* its biconnected blocks and their block-cut tree, from which every path
  support is read;
* its sign split, its positive subgraph (itself when no edge is negative)
  and the resistances across its negative edges in that subgraph.

``stability`` and ``robustness`` keep the verdict per zero threshold and
the margin gains per uncertain-edge set the same way.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import GraphConstructionError, GraphFormatError

__all__ = [
    "WeightedGraph",
    "ForestDecomposition",
    "SignedPartition",
    "build_graph",
    "incidence_matrix",
    "laplacian",
    "edge_laplacian",
    "connected_components",
    "component_indicators",
    "spanning_forest",
    "essential_edge_laplacian",
    "weighted_cut_matrix",
    "forest_left_inverse",
    "signed_partition",
    "positive_subgraph",
    "negative_subgraph",
    "negative_cut_components",
    "path_edge_set",
    "is_balanced",
    "graph_from_dict",
    "graph_to_dict",
    "load_graph",
    "save_graph",
]


class _cached_property:
    """``functools.cached_property`` without its lock.

    The first read calls the function and stores the value in the
    instance ``__dict__`` under the same name; as a non-data descriptor it
    is then shadowed, so later reads never reach it.  Python 3.11's
    ``cached_property`` takes an RLock on every first read, a cost that
    counts when thousands of small graphs each fill ten caches.
    """

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True)
class WeightedGraph:
    """Immutable weighted graph.

    Attributes
    ----------
    node_count : int
        Number of nodes; nodes are ``0..node_count-1``.
    edges : tuple of (tail, head, weight)
        Canonically oriented edges (``tail < head``), in insertion order.
        The position of an edge in this tuple is its edge index.
    """

    node_count: int
    edges: tuple[tuple[int, int, float], ...]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @_cached_property
    def tails(self) -> np.ndarray:
        return np.array([e[0] for e in self.edges], dtype=int)

    @_cached_property
    def heads(self) -> np.ndarray:
        return np.array([e[1] for e in self.edges], dtype=int)

    @_cached_property
    def weights(self) -> np.ndarray:
        return np.array([e[2] for e in self.edges], dtype=float)

    @_cached_property
    def _adj(self) -> list[list[tuple[int, int]]]:
        """``(neighbor, edge)`` pairs per node, sorted by neighbor so that
        traversals are deterministic."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.node_count)]
        for k, (tail, head, _) in enumerate(self.edges):
            adj[tail].append((head, k))
            adj[head].append((tail, k))
        for lst in adj:
            lst.sort()
        return adj

    @_cached_property
    def _bfs(self) -> tuple[int, np.ndarray, list[bool], list[int]]:
        """Component count, read-only node labels, forest-edge flags and
        component roots (smallest nodes) of the BFS that
        ``connected_components``, ``spanning_forest`` and the pencil share."""
        adj = self._adj
        labels = [-1] * self.node_count
        in_forest = [False] * self.edge_count
        roots = []
        count = 0
        for root in range(self.node_count):
            if labels[root] >= 0:
                continue
            roots.append(root)
            labels[root] = count
            queue = deque([root])
            while queue:
                node = queue.popleft()
                for nbr, k in adj[node]:
                    if labels[nbr] < 0:
                        labels[nbr] = count
                        in_forest[k] = True
                        queue.append(nbr)
            count += 1
        labels = np.array(labels, dtype=int)
        labels.flags.writeable = False
        return count, labels, in_forest, roots

    @_cached_property
    def _blocks(self) -> tuple[list[int], list[int], list[int]]:
        """Block label per edge, tree edge per node and discovery order of
        the one block search (``_edge_blocks``) per graph."""
        return _edge_blocks(self)

    @_cached_property
    def _block_tree(self) -> _BlockTree:
        return _block_cut_tree(self)

    @_cached_property
    def _memo(self) -> dict:
        """Analysis results on this graph, keyed by analysis and arguments:
        ``stability`` keeps its verdict per zero threshold here and
        ``robustness`` its gains per uncertain-edge set and threshold."""
        return {}

    @_cached_property
    def _signs(self) -> SignedPartition:
        pos = tuple(k for k, (_, _, w) in enumerate(self.edges) if w > 0)
        neg = tuple(k for k, (_, _, w) in enumerate(self.edges) if w < 0)
        return SignedPartition(pos, neg)

    @_cached_property
    def _positive(self) -> WeightedGraph:
        # built once, so its cached factorization and BFS are shared too; only
        # for signed graphs, since caching the graph itself here would be a cycle
        return _edge_subgraph(self, self._signs.positive_edges)

    @_cached_property
    def _negative_resistances(self) -> np.ndarray:
        """d x d resistance Gram R_- of the negative edges' endpoints in the
        positive subgraph, read once for the thresholds and the
        total-resistance check (which test its connectivity first)."""
        from .resistance import node_pair_resistance_matrix  # resistance builds on this module

        pairs = [self.edges[k][:2] for k in self._signs.negative_edges]
        return node_pair_resistance_matrix(self._positive, pairs)

    @_cached_property
    def _pencil(self) -> tuple[np.ndarray, np.ndarray, tuple]:
        """``(C^{-1}, A, ground)`` of the grounded Laplacian pencil, until
        both kernel properties exist.

        Grounding deletes each component's root, its smallest node, and
        ``ground`` indexes the kept rows and columns: ``[1:, 1:]`` on a
        connected graph.  C is the Cholesky factor of the grounded
        unit-weight Laplacian L1_g and A = C^{-1} L_g C^{-T}.
        """
        count, _, _, roots = self._bfs
        if count == 1:
            ground = (slice(1, None), slice(1, None))
        else:
            keep = np.delete(np.arange(self.node_count), roots)
            ground = np.ix_(keep, keep)
        unit = _laplacian(self.node_count, self.tails, self.heads, np.ones(self.edge_count))
        Cinv = np.linalg.inv(np.linalg.cholesky(unit[ground]))
        return Cinv, Cinv @ laplacian(self)[ground] @ Cinv.T, ground

    @_cached_property
    def grounded_eigvals(self) -> np.ndarray:
        """Eigenvalues of the grounded Laplacian pencil (L_g, L1_g), ascending.

        They have the inertia of R W R^T (congruent), equal its eigenvalues,
        the weights, on a tree, and lie in [w_min, w_max] on any positive
        graph, so a zero cut on them does not tighten as the graph grows.
        """
        A = self._pencil[1]
        if "grounded_inverse" in self.__dict__:
            del self.__dict__["_pencil"]  # nothing else reads it
        return np.linalg.eigvalsh(A)

    @_cached_property
    def grounded_inverse(self) -> np.ndarray:
        """n x n grounded inverse G = C^{-T} A^{-1} C^{-1} = L_g^{-1}, zero at the deleted nodes.

        Built through the pencil's scaling by an LU solve, so a signed
        nonsingular L_g works too: d^T L^+ d = d^T G d for d = e_u - e_v
        within one component.  Callers test the pencil's eigenvalues for
        singularity first.
        """
        Cinv, A, ground = self._pencil
        if "grounded_eigvals" in self.__dict__:
            del self.__dict__["_pencil"]  # nothing else reads it
        X = np.linalg.solve(A, Cinv)
        del A
        G = np.zeros((self.node_count, self.node_count))
        G[ground] = Cinv.T @ X
        return G


@dataclass(frozen=True)
class ForestDecomposition:
    """Spanning forest of a graph plus the induced cut-space basis.

    ``forest_edges`` and ``cycle_edges`` partition the edge indices
    (both ascending).  ``cut_matrix`` is the (n-c) x m matrix R with
    identity on the forest columns and ``tucker_matrix`` T on the cycle
    columns, so that E = E_F R with E_F the forest incidence columns.
    """

    forest_edges: tuple[int, ...]
    cycle_edges: tuple[int, ...]
    component_count: int
    cut_matrix: np.ndarray
    tucker_matrix: np.ndarray


@dataclass(frozen=True)
class SignedPartition:
    """Edge indices split by weight sign (weight zero is never stored)."""

    positive_edges: tuple[int, ...]
    negative_edges: tuple[int, ...]


def build_graph(node_count: int, edges: Iterable[Sequence]) -> WeightedGraph:
    """Validate edge data and return a canonically oriented graph.

    Parameters
    ----------
    node_count : int
        Positive number of nodes.
    edges : iterable of (u, v, w)
        Undirected edges; orientation is normalized to tail < head.

    Raises
    ------
    GraphConstructionError
        On out-of-range endpoints, self-loops, duplicate node pairs, or
        non-finite / zero weights.  Messages name the offending edge.

    A list of at least ``_COLUMN_MIN_EDGES`` ``(int, int, int or float)``
    tuples or lists is checked and built by whole-array operations
    (``_graph_from_columns``).  The per-edge loop runs when those checks
    fail, to name the first bad edge, for other endpoint and weight types
    (``np.integer`` endpoints, say), and for shorter lists, where it is the
    faster of the two.
    """
    if isinstance(node_count, bool) or not isinstance(node_count, (int, np.integer)) or node_count < 1:
        raise GraphConstructionError(f"node_count must be a positive integer, got {node_count!r}")
    if not isinstance(edges, (list, tuple)):
        edges = list(edges)
    if (
        len(edges) >= _COLUMN_MIN_EDGES
        and set(map(type, edges)) <= {tuple, list}
        and set(map(len, edges)) == {3}
    ):
        g = _graph_from_columns(int(node_count), *zip(*edges))
        if g is not None:
            return g
    canon: list[tuple[int, int, float]] = []
    seen: set[tuple[int, int]] = set()
    for k, edge in enumerate(edges):
        try:
            u, v, w = edge
        except (TypeError, ValueError) as exc:
            raise GraphConstructionError(f"edge {k}: expected (u, v, w), got {edge!r}") from exc
        if (
            isinstance(u, bool)
            or isinstance(v, bool)
            or not isinstance(u, (int, np.integer))
            or not isinstance(v, (int, np.integer))
        ):
            raise GraphConstructionError(f"edge {k} ({u!r}, {v!r}): endpoints must be integers")
        u, v = int(u), int(v)
        if not (0 <= u < node_count) or not (0 <= v < node_count):
            raise GraphConstructionError(
                f"edge {k} ({u}, {v}): endpoint out of range for {node_count} nodes"
            )
        if u == v:
            raise GraphConstructionError(f"edge {k} ({u}, {v}): self-loops are not allowed")
        w = float(w)
        if not math.isfinite(w):
            raise GraphConstructionError(f"edge {k} ({u}, {v}): weight {w!r} is not finite")
        if w == 0.0:
            raise GraphConstructionError(
                f"edge {k} ({u}, {v}): weight zero is not a valid edge; drop the edge instead"
            )
        tail, head = (u, v) if u < v else (v, u)
        if (tail, head) in seen:
            raise GraphConstructionError(f"edge {k} ({u}, {v}): duplicate node pair")
        seen.add((tail, head))
        canon.append((tail, head, w))
    return WeightedGraph(int(node_count), tuple(canon))


def _graph_from_columns(n: int, us: Sequence, vs: Sequence, ws: Sequence) -> WeightedGraph | None:
    """The graph of endpoint and weight columns that pass whole-array
    checks, with its ``tails``/``heads``/``weights`` arrays already set;
    None when any check fails.

    Accepts ``int`` endpoints in ``[0, n)`` and ``int``/``float`` weights
    that are finite and nonzero, with no self-loop and no node pair twice
    (found by sorting ``tail * n + head``).  The values are those of the
    per-edge loop: ``float(w)`` and numpy's int-to-float conversion both
    round correctly.
    """
    if not ({*map(type, us), *map(type, vs)} <= {int} and set(map(type, ws)) <= {int, float}):
        return None
    try:
        u, v = np.array(us, dtype=int), np.array(vs, dtype=int)
        weights = np.array(ws, dtype=float)
    except OverflowError:  # an endpoint beyond int64 or an int weight beyond the float range
        return None
    tails, heads = np.minimum(u, v), np.maximum(u, v)
    if tails.min() < 0 or heads.max() >= n or n > _MAX_KEYED_NODES:
        return None
    keys = tails * n + heads
    keys.sort()
    if (
        (tails == heads).any()
        or not np.isfinite(weights).all()
        or not weights.all()
        or (keys[1:] == keys[:-1]).any()
    ):
        return None
    g = WeightedGraph(n, tuple(zip(tails.tolist(), heads.tolist(), weights.tolist())))
    g.__dict__.update(tails=tails, heads=heads, weights=weights)  # the cached properties' values
    return g


# Edge lists shorter than this are built by the per-edge loop: the ~20
# numpy calls of ``_graph_from_columns`` cost more than the loop below about
# 30 edges (about 20 against 17 microseconds at 14 edges on a 2-core host).
_COLUMN_MIN_EDGES = 32
# largest node count whose pair keys tail * n + head fit in int64
_MAX_KEYED_NODES = math.isqrt(2 ** 63 - 1)


def incidence_matrix(g: WeightedGraph) -> np.ndarray:
    """Node-edge incidence matrix E, +1 at the tail and -1 at the head.

    Columns follow edge-index order; column sums vanish, so 1^T E = 0.
    """
    E = np.zeros((g.node_count, g.edge_count))
    cols = np.arange(g.edge_count)
    E[g.tails, cols] = 1.0
    E[g.heads, cols] = -1.0
    return E


def laplacian(g: WeightedGraph) -> np.ndarray:
    """Weighted graph Laplacian L = E W E^T (symmetric, 1 in its null space), by scatter."""
    return _laplacian(g.node_count, g.tails, g.heads, g.weights)


def _laplacian(n: int, t: np.ndarray, h: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Laplacian of the edges (t_k, h_k) with weights w_k on n nodes."""
    L = np.zeros((n, n))
    L[t, h] = L[h, t] = -w
    L[np.diag_indices(n)] = np.bincount(t, w, n) + np.bincount(h, w, n)
    return L


def edge_laplacian(g: WeightedGraph) -> np.ndarray:
    """Weighted edge Laplacian W^{1/2} E^T E W^{1/2}, nonnegative weights only.

    Defined only when no weight is negative (the square root must be real);
    use :func:`essential_edge_laplacian` for signed analysis.
    """
    if np.any(g.weights < 0):
        raise GraphConstructionError("edge_laplacian requires nonnegative weights")
    E = incidence_matrix(g)
    s = np.sqrt(g.weights)
    return (s[:, None] * (E.T @ E)) * s[None, :]


def connected_components(g: WeightedGraph) -> tuple[int, np.ndarray]:
    """Component count and a label per node (one read-only array per graph).

    Labels are assigned in order of each component's smallest node, so the
    labeling is deterministic.
    """
    count, labels, _, _ = g._bfs
    return count, labels


def component_indicators(g: WeightedGraph, normalized: bool = False) -> np.ndarray:
    """n x c indicator matrix of components (optionally unit-norm columns)."""
    count, labels = connected_components(g)
    N = np.zeros((g.node_count, count))
    N[np.arange(g.node_count), labels] = 1.0
    if normalized:
        N /= np.sqrt(N.sum(axis=0))
    return N


def spanning_forest(g: WeightedGraph) -> ForestDecomposition:
    """BFS spanning forest and the cut-space basis R = [I T] it induces.

    The forest is grown from the lowest-index node of each component with
    neighbors visited in index order; forest and cycle edge lists are then
    sorted ascending.  T solves L_e(F) T = E_F^T E_C, where L_e(F) = E_F^T E_F
    is the unweighted edge Laplacian of the forest, and R carries the identity
    on forest columns and T on cycle columns (in original edge positions).
    """
    component_count, _, in_forest, _ = g._bfs
    forest = tuple(k for k in range(g.edge_count) if in_forest[k])
    cycle = tuple(k for k in range(g.edge_count) if not in_forest[k])

    E = incidence_matrix(g)
    EF = E[:, forest]
    EC = E[:, cycle]
    n_f = len(forest)
    if n_f:
        Le = EF.T @ EF
        T = np.linalg.solve(Le, EF.T @ EC) if cycle else np.zeros((n_f, 0))
    else:
        T = np.zeros((0, len(cycle)))
    R = np.zeros((n_f, g.edge_count))
    R[:, list(forest)] = np.eye(n_f)
    if cycle:
        R[:, list(cycle)] = T
    return ForestDecomposition(forest, cycle, component_count, R, T)


def _check_decomposition(g: WeightedGraph, f: ForestDecomposition) -> None:
    if f.cut_matrix.shape != (len(f.forest_edges), g.edge_count):
        raise GraphConstructionError(
            "forest decomposition does not match the graph: "
            f"cut matrix is {f.cut_matrix.shape}, expected "
            f"({len(f.forest_edges)}, {g.edge_count})"
        )


def weighted_cut_matrix(g: WeightedGraph, f: ForestDecomposition) -> np.ndarray:
    """R W R^T, the weight Gram matrix of the cut-space basis."""
    _check_decomposition(g, f)
    R = f.cut_matrix
    return (R * g.weights) @ R.T


def essential_edge_laplacian(g: WeightedGraph, f: ForestDecomposition) -> np.ndarray:
    """Essential edge Laplacian L_e(F) R W R^T (similar to L with zeros split off).

    L_e(F) here is the unweighted forest edge Laplacian E_F^T E_F; the weights
    enter only through R W R^T.
    """
    _check_decomposition(g, f)
    E = incidence_matrix(g)
    EF = E[:, list(f.forest_edges)]
    return (EF.T @ EF) @ weighted_cut_matrix(g, f)


def forest_left_inverse(g: WeightedGraph, f: ForestDecomposition) -> np.ndarray:
    """Left inverse L_e(F)^{-1} E_F^T of the forest incidence columns."""
    _check_decomposition(g, f)
    E = incidence_matrix(g)
    EF = E[:, list(f.forest_edges)]
    if not f.forest_edges:
        return np.zeros((0, g.node_count))
    return np.linalg.solve(EF.T @ EF, EF.T)


def signed_partition(g: WeightedGraph) -> SignedPartition:
    """Edge indices split into positive-weight and negative-weight groups (cached per graph)."""
    return g._signs


def _with_weights(g: WeightedGraph, weights: Sequence[float]) -> WeightedGraph:
    """The same edges with new weights, for Laplacian assembly only.

    Unlike ``build_graph`` it keeps zero weights (the edge drops out of L).
    """
    edges = tuple((u, v, float(w)) for (u, v, _), w in zip(g.edges, weights))
    return WeightedGraph(g.node_count, edges)


def _edge_subgraph(g: WeightedGraph, keep: Sequence[int]) -> WeightedGraph:
    return WeightedGraph(g.node_count, tuple(g.edges[k] for k in keep))


def positive_subgraph(g: WeightedGraph) -> WeightedGraph:
    """Subgraph on the full node set keeping only positive-weight edges.

    That is ``g`` itself when no edge is negative, else built once per graph.
    """
    return g._positive if g._signs.negative_edges else g


def negative_subgraph(g: WeightedGraph) -> WeightedGraph:
    """Subgraph on the full node set keeping only negative-weight edges."""
    return _edge_subgraph(g, signed_partition(g).negative_edges)


def negative_cut_components(g: WeightedGraph) -> tuple[bool, tuple[int, ...]]:
    """Whether the negative edges contain a cut of the graph.

    Returns ``(cut_exists, cut_edges)``: ``cut_exists`` is true iff removing
    the negative edges increases the component count, and ``cut_edges`` lists
    the negative edges whose endpoints then lie in different components.
    """
    if not signed_partition(g).negative_edges:
        return False, ()
    base_count, _ = connected_components(g)
    plus = positive_subgraph(g)
    plus_count, labels = connected_components(plus)
    if plus_count == base_count:
        return False, ()
    cut = tuple(
        k for k in signed_partition(g).negative_edges
        if labels[g.edges[k][0]] != labels[g.edges[k][1]]
    )
    return True, cut


class _BlockTree(NamedTuple):
    """Block-cut tree of a graph.

    ``members`` lists the edges of each block, labeled as in
    ``_edge_blocks``.  The tree's nodes are the graph's nodes ``0..n-1`` and
    block b as ``n + b``: a node hangs from the block of its depth-first
    tree edge, a block from the node it leaves.  ``up`` is each tree node's
    parent (-1 at a component's root) and ``depth`` its distance from that
    root.
    """

    members: dict[int, list[int]]
    up: list[int]
    depth: list[int]


def _edge_blocks(g: WeightedGraph) -> tuple[list[int], list[int], list[int]]:
    """Biconnected-block label per edge (Hopcroft & Tarjan 1973), O(n + m).

    Two edges share a label iff some simple cycle passes through both; a
    block is labeled by its first tree edge.  Also returns each node's tree
    edge (-1 at a root) and the nodes in discovery order.  The depth-first
    search keeps its own stack, because a path graph is as deep as it has
    nodes.  Parallel edges are told apart by index.
    """
    adj = g._adj
    disc = [-1] * g.node_count
    low = [0] * g.node_count
    block = [-1] * g.edge_count
    tree_edge = [-1] * g.node_count
    order: list[int] = []
    pending: list[int] = []  # tree and back edges not yet in a block
    clock = 0
    for root in range(g.node_count):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        order.append(root)
        stack = [(root, -1, iter(adj[root]), 0)]
        while stack:
            node, via, nbrs, mark = stack[-1]
            for nbr, k in nbrs:
                if disc[nbr] < 0:
                    stack.append((nbr, k, iter(adj[nbr]), len(pending)))
                    pending.append(k)
                    disc[nbr] = low[nbr] = clock
                    clock += 1
                    tree_edge[nbr] = k
                    order.append(nbr)
                    break
                if k != via and disc[nbr] < disc[node]:  # back edge to an ancestor
                    pending.append(k)
                    low[node] = min(low[node], disc[nbr])
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[node])
                    if low[node] >= disc[parent]:  # parent cuts node's subtree off
                        for k in pending[mark:]:
                            block[k] = via
                        del pending[mark:]
    return block, tree_edge, order


def _block_cut_tree(g: WeightedGraph) -> _BlockTree:
    """The graph's block search arranged as its block-cut tree."""
    block, tree_edge, order = g._blocks
    n = g.node_count
    up = [-1] * (n + g.edge_count)
    depth = [0] * (n + g.edge_count)
    for node in order:  # the node a block hangs from is discovered before its others
        k = tree_edge[node]
        if k < 0:
            continue
        b = block[k]
        if up[n + b] < 0:
            tail, head, _ = g.edges[b]
            top = tail if tree_edge[head] == b else head
            up[n + b] = top
            depth[n + b] = depth[top] + 1
        up[node] = n + b
        depth[node] = depth[n + b] + 1
    members: dict[int, list[int]] = {}
    for k, b in enumerate(block):
        members.setdefault(b, []).append(k)
    return _BlockTree(members, up, depth)


def _path_blocks(g: WeightedGraph, u: int, v: int) -> set[int]:
    """Labels of the blocks on the block-cut-tree path from u to v.

    Their edges are the edges on simple u-v paths: the path enters and
    leaves each such block at two distinct nodes, and in a biconnected
    block every edge lies on a simple path between any two of its nodes.
    Empty when u and v lie in different components.
    """
    if g._bfs[1][u] != g._bfs[1][v]:
        return set()
    tree = g._block_tree
    up, depth, n = tree.up, tree.depth, g.node_count
    found = set()
    while u != v:
        if depth[u] < depth[v]:
            u, v = v, u
        u = up[u]
        if u >= n:
            found.add(u - n)
    return found


def path_edge_set(g: WeightedGraph, u: int, v: int) -> set[int]:
    """Indices of all edges lying on at least one simple u-v path.

    These are the edges of the biconnected blocks on the block-cut-tree
    path from u to v (equivalently, the edges sharing a block with a
    virtual u-v edge); for an edge (u, v) of the graph this is its own
    block.  One linear-time block search per graph, then time proportional
    to the path and the answer; empty when u and v sit in different
    components.
    """
    if not (0 <= u < g.node_count) or not (0 <= v < g.node_count):
        raise GraphConstructionError(f"nodes ({u}, {v}) out of range for {g.node_count} nodes")
    if u == v:
        raise GraphConstructionError("path_edge_set endpoints must differ")
    members = g._block_tree.members
    return {k for b in _path_blocks(g, u, v) for k in members[b]}


def is_balanced(g: WeightedGraph) -> bool:
    """Whether the weight signs admit a consistent 2-coloring.

    A graph is sign-balanced when nodes can be colored with two colors such
    that positive edges join like colors and negative edges join opposite
    colors (equivalently, every cycle has an even number of negative edges).
    With no negative edge one color fits, so no search runs.
    """
    if not signed_partition(g).negative_edges:
        return True
    adj = g._adj
    color = [-1] * g.node_count
    for root in range(g.node_count):
        if color[root] >= 0:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            node = queue.popleft()
            for nbr, k in adj[node]:
                want = color[node] if g.edges[k][2] > 0 else 1 - color[node]
                if color[nbr] < 0:
                    color[nbr] = want
                    queue.append(nbr)
                elif color[nbr] != want:
                    return False
    return True


def graph_from_dict(data: dict) -> WeightedGraph:
    """Build a graph from ``{"nodes": n, "edges": [{"u", "v", "w"}, ...]}``.

    Edge order in the list defines edge indices.
    """
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
    if nodes >= 1 and len(raw_edges) >= _COLUMN_MIN_EDGES and set(map(type, raw_edges)) == {dict}:
        try:
            columns = [list(map(itemgetter(f), raw_edges)) for f in "uvw"]
        except KeyError:
            pass
        else:
            g = _graph_from_columns(nodes, *columns)
            if g is not None:
                return g
    triples = _edge_triples(raw_edges)
    try:
        return build_graph(nodes, triples)
    except GraphConstructionError as exc:
        raise GraphFormatError(str(exc)) from exc


def _edge_triples(raw_edges: list) -> list:
    """``(u, v, float(w))`` per ``{u, v, w}`` item, in order; names the
    first bad item.  Runs for the lists the whole-array path does not take."""
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
        try:
            triples.append((u, v, float(w)))
        except OverflowError:  # an integer literal beyond the float range
            raise GraphFormatError(f"edges[{k}]: field 'w' is beyond the float range") from None
    return triples


def graph_to_dict(g: WeightedGraph) -> dict:
    """Serialize to the ``{"nodes", "edges"}`` document form (round-trips)."""
    return {
        "nodes": g.node_count,
        "edges": [{"u": tail, "v": head, "w": w} for tail, head, w in g.edges],
    }


def load_graph(path) -> WeightedGraph:
    """Load a graph from a JSON file; errors carry line/field diagnostics."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(
                f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
    try:
        return graph_from_dict(data)
    except GraphFormatError as exc:
        raise GraphFormatError(f"{path}: {exc}") from exc


def save_graph(g: WeightedGraph, path) -> None:
    """Write the JSON document form with stable key order."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_dict(g), fh, indent=2, sort_keys=True)
        fh.write("\n")
