"""Every public function that takes node, node-pair or edge indices reads
them once, through one check: any iterable gives the list's answer, and a
bad index raises the module's exception type naming the bad value."""

import numpy as np
import pytest

from resistnet import (
    GraphConstructionError,
    InputError,
    NonlinearCoupling,
    SimulationConfig,
    UncertaintySpec,
    build_graph,
    burst_input,
    effective_resistance,
    node_pair_resistance_matrix,
    path_edge_set,
    resistance_matrix,
    simulate_linear,
    simulate_nonlinear,
    small_gain_margin,
    total_effective_resistance,
)
from resistnet import graph as gr

# a triangle with a pendant node: 4 nodes, 4 edges
G = build_graph(4, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 1.0), (2, 3, 1.5)])
N = G.node_count
CFG = dict(duration=0.1, dt=0.01, state_seed=3)
COUPLING = NonlinearCoupling(((-0.1, 0.1, 1.0), (0.2, -0.1, 2.0)))

# name: (exception type, kind of index, valid indices, call on the indices);
# a bad index replaces the last node (or the last pair's second node)
CASES = {
    "path_edge_set": (GraphConstructionError, "node", [0, 3], lambda ix: path_edge_set(G, *ix)),
    "effective_resistance": (GraphConstructionError, "node", [0, 3], lambda ix: effective_resistance(G, *ix)),
    "effective_resistance pseudoinverse": (
        GraphConstructionError, "node", [0, 3],
        lambda ix: effective_resistance(G, *ix, method="pseudoinverse")),
    "node_pair_resistance_matrix": (
        GraphConstructionError, "pair", [(0, 1), (1, 3)], lambda ix: node_pair_resistance_matrix(G, ix)),
    "resistance_matrix": (GraphConstructionError, "edge", [3, 0], lambda ix: resistance_matrix(G, ix)),
    "total_effective_resistance": (
        GraphConstructionError, "edge", [3, 0], lambda ix: total_effective_resistance(G, ix)),
    "UncertaintySpec": (
        GraphConstructionError, "edge", [3, 0], lambda ix: small_gain_margin(G, UncertaintySpec(ix))),
    "simulate_linear delta": (
        GraphConstructionError, "edge", [3, 0],
        lambda ix: simulate_linear(G, dict(zip(ix, (-0.1, 0.2))), SimulationConfig(**CFG)).states),
    "simulate_nonlinear": (
        GraphConstructionError, "edge", [3, 0],
        lambda ix: simulate_nonlinear(G, ix, COUPLING, SimulationConfig(**CFG)).states),
    "burst_input": (InputError, "node", [1, 3], lambda ix: burst_input(N, ix, 1.0, 0.0, 1.0)(0.5)),
    "SimulationConfig.output_edges": (
        InputError, "pair", [(0, 1), (3, 2)],
        lambda ix: simulate_linear(G, None, SimulationConfig(**CFG, output_edges=ix)).outputs),
}
# functions whose indices are one argument, which may be any iterable
ITERABLE = [name for name in CASES if name not in (
    "path_edge_set", "effective_resistance", "effective_resistance pseudoinverse", "simulate_linear delta")]


def same(a, b):
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


@pytest.mark.parametrize("name", ITERABLE)
def test_an_iterable_gives_the_list_answer(name):
    _, _, valid, call = CASES[name]
    want = call(valid)
    for given in ((i for i in valid), tuple(valid), iter(valid), np.array(valid)):
        assert same(call(given), want)
    if CASES[name][1] != "pair":  # numpy integers are indices too
        assert same(call([np.int64(k) for k in valid]), want)


BAD = [True, np.bool_(False), 1.5, np.float64(1.0), -1, "far"]


@pytest.mark.parametrize("bad", BAD, ids=repr)
@pytest.mark.parametrize("name", list(CASES))
def test_a_bad_index_is_refused_and_named(name, bad):
    error, kind, valid, call = CASES[name]
    if isinstance(bad, str):  # out of range, past the last node or edge
        bad = 7 if kind == "edge" else N
    given = list(valid)
    if kind == "pair":
        given[-1] = (given[-1][0], bad)
    else:
        given[-1] = bad
    with pytest.raises(error) as caught:
        call(given)
    assert type(caught.value) is error
    assert repr(bad) in str(caught.value)


@pytest.mark.parametrize("name", [name for name, case in CASES.items() if case[1] == "pair"])
def test_a_pair_must_be_two_different_nodes(name):
    error, _, valid, call = CASES[name]
    for item in ((0, 1, 2), (2,), 5, np.array(5), (1, 1)):
        with pytest.raises(error, match="is not a valid node pair") as caught:
            call([valid[0], item])
        assert type(caught.value) is error
        assert repr(item) in str(caught.value)


def test_a_pair_of_nodes_must_differ():
    for call in (path_edge_set, effective_resistance):
        with pytest.raises(GraphConstructionError, match=r"\(2, 2\) is not a valid node pair"):
            call(G, 2, 2)


def test_repeated_edges_are_refused_where_a_set_is_meant():
    with pytest.raises(GraphConstructionError, match="distinct"):
        UncertaintySpec(i for i in (0, 0))
    with pytest.raises(GraphConstructionError, match="distinct"):
        simulate_nonlinear(G, (i for i in (2, 2)), COUPLING, SimulationConfig(**CFG))


def test_checked_indices_are_stored_as_ints():
    spec = UncertaintySpec(np.array([3, 0]))
    assert spec.uncertain_edges == (0, 3) and all(type(k) is int for k in spec.uncertain_edges)
    cfg = SimulationConfig(**CFG, output_edges=((np.int64(u), v) for u, v in [(0, 1), (3, 2)]))
    assert cfg.output_edges == ((0, 1), (3, 2))
    assert all(type(x) is int for pair in cfg.output_edges for x in pair)


M = G.edge_count
RANGES = [range(0), range(-1, 3), range(M, M + 3), range(0, M + 1), range(0, M), range(1, 3),
          range(0, 6, 2), range(5, 0, -1)]


@pytest.mark.parametrize("given", RANGES, ids=repr)
def test_a_range_gives_the_list_answer(given):
    # a step-1 range is read by its two ends: the same tuple, or the same
    # error naming the same first bad index, as the equivalent list
    def outcome(values, **kwargs):
        try:
            return gr._indices(values, "edge indices", **kwargs)
        except GraphConstructionError as exc:
            return str(exc)

    for kwargs in ({}, {"bound": M}, {"bound": M, "distinct": True}):
        assert outcome(given, **kwargs) == outcome(list(given), **kwargs)
    for call in (UncertaintySpec, lambda ix: resistance_matrix(G, ix)):
        try:
            want = call(list(given))
        except GraphConstructionError as exc:
            with pytest.raises(GraphConstructionError) as caught:
                call(given)
            assert str(caught.value) == str(exc)
        else:
            assert same(call(given), want)
