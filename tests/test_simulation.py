import math

import numpy as np
import pytest

from conftest import random_connected_positive
from resistnet import (
    GenerationError,
    GraphConstructionError,
    InputError,
    NonlinearCoupling,
    SimulationConfig,
    SplitMix64,
    StepSizeError,
    Trajectory,
    build_graph,
    burst_input,
    connected_components,
    detect_clusters,
    generate_rgg,
    laplacian,
    simulate_linear,
    simulate_nonlinear,
    table_input,
    write_trajectory_csv,
)

TRIANGLE = build_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])


def config(**kw):
    kw.setdefault("duration", 20.0)
    kw.setdefault("dt", 0.01)
    return SimulationConfig(**kw)


# -------------------------------------------------------------- splitmix


def test_splitmix_reference_values():
    # first outputs of the standard splitmix64 stream for seed 0
    rng = SplitMix64(0)
    assert rng.next_int() == 0xE220A8397B1DCDAF
    assert rng.next_int() == 0x6E789E6AA1B965F4
    assert rng.next_int() == 0x06C45D188009454F


def test_splitmix_floats_in_range_and_deterministic():
    a = SplitMix64(123)
    b = SplitMix64(123)
    xs = [a.next_symmetric() for _ in range(1000)]
    ys = [b.next_symmetric() for _ in range(1000)]
    assert xs == ys
    assert all(-1.0 <= x < 1.0 for x in xs)


# ------------------------------------------------------------ validation


def test_config_validation():
    with pytest.raises(InputError):
        SimulationConfig(duration=0.0, dt=0.01)
    with pytest.raises(InputError):
        SimulationConfig(duration=1.0, dt=-0.1)
    with pytest.raises(InputError):
        SimulationConfig(duration=1.0, dt=0.01, store_every=0)


def test_initial_state_validation():
    with pytest.raises(InputError, match="shape"):
        simulate_linear(TRIANGLE, None, config(initial_state=[1.0, 2.0]))
    with pytest.raises(InputError):
        simulate_linear(TRIANGLE, None, config(initial_state=[1.0, np.nan, 0.0]))


def test_step_guard():
    # lambda_max = 3 for the unit triangle -> dt must stay below 2/3
    with pytest.raises(StepSizeError, match="2 / 3"):
        simulate_linear(TRIANGLE, None, config(dt=0.7))
    simulate_linear(TRIANGLE, None, config(duration=1.0, dt=0.6))


def test_nonlinear_step_guard_includes_slope():
    coupling = NonlinearCoupling(((-3.0, 1.0, 1.0),))
    # guard rate = lambda_max + |a| + |b c| = 3 + 4 = 7
    with pytest.raises(StepSizeError):
        simulate_nonlinear(TRIANGLE, [0], coupling, config(dt=0.3))


def test_coupling_validation():
    with pytest.raises(InputError):
        NonlinearCoupling(((1.0, 1.0, 0.0),))
    with pytest.raises(InputError):
        NonlinearCoupling(())
    c = NonlinearCoupling(((-1.0, 2.0, 0.5),))
    assert c.sectors() == ((-2.0, 0.0),)
    assert c.slope_bound() == pytest.approx(2.0)
    with pytest.raises(GraphConstructionError):
        simulate_nonlinear(TRIANGLE, [0, 0], NonlinearCoupling(((0.1, 0, 1), (0.1, 0, 1))), config())


# ---------------------------------------------------------------- linear


def test_linear_consensus_convergence():
    traj = simulate_linear(TRIANGLE, None, config(duration=30.0))
    assert not traj.diverged
    assert np.linalg.norm(traj.outputs[-1]) < 1e-10
    # consensus value is the mean of the initial state
    assert traj.states[-1] == pytest.approx(np.full(3, traj.states[0].mean()), abs=1e-10)


def test_linear_conserves_mean():
    rng = np.random.default_rng(113)
    g = random_connected_positive(rng)
    traj = simulate_linear(g, None, config(duration=5.0))
    sums = traj.states.sum(axis=1)
    assert np.max(np.abs(sums - sums[0])) < 1e-10


def test_exact_step_map_matches_rk4():
    # zero-input fast path and the generic RK4 path must agree exactly
    zero = lambda t: np.zeros(3)
    a = simulate_linear(TRIANGLE, None, config(duration=2.0))
    b = simulate_linear(TRIANGLE, None, config(duration=2.0, exogenous_input=zero))
    assert np.max(np.abs(a.states - b.states)) < 1e-10


def test_fourth_order_convergence():
    # halving the step divides the error by ~16 (ratio checked at dt = 0.05)
    x0 = np.array([1.0, 0.0, -1.0])
    L = laplacian(TRIANGLE)

    def end_state(dt):
        traj = simulate_linear(
            TRIANGLE, None, config(duration=2.0, dt=dt, initial_state=x0, store_every=10 ** 9)
        )
        return traj.states[-1]

    # reference: a much finer grid of the same integrator
    ref = end_state(0.05 / 16)
    e1 = np.linalg.norm(end_state(0.05) - ref)
    e2 = np.linalg.norm(end_state(0.025) - ref)
    assert e1 / e2 == pytest.approx(16.0, rel=0.2)


def test_marginal_graph_clusters():
    # boundary weight -0.5: null space adds (1, 0, -1), giving 3 level groups
    g = build_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, -0.5)])
    traj = simulate_linear(g, None, config(duration=60.0, initial_state=[1.0, 0.3, -0.8]))
    assert not traj.diverged
    clusters = detect_clusters(traj.states[-1])
    assert len(clusters) == 3


def test_divergence_detection_and_truncation():
    g = build_graph(2, [(0, 1, -1.0)])
    traj = simulate_linear(g, None, config(duration=100.0, initial_state=[1.0, -1.0]))
    assert traj.diverged
    assert traj.diverged_at == pytest.approx(traj.times[-1])
    assert traj.times[-1] < 100.0  # stopped early
    assert np.linalg.norm(traj.states[-1]) > 1e9


def test_perturbation_forms_agree():
    delta_dict = {2: -0.3}
    delta_vec = np.array([0.0, 0.0, -0.3])
    a = simulate_linear(TRIANGLE, delta_dict, config(duration=1.0))
    b = simulate_linear(TRIANGLE, delta_vec, config(duration=1.0))
    assert np.array_equal(a.states, b.states)
    with pytest.raises(GraphConstructionError):
        simulate_linear(TRIANGLE, {7: 1.0}, config())


def test_exogenous_input_drives_state():
    v = burst_input(3, [0], 1.0, 0.0, 1.0)
    traj = simulate_linear(TRIANGLE, None, config(duration=2.0, initial_state=[0.0] * 3,
                                                  exogenous_input=v))
    # total state tracks the integral of the input (quadrature error at the
    # burst edge is O(dt))
    assert traj.states[-1].sum() == pytest.approx(1.0, abs=0.005)


def test_linear_input_read_once_per_stage_time():
    # t, t + dt/2 (both middle stages) and t + dt: 3 reads per step
    times = []
    burst = burst_input(3, [0], 1.0, 0.0, 0.5)

    def v(t):
        times.append(t)
        return burst(t)

    simulate_linear(TRIANGLE, None, config(duration=1.0, dt=0.01, exogenous_input=v))
    assert len(times) == 300
    assert sorted(times)[:6] == [0.0, 0.005, 0.01, 0.01, 0.015, 0.02]


@pytest.mark.parametrize("length", [4, 1])
def test_linear_input_of_wrong_length_is_refused(length):
    # a length-1 input is not broadcast to every node
    v = table_input([0.0, 0.5], np.ones((2, length)))
    with pytest.raises(InputError, match=rf"shape \({length},\), expected \(3,\)"):
        simulate_linear(TRIANGLE, None, config(duration=1.0, exogenous_input=v))


def test_linear_input_checked_in_every_chunk():
    # well shaped at first, a scalar from t = 5 on, past the first chunk (3640 steps)
    good = np.ones(3)
    v = lambda t: good if t < 5.0 else 0.0  # noqa: E731
    with pytest.raises(InputError, match=r"at t = 5\.0 has shape \(\)"):
        simulate_linear(TRIANGLE, None, config(duration=20.0, dt=1e-3, exogenous_input=v))


@pytest.mark.parametrize("length", [4, 1])
def test_nonlinear_input_of_wrong_length_is_refused(length):
    v = burst_input(length, [0], 1.0, 0.0, 1.0)
    coupling = NonlinearCoupling(((-0.1, 0.1, 1.0),))
    with pytest.raises(InputError, match=rf"shape \({length},\), expected \(3,\)"):
        simulate_nonlinear(TRIANGLE, [0], coupling, config(duration=1.0, exogenous_input=v))


def test_table_input_zero_order_hold():
    f = table_input([0.0, 1.0], np.array([[1.0, 0.0], [0.0, 2.0]]))
    assert np.array_equal(f(0.5), [1.0, 0.0])
    assert np.array_equal(f(1.5), [0.0, 2.0])


def test_store_every_thins_but_keeps_last():
    traj = simulate_linear(TRIANGLE, None, config(duration=1.0, dt=0.01, store_every=7))
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(1.0)
    steps = np.rint(traj.times[1:-1] / 0.01).astype(int)
    assert np.all(steps % 7 == 0)


# -------------------------------------------------------------- nonlinear


def test_nonlinear_reduces_to_linear_when_b_zero():
    # phi(y) = a y with b = 0 equals a weight shift by a
    coupling = NonlinearCoupling(((-0.3, 0.0, 1.0),))
    a = simulate_nonlinear(TRIANGLE, [2], coupling, config(duration=3.0))
    b = simulate_linear(TRIANGLE, {2: -0.3}, config(duration=3.0))
    assert np.max(np.abs(a.states - b.states)) < 1e-12


def test_nonlinear_sector_stable_run_converges():
    coupling = NonlinearCoupling(((-0.45, 0.45, 1.0),))
    traj = simulate_nonlinear(TRIANGLE, [0], coupling, config(duration=40.0, dt=0.005))
    assert not traj.diverged
    assert np.linalg.norm(traj.outputs[-1]) < 1e-6


def test_nonlinear_destabilizing_run_diverges():
    # slope far beyond the margin 1.5 on edge 0
    coupling = NonlinearCoupling(((-4.0, 1.0, 1.0),))
    traj = simulate_nonlinear(TRIANGLE, [0], coupling,
                              config(duration=200.0, dt=0.005))
    assert traj.diverged
    assert traj.diverged_at is not None


# ---------------------------------------------------------------- helpers


def test_detect_clusters():
    assert detect_clusters([0.0, 0.0, 1.0]) == ((0, 1), (2,))
    assert detect_clusters([5.0, 5.0, 5.0]) == ((0, 1, 2),)
    # clusters come back ordered by smallest member, not by value
    assert detect_clusters([0.0, 2.0, 1.0]) == ((0,), (1,), (2,))
    assert detect_clusters([]) == ()
    # ordered by smallest member, members ascending
    got = detect_clusters([1.0, 0.0, 1.0, 0.0])
    assert got == ((0, 2), (1, 3))
    with pytest.raises(InputError):
        detect_clusters(np.zeros((2, 2)))


def loop_clusters(values, tol=1e-4):
    """The per-node gap loop that ``detect_clusters`` replaces: its oracle."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return ()
    order = np.argsort(values, kind="stable")
    groups = [[int(order[0])]]
    for prev, cur in zip(order[:-1], order[1:]):
        if values[cur] - values[prev] > tol:
            groups.append([])
        groups[-1].append(int(cur))
    clusters = [tuple(sorted(grp)) for grp in groups]
    clusters.sort(key=lambda c: c[0])
    return tuple(clusters)


def test_detect_clusters_matches_the_gap_loop():
    rng = np.random.default_rng(11)
    for trial in range(300):
        n = int(rng.integers(1, 60))
        centers = rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 8)))
        values = rng.choice(centers, size=n) + rng.normal(scale=10.0 ** -rng.integers(3, 9), size=n)
        if trial % 10 == 0:
            values[rng.integers(0, n)] = rng.choice([np.nan, np.inf, -np.inf])
        tol = float(rng.choice([1e-4, 1e-6, 0.0]))
        assert detect_clusters(values, tol) == loop_clusters(values, tol)
    # gaps of exactly tol do not split; tied values keep their input order
    steps = np.array([0.0, 0.5, 1.0, 1.5, 0.5, 3.0])
    assert detect_clusters(steps, 0.5) == loop_clusters(steps, 0.5) == ((0, 1, 2, 3, 4), (5,))


def test_generate_rgg_deterministic_and_connected():
    g1 = generate_rgg(30, 0.3, 5)
    g2 = generate_rgg(30, 0.3, 5)
    assert g1 == g2
    count, _ = connected_components(g1)
    assert count == 1
    # inverse-distance weights respect the radius cut
    assert np.all(g1.weights >= 1.0 / 0.3 - 1e-9)


def test_generate_rgg_stream_continues_across_retries():
    # a radius this small cannot connect 40 nodes; the generator must give up
    with pytest.raises(GenerationError):
        generate_rgg(40, 0.01, 0, max_retries=5)


def test_generate_rgg_complete_at_large_radius():
    g = generate_rgg(10, 2.0, 1)
    assert g.edge_count == 45


def test_generate_rgg_validation():
    with pytest.raises(GraphConstructionError):
        generate_rgg(0, 0.3, 1)
    with pytest.raises(GraphConstructionError):
        generate_rgg(5, -1.0, 1)


def test_trajectory_csv_format(tmp_path):
    traj = simulate_linear(TRIANGLE, None, config(duration=0.05, dt=0.01))
    path = tmp_path / "t.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x0,x1,x2,z0,z1,z2"
    assert len(lines) == 1 + len(traj.times)
    first = [float(s) for s in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[1:4] == pytest.approx(list(traj.states[0]))
    # 17 significant digits survive a round trip exactly
    again = [float(s) for s in lines[-1].split(",")]
    assert again[1:4] == list(traj.states[-1])
