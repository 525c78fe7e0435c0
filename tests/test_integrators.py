"""Differential tests of the integrators against a sequential reference loop.

``reference_run`` is the plain fixed-step loop: zero-input linear runs apply
the exact RK4 step map Phi = I - hL + (hL)^2/2 - (hL)^3/6 + (hL)^4/24 once
per step, other runs take RK4 steps on their derivative, and outputs come
from a dense output incidence matrix.  The linear paths, which run in L's
eigenbasis (zero-input runs in closed form, forced runs by the modal RK4
step map), must agree with it to rounding; the nonlinear RK4 path and the
CSV writer must agree with it bit for bit.
"""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_signed
from resistnet import (
    NonlinearCoupling,
    SimulationConfig,
    Trajectory,
    build_graph,
    burst_input,
    generate_rgg,
    incidence_matrix,
    laplacian,
    simulate_linear,
    simulate_nonlinear,
    table_input,
    worst_single_edge,
    write_trajectory_csv,
)
from resistnet.graph import _with_weights

DIVERGENCE_FACTOR = 1e9


def reference_run(deriv, step_map, x0, Eo, config):
    dt = config.dt
    steps = int(math.ceil(config.duration / dt - 1e-9))
    threshold = DIVERGENCE_FACTOR * (1.0 + float(np.linalg.norm(x0)))
    keep = [0]
    rows = [x0.copy()]
    x = x0.copy()
    diverged = False
    diverged_at = None
    for k in range(1, steps + 1):
        if step_map is not None:
            x = step_map @ x
        else:
            t = (k - 1) * dt
            k1 = deriv(t, x)
            k2 = deriv(t + 0.5 * dt, x + 0.5 * dt * k1)
            k3 = deriv(t + 0.5 * dt, x + 0.5 * dt * k2)
            k4 = deriv(t + dt, x + dt * k3)
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        blown = not np.all(np.isfinite(x)) or float(np.linalg.norm(x)) > threshold
        if blown or k == steps or k % config.store_every == 0:
            keep.append(k)
            rows.append(x.copy())
        if blown:
            diverged = True
            diverged_at = k * dt
            break
    times = np.array(keep, dtype=float) * dt
    states = np.vstack(rows)
    return Trajectory(times, states, states @ Eo, diverged, diverged_at)


def output_incidence(g, pairs):
    pairs = pairs if pairs is not None else [(u, v) for u, v, _ in g.edges]
    Eo = np.zeros((g.node_count, len(pairs)))
    for j, (u, v) in enumerate(pairs):
        Eo[u, j] = 1.0
        Eo[v, j] = -1.0
    return Eo


def reference_linear(g, delta, config):
    w = g.weights.copy()
    for k, d in (delta or {}).items():
        w[k] += d
    L = laplacian(_with_weights(g, w))
    x0 = np.asarray(config.initial_state, dtype=float)
    Eo = output_incidence(g, config.output_edges)
    if config.exogenous_input is None:
        A = -config.dt * L
        Phi = np.eye(g.node_count)
        term = np.eye(g.node_count)
        for j in (1.0, 2.0, 3.0, 4.0):
            term = term @ A / j
            Phi = Phi + term
        return reference_run(None, Phi, x0, Eo, config)
    v = config.exogenous_input
    return reference_run(lambda t, x: -(L @ x) + v(t), None, x0, Eo, config)


def reference_nonlinear(g, edges, params, config):
    L = laplacian(g)
    Ed = incidence_matrix(g)[:, edges]
    a, b, c = (np.array([p[i] for p in params]) for i in range(3))
    x0 = np.asarray(config.initial_state, dtype=float)
    Eo = output_incidence(g, config.output_edges)
    v = config.exogenous_input
    if v is None:
        def deriv(t, x):
            y = Ed.T @ x
            return -(L @ x) - Ed @ (a * y + b * np.sin(c * y))
    else:
        def deriv(t, x):
            y = Ed.T @ x
            return -(L @ x) - Ed @ (a * y + b * np.sin(c * y)) + v(t)
    return reference_run(deriv, None, x0, Eo, config)


def assert_identical(got, want):
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(got.states, want.states)
    assert np.array_equal(got.outputs, want.outputs)
    assert got.diverged == want.diverged
    assert got.diverged_at == want.diverged_at


def assert_agrees(got, want, tag):
    """Same stored times and divergence; each stored row within rounding of the loop's."""
    assert np.array_equal(got.times, want.times), tag
    assert got.diverged == want.diverged, tag
    assert got.diverged_at == want.diverged_at, tag
    assert np.array_equal(got.states[0], want.states[0]), tag
    scale = np.max(np.abs(want.states), axis=1, keepdims=True)
    gap = float(np.max(np.abs(got.states - want.states) / scale))
    assert gap <= 1e-9, (tag, gap)
    zscale = np.maximum(scale, 1e-300)
    assert np.max(np.abs(got.outputs - want.outputs) / zscale) <= 2e-9, tag


def seeded_x0(n, seed):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, n)


def auto_dt(g):
    return min(0.01, 1.0 / float(np.linalg.eigvalsh(laplacian(g))[-1]))


# ------------------------------------------------------ closed form (zero input)


FACTORS = (0.5, 1.0, 1.001, 1.01, 1.3, 3.0)


def test_closed_form_matches_step_map_loop():
    runs = diverged = 0
    for seed in range(60):
        n = 6 + seed % 10
        g = generate_rgg(n, 0.6, seed)
        report = worst_single_edge(g)
        k, margin = report.binding_edge, report.global_margin
        x0 = seeded_x0(n, seed)
        for factor in FACTORS:
            delta = {k: -factor * margin}
            for every in (1, 7):
                cfg = SimulationConfig(duration=3.0, dt=auto_dt(g), initial_state=x0,
                                       store_every=every)
                got = simulate_linear(g, delta, cfg)
                assert_agrees(got, reference_linear(g, delta, cfg), (seed, factor, every))
                runs += 1
                diverged += got.diverged
    assert runs == 720
    # the set must exercise the divergence search, not only decaying runs
    assert 100 <= diverged <= 480, diverged


def test_closed_form_zero_state_stays_zero():
    g = random_signed(np.random.default_rng(7), n_max=8)
    cfg = SimulationConfig(duration=50.0, dt=0.001, initial_state=np.zeros(g.node_count))
    traj = simulate_linear(g, None, cfg)
    assert not traj.diverged and traj.diverged_at is None
    assert not np.any(traj.states) and not np.any(traj.outputs)
    assert traj.states.shape == (50001, g.node_count)


def test_closed_form_without_unstable_component_stays_finite():
    # L has eigenvalue -2 on (1, -1); a consensus start has no part on it
    g = build_graph(2, [(0, 1, -1.0)])
    traj = simulate_linear(g, None, SimulationConfig(duration=2000.0, dt=0.01,
                                                     initial_state=[0.5, 0.5]))
    assert not traj.diverged
    assert np.all(np.isfinite(traj.states))
    assert traj.times[-1] == pytest.approx(2000.0)
    assert np.allclose(traj.states[-1], [0.5, 0.5], rtol=1e-12, atol=0.0)


def test_closed_form_divergence_step():
    g = build_graph(2, [(0, 1, -1.0)])
    cfg = SimulationConfig(duration=100.0, dt=0.01, initial_state=[1.0, -1.0])
    traj = simulate_linear(g, None, cfg)
    assert traj.diverged
    assert traj.diverged_at == 10.63
    assert traj.times[-1] == 10.63 and len(traj.times) == 1064
    want = reference_linear(g, None, cfg)
    assert want.diverged_at == 10.63
    assert np.allclose(traj.states, want.states, rtol=1e-12, atol=0.0)


# ------------------------------------------------------------ RK4 paths


def rk4_cases():
    for seed in range(6):
        n = 8 + seed
        g = generate_rgg(n, 0.7, 100 + seed)
        x0 = seeded_x0(n, seed)
        dt = auto_dt(g) / 2.0
        pairs = ((0, n - 1), (n - 2, 1), (3, 2))
        yield seed, g, x0, dt, pairs


def test_forced_linear_matches_rk4_loop():
    runs = 0
    for seed, g, x0, dt, pairs in rk4_cases():
        n = g.node_count
        rng = np.random.default_rng(seed)
        weights = rng.normal(size=n)
        # a step whose end stage time (k-1) dt + dt falls below the float
        # k dt, so a breakpoint at k dt lies between the two
        k = next(k for k in range(2, 300) if (k - 1) * dt + dt < k * dt)
        inputs = {
            "burst": burst_input(n, [0, n // 2], 3.0, 0.1, 0.4),
            "table": table_input([0.0, 0.2, 0.5], rng.normal(size=(3, n))),
            "off-grid": table_input([0.0123, 0.3377 + dt / 3, 0.911], rng.normal(size=(3, n))),
            "on stage": burst_input(n, [1, n - 1], -2.0, 2 * dt + 0.5 * dt, k * dt),
            "callable": lambda t: np.sin(3.0 * t) * weights,
        }
        for name, v in inputs.items():
            for out, every in ((None, 1), (pairs, 5), (None, 10 ** 6)):
                cfg = SimulationConfig(duration=1.5, dt=dt, initial_state=x0,
                                       exogenous_input=v, output_edges=out, store_every=every)
                got = simulate_linear(g, {1: -0.2}, cfg)
                assert_agrees(got, reference_linear(g, {1: -0.2}, cfg), (seed, name, every))
                runs += 1
        assert len(got.times) == 2  # store_every past the step count keeps x0 and the end
    assert runs == 90


def test_forced_linear_divergence_matches_rk4_loop():
    # a -1.5x margin perturbation makes L indefinite; the run diverges while the burst is on
    diverged = 0
    for seed, g, x0, dt, pairs in rk4_cases():
        report = worst_single_edge(g)
        delta = {report.binding_edge: -1.5 * report.global_margin}
        v = burst_input(g.node_count, [0, 2], 1.5, 0.0, 1e6)
        cfg = SimulationConfig(duration=60.0, dt=dt, initial_state=x0, exogenous_input=v,
                               output_edges=pairs, store_every=64)
        got = simulate_linear(g, delta, cfg)
        assert_agrees(got, reference_linear(g, delta, cfg), seed)
        diverged += got.diverged
    assert diverged == 6


def test_forced_linear_overflow_past_divergence_is_quiet():
    # the modes grow about 8000x a step, so the rest of the chunk past the
    # divergence step overflows; that must raise no RuntimeWarning
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, -1e3)])
    cfg = SimulationConfig(duration=50.0, dt=0.01, initial_state=[0.3, -0.1, 0.5],
                           exogenous_input=burst_input(3, [1], 1.0, 0.0, 1.0))
    got = simulate_linear(g, None, cfg)
    assert got.diverged and np.all(np.isfinite(got.states))
    assert_agrees(got, reference_linear(g, None, cfg), "overflow")


def test_forced_linear_memory_is_set_by_the_chunk():
    """A long forced run holds a chunk of input samples, not the run's."""
    n, steps = 50, 200_000
    g = generate_rgg(n, 0.4, seed=3)
    v = burst_input(n, [0, 1], 1.0, 100.0, 200.0)
    config = SimulationConfig(duration=steps * 0.002, dt=0.002, state_seed=1, exogenous_input=v,
                              store_every=10_000)
    tracemalloc.start()
    try:
        traj = simulate_linear(g, None, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj.times) == 21 and not traj.diverged
    assert peak < 0.05 * steps * n * 8


def test_rk4_nonlinear_matches_reference_bit_for_bit():
    for seed, g, x0, dt, pairs in rk4_cases():
        edges = [0, 2]
        report = worst_single_edge(g)
        big = 3.0 * report.global_margin + 2.0
        for params in (((-0.3, 0.2, 1.0), (0.1, -0.4, 2.0)), ((-big, 1.0, 1.0), (0.0, 0.5, 3.0))):
            coupling = NonlinearCoupling(params)
            dt_nl = 0.5 / (float(np.linalg.eigvalsh(laplacian(g))[-1]) + coupling.slope_bound())
            for out, v in ((None, None), (pairs, burst_input(g.node_count, [1], 2.0, 0.0, 0.3))):
                cfg = SimulationConfig(duration=3.0, dt=dt_nl, initial_state=x0,
                                       exogenous_input=v, output_edges=out, store_every=3)
                got = simulate_nonlinear(g, edges, coupling, cfg)
                assert_identical(got, reference_nonlinear(g, edges, params, cfg))


@pytest.mark.parametrize("seed", [18, 27])
def test_rk4_many_edge_coupling_matches_reference_bit_for_bit(seed):
    # nodes that touch several coupled edges sum their couplings in the order
    # the incidence columns' layout gives; these cases differ in the last bit
    # when the columns are laid out row-major instead of as E[:, edges]
    n = 10 + seed % 7
    g = generate_rgg(n, 0.9, 300 + seed)
    rng = np.random.default_rng(seed)
    edges = sorted(rng.choice(g.edge_count, size=5 + seed % 20, replace=False).tolist())
    params = tuple((-0.2 * rng.random(), 0.3 * rng.random(), 1.0 + rng.random()) for _ in edges)
    coupling = NonlinearCoupling(params)
    dt = 0.5 / (float(np.linalg.eigvalsh(laplacian(g))[-1]) + coupling.slope_bound())
    cfg = SimulationConfig(duration=2.0, dt=dt, initial_state=seeded_x0(n, seed), store_every=2)
    assert_identical(simulate_nonlinear(g, edges, coupling, cfg),
                     reference_nonlinear(g, edges, params, cfg))


def test_nonlinear_runs_never_form_an_n_by_m_incidence():
    """Peak traced memory of a one-edge coupled run stays below half of one n x m array."""
    n = 400
    g = generate_rgg(n, 1.9 * math.sqrt(math.log(n) / (math.pi * n)), seed=9)
    coupling = NonlinearCoupling(((-0.5, 0.2, 1.0),))
    dt = 0.5 / (float(np.linalg.eigvalsh(laplacian(g))[-1]) + coupling.slope_bound())
    config = SimulationConfig(duration=3 * dt, dt=dt, state_seed=1)
    tracemalloc.start()
    try:
        simulate_nonlinear(g, [g.edge_count // 2], coupling, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * n * g.edge_count * 8


def test_rk4_divergence_matches_reference():
    g = build_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
    coupling = NonlinearCoupling(((-4.0, 1.0, 1.0),))
    cfg = SimulationConfig(duration=200.0, dt=0.005, initial_state=[0.3, -0.1, 0.5])
    got = simulate_nonlinear(g, [0], coupling, cfg)
    assert got.diverged
    assert_identical(got, reference_nonlinear(g, [0], coupling.params, cfg))


# ------------------------------------------------------------------ CSV


def reference_csv(traj, path):
    n = traj.states.shape[1]
    p = traj.outputs.shape[1]
    header = ["t"] + [f"x{i}" for i in range(n)] + [f"z{j}" for j in range(p)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(len(traj.times)):
            row = [traj.times[i], *traj.states[i], *traj.outputs[i]]
            fh.write(",".join(format(val, ".17g") for val in row) + "\n")


SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324,
           1.7976931348623157e308, -1.7976931348623157e308, 2.2250738585072014e-308,
           0.1, 1.0 / 3.0, -123456789.123456789, 1e-17, 1e22]


def csv_bytes(writer, traj, tmp_path, name):
    path = tmp_path / name
    writer(traj, path)
    return path.read_bytes()


def test_csv_matches_per_value_format(tmp_path):
    rng = np.random.default_rng(5)
    values = np.array(SPECIAL)
    states = np.vstack([values[:5], values[5:10], values[10:15],
                        rng.normal(size=5) * 10.0 ** rng.integers(-300, 300, size=5)])
    outputs = np.vstack([values[[0, 3]], values[[4, 5]], values[[7, 1]], rng.normal(size=2)])
    times = np.array([0.0, 0.01, 0.1 + 0.2, 1e308])
    special = Trajectory(times, states, outputs, True, 1e308)
    no_outputs = Trajectory(times, states, np.zeros((4, 0)), False, None)
    g = generate_rgg(12, 0.6, 3)
    run = simulate_linear(g, None, SimulationConfig(duration=2.0, dt=0.01, state_seed=4))
    for i, traj in enumerate((special, no_outputs, run)):
        got = csv_bytes(write_trajectory_csv, traj, tmp_path, f"got{i}.csv")
        want = csv_bytes(reference_csv, traj, tmp_path, f"want{i}.csv")
        assert got == want
    assert csv_bytes(write_trajectory_csv, no_outputs, tmp_path, "h.csv").startswith(
        b"t,x0,x1,x2,x3,x4\n0,nan,inf,-inf,-0,0\n")
