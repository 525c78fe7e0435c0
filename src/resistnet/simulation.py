"""Fixed-step simulation of linear and sector-nonlinear agreement dynamics.

Linear runs integrate xdot = -L x + v(t) with classical RK4 in L's
eigenbasis.  When v is zero, k RK4 steps multiply each eigenmode of L by
r^k, where r = p(-h lam) and p(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 > 0 is
the RK4 polynomial, so the stored states come in closed form from one
eigendecomposition, whatever the step count.  With an input, each step is
the exact RK4 step map applied mode by mode to the modal coordinates, the
input projected onto the modes a chunk of steps at a time.  Nonlinear runs
step RK4 on the node states one step at a time; they add edgewise couplings
phi(y) = a y + b sin(c y) on selected edges:

    xdot = -L x - E_delta phi(E_delta^T x) + v(t).

A run is flagged divergent the first time ||x|| exceeds 1e9 (1 + ||x(0)||)
and the trajectory ends there.  All randomness (initial states, geometric
graphs) comes from an explicit 64-bit splitmix stream, so equal seeds give
bit-equal results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import graph as gr
from .errors import GenerationError, GraphConstructionError, InputError, StepSizeError

__all__ = [
    "SplitMix64",
    "SimulationConfig",
    "Trajectory",
    "NonlinearCoupling",
    "burst_input",
    "table_input",
    "simulate_linear",
    "simulate_nonlinear",
    "detect_clusters",
    "generate_rgg",
    "write_trajectory_csv",
]

DIVERGENCE_FACTOR = 1e9
CLUSTER_TOL = 1e-4
# input sample values a forced linear run holds at once: its steps are
# sampled and projected onto L's eigenbasis in chunks of this many values
_CHUNK_VALUES = 1 << 15

_MASK = (1 << 64) - 1


class SplitMix64:
    """Deterministic 64-bit splitmix generator (platform independent)."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK

    def next_int(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def next_float(self) -> float:
        # 53 uniform bits in [0, 1)
        return (self.next_int() >> 11) * (1.0 / 9007199254740992.0)

    def next_symmetric(self) -> float:
        """Uniform in [-1, 1)."""
        return 2.0 * self.next_float() - 1.0


@dataclass(frozen=True)
class SimulationConfig:
    """Run parameters shared by the linear and nonlinear integrators.

    ``initial_state`` is either an explicit node-value vector or None, in
    which case nodes start uniform in [-1, 1) drawn from a splitmix stream
    seeded with ``state_seed``.  ``exogenous_input`` is None (zero input) or
    a callable t -> length-n vector; see :func:`burst_input` and
    :func:`table_input`.  It is read once per distinct stage time of each
    RK4 step, t, t + dt/2 and t + dt (3 calls per step, not 4), and a
    sample that is not a length-n vector raises InputError.
    ``output_edges`` lists (u, v) node pairs measured as z = x_u - x_v
    (defaults to the graph's own edges).  ``store_every`` thins the stored
    trajectory (divergence is still checked every step, and the final step
    is always stored).
    """

    duration: float
    dt: float
    initial_state: Sequence[float] | np.ndarray | None = None
    state_seed: int = 0
    exogenous_input: Callable[[float], np.ndarray] | None = None
    output_edges: tuple[tuple[int, int], ...] | None = None
    store_every: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise InputError(f"duration must be positive, got {self.duration!r}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise InputError(f"dt must be positive, got {self.dt!r}")
        if not (isinstance(self.store_every, int) and self.store_every >= 1):
            raise InputError(f"store_every must be a positive integer, got {self.store_every!r}")


@dataclass(frozen=True)
class Trajectory:
    """Stored samples of one run.

    ``states`` has one row per stored time; ``outputs`` holds the relative
    states over the configured output pairs.  When ``diverged`` is set,
    ``diverged_at`` is the first time ||x|| crossed the divergence threshold
    and the trajectory ends at that sample.
    """

    times: np.ndarray
    states: np.ndarray
    outputs: np.ndarray
    diverged: bool
    diverged_at: float | None


@dataclass(frozen=True)
class NonlinearCoupling:
    """Edgewise couplings phi_i(y) = a_i y + b_i sin(c_i y).

    Parameter triples align positionally with the sorted uncertain edge
    list they are applied to.  Each coupling's implied sector is
    [a - |bc|, a + |bc|] (width zero when b = 0); c must be nonzero.
    """

    params: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        cleaned = []
        for i, triple in enumerate(self.params):
            a, b, c = (float(x) for x in triple)
            if not all(map(math.isfinite, (a, b, c))):
                raise InputError(f"coupling {i}: parameters must be finite")
            if c == 0.0:
                raise InputError(f"coupling {i}: frequency c must be nonzero")
            cleaned.append((a, b, c))
        if not cleaned:
            raise InputError("NonlinearCoupling needs at least one (a, b, c) triple")
        object.__setattr__(self, "params", tuple(cleaned))

    def sectors(self) -> tuple[tuple[float, float], ...]:
        return tuple((a - abs(b * c), a + abs(b * c)) for a, b, c in self.params)

    def slope_bound(self) -> float:
        return max(abs(a) + abs(b * c) for a, b, c in self.params)

    @gr._cached_property
    def _abc(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(np.array(col) for col in zip(*self.params))

    def __call__(self, y: np.ndarray) -> np.ndarray:
        a, b, c = self._abc
        return a * y + b * np.sin(c * y)


def burst_input(
    n: int, nodes: Sequence[int], amplitude: float, t_start: float, t_end: float
) -> Callable[[float], np.ndarray]:
    """Impulse-like input: ``amplitude`` on ``nodes`` for t in [t_start, t_end)."""
    v = np.zeros(n)
    for node in nodes:
        if not (0 <= node < n):
            raise InputError(f"burst node {node} out of range for {n} nodes")
        v[node] = amplitude
    zero = np.zeros(n)

    def signal(t: float) -> np.ndarray:
        return v if t_start <= t < t_end else zero

    return signal


def table_input(times: Sequence[float], values: np.ndarray) -> Callable[[float], np.ndarray]:
    """Zero-order-hold input table: row i applies from times[i] to times[i+1]."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.ndim != 1 or values.ndim != 2 or len(times) != len(values):
        raise InputError("table input needs matching 1-D times and 2-D values")
    if np.any(np.diff(times) <= 0):
        raise InputError("table input times must be strictly increasing")
    zero = np.zeros(values.shape[1])

    def signal(t: float) -> np.ndarray:
        idx = int(np.searchsorted(times, t, side="right")) - 1
        return values[idx] if idx >= 0 else zero

    return signal


def _resolve_initial_state(g: gr.WeightedGraph, config: SimulationConfig) -> np.ndarray:
    if config.initial_state is not None:
        x0 = np.asarray(config.initial_state, dtype=float)
        if x0.shape != (g.node_count,):
            raise InputError(
                f"initial_state has shape {x0.shape}, expected ({g.node_count},)"
            )
        if not np.all(np.isfinite(x0)):
            raise InputError("initial_state has non-finite entries")
        return x0.copy()
    rng = SplitMix64(config.state_seed)
    return np.array([rng.next_symmetric() for _ in range(g.node_count)])


def _output_pairs(g: gr.WeightedGraph, config: SimulationConfig) -> tuple[np.ndarray, np.ndarray]:
    """Node indices (u, v) of the output pairs z = x_u - x_v."""
    pairs = config.output_edges
    if pairs is None:
        return g.tails, g.heads
    for u, v in pairs:
        if not (0 <= u < g.node_count) or not (0 <= v < g.node_count) or u == v:
            raise InputError(f"output pair ({u}, {v}) is not a valid node pair")
    return np.array([u for u, _ in pairs], dtype=int), np.array([v for _, v in pairs], dtype=int)


def _check_step(dt: float, rate: float) -> None:
    if rate > 0 and dt >= 2.0 / rate:
        raise StepSizeError(
            f"dt={dt:g} violates the step guard: need dt < {2.0 / rate:.6g} "
            f"(2 / {rate:.6g})"
        )


def _perturbed_weights(g: gr.WeightedGraph, delta) -> np.ndarray:
    w = g.weights.copy()
    if delta is None:
        return w
    if isinstance(delta, dict):
        for k, d in delta.items():
            k = int(k)
            if not (0 <= k < g.edge_count):
                raise GraphConstructionError(
                    f"perturbed edge index {k} out of range for {g.edge_count} edges"
                )
            w[k] += float(d)
        return w
    d = np.asarray(delta, dtype=float)
    if d.shape != (g.edge_count,):
        raise GraphConstructionError(
            f"perturbation vector has shape {d.shape}, expected ({g.edge_count},)"
        )
    return w + d


def _trajectory(keep, states, pairs, dt: float, diverged_at: float | None) -> Trajectory:
    times = np.array(keep, dtype=float) * dt
    outputs = states[:, pairs[0]] - states[:, pairs[1]]
    return Trajectory(times, states, outputs, diverged_at is not None, diverged_at)


def _limits(x0: np.ndarray, config: SimulationConfig) -> tuple[int, float]:
    """Step count and divergence threshold of a run."""
    steps = int(math.ceil(config.duration / config.dt - 1e-9))
    return steps, DIVERGENCE_FACTOR * (1.0 + float(np.linalg.norm(x0)))


def _check_sample(t: float, sample, n: int) -> None:
    shape = np.shape(sample)
    if shape != (n,):
        raise InputError(f"exogenous input at t = {t!r} has shape {shape}, expected ({n},)")


def _sample_input(v: Callable[[float], np.ndarray], times: np.ndarray, n: int) -> np.ndarray:
    """Rows v(t) for the given times, each checked to be a length-n vector."""
    times = times.tolist()
    samples = [v(t) for t in times]
    try:
        U = np.array(samples, dtype=float)
    except (TypeError, ValueError):
        U = None
    if U is None or U.shape != (len(times), n):
        for t, sample in zip(times, samples):
            _check_sample(t, sample, n)
        raise InputError("exogenous input returned non-numeric values")
    return U


def _run(deriv: Callable[[float, np.ndarray], np.ndarray], x0: np.ndarray, pairs,
         config: SimulationConfig) -> Trajectory:
    """Fixed-step RK4 loop on deriv (nonlinear runs); stops at the first step
    past the divergence threshold."""
    dt = config.dt
    steps, threshold = _limits(x0, config)
    keep: list[int] = [0]
    rows: list[np.ndarray] = [x0]
    x = x0
    diverged_at = None
    for k in range(1, steps + 1):
        t = (k - 1) * dt
        k1 = deriv(t, x)
        k2 = deriv(t + 0.5 * dt, x + 0.5 * dt * k1)
        k3 = deriv(t + 0.5 * dt, x + 0.5 * dt * k2)
        k4 = deriv(t + dt, x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        # a NaN or inf entry fails the comparison too
        blown = not math.sqrt(x.dot(x)) <= threshold
        if blown or k == steps or k % config.store_every == 0:
            keep.append(k)
            rows.append(x)
        if blown:
            diverged_at = k * dt
            break
    return _trajectory(keep, np.vstack(rows), pairs, dt, diverged_at)


def _run_modal(lam: np.ndarray, V: np.ndarray, x0: np.ndarray, pairs, config: SimulationConfig) -> Trajectory:
    """Zero-input RK4 in L's eigenbasis (L = V diag(lam) V^T).

    Step k is x_k = V (c * r^k) with c = V^T x0 and r = p(-h lam); each mode
    is evaluated as sign(c) exp(log|c| + k log r), so no power overflows and
    a mode with c = 0 stays exactly 0.  ||x_k||^2 = sum(c^2 r^(2k)) is convex
    in k and below the threshold at k = 0, so the first step above it is
    found by bisection, compared in log space.
    """
    dt = config.dt
    steps, threshold = _limits(x0, config)
    z = -dt * lam
    log_r = np.log1p(z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0))))
    c = V.T @ x0
    with np.errstate(divide="ignore"):
        log_c = np.log(np.abs(c))
    live = c != 0.0
    cut = 2.0 * math.log(threshold)

    def above(k: int) -> bool:
        e = 2.0 * (log_c[live] + k * log_r[live])
        top = float(e.max())
        return top + math.log(float(np.exp(e - top).sum())) > cut

    end, diverged_at = steps, None
    if steps and live.any() and above(steps):
        lo, hi = 0, steps
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if above(mid) else (mid, hi)
        end, diverged_at = hi, hi * dt
    keep = np.append(np.arange(0, end, config.store_every), end)
    modes = np.multiply.outer(keep, log_r)
    modes += log_c
    np.exp(modes, out=modes)
    modes *= np.sign(c)
    states = modes @ V.T
    states[0] = x0
    return _trajectory(keep, states, pairs, dt, diverged_at)


def _run_forced(lam: np.ndarray, V: np.ndarray, x0: np.ndarray, v: Callable[[float], np.ndarray],
                pairs, config: SimulationConfig) -> Trajectory:
    """RK4 on xdot = -L x + v(t) in L's eigenbasis (L = V diag(lam) V^T).

    With z = -h lam, one RK4 step maps each modal coordinate of c = V^T x
    to p(z) c + (h/6) [(1 + z + z^2/2 + z^3/4) u1 + (4 + 2z + z^2/2) u2 + u4],
    where u1, u2 and u4 are V^T v at the step's stage times t = (k-1) h,
    t + h/2 and t + h, computed as the node-space loop computes them, so an
    input's breakpoints fall on the same side.  The input is sampled and
    projected a chunk of steps at a time.  The run diverges at the first
    step where ||c|| = ||x|| exceeds the threshold or is not finite.
    """
    dt = config.dt
    steps, threshold = _limits(x0, config)
    n = x0.size
    z = -dt * lam
    p = 1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))
    h6 = dt / 6.0
    g1 = h6 * (1.0 + z * (1.0 + z * (0.5 + z / 4.0)))
    g2 = h6 * (4.0 + z * (2.0 + z / 2.0))
    chunk = max(1, _CHUNK_VALUES // (3 * max(n, 1)))
    c = V.T @ x0
    keep = [np.zeros(1, dtype=int)]
    rows = [c[None, :]]
    diverged_at = None
    # past the divergence step a chunk may overflow; those steps are dropped
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, steps, chunk):
            k = np.arange(start + 1, min(start + chunk, steps) + 1)
            t = (k - 1) * dt
            U = _sample_input(v, np.concatenate((t, t + 0.5 * dt, t + dt)), n)
            u1, u2, u4 = (U @ V).reshape(3, -1, n)
            C = g1 * u1 + g2 * u2 + h6 * u4
            for row in C:  # the step's forcing, then its modal state
                row += p * c
                c = row
            blown = np.flatnonzero(~(np.sqrt(np.einsum("ij,ij->i", C, C)) <= threshold))
            if blown.size:
                k, C = k[:blown[0] + 1], C[:blown[0] + 1]
                diverged_at = int(k[-1]) * dt
            take = (k % config.store_every == 0) | (k == steps)
            take[-1] |= diverged_at is not None
            keep.append(k[take])
            rows.append(C[take])
            if diverged_at is not None:
                break
        states = np.vstack(rows) @ V.T
        states[0] = x0
        return _trajectory(np.concatenate(keep), states, pairs, dt, diverged_at)


def simulate_linear(g: gr.WeightedGraph, delta, config: SimulationConfig) -> Trajectory:
    """Integrate xdot = -L(w + delta) x + v(t) with fixed-step RK4 in L's eigenbasis.

    ``delta`` is None, a dict {edge index: additive perturbation}, or a full
    length-m vector; perturbed weights may pass through zero (the edge
    simply drops out of the dynamics).  Raises StepSizeError when
    dt >= 2/lambda_max(L).  One eigendecomposition of L serves the step
    guard and the run: zero-input runs are evaluated in closed form
    (:func:`_run_modal`), runs with an input apply the exact RK4 step map
    to the modal coordinates (:func:`_run_forced`), reading the input 3
    times per step.  Both agree with the node-space RK4 loop to rounding,
    not bit for bit.
    """
    L = gr._laplacian(g.node_count, g.tails, g.heads, _perturbed_weights(g, delta))
    lam, V = np.linalg.eigh(L)
    _check_step(config.dt, float(lam[-1]) if lam.size else 0.0)
    x0 = _resolve_initial_state(g, config)
    pairs = _output_pairs(g, config)
    if config.exogenous_input is None:
        return _run_modal(lam, V, x0, pairs, config)
    return _run_forced(lam, V, x0, config.exogenous_input, pairs, config)


def simulate_nonlinear(
    g: gr.WeightedGraph,
    uncertain_edges: Sequence[int],
    coupling: NonlinearCoupling,
    config: SimulationConfig,
) -> Trajectory:
    """Integrate xdot = -L x - E_delta phi(E_delta^T x) + v(t).

    ``uncertain_edges`` are distinct edge indices (sorted internally);
    coupling triples align with the sorted order.  The step guard adds the
    couplings' maximum sector slope to lambda_max(L).
    """
    edges = sorted(set(int(k) for k in uncertain_edges))
    if len(edges) != len(uncertain_edges):
        raise GraphConstructionError("uncertain_edges must be distinct")
    for k in edges:
        if not (0 <= k < g.edge_count):
            raise GraphConstructionError(
                f"uncertain edge index {k} out of range for {g.edge_count} edges"
            )
    if len(coupling.params) != len(edges):
        raise GraphConstructionError(
            f"need one coupling per uncertain edge: got {len(coupling.params)} "
            f"couplings for {len(edges)} edges"
        )
    L = gr.laplacian(g)
    # the uncertain edges' incidence columns, scattered from tails and heads
    # without the n x m matrix; in Fortran order, the layout of the gather
    # E[:, edges], so a node's couplings sum in that order, bit for bit
    Ed = np.zeros((g.node_count, len(edges)), order="F")
    cols = np.arange(len(edges))
    Ed[g.tails[edges], cols] = 1.0
    Ed[g.heads[edges], cols] = -1.0
    lam_max = float(np.linalg.eigvalsh(L)[-1])
    _check_step(config.dt, lam_max + coupling.slope_bound())
    x0 = _resolve_initial_state(g, config)
    pairs = _output_pairs(g, config)
    v = config.exogenous_input

    if v is None:
        def deriv(t: float, x: np.ndarray) -> np.ndarray:
            return -(L @ x) - Ed @ coupling(Ed.T @ x)
    else:
        _check_sample(0.0, v(0.0), g.node_count)

        def deriv(t: float, x: np.ndarray) -> np.ndarray:
            return -(L @ x) - Ed @ coupling(Ed.T @ x) + v(t)

    return _run(deriv, x0, pairs, config)


def detect_clusters(values: Sequence[float] | np.ndarray, tol: float = CLUSTER_TOL) -> tuple[tuple[int, ...], ...]:
    """Group nodes whose values agree within ``tol`` (absolute, gap-based).

    Values are sorted and split wherever consecutive sorted values differ by
    more than ``tol``; each cluster lists its node ids ascending and clusters
    are ordered by their smallest member.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise InputError(f"expected a 1-D value vector, got shape {values.shape}")
    if values.size == 0:
        return ()
    order = np.argsort(values, kind="stable")
    cuts = (np.flatnonzero(np.diff(values[order]) > tol) + 1).tolist()
    members = order.tolist()
    clusters = [tuple(sorted(members[a:b])) for a, b in zip([0, *cuts], [*cuts, len(members)])]
    clusters.sort(key=lambda c: c[0])
    return tuple(clusters)


def generate_rgg(n: int, radius: float, seed: int, max_retries: int = 100) -> gr.WeightedGraph:
    """Connected random geometric graph with inverse-distance weights.

    Draws n points uniform in the unit square from a splitmix stream seeded
    with ``seed`` (x then y per node), joins pairs at Euclidean distance at
    most ``radius`` (in lexicographic pair order) with weight 1/distance,
    and retries with fresh draws from the same stream until the graph is
    connected.  Raises GenerationError after ``max_retries`` attempts.
    """
    if n < 1:
        raise GraphConstructionError(f"node count must be positive, got {n}")
    if not (math.isfinite(radius) and radius > 0):
        raise GraphConstructionError(f"radius must be positive, got {radius!r}")
    rng = SplitMix64(seed)
    for _ in range(max_retries):
        pts = [(rng.next_float(), rng.next_float()) for _ in range(n)]
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                d = math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1])
                if 0.0 < d <= radius:
                    edges.append((i, j, 1.0 / d))
        g = gr.build_graph(n, edges)
        count, _ = gr.connected_components(g)
        if count == 1:
            return g
    raise GenerationError(
        f"no connected geometric graph in {max_retries} attempts "
        f"(n={n}, radius={radius}); increase the radius"
    )


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write ``t,x0,...,x{n-1}[,z0,...,z{m-1}]`` rows, each value as ``%.17g`` writes it."""
    # imported here, so a process that writes no CSV does not load the engine
    from ._csvtext import csv_blocks

    n = traj.states.shape[1]
    p = traj.outputs.shape[1]
    header = ["t"] + [f"x{i}" for i in range(n)] + [f"z{j}" for j in range(p)]
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        fh.writelines(csv_blocks(np.column_stack((traj.times, traj.states, traj.outputs))))
