"""Fixed-step simulation of linear and sector-nonlinear agreement dynamics.

Linear runs integrate xdot = -L x + v(t) with classical RK4 in L's
eigenbasis.  When v is zero, k RK4 steps multiply each eigenmode of L by
r^k, where r = p(-h lam) and p(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 > 0 is
the RK4 polynomial, so the stored states come in closed form from one
eigendecomposition, whatever the step count.  Nonlinear runs add edgewise
couplings phi(y) = a y + b sin(c y) on k selected edges:

    xdot = -L x - E_delta phi(E_delta^T x) + v(t).

Every run with an input or a coupling goes through one stepped kernel: the
exact RK4 step map applied mode by mode to the modal coordinates, a chunk
of steps at a time, with the input projected onto the modes per chunk.
The couplings enter only through the k rows of E_delta^T V, so a step
costs O(k n), not a dense n x n product.  A coupling on one edge (k = 1)
computes its four stages on Python floats, with ``math.sin``, between one
4 x n and one n x 4 product per step.  Every path agrees with the
node-space RK4 loop to rounding, not bit for bit.

A run is flagged divergent the first time ||x|| exceeds 1e9 (1 + ||x(0)||)
and the trajectory ends there.  All randomness (initial states, geometric
graphs) comes from an explicit 64-bit splitmix stream, so equal seeds give
bit-equal results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterable, Sequence

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
# a stepped run takes its steps in chunks of _CHUNK_VALUES // (3n): a chunk
# holds 3 input samples of n values per step, whatever the run's length
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
    (defaults to the graph's own edges), stored as a tuple of int pairs.
    ``store_every`` thins the stored trajectory (divergence is still
    checked every step, and the final step is always stored).
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
        if not (gr._is_index(self.store_every) and self.store_every >= 1):
            raise InputError(f"store_every must be a positive integer, got {self.store_every!r}")
        if self.output_edges is not None:
            pairs = gr._indices(self.output_edges, "output pair", error=InputError, pairs=True)
            object.__setattr__(self, "output_edges", pairs)


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
    n: int, nodes: Iterable[int], amplitude: float, t_start: float, t_end: float
) -> Callable[[float], np.ndarray]:
    """Impulse-like input: ``amplitude`` on ``nodes`` for t in [t_start, t_end)."""
    if not all(map(math.isfinite, (amplitude, t_start, t_end))):
        raise InputError("burst amplitude and window ends must be finite")
    v = np.zeros(n)
    v[list(gr._indices(nodes, "burst nodes", n, InputError))] = amplitude
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
    if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
        raise InputError("table input times and values must be finite")
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
    if config.output_edges is None:
        return g.tails, g.heads
    pairs = gr._indices(config.output_edges, "output pair", g.node_count, InputError, pairs=True)
    return np.array([u for u, _ in pairs], dtype=int), np.array([v for _, v in pairs], dtype=int)


def _check_step(dt: float, rate: float) -> None:
    if rate > 0 and dt >= 2.0 / rate:
        raise StepSizeError(
            f"dt={dt:g} violates the step guard: need dt < {2.0 / rate:.6g} "
            f"(2 / {rate:.6g})"
        )


def _perturbed_weights(g: gr.WeightedGraph, delta) -> np.ndarray:
    """Weights w + delta, delta a dict {edge index: change} or a length-m
    vector; refused when one is not finite or a node's degree overflows."""
    if isinstance(delta, dict):
        d = np.zeros(g.edge_count)
        for k, change in zip(gr._indices(delta, "perturbed edge indices", g.edge_count), delta.values()):
            d[k] = float(change)
    else:
        d = np.asarray(delta, dtype=float)
        if d.shape != (g.edge_count,):
            raise GraphConstructionError(
                f"perturbation vector has shape {d.shape}, expected ({g.edge_count},)"
            )
    with np.errstate(over="ignore"):  # an overflowing sum is refused below
        w = g.weights + d
    bad = np.flatnonzero(~np.isfinite(w))
    if bad.size:
        raise GraphConstructionError(f"perturbed weight of edge {bad[0]} is not finite ({w[bad[0]]})")
    gr._check_degrees(g.node_count, g.tails, g.heads, w)
    return w


def _trajectory(keep, modes: np.ndarray, V: np.ndarray, x0: np.ndarray, pairs, dt: float,
                diverged_at: float | None) -> Trajectory:
    """The stored steps ``keep`` from their modal rows, the first row x0 itself."""
    states = modes @ V.T
    states[0] = x0
    outputs = states[:, pairs[0]] - states[:, pairs[1]]
    return Trajectory(np.array(keep, dtype=float) * dt, states, outputs, diverged_at is not None, diverged_at)


def _row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of X.  A row whose squares overflow is
    rescaled by its largest |entry|, so a finite row gets a finite norm
    below about 1.8e308; a row with an inf or NaN entry gets NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        squares = np.einsum("ij,ij->i", X, X)
        norms = np.sqrt(squares)
        big = np.flatnonzero(np.isinf(squares))
        if big.size:
            B = np.abs(X[big])
            top = B.max(axis=1)
            B /= top[:, None]
            norms[big] = top * np.sqrt(np.einsum("ij,ij->i", B, B))
    return norms


def _limits(x0: np.ndarray, config: SimulationConfig) -> tuple[int, float]:
    """Step count and divergence threshold of a run."""
    steps = int(math.ceil(config.duration / config.dt - 1e-9))
    return steps, DIVERGENCE_FACTOR * (1.0 + float(_row_norms(x0[None, :])[0]))


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
            if np.shape(sample) != (n,):
                raise InputError(f"exogenous input at t = {t!r} has shape {np.shape(sample)}, expected ({n},)")
        raise InputError("exogenous input returned non-numeric values")
    return U


def _input_chunks(v: Callable[[float], np.ndarray] | None, V: np.ndarray, steps: int, dt: float):
    """Steps k = 1..steps a chunk at a time, with V^T v at each step's stage
    times t = (k-1) h, t + h/2 and t + h (None without an input), computed
    as the node-space loop computes them, so an input's breakpoints fall on
    the same side."""
    n = V.shape[0]
    chunk = max(1, _CHUNK_VALUES // (3 * max(n, 1)))
    for start in range(0, steps, chunk):
        k = np.arange(start + 1, min(start + chunk, steps) + 1)
        if v is None:
            yield k, None
        else:
            t = (k - 1) * dt
            U = _sample_input(v, np.concatenate((t, t + 0.5 * dt, t + dt)), n)
            yield k, (U @ V).reshape(3, -1, n)


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
    return _trajectory(keep, modes, V, x0, pairs, dt, diverged_at)


def _run_stepped(lam: np.ndarray, V: np.ndarray, x0: np.ndarray, pairs, config: SimulationConfig,
                 coupling: NonlinearCoupling | None = None, Ch: np.ndarray | None = None) -> Trajectory:
    """RK4 on xdot = -L x - E phi(E^T x) + v(t) in L's eigenbasis (L = V diag(lam) V^T).

    With z = -h lam, one RK4 step maps each modal coordinate of c = V^T x
    to p(z) c + (h/6) [(1 + z + z^2/2 + z^3/4) u1 + (4 + 2z + z^2/2) u2 + u4],
    where u1, u2 and u4 are V^T v at the step's stage times
    (:func:`_input_chunks`).  A ``coupling`` sees c only through the k x n
    ``Ch`` = E^T V, rows V[u] - V[v] over the uncertain edges.  With
    a = -lam, b = -Ch^T, s_i = Ch (a^i c), M_i = Ch diag(a^i) b and
    phi_j = phi(y_j), its stage arguments are

        y1 = s0
        y2 = s0 + (h/2) (s1 + M0 phi1)
        y3 = s0 + (h/2) s1 + (h^2/4) (s2 + M1 phi1) + (h/2) M0 phi2
        y4 = s0 + h s1 + (h^2/2) s2 + (h^3/4) (s3 + M2 phi1) + (h^2/2) M1 phi2 + h M0 phi3

    and it adds (h/6) [(1 + z + z^2/2 + z^3/4) b phi1 + (2 + z + z^2/2) b phi2
    + (2 + z) b phi3 + b phi4] to the step; u1 enters the y_j as b phi1
    does and u2 as b phi2 and b phi3 together.

    Each chunk's rows start as its steps' forcing (zeros without an input),
    and each step adds its own terms to its row in place.  The run diverges
    at the first step where ||c|| = ||x|| exceeds the threshold or is not
    finite, found once per chunk; the steps computed past it are dropped.

    A coupling on one edge runs the stage recursion on floats: one
    ``P.dot(c)``, the y_j and phi_j as scalars, and one ``B.dot`` of the four
    phi_j per step.  Each y_j adds its terms in the array loop's order
    (input first, then the earlier phi_j), so where ``math.sin`` and
    ``np.sin`` round alike the result is the array loop's, bit for bit (they
    did on all 400 000 values tried, 1e-300 to 1e300 in magnitude, on
    x86_64 with numpy 2.4); elsewhere both agree with the node-space loop
    to rounding.  ``math.sin(inf)`` raises where ``np.sin``
    gives NaN, so that step and the rest of its chunk are set to NaN, and
    the chunk's divergence test drops them as it drops the array loop's.
    More edges keep the array loop: a float loop written for any k took
    7.4, 9.2, 11.6 and 14.2 us a step at k = 1..4 (n = 75), the array
    loop 10.6 to 10.9 us at k = 2..4, and the k = 1 loop above 3.0 us.
    """
    h = config.dt
    steps, threshold = _limits(x0, config)
    z = -h * lam
    p = 1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))
    h6 = h / 6.0
    g1 = h6 * (1.0 + z * (1.0 + z * (0.5 + z / 4.0)))
    g2 = h6 * (4.0 + z * (2.0 + z / 2.0))
    if coupling is not None:
        b = -Ch.T

        def stack(*weights):  # rows Ch diag(w) for each weight
            return np.vstack([Ch * w for w in weights])

        P = stack(1.0, 1.0 + z / 2.0, 1.0 + z / 2.0 * (1.0 + z / 2.0), 1.0 + z * (1.0 + z * (0.5 + z / 4.0)))
        W1 = stack(h / 2.0, h * z / 4.0, h * z * z / 4.0)  # phi1 and u1 into y2, y3, y4
        W2 = stack(0.0, h / 2.0, h * (1.0 + z / 2.0))  # u2 into y2, y3, y4
        K1, K2, K3 = W1.dot(b), stack(h / 2.0, h * z / 2.0).dot(b), stack(h).dot(b)  # phi_j into y_j+1..y4
        B = np.hstack([b * w[:, None] for w in (g1, h6 * (2.0 + z * (1.0 + z / 2.0)), h6 * (2.0 + z))] + [h6 * b])
        k = len(Ch)
        if k == 1:  # the stages run on floats
            (ca, cb, cc), = coupling.params

            def phi(y):  # the coupling on a float
                return ca * y + cb * math.sin(cc * y)

            k11, k12, k13 = K1.ravel().tolist()
            k21, k22 = K2.ravel().tolist()
            k31, = K3.ravel().tolist()
        else:
            s = np.empty(4 * k)
            y1, y2, y3, y4 = s[:k], s[k:2 * k], s[2 * k:3 * k], s[3 * k:]
            after1, after2 = s[k:], s[2 * k:]
    c = V.T @ x0
    keep, rows = [np.zeros(1, dtype=int)], [c[None, :]]
    diverged_at = None
    # past the divergence step a chunk may overflow; those steps are dropped
    with np.errstate(over="ignore", invalid="ignore"):
        for ks, U in _input_chunks(config.exogenous_input, V, steps, h):
            C = np.zeros((len(ks), len(c))) if U is None else g1 * U[0] + g2 * U[1] + h6 * U[2]
            if coupling is None:
                for row in C:  # the step's forcing, then its modal state
                    row += p * c
                    c = row
            elif k == 1:
                Y = repeat(None) if U is None else (U[0].dot(W1.T) + U[1].dot(W2.T)).tolist()
                for j, (row, y_in) in enumerate(zip(C, Y)):
                    t0, t1, t2, t3 = P.dot(c).tolist()
                    if y_in is not None:
                        t1, t2, t3 = t1 + y_in[0], t2 + y_in[1], t3 + y_in[2]
                    try:
                        f1 = phi(t0)
                        f2 = phi(t1 + k11 * f1)
                        f3 = phi(t2 + k12 * f1 + k21 * f2)
                        f4 = phi(t3 + k13 * f1 + k22 * f2 + k31 * f3)
                    except ValueError:  # sin(inf), where np.sin gives nan: the row is blown
                        C[j:] = math.nan
                        break
                    row += p * c + B.dot((f1, f2, f3, f4))
                    c = row
            else:
                Y = repeat(None) if U is None else U[0].dot(W1.T) + U[1].dot(W2.T)
                for row, y_in in zip(C, Y):
                    P.dot(c, out=s)
                    if y_in is not None:
                        after1 += y_in
                    phi1 = coupling(y1)
                    after1 += K1.dot(phi1)
                    phi2 = coupling(y2)
                    after2 += K2.dot(phi2)
                    phi3 = coupling(y3)
                    y4 += K3.dot(phi3)
                    row += p * c + B.dot(np.concatenate((phi1, phi2, phi3, coupling(y4))))
                    c = row
            # a NaN or inf row fails the comparison too
            blown = np.flatnonzero(~(_row_norms(C) <= threshold))
            if blown.size:
                ks, C = ks[:blown[0] + 1], C[:blown[0] + 1]
                diverged_at = int(ks[-1]) * h
            take = (ks % config.store_every == 0) | (ks == steps)
            take[-1] |= diverged_at is not None
            keep.append(ks[take])
            rows.append(C[take])
            if diverged_at is not None:
                break
    return _trajectory(np.concatenate(keep), np.vstack(rows), V, x0, pairs, h, diverged_at)


def simulate_linear(g: gr.WeightedGraph, delta, config: SimulationConfig) -> Trajectory:
    """Integrate xdot = -L(w + delta) x + v(t) with fixed-step RK4 in L's eigenbasis.

    ``delta`` is None, a dict {edge index: additive perturbation}, or a full
    length-m vector; perturbed weights may pass through zero (the edge
    simply drops out of the dynamics; a non-finite one, or one under which
    a node's weighted degree overflows, raises GraphConstructionError).
    Raises StepSizeError when dt >= 2/lambda_max(L).
    The cached eigendecomposition of L (``g._spectrum``, or that of a copy
    of g with the perturbed weights) serves the step guard and the run:
    zero-input runs are evaluated in closed form (:func:`_run_modal`), runs
    with an input apply the exact RK4 step map to the modal coordinates
    (:func:`_run_stepped`), reading the input 3 times per step.  Both agree
    with the node-space RK4 loop to rounding, not bit for bit.
    """
    if delta is not None:
        g = gr._with_weights(g, _perturbed_weights(g, delta))
    lam, V = g._spectrum
    _check_step(config.dt, float(lam[-1]))
    x0 = _resolve_initial_state(g, config)
    pairs = _output_pairs(g, config)
    if config.exogenous_input is None:
        return _run_modal(lam, V, x0, pairs, config)
    return _run_stepped(lam, V, x0, pairs, config)


def simulate_nonlinear(
    g: gr.WeightedGraph,
    uncertain_edges: Iterable[int],
    coupling: NonlinearCoupling,
    config: SimulationConfig,
) -> Trajectory:
    """Integrate xdot = -L x - E_delta phi(E_delta^T x) + v(t) with fixed-step RK4 in L's eigenbasis.

    ``uncertain_edges`` are distinct edge indices (sorted internally);
    coupling triples align with the sorted order.  The cached
    eigendecomposition ``g._spectrum`` serves the step guard, which adds the
    couplings' maximum sector slope to lambda_max(L) (StepSizeError when
    dt >= 2 / (lambda_max + slope)), and the run, which applies the exact
    RK4 step map to the modal coordinates (:func:`_run_stepped`), reading
    an input 3 times per step; a coupling on one edge is evaluated in float
    arithmetic with ``math.sin``, which rounded as ``np.sin`` does on every
    value tried.  It agrees with the node-space RK4 loop to rounding, not
    bit for bit.
    """
    edges = list(gr._indices(uncertain_edges, "uncertain edge indices", g.edge_count, distinct=True))
    if len(coupling.params) != len(edges):
        raise GraphConstructionError(
            f"need one coupling per uncertain edge: got {len(coupling.params)} "
            f"couplings for {len(edges)} edges"
        )
    lam, V = g._spectrum
    _check_step(config.dt, float(lam[-1]) + coupling.slope_bound())
    x0 = _resolve_initial_state(g, config)
    pairs = _output_pairs(g, config)
    return _run_stepped(lam, V, x0, pairs, config, coupling, V[g.tails[edges]] - V[g.heads[edges]])


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
