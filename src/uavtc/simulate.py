"""Monte Carlo engine: network sampling, SINR replication kernels, estimators.

Replications run in blocks of ``_BLOCK``.  Block ``b`` of an estimator holds
replications ``b * _BLOCK`` onwards (the last block may be short) and draws
from one counter-based Philox stream keyed by (seed, estimator id) with the
counter set to ``b``.  A block samples all of its replications at once: one
Poisson call for the node counts, one concatenated array per node attribute,
and ``NetworkRealization.owner`` naming each node's replication, so that
per-replication sums are one ``np.bincount``.  Only nodes inside the
footprint at time 0 or t are drawn (``_footprint_block``), so a replication
costs the same for any gap and speed law.  Per-replication statistics are
small non-negative integers summed exactly, and workers receive whole ranges
of blocks, so the estimates are identical bit for bit for any worker count.

With more than one worker, every estimator in a process shares one process
pool: started on first use, replaced when a call asks for another worker
count, and joined when the interpreter exits.  A grid of points is one call
that sends each worker one task, its share of every point's blocks.
"""

from __future__ import annotations

import math
import operator
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analytic import InterfererPmf
from .mobility import displaced_distance
from .model import (
    DEFAULT_TDB_GRID, NetworkParams, SpeedDistribution, ValidatedScenario, check_count, check_gap,
    check_n_max, check_threshold, db_to_linear)

_JOINT = 1
_PMF = 2
_COND_SUCCESS = 3
_ARR_DEP = 4
_BLOCK = 256  # replications per Philox stream


def _block_stream(seed: int, purpose: int, block: int) -> np.random.Generator:
    key = np.array([seed, purpose], dtype=np.uint64)
    counter = np.array([0, 0, 0, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


# ---------------------------------------------------------------------------
# Realizations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NetworkRealization:
    """Sampled interferers as ground distances at the two instants.

    Only nodes inside the footprint at time 0 or at time t are kept; gain is
    zero beyond ``r_out``, so no other node can interfere.  A block of
    replications concatenates their nodes; ``owner`` holds each node's
    replication index, and ``None`` means a single replication.
    """

    r0: np.ndarray  # (n,) ground distance at time 0
    rt: np.ndarray  # (n,) ground distance at time t
    n_inner: int = 0  # leading nodes placed inside the footprint by conditioning
    owner: np.ndarray | None = None  # (n,) replication of each node

    @property
    def n(self) -> int:
        return len(self.r0)

    def distances(self, at_time: str) -> np.ndarray:
        """Ground distances from the origin at instant "0" or "t"."""
        if at_time == "0":
            return self.r0
        if at_time == "t":
            return self.rt
        raise ValueError("at_time must be '0' or 't'")


def _footprint_radii(rng, n: int, r_out: float) -> np.ndarray:
    return r_out * np.sqrt(rng.random(n))  # n points uniform in the footprint


def _moved(rng, r: np.ndarray, speed: SpeedDistribution, t: float) -> np.ndarray:
    """Ground distances after one move each, with freshly drawn speed and direction."""
    n = r.size
    speeds = np.asarray(speed.sample(rng, n), dtype=float)
    return displaced_distance(r, speeds, rng.uniform(0.0, 2.0 * math.pi, n), t)


def _footprint_block(params, speed, t, rng, r0, owner, size, n_inner=0) -> NetworkRealization:
    """Move the time-0 footprint nodes ``r0`` forward and add the arrivals.

    The pairs (x0, xt) of the mobile nodes form a Poisson process of
    intensity lambda p dx0 K(dD) with an isotropic displacement kernel K, so
    the pairs with xt in the footprint are a PPP(lambda p) on the footprint
    displaced backward by -D ~ D.  Those starting outside the footprint are
    the arrivals, independent of the nodes that start inside it.
    """
    r_out = params.antenna.r_out
    mobile = rng.random(r0.size) < params.p_mobile
    rt = r0.copy()
    rt[mobile] = _moved(rng, r0[mobile], speed, t)
    counts = rng.poisson(params.lam * params.p_mobile * math.pi * r_out * r_out, size)
    arrived_t = _footprint_radii(rng, int(counts.sum()), r_out)
    arrived_0 = _moved(rng, arrived_t, speed, t)
    arrived = arrived_0 > r_out
    return NetworkRealization(
        r0=np.concatenate((r0, arrived_0[arrived])),
        rt=np.concatenate((rt, arrived_t[arrived])),
        n_inner=n_inner,
        owner=np.concatenate((owner, np.repeat(np.arange(size), counts)[arrived])),
    )


def sample_network(
    params: NetworkParams,
    speed: SpeedDistribution,
    t: float,
    rng: np.random.Generator,
    *,
    size: int = 1,
) -> NetworkRealization:
    """Homogeneous constellations, restricted exactly to the footprint nodes.

    Keeps every node inside the footprint at time 0 or at time t, and no
    other; ``size`` independent replications are drawn as one block.
    """
    check_gap(t)
    r_out = params.antenna.r_out
    counts = rng.poisson(params.lam * math.pi * r_out * r_out, size)
    r0 = _footprint_radii(rng, int(counts.sum()), r_out)
    return _footprint_block(params, speed, t, rng, r0, np.repeat(np.arange(size), counts), size)


def sample_conditioned(
    m: int,
    params: NetworkParams,
    speed: SpeedDistribution,
    t: float,
    rng: np.random.Generator,
    *,
    size: int = 1,
) -> NetworkRealization:
    """Constellations conditioned on exactly m nodes inside the footprint at time 0.

    Each replication has m nodes uniform in the footprint, followed by the
    unconditioned arrivals; the ``m * size`` inner nodes of a block of
    ``size`` replications come first.
    """
    m = check_count(m)
    check_gap(t)
    r0 = _footprint_radii(rng, m * size, params.antenna.r_out)
    owner = np.repeat(np.arange(size), m)
    return _footprint_block(params, speed, t, rng, r0, owner, size, n_inner=m * size)


# ---------------------------------------------------------------------------
# Interference and SINR
# ---------------------------------------------------------------------------


def interference(realization: NetworkRealization, params: NetworkParams, at_time: str,
                 fading: np.ndarray) -> float:
    """Aggregate interference power at the origin at the chosen instant of one replication.

    ``fading`` holds one gamma fading value per node.  A block of more than
    one replication raises ``ValueError``.
    """
    replications = 0 if realization.owner is None else np.unique(realization.owner).size
    if replications > 1:
        raise ValueError(f"interference takes a single replication, got a block of {replications}")
    d = realization.distances(at_time)
    d2 = d * d
    gains = params.antenna.gain_at_sq(d2)
    # summing only active terms keeps the total bit-identical whatever
    # zero-gain nodes the realization also holds
    active = gains > 0.0
    path = (params.height * params.height + d2[active]) ** (-params.alpha / 2.0)
    return float(np.sum(np.asarray(fading)[active] * gains[active] * path))


def sinr(realization: NetworkRealization, params: NetworkParams, at_time: str,
         serving_fading: float, interferer_fading: np.ndarray) -> float:
    """SINR of the serving link of one replication; +inf when noise and interference both vanish."""
    power = params.antenna.g_main * serving_fading * params.height ** (-params.alpha)
    denom = interference(realization, params, at_time, interferer_fading) + params.noise
    if denom == 0.0:
        return math.inf
    return power / denom


def _block_interference(block: NetworkRealization, params: NetworkParams, at_time: str,
                        rng: np.random.Generator, size: int) -> np.ndarray:
    """Interference of each replication of a block at the chosen instant.

    Fading is i.i.d. and independent of the geometry, so it is drawn only
    for the nodes with non-zero gain, in node order.
    """
    d = block.distances(at_time)
    d2 = d * d
    gains = params.antenna.gain_at_sq(d2)
    active = np.flatnonzero(gains > 0.0)
    fading = rng.gamma(params.fading.k, params.fading.omega, active.size)
    path = (params.height * params.height + d2[active]) ** (-params.alpha / 2.0)
    return np.bincount(block.owner[active], weights=fading * gains[active] * path,
                       minlength=size)


def _block_success(scenario: ValidatedScenario, interference_by_rep: np.ndarray,
                   rng: np.random.Generator, thresholds) -> np.ndarray:
    """Success indicators, one row per threshold, with fresh serving fading."""
    p = scenario.params
    serving = rng.gamma(p.fading.k, p.fading.omega, interference_by_rep.size)
    signal = p.antenna.g_main * serving * p.height ** (-p.alpha)
    thr = np.asarray(thresholds, dtype=float).reshape(-1, 1)
    return signal >= thr * (interference_by_rep + p.noise)


# ---------------------------------------------------------------------------
# Replication engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EstimatorResult:
    estimate: float
    std_error: float
    replications: int
    seed: int


def _bernoulli_result(count: int, n: int, seed: int) -> EstimatorResult:
    p = count / n
    var = p * (1.0 - p) * n / (n - 1) if n > 1 else 0.0
    return EstimatorResult(p, math.sqrt(var / n), n, seed)


def _mean_result(total: int, total_sq: int, n: int, seed: int) -> EstimatorResult:
    mean = total / n
    var = (total_sq - total * total / n) / (n - 1) if n > 1 else 0.0
    return EstimatorResult(mean, math.sqrt(max(var, 0.0) / n), n, seed)


def _run_share(share):
    """The int64 sum of each part of ``share`` over its blocks lo..hi-1, 0 if none."""
    return [sum(kernel(_block_stream(seed, purpose, b), min(_BLOCK, reps - b * _BLOCK), *args)
                for b in range(lo, hi))
            for kernel, args, seed, purpose, lo, hi, reps in share]


_pool: tuple[int, ProcessPoolExecutor] | None = None  # (workers, pool) of this process
_pool_lock = threading.Lock()  # held while a call uses or replaces the pool


def _executor(workers: int, fresh: bool = False) -> ProcessPoolExecutor:
    """The process's pool of ``workers`` processes; ``fresh`` replaces a pool that broke."""
    global _pool
    if fresh or _pool is None or _pool[0] != workers:
        if _pool is not None:
            _pool[1].shutdown()
        _pool = (workers, ProcessPoolExecutor(max_workers=workers))
    return _pool[1]


def _is_integer_in(value, low: int, high: float = math.inf) -> bool:
    """Whether ``value`` is an integer (numpy integers included) in [low, high)."""
    try:
        return low <= operator.index(value) < high
    except TypeError:
        return False


def _check_positive(name: str, value) -> None:
    if not _is_integer_in(value, 1):
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def _accumulate(runs: Sequence[tuple], workers: int) -> list[np.ndarray]:
    """Sum each (kernel, args, reps, seed, purpose) run's kernel over its blocks.

    ``args[0]`` is the run's scenario.  Checks every run's arguments first,
    so a bad one never reaches a pool.  Worker w gets one task: the w-th
    contiguous share of every run's blocks.  One share runs in this process.
    """
    for _, args, reps, seed, _ in runs:
        if not _is_integer_in(seed, 0, 2**64):
            raise ValueError(f"seed must lie in [0, 2**64), got {seed!r}")
        _check_positive("replications", reps)
        check_gap(args[0].t_gap)
    _check_positive("workers", workers)
    blocks = [-(-reps // _BLOCK) for _, _, reps, _, _ in runs]
    chunks = min(workers, max(blocks, default=1))
    shares = [[(kernel, args, seed, purpose, n * w // chunks, n * (w + 1) // chunks, reps)
               for (kernel, args, reps, seed, purpose), n in zip(runs, blocks)]
              for w in range(chunks)]  # none empty: the run of the most blocks has one in each

    def run(pool):
        futures = [pool.submit(_run_share, share) for share in shares]
        return [fut.result() for fut in futures]

    if chunks == 1:
        results = [_run_share(shares[0])]
    else:
        with _pool_lock:
            try:
                results = run(_executor(workers))
            except BrokenProcessPool:
                # a worker of the kept pool died, perhaps while idle; the blocks are
                # pure functions of (seed, block), so a fresh pool gives the same sums
                results = run(_executor(workers, fresh=True))
    return [sum(sums) for sums in zip(*results)]


# ---------------------------------------------------------------------------
# Kernels: one block of replications each, module level so they pickle for
# the process pool
# ---------------------------------------------------------------------------


def _joint_kernel(rng, size: int, scenario: ValidatedScenario,
                  thresholds: np.ndarray) -> np.ndarray:
    """Joint, time-0 and time-t success counts per threshold, one threshold after another."""
    p = scenario.params
    block = sample_network(p, scenario.speed, scenario.t_gap, rng, size=size)
    i0 = _block_interference(block, p, "0", rng, size)
    it = _block_interference(block, p, "t", rng, size)
    s0 = _block_success(scenario, i0, rng, thresholds)
    st = _block_success(scenario, it, rng, thresholds)
    return np.stack([(s0 & st).sum(axis=1), s0.sum(axis=1), st.sum(axis=1)], axis=1).ravel()


def _inside_at_t(m: int, scenario: ValidatedScenario, rng, size: int):
    block = sample_conditioned(m, scenario.params, scenario.speed, scenario.t_gap, rng, size=size)
    return block, block.distances("t") <= scenario.params.antenna.r_out


def _pmf_kernel(rng, size: int, scenario: ValidatedScenario, m: int, n_max: int) -> np.ndarray:
    block, inside = _inside_at_t(m, scenario, rng, size)
    counts = np.bincount(block.owner[inside], minlength=size)
    return np.bincount(np.minimum(counts, n_max + 1), minlength=n_max + 2).astype(np.int64)


def _cond_success_kernel(rng, size: int, scenario: ValidatedScenario, m: int,
                         thresholds: np.ndarray) -> np.ndarray:
    p = scenario.params
    block = sample_conditioned(m, p, scenario.speed, scenario.t_gap, rng, size=size)
    it = _block_interference(block, p, "t", rng, size)
    return np.count_nonzero(_block_success(scenario, it, rng, thresholds), axis=1).astype(np.int64)


def _arr_dep_kernel(rng, size: int, scenario: ValidatedScenario, m: int) -> np.ndarray:
    block, inside = _inside_at_t(m, scenario, rng, size)
    inner = np.arange(block.n) < block.n_inner
    departures = np.bincount(block.owner[inner & ~inside], minlength=size)
    arrivals = np.bincount(block.owner[~inner & inside], minlength=size)
    return np.array(
        [departures.sum(), departures @ departures, arrivals.sum(), arrivals @ arrivals],
        dtype=np.int64,
    )


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JointSuccessEstimate:
    joint: EstimatorResult
    marginal_0: EstimatorResult
    marginal_t: EstimatorResult
    retx_given_fail: EstimatorResult | None  # None when no failures occurred


def estimate_joint_success(
    scenario: ValidatedScenario,
    workers: int = 1,
) -> JointSuccessEstimate:
    """Joint/marginal/conditional success estimates from one replication stream."""
    return _estimate_joint_grid([(scenario, (scenario.threshold,))], workers)[0][0]


def _threshold_grid(thresholds: Sequence[float]) -> np.ndarray:
    grid = np.asarray(list(thresholds), dtype=float)
    for threshold in grid.tolist():
        check_threshold(threshold)
    return grid


def _estimate_joint_grid(points: Sequence[tuple], workers: int = 1) -> list[list]:
    """:func:`estimate_joint_success` at each threshold of each (scenario, thresholds) point.

    A point's estimates come from one replication stream, and each
    threshold's equal those of its own call bit for bit: the thresholds only
    enter the comparisons of one shared draw.
    """
    runs = [(_joint_kernel, (sc, _threshold_grid(thresholds)), sc.replications, sc.seed, _JOINT)
            for sc, thresholds in points]
    return [[_joint_estimate(*counts, reps, seed) for counts in acc.reshape(-1, 3).tolist()]
            for (_, _, reps, seed, _), acc in zip(runs, _accumulate(runs, workers))]


def _joint_estimate(joint_c, s0_c, st_c, reps, seed) -> JointSuccessEstimate:
    # of the reps - s0_c failures at 0, st_c - joint_c succeed at t
    return JointSuccessEstimate(
        joint=_bernoulli_result(joint_c, reps, seed),
        marginal_0=_bernoulli_result(s0_c, reps, seed),
        marginal_t=_bernoulli_result(st_c, reps, seed),
        retx_given_fail=(_bernoulli_result(st_c - joint_c, reps - s0_c, seed)
                         if s0_c < reps else None),
    )


def estimate_conditional_pmf(
    m: int,
    scenario: ValidatedScenario,
    n_max: int,
    workers: int = 1,
) -> InterfererPmf:
    """Empirical pmf of the second-instant count given m initial interferers."""
    return _estimate_pmf_grid([(m, scenario, n_max)], workers)[0]


def _estimate_pmf_grid(points: Sequence[tuple], workers: int = 1) -> list[InterfererPmf]:
    """:func:`estimate_conditional_pmf` at each (m, scenario, n_max) point."""
    points = [(check_count(m), sc, check_n_max(n_max)) for m, sc, n_max in points]
    sums = _accumulate([(_pmf_kernel, (sc, m, n_max), sc.replications, sc.seed, _PMF)
                        for m, sc, n_max in points], workers)
    return [InterfererPmf(m=m, t=sc.t_gap, probs=acc[: n_max + 1] / sc.replications,
                          tail_mass=float(acc[-1] / sc.replications))
            for (m, sc, n_max), acc in zip(points, sums)]


def estimate_conditional_success(
    m: int,
    scenario: ValidatedScenario,
    thresholds: Sequence[float] | None = None,
    workers: int = 1,
) -> list[EstimatorResult]:
    """Success probability at the second instant given m initial interferers.

    ``thresholds`` are linear SINR values, by default those of
    ``DEFAULT_TDB_GRID`` (-20 dB to 10 dB in 2 dB steps).
    """
    if thresholds is None:
        thresholds = [db_to_linear(db) for db in DEFAULT_TDB_GRID]
    return _estimate_conditional_success_grid([(m, scenario, thresholds)], workers)[0]


def _estimate_conditional_success_grid(points: Sequence[tuple], workers: int = 1) -> list[list]:
    """:func:`estimate_conditional_success` at each (m, scenario, thresholds) point."""
    grids = [_threshold_grid(thresholds) for _, _, thresholds in points]
    runs = [(_cond_success_kernel, (sc, check_count(m), grid), sc.replications, sc.seed,
             _COND_SUCCESS) for (m, sc, _), grid in zip(points, grids)]
    return [[_bernoulli_result(int(c), reps, seed) for c in acc]
            for (_, _, reps, seed, _), acc in zip(runs, _accumulate(runs, workers))]


def estimate_arrivals_departures(
    m: int,
    scenario: ValidatedScenario,
    workers: int = 1,
) -> tuple[EstimatorResult, EstimatorResult]:
    """Mean (arrivals, departures) of footprint crossings between the instants."""
    m = check_count(m)
    seed, reps = scenario.seed, scenario.replications
    (acc,) = _accumulate([(_arr_dep_kernel, (scenario, m), reps, seed, _ARR_DEP)], workers)
    dep = _mean_result(int(acc[0]), int(acc[1]), reps, seed)
    arr = _mean_result(int(acc[2]), int(acc[3]), reps, seed)
    return arr, dep
