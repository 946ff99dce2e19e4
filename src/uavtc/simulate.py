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

An estimator called directly starts its own process pool when it has more
than one worker; inside ``shared_pool`` every estimator reuses one pool.
"""

from __future__ import annotations

import contextlib
import math
import operator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

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


def interference(
    realization: NetworkRealization,
    params: NetworkParams,
    at_time: str,
    fading_rng: np.random.Generator | None = None,
    fading: np.ndarray | None = None,
) -> float:
    """Aggregate interference power at the origin at the chosen instant.

    Fresh gamma fading is drawn unless an explicit ``fading`` vector is
    supplied (the deterministic test hook).
    """
    d = realization.distances(at_time)
    d2 = d * d
    gains = params.antenna.gain_at_sq(d2)
    if fading is None:
        if fading_rng is None:
            raise ValueError("either fading_rng or fading must be supplied")
        fading = fading_rng.gamma(params.fading.k, params.fading.omega, realization.n)
    # summing only active terms keeps the total bit-identical whatever
    # zero-gain nodes the realization also holds
    active = gains > 0.0
    path = (params.height * params.height + d2[active]) ** (-params.alpha / 2.0)
    return float(np.sum(np.asarray(fading)[active] * gains[active] * path))


def sinr(
    realization: NetworkRealization,
    params: NetworkParams,
    at_time: str,
    fading_rng: np.random.Generator | None = None,
    serving_fading: float | None = None,
    interferer_fading: np.ndarray | None = None,
) -> float:
    """SINR of the serving link; +inf when noise and interference both vanish."""
    if serving_fading is None:
        if fading_rng is None:
            raise ValueError("either fading_rng or serving_fading must be supplied")
        serving_fading = float(fading_rng.gamma(params.fading.k, params.fading.omega))
    power = params.antenna.g_main * serving_fading * params.height ** (-params.alpha)
    denom = interference(realization, params, at_time, fading_rng, interferer_fading) + params.noise
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


def _run_blocks(kernel, args, seed, purpose, lo, hi, reps, width):
    acc = np.zeros(width, dtype=np.int64)
    for block in range(lo, hi):
        size = min(_BLOCK, reps - block * _BLOCK)
        acc += kernel(_block_stream(seed, purpose, block), size, *args)
    return acc


_shared: ProcessPoolExecutor | None = None


@contextlib.contextmanager
def shared_pool(workers: int):
    """Let every estimator inside the block reuse one pool of ``workers`` processes."""
    global _shared
    if workers <= 1:
        yield
        return
    previous = _shared
    with ProcessPoolExecutor(max_workers=workers) as pool:
        _shared = pool
        try:
            yield
        finally:
            _shared = previous


def _accumulate(kernel: Callable, args: tuple, reps: int, seed: int, purpose: int,
                workers: int, width: int) -> np.ndarray:
    """Sum ``kernel`` over the blocks of ``reps`` replications of the scenario ``args[0]``.

    Checks the run's arguments first, so a bad one never reaches a pool.
    """
    if not 0 <= operator.index(seed) < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed!r}")
    try:
        valid = operator.index(reps) >= 1
    except TypeError:
        valid = False
    if not valid:
        raise ValueError(f"replications must be an integer >= 1, got {reps!r}")
    check_gap(args[0].t_gap)
    blocks = -(-reps // _BLOCK)
    chunks = min(workers, blocks)
    if chunks <= 1:
        return _run_blocks(kernel, args, seed, purpose, 0, blocks, reps, width)
    bounds = np.linspace(0, blocks, chunks + 1, dtype=int)
    acc = np.zeros(width, dtype=np.int64)
    with contextlib.ExitStack() as stack:
        pool = _shared
        if pool is None:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=chunks))
        futures = [
            pool.submit(_run_blocks, kernel, args, seed, purpose, int(lo), int(hi), reps, width)
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        for fut in futures:
            acc += fut.result()
    return acc


# ---------------------------------------------------------------------------
# Kernels: one block of replications each, module level so they pickle for
# the process pool
# ---------------------------------------------------------------------------


def _joint_kernel(rng, size: int, scenario: ValidatedScenario) -> np.ndarray:
    p = scenario.params
    block = sample_network(p, scenario.speed, scenario.t_gap, rng, size=size)
    i0 = _block_interference(block, p, "0", rng, size)
    it = _block_interference(block, p, "t", rng, size)
    (s0,) = _block_success(scenario, i0, rng, scenario.threshold)
    (st,) = _block_success(scenario, it, rng, scenario.threshold)
    return np.array(
        [np.count_nonzero(s0 & st), np.count_nonzero(s0), np.count_nonzero(st),
         np.count_nonzero(st & ~s0), np.count_nonzero(~s0)],
        dtype=np.int64,
    )


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
    check_threshold(scenario.threshold)
    seed, reps = scenario.seed, scenario.replications
    acc = _accumulate(_joint_kernel, (scenario,), reps, seed, _JOINT, workers, 5)
    joint_c, s0_c, st_c, retx_c, fail_c = (int(v) for v in acc)
    retx = _bernoulli_result(retx_c, fail_c, seed) if fail_c > 0 else None
    return JointSuccessEstimate(
        joint=_bernoulli_result(joint_c, reps, seed),
        marginal_0=_bernoulli_result(s0_c, reps, seed),
        marginal_t=_bernoulli_result(st_c, reps, seed),
        retx_given_fail=retx,
    )


def estimate_conditional_pmf(
    m: int,
    scenario: ValidatedScenario,
    n_max: int,
    workers: int = 1,
):
    """Empirical pmf of the second-instant count given m initial interferers."""
    from .analytic import InterfererPmf

    m = check_count(m)
    n_max = check_n_max(n_max)
    seed, reps = scenario.seed, scenario.replications
    acc = _accumulate(_pmf_kernel, (scenario, m, n_max), reps, seed, _PMF, workers, n_max + 2)
    probs = acc[: n_max + 1] / reps
    return InterfererPmf(m=m, t=scenario.t_gap, probs=probs, tail_mass=float(acc[-1] / reps))


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
    grid = np.asarray(list(thresholds), dtype=float)
    for threshold in grid.tolist():
        check_threshold(threshold)
    m = check_count(m)
    seed, reps = scenario.seed, scenario.replications
    acc = _accumulate(
        _cond_success_kernel, (scenario, m, grid), reps, seed, _COND_SUCCESS, workers, len(grid)
    )
    return [_bernoulli_result(int(c), reps, seed) for c in acc]


def estimate_arrivals_departures(
    m: int,
    scenario: ValidatedScenario,
    workers: int = 1,
) -> tuple[EstimatorResult, EstimatorResult]:
    """Mean (arrivals, departures) of footprint crossings between the instants."""
    m = check_count(m)
    seed, reps = scenario.seed, scenario.replications
    acc = _accumulate(_arr_dep_kernel, (scenario, m), reps, seed, _ARR_DEP, workers, 4)
    dep = _mean_result(int(acc[0]), int(acc[1]), reps, seed)
    arr = _mean_result(int(acc[2]), int(acc[3]), reps, seed)
    return arr, dep
