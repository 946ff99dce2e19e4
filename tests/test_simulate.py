"""Monte Carlo engine tests: determinism, exactness, and distributional checks."""

import dataclasses
import math
import multiprocessing.connection
import os
import re
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from uavtc import simulate
from uavtc.mobility import containment_cdf, displaced_distance
from uavtc.model import FixedSpeed, UniformSpeed
from uavtc.simulate import (
    NetworkRealization,
    estimate_arrivals_departures,
    estimate_conditional_pmf,
    estimate_conditional_success,
    estimate_joint_success,
    interference,
    sample_conditioned,
    sample_network,
    sinr,
)

from helpers import baseline_scenario, forward_footprint_counts


@pytest.fixture(scope="module")
def base():
    return baseline_scenario(replications=4000)


# ---------------------------------------------------------------------------
# determinism across parallelism
# ---------------------------------------------------------------------------


def test_joint_estimates_identical_across_worker_counts(base):
    serial = estimate_joint_success(base, workers=1)
    parallel = estimate_joint_success(base, workers=3)
    assert serial == parallel


def test_pmf_estimates_identical_across_worker_counts(base):
    serial = estimate_conditional_pmf(10, base, n_max=25, workers=1)
    parallel = estimate_conditional_pmf(10, base, n_max=25, workers=4)
    np.testing.assert_array_equal(serial.probs, parallel.probs)
    assert serial.tail_mass == parallel.tail_mass


def test_conditional_success_identical_across_worker_counts(base):
    serial = estimate_conditional_success(10, base, workers=1)
    parallel = estimate_conditional_success(10, base, workers=3)
    assert serial == parallel


def test_arrivals_departures_identical_across_worker_counts(base):
    serial = estimate_arrivals_departures(5, base, workers=1)
    parallel = estimate_arrivals_departures(5, base, workers=3)
    assert serial == parallel


def _as_values(result):
    """Every number an estimator returned, in a form that compares with ==."""
    if hasattr(result, "probs"):  # InterfererPmf
        return (result.m, result.t, tuple(result.probs.tolist()), result.tail_mass)
    return result


_ESTIMATORS = {
    "joint": lambda sc, w: estimate_joint_success(sc, workers=w),
    "pmf": lambda sc, w: estimate_conditional_pmf(6, sc, n_max=20, workers=w),
    "cond_success": lambda sc, w: estimate_conditional_success(
        6, sc, thresholds=[0.05, 0.1, 0.4], workers=w),
    "arr_dep": lambda sc, w: estimate_arrivals_departures(6, sc, workers=w),
}


# 1000 is not a multiple of the 256-replication block and gives 4 blocks, so
# 5 workers outnumber them; 100 is less than one block
@pytest.mark.parametrize("reps", [1000, 100])
@pytest.mark.parametrize("name", sorted(_ESTIMATORS))
def test_identical_for_any_worker_count_at_block_edges(name, reps):
    sc = baseline_scenario(replications=reps, t_gap=3.0)
    estimate = _ESTIMATORS[name]
    serial = _as_values(estimate(sc, 1))
    for workers in (2, 3, 5):
        assert _as_values(estimate(sc, workers)) == serial, f"workers={workers}"
    assert _as_values(estimate(sc, 1)) == serial


def test_estimators_share_one_pool_and_match_serial(base, pool_starts):
    sc = dataclasses.replace(base, replications=1000)
    serial = [_as_values(estimate(sc, 1)) for estimate in _ESTIMATORS.values()]
    assert pool_starts == []
    assert [_as_values(estimate(sc, 2)) for estimate in _ESTIMATORS.values()] == serial
    assert pool_starts == [2]
    assert _as_values(_ESTIMATORS["joint"](sc, 3)) == serial[0]
    assert pool_starts == [2, 3]


@pytest.mark.parametrize("workers", [0, -3, 2.5, "2", None])
def test_bad_worker_counts_are_rejected_before_a_pool_starts(base, pool_starts, workers):
    # 0 and -3 used to run serially, the others to raise a bare TypeError
    message = re.escape(f"workers must be an integer >= 1, got {workers!r}")
    with pytest.raises(ValueError, match=message):
        estimate_joint_success(dataclasses.replace(base, replications=1000), workers=workers)
    assert pool_starts == []


def test_numpy_integer_workers_keep_their_results(base):
    sc = dataclasses.replace(base, replications=1000)
    assert estimate_joint_success(sc, workers=np.int64(2)) == estimate_joint_success(sc)


def test_accumulate_sums_a_grid_alike_at_any_worker_count(base):
    # one run of a single block beside one of 12 blocks, so 3 workers leave a part empty
    runs = [(simulate._pmf_kernel, (dataclasses.replace(base, replications=100), 5, 20),
             100, 3, simulate._PMF),
            (simulate._joint_kernel, (dataclasses.replace(base, replications=3000, t_gap=5.0),
                                      np.array([0.1, 1.0])), 3000, 3, simulate._JOINT)]
    serial = simulate._accumulate(runs, 1)
    alone = [simulate._accumulate([run], 1)[0] for run in runs]
    for workers in (2, 3):
        got = simulate._accumulate(runs, workers)
        assert [a.tolist() for a in got] == [a.tolist() for a in serial], f"workers={workers}"
    assert [a.tolist() for a in alone] == [a.tolist() for a in serial]
    assert [a.dtype for a in serial] == [np.dtype(np.int64)] * 2
    assert simulate._accumulate([], 3) == []


def test_a_pmf_grid_is_one_task_per_worker_and_equals_its_points(base, pool_tasks):
    points = [(m, dataclasses.replace(base, replications=3000, t_gap=t), 30)
              for m in (5, 15) for t in (1.0, 5.0)]
    grid = simulate._estimate_pmf_grid(points, workers=2)
    assert len(pool_tasks) == 2
    singles = [estimate_conditional_pmf(*point, workers=1) for point in points]
    assert [_as_values(pmf) for pmf in grid] == [_as_values(pmf) for pmf in singles]


def test_a_killed_idle_worker_does_not_fail_the_next_call(base, pool_starts):
    # a worker that dies between calls breaks the kept pool; the next call
    # reruns on a fresh pool instead of raising BrokenProcessPool
    sc = dataclasses.replace(base, replications=1000)
    before = estimate_joint_success(sc, workers=2)
    pid, worker = next(iter(simulate._pool[1]._processes.items()))
    os.kill(pid, signal.SIGKILL)
    assert multiprocessing.connection.wait([worker.sentinel], timeout=30)
    assert estimate_joint_success(sc, workers=2) == before
    assert estimate_joint_success(sc, workers=2) == before


def test_threads_asking_for_different_worker_counts_get_their_results(base):
    # a call that replaces the kept pool must not shut it down under another thread's call
    sc = dataclasses.replace(base, replications=1000)
    serial = estimate_joint_success(sc)
    results, errors = [], []

    def call(workers):
        try:
            for _ in range(3):
                results.append(estimate_joint_success(sc, workers=workers))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=call, args=(2 + i % 2,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert results == [serial] * 12


_EXIT_PROBE = """
import sys
sys.path[:0] = [{src!r}, {tests!r}]
from helpers import baseline_scenario
from uavtc import simulate
simulate.estimate_joint_success(baseline_scenario(replications=1000), workers=2)
print(*simulate._pool[1]._processes)
"""


def test_pool_workers_are_joined_at_interpreter_exit():
    code = _EXIT_PROBE.format(src=str(Path(simulate.__file__).parents[1]),
                              tests=str(Path(__file__).parent))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, check=True)
    pids = [int(pid) for pid in done.stdout.split()]
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_seed_changes_the_stream(base):
    a = estimate_joint_success(dataclasses.replace(base, seed=1))
    b = estimate_joint_success(dataclasses.replace(base, seed=2))
    assert a.joint.estimate != b.joint.estimate


@pytest.mark.parametrize("seed", [2**64, -(2**64), -1])
def test_seed_outside_64_bits_rejected(base, seed):
    # such seeds used to be masked to 64 bits and alias seeds in range
    with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
        estimate_joint_success(dataclasses.replace(base, seed=seed))


def test_rerun_is_bit_identical(base):
    a = estimate_joint_success(base)
    b = estimate_joint_success(base)
    assert a == b


# ---------------------------------------------------------------------------
# sampling exactness
# ---------------------------------------------------------------------------


_SPEEDS = {"fixed": FixedSpeed(10.0), "uniform": UniformSpeed(5.0, 15.0)}


def _footprint_counts(block, r_out, size):
    """(count in the footprint at 0, count at t, stayers) per replication."""
    in0, in_t = block.r0 <= r_out, block.rt <= r_out
    return np.column_stack([
        np.bincount(block.owner[mask], minlength=size) for mask in (in0, in_t, in0 & in_t)])


def _homogeneity_p_value(a, b):
    """Chi-square p-value that two samples of (rows of) integers share one law."""
    _, codes = np.unique(np.vstack((a, b)), axis=0, return_inverse=True)
    codes = codes.reshape(-1)
    table = np.vstack((np.bincount(codes[: len(a)], minlength=codes.max() + 1),
                       np.bincount(codes[len(a):], minlength=codes.max() + 1)))
    # pool sparse cells to keep the chi-square approximation valid
    sparse = table.sum(axis=0) < 10
    table = np.column_stack((table[:, ~sparse], table[:, sparse].sum(axis=1)))
    table = table[:, table.sum(axis=0) > 0]
    return stats.chi2_contingency(table, correction=False).pvalue


@pytest.mark.parametrize("speed_name", sorted(_SPEEDS))
@pytest.mark.parametrize("t", [1.0, 5.0])
def test_footprint_sampler_matches_forward_oracle(base, speed_name, t):
    # the joint law of (count in F at 0, count in F at t, stayers) against a
    # whole-disk forward simulation that shares no code with the sampler
    params, speed, size = base.params, _SPEEDS[speed_name], 20_000
    r_out = params.antenna.r_out
    block = sample_network(params, speed, t, np.random.default_rng(11), size=size)
    ours = _footprint_counts(block, r_out, size)
    oracle = forward_footprint_counts(
        params.lam, params.p_mobile, r_out, speed.support_min, speed.support_max, t, size,
        np.random.default_rng(12))
    assert _homogeneity_p_value(ours, oracle) > 0.001


@pytest.mark.parametrize("m", [0, 5])
@pytest.mark.parametrize("speed_name", sorted(_SPEEDS))
def test_conditioned_count_matches_forward_oracle(base, speed_name, m):
    params, speed, size, t = base.params, _SPEEDS[speed_name], 20_000, 3.0
    r_out = params.antenna.r_out
    block = sample_conditioned(m, params, speed, t, np.random.default_rng(13), size=size)
    ours = _footprint_counts(block, r_out, size)
    assert np.all(ours[:, 0] == m)
    oracle = forward_footprint_counts(
        params.lam, params.p_mobile, r_out, speed.support_min, speed.support_max, t, size,
        np.random.default_rng(14), m=m)
    assert np.all(oracle[:, 0] == m)
    assert _homogeneity_p_value(ours[:, 1:2], oracle[:, 1:2]) > 0.001


@pytest.mark.parametrize("t", [1.0, 20.0])
@pytest.mark.parametrize("m", [None, 5])
def test_nodes_per_replication_do_not_grow_with_the_gap(base, m, t):
    # a replication draws the footprint at time 0 and mobile candidates in
    # the footprint at time t, whatever the gap: a whole disk of radius
    # r_out + v t would hold 19 nodes at t = 1 and 795 at t = 20
    params, size = base.params, 20 * 256
    area_count = params.lam * math.pi * params.antenna.r_out ** 2
    rng = np.random.Generator(np.random.Philox(key=[5, 0]))
    if m is None:
        block = sample_network(params, base.speed, t, rng, size=size)
        bound = area_count * (1.0 + params.p_mobile)
    else:
        block = sample_conditioned(m, params, base.speed, t, rng, size=size)
        bound = m + area_count * params.p_mobile
    assert block.n / size <= bound + 4.0 * math.sqrt(bound / size)


def test_region_truncation_is_exact(base):
    # the sampler keeps exactly the nodes that can interfere at either
    # instant: each lies in the footprint at time 0 or at t, and an arrival
    # starts beyond r_out but no farther than one move can carry it
    r_out = base.params.antenna.r_out
    for i, (speed, t) in enumerate(
            [(_SPEEDS["fixed"], 1.0), (_SPEEDS["uniform"], 5.0), (_SPEEDS["fixed"], 0.0)]):
        for m in (None, 4):
            rng = np.random.default_rng(100 + i)
            if m is None:
                block = sample_network(base.params, speed, t, rng, size=500)
            else:
                block = sample_conditioned(m, base.params, speed, t, rng, size=500)
            in0, in_t = block.r0 <= r_out, block.rt <= r_out
            assert np.all(in0 | in_t)
            arrivals = ~in0
            assert np.all(block.r0[arrivals] <= r_out + speed.support_max * t + 1e-9)
            assert np.all(np.abs(block.rt - block.r0) <= speed.support_max * t + 1e-9)
            assert arrivals.any() == (t > 0)
            if m is not None:
                assert np.array_equal(np.flatnonzero(in0), np.arange(block.n_inner))


def test_unconditional_count_is_poisson(base):
    # the footprint count is Poisson at time 0 and, by stationarity, at t
    params = base.params
    r_out = params.antenna.r_out
    n_samples = 100_000
    block = sample_network(params, _SPEEDS["uniform"], 3.0, np.random.default_rng(42),
                           size=n_samples)
    mean = params.lam * math.pi * r_out**2
    hi = int(stats.poisson.ppf(0.9999, mean)) + 1
    expected = stats.poisson.pmf(np.arange(hi + 1), mean)
    expected[hi] = 1.0 - expected[:hi].sum()
    expected *= n_samples
    for counts in _footprint_counts(block, r_out, n_samples)[:, :2].T:
        observed = np.bincount(np.minimum(counts, hi), minlength=hi + 1)
        # merge sparse bins to keep the chi-square approximation valid
        keep = expected >= 5.0
        obs, exp = observed[keep].astype(float), expected[keep]
        if (~keep).any():
            obs = np.append(obs, observed[~keep].sum())
            exp = np.append(exp, expected[~keep].sum())
        _, p_value = stats.chisquare(obs, exp, sum_check=False)
        assert p_value > 0.001


def test_conditioned_sampling_shapes(base):
    rng = np.random.default_rng(3)
    m, t = 7, base.t_gap
    r_out = base.params.antenna.r_out
    real = sample_conditioned(m, base.params, base.speed, t, rng, size=50)
    assert real.n_inner == m * 50
    assert np.array_equal(real.owner[: real.n_inner], np.repeat(np.arange(50), m))
    assert np.all(real.r0[: real.n_inner] <= r_out)
    assert np.all(real.r0[real.n_inner:] > r_out)
    assert np.all(real.rt[real.n_inner:] <= r_out)
    assert np.all(real.r0 <= r_out + base.speed.support_max * t + 1e-9)


@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
def test_samplers_reject_bad_gaps(base, t):
    # -1 used to be sampled as t = 1 (49 nodes at size 4 with this stream)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=r"t must be finite and >= 0, got"):
        sample_network(base.params, FixedSpeed(10.0), t, rng, size=4)
    with pytest.raises(ValueError, match=r"t must be finite and >= 0, got"):
        sample_conditioned(2, base.params, FixedSpeed(10.0), t, rng, size=4)


@pytest.mark.parametrize("estimate", [
    estimate_joint_success,
    lambda sc: estimate_conditional_pmf(2, sc, 5),
    lambda sc: estimate_conditional_success(2, sc),
    lambda sc: estimate_arrivals_departures(2, sc),
])
def test_estimators_reject_bad_gaps(base, estimate):
    bad = dataclasses.replace(base, t_gap=-1.0, replications=10)
    with pytest.raises(ValueError, match=r"t must be finite and >= 0, got -1\.0"):
        estimate(bad)


@pytest.mark.parametrize("m", [2.5, -1, "2"])
def test_conditioned_sampling_rejects_bad_counts(base, m):
    # 2.5 used to fail inside numpy with "expected a sequence of integers"
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="m must be a non-negative integer"):
        sample_conditioned(m, base.params, FixedSpeed(10.0), 1.0, rng, size=4)
    with pytest.raises(ValueError, match="m must be a non-negative integer"):
        estimate_conditional_pmf(m, dataclasses.replace(base, replications=10), n_max=5)


def test_empirical_pmf_rejects_negative_n_max(base):
    # used to return an empty pmf with tail_mass 1.0
    with pytest.raises(ValueError, match="n_max must be >= 0, got -1"):
        estimate_conditional_pmf(5, dataclasses.replace(base, replications=10), n_max=-1)


@pytest.mark.parametrize("n_max", [2.5, 5.0, "5"])
def test_empirical_pmf_rejects_fractional_n_max(base, n_max):
    # 2.5 used to fail inside numpy with "expected a sequence of integers"
    with pytest.raises(ValueError, match="n_max must be an integer"):
        estimate_conditional_pmf(5, dataclasses.replace(base, replications=10), n_max=n_max)


def test_empirical_pmf_takes_numpy_integers(base):
    sc = dataclasses.replace(base, replications=300)
    via_numpy = estimate_conditional_pmf(np.int64(5), sc, n_max=np.int32(12))
    plain = estimate_conditional_pmf(5, sc, n_max=12)
    assert type(via_numpy.m) is int and via_numpy.m == 5
    np.testing.assert_array_equal(via_numpy.probs, plain.probs)


@pytest.mark.parametrize("estimate", [
    lambda sc: estimate_conditional_pmf(2.5, sc, n_max=5, workers=2),
    lambda sc: estimate_conditional_success(2.5, sc, workers=2),
    lambda sc: estimate_arrivals_departures(-1, sc, workers=2),
])
def test_bad_counts_are_rejected_before_a_pool_starts(base, pool_starts, estimate):
    # the pmf estimator used to start a pool and get the error back from a worker
    with pytest.raises(ValueError, match="m must be a non-negative integer"):
        estimate(dataclasses.replace(base, replications=1000))
    assert pool_starts == []


@pytest.mark.parametrize("field, value, message", [
    pytest.param("replications", 0, "replications must be an integer >= 1, got 0", id="reps=0"),
    pytest.param("replications", -5, "replications must be an integer >= 1, got -5", id="reps=-5"),
    pytest.param("replications", 1.5, "replications must be an integer >= 1, got 1.5",
                 id="reps=1.5"),
    pytest.param("t_gap", -1.0, "t must be finite and >= 0, got -1.0", id="t=-1"),
    # seeds that are no integer used to raise a bare TypeError
    *(pytest.param("seed", seed, re.escape(f"seed must lie in [0, 2**64), got {seed!r}"),
                   id=f"seed={seed!r}") for seed in (1.5, "3", None)),
])
@pytest.mark.parametrize("estimate", [
    lambda sc: estimate_joint_success(sc, workers=2),
    lambda sc: estimate_conditional_pmf(3, sc, n_max=5, workers=2),
    lambda sc: estimate_conditional_success(3, sc, workers=2),
    lambda sc: estimate_arrivals_departures(3, sc, workers=2),
], ids=["joint", "pmf", "success", "arrivals"])
def test_bad_runs_are_rejected_before_a_pool_starts(base, pool_starts, estimate, field, value,
                                                    message):
    # replications 0 used to divide by zero (a pmf of nans), -5 to give estimates of -0.0
    with pytest.raises(ValueError, match=message):
        estimate(dataclasses.replace(base, **{field: value}))
    assert pool_starts == []


def test_numpy_integer_replications_keep_their_results(base):
    plain = estimate_joint_success(dataclasses.replace(base, replications=300))
    via_numpy = estimate_joint_success(dataclasses.replace(base, replications=np.int64(300)))
    assert via_numpy == plain


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -1.0])
def test_joint_success_rejects_bad_thresholds(base, threshold):
    # nan and inf used to read as success 0.0 and -1.0 as success 1.0
    with pytest.raises(ValueError, match="threshold must be finite and >= 0, got"):
        estimate_joint_success(dataclasses.replace(base, replications=10, threshold=threshold))


@pytest.mark.parametrize("workers", [1, 2])
def test_joint_grid_columns_equal_single_threshold_runs(base, workers):
    # the grid compares one shared draw against every threshold
    sc = dataclasses.replace(base, replications=700)
    thresholds = [0.0, 0.01, 0.1, 1.0, 10.0]
    (grid,) = simulate._estimate_joint_grid([(sc, thresholds)], workers=workers)
    singles = [estimate_joint_success(dataclasses.replace(sc, threshold=threshold),
                                      workers=workers) for threshold in thresholds]
    assert grid == singles


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -1.0])
def test_joint_grid_rejects_bad_thresholds_before_a_pool_starts(base, pool_starts, threshold):
    with pytest.raises(ValueError, match="threshold must be finite and >= 0, got"):
        simulate._estimate_joint_grid([(dataclasses.replace(base, replications=1000),
                                        [0.1, threshold])], workers=2)
    assert pool_starts == []


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -1.0])
def test_conditional_success_rejects_bad_thresholds(base, threshold):
    # nan used to read as success 0.0 and -1.0 as success 1.0
    sc = dataclasses.replace(base, replications=10)
    with pytest.raises(ValueError, match="threshold must be finite and >= 0, got"):
        estimate_conditional_success(3, sc, thresholds=[0.1, threshold])


def test_conditional_success_at_zero_threshold_is_one(base):
    (result,) = estimate_conditional_success(3, dataclasses.replace(base, replications=100),
                                             thresholds=[0.0])
    assert result.estimate == 1.0


def test_conditioned_inner_count_statistics(base):
    # inner points uniform in the footprint: mean squared radius = r^2/2
    rng = np.random.default_rng(4)
    r2 = []
    for _ in range(2000):
        real = sample_conditioned(4, base.params, base.speed, 1.0, rng)
        r2.extend(real.r0[:4] ** 2)
    expected = base.params.antenna.r_out**2 / 2.0
    assert np.mean(r2) == pytest.approx(expected, rel=0.03)


def test_mobility_containment_frequency(base):
    # the marks the sampler draws move a node from x_start into the
    # footprint with the containment probability
    r_out, t, x_start, n = base.params.antenna.r_out, 1.0, 20.0, 20_000
    rng = np.random.default_rng(5)
    for speed in _SPEEDS.values():
        moved = simulate._moved(rng, np.full(n, x_start), speed, t)
        freq = float(np.mean(moved <= r_out))
        expected = containment_cdf(r_out, x_start, speed, t)
        se = math.sqrt(expected * (1.0 - expected) / n)
        assert freq == pytest.approx(expected, abs=4.0 * se)


# ---------------------------------------------------------------------------
# interference and SINR values
# ---------------------------------------------------------------------------


def _single_node_realization(x, is_mobile=False, speed=0.0, angle=0.0, t=1.0):
    moved = displaced_distance(x, speed, angle, t) if is_mobile else x
    return NetworkRealization(r0=np.array([x]), rt=np.array([moved]))


_EMPTY = NetworkRealization(r0=np.empty(0), rt=np.empty(0))


def test_interference_hand_value(base):
    # one main-lobe interferer at ground distance 10: gain 2, slant^2 = 2600
    real = _single_node_realization(10.0)
    got = interference(real, base.params, "0", fading=np.array([1.0]))
    assert got == pytest.approx(2.0 / 2600.0**2, rel=1e-12)


def test_interference_gain_zones(base):
    fading = np.array([1.0])
    inner = interference(_single_node_realization(10.0), base.params, "0", fading=fading)
    side = interference(_single_node_realization(20.0), base.params, "0", fading=fading)
    outside = interference(_single_node_realization(30.0), base.params, "0", fading=fading)
    assert inner == pytest.approx(2.0 / (50.0**2 + 10.0**2) ** 2)
    assert side == pytest.approx(0.5 / (50.0**2 + 20.0**2) ** 2)
    assert outside == 0.0


def test_interference_moves_with_the_node(base):
    real = _single_node_realization(30.0, is_mobile=True, speed=10.0, angle=0.0, t=1.0)
    fading = np.array([1.0])
    assert interference(real, base.params, "0", fading=fading) == 0.0
    moved = interference(real, base.params, "t", fading=fading)
    assert moved == pytest.approx(0.5 / (50.0**2 + 20.0**2) ** 2)


def test_interference_refuses_a_block_of_replications(base):
    block = sample_network(base.params, base.speed, 1.0, np.random.default_rng(1), size=4)
    assert np.unique(block.owner).size == 4
    fading = np.ones(block.n)
    with pytest.raises(ValueError, match="block of 4"):
        interference(block, base.params, "0", fading=fading)
    with pytest.raises(ValueError, match="block of 4"):
        sinr(block, base.params, "0", serving_fading=1.0, interferer_fading=fading)
    # no owner, an empty owner and a block of one replication are single replications
    one = dataclasses.replace(block, owner=np.full(block.n, 2))
    single = interference(one, base.params, "0", fading=fading)
    assert single == interference(dataclasses.replace(block, owner=None), base.params, "0",
                                  fading=fading)
    assert single > 0.0
    assert interference(dataclasses.replace(_EMPTY, owner=np.empty(0, dtype=int)),
                        base.params, "0", fading=np.empty(0)) == 0.0


def test_sinr_no_interferer_value(base):
    got = sinr(_EMPTY, base.params, "0", serving_fading=1.0,
               interferer_fading=np.empty(0))
    # signal 2 * 50^-4 over noise 1e-10
    assert got == pytest.approx(3200.0, rel=1e-12)


def test_sinr_infinite_when_noise_free():
    sc = baseline_scenario(noise=0.0)
    got = sinr(_EMPTY, sc.params, "0", serving_fading=1.0,
               interferer_fading=np.empty(0))
    assert math.isinf(got)


# ---------------------------------------------------------------------------
# estimator statistics
# ---------------------------------------------------------------------------


def test_estimator_result_invariants(base):
    est = estimate_joint_success(base)
    for res in (est.joint, est.marginal_0, est.marginal_t):
        assert 0.0 <= res.estimate <= 1.0
        assert res.replications == base.replications
        expected_se = math.sqrt(
            res.estimate * (1.0 - res.estimate) / (res.replications - 1))
        assert res.std_error == pytest.approx(expected_se, rel=1e-12)


def test_marginals_agree_between_instants(base):
    sc = baseline_scenario(replications=30_000)
    est = estimate_joint_success(sc)
    gap = abs(est.marginal_0.estimate - est.marginal_t.estimate)
    combined = math.hypot(est.marginal_0.std_error, est.marginal_t.std_error)
    assert gap <= 3.0 * combined


def test_empirical_pmf_fields(base):
    pmf = estimate_conditional_pmf(5, base, n_max=20)
    assert pmf.probs.shape == (21,)
    assert float(np.sum(pmf.probs)) + pmf.tail_mass == pytest.approx(1.0, abs=1e-12)
    assert pmf.m == 5 and pmf.t == base.t_gap


def test_conditional_success_threshold_grid(base):
    thresholds = [0.05, 0.1, 0.4]
    results = estimate_conditional_success(5, base, thresholds=thresholds)
    assert len(results) == 3
    values = [r.estimate for r in results]
    # success probability falls as the threshold rises
    assert values[0] >= values[1] >= values[2]
    for r in results:
        assert 0.0 <= r.estimate <= 1.0 and r.std_error >= 0.0


def test_retx_none_when_no_failures():
    sc = baseline_scenario(**{"lambda": 0.0}, threshold_db=-200.0, replications=500)
    est = estimate_joint_success(sc)
    assert est.retx_given_fail is None
    assert est.joint.estimate == 1.0


# ---------------------------------------------------------------------------
# block sums against the scalar path
# ---------------------------------------------------------------------------


def _replication(block, i):
    """Replication i of a block as a single-replication realization."""
    mine = block.owner == i
    return NetworkRealization(
        r0=block.r0[mine], rt=block.rt[mine],
        n_inner=int(np.count_nonzero(mine[: block.n_inner])),
    )


@pytest.mark.parametrize("m", [None, 2])
@pytest.mark.parametrize("at_time", ["0", "t"])
def test_block_interference_and_sinr_match_scalar_path(m, at_time):
    # a sparse network, so that the block holds replications with no node at
    # all and replications whose nodes all lie outside the footprint at the
    # chosen instant (arrivals at "0", departures at "t"); the trailing
    # replication is empty for this stream, which guards minlength
    sc = baseline_scenario(**{"lambda": 0.0004}, t_gap=1.0)
    p, size = sc.params, 40
    thresholds = [10.0 ** (db / 10.0) for db in (0, 10, 20, 30, 40)]
    rng = np.random.Generator(np.random.Philox(key=[4, 0]))
    if m is None:
        block = sample_network(p, sc.speed, sc.t_gap, rng, size=size)
    else:
        block = sample_conditioned(m, p, sc.speed, sc.t_gap, rng, size=size)
    replay = np.random.Generator(np.random.Philox())
    replay.bit_generator.state = rng.bit_generator.state
    batched = simulate._block_interference(block, p, at_time, rng, size)
    success = simulate._block_success(sc, batched, rng, thresholds)

    # the same draws, in the order the block kernels make them
    d = block.distances(at_time)
    active = p.antenna.gain_at_sq(d * d) > 0.0
    fading = np.zeros(block.n)
    fading[active] = replay.gamma(p.fading.k, p.fading.omega, np.count_nonzero(active))
    serving = replay.gamma(p.fading.k, p.fading.omega, size)

    counts = np.bincount(block.owner, minlength=size)
    active_counts = np.bincount(block.owner[active], minlength=size)
    if m is None:
        assert counts[-1] == 0
        assert np.any((counts > 0) & (active_counts == 0))
    assert np.any(active_counts > 0)
    assert success.any() and not success.all()
    for i in range(size):
        one, mine = _replication(block, i), block.owner == i
        scalar = interference(one, p, at_time, fading=fading[mine])
        if active_counts[i] == 0:
            assert batched[i] == 0.0 and scalar == 0.0
        else:
            assert batched[i] == pytest.approx(scalar, rel=1e-12, abs=0.0)
        value = sinr(one, p, at_time, serving_fading=serving[i], interferer_fading=fading[mine])
        assert [value >= thr for thr in thresholds] == success[:, i].tolist()
