"""Scenario parameters, speed distributions, validation, and config I/O.

A raw config (flat JSON) is parsed into a :class:`ScenarioConfig`, then
checked and normalized into a :class:`ValidatedScenario`.  All dB-to-linear
conversion happens exactly once, at validation time; downstream code only
ever sees linear quantities and the footprint radii (never antenna angles).
"""

from __future__ import annotations

import abc
import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

log = logging.getLogger(__name__)

TWO_PI = 2.0 * math.pi

_CONFIG_KEYS = {
    "lambda", "p_mobile", "height", "alpha", "noise", "k", "omega",
    "g_main", "g_side", "r_in", "r_out", "theta_m_deg", "theta_s_deg",
    "speed", "t_gap", "threshold_db", "m_initial", "replications", "seed",
}

_SPEED_KEYS = {
    "fixed": {"kind", "v"},
    "uniform": {"kind", "v_min", "v_max"},
    "tabulated": {"kind", "table"},
}


class ConfigError(ValueError):
    """Validation failure; ``violations`` lists every offending field."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


# thresholds of the conditional- and joint-success sweeps: -20..10 dB in 2 dB steps
DEFAULT_TDB_GRID = tuple(float(db) for db in range(-20, 12, 2))


def db_to_linear(value_db: float) -> float:
    return 10.0 ** (value_db / 10.0)


def linear_to_db(value: float) -> float:
    return 10.0 * math.log10(value)


# ---------------------------------------------------------------------------
# Speed distributions
# ---------------------------------------------------------------------------


class SpeedDistribution(abc.ABC):
    """Distribution of a mobile node's speed; support must be bounded."""

    kind: str = ""

    @abc.abstractmethod
    def cdf(self, v: float) -> float:
        ...

    @abc.abstractmethod
    def pdf(self, v: float) -> float:
        """Density at v; an array of speeds gives an array of densities."""

    @property
    @abc.abstractmethod
    def support_min(self) -> float:
        ...

    @property
    @abc.abstractmethod
    def support_max(self) -> float:
        ...

    @property
    def atom(self) -> float | None:
        """The single point of support for degenerate distributions, else None."""
        return None

    @property
    def pdf_breakpoints(self) -> tuple[float, ...]:
        """Speeds where the density is non-smooth (quadrature split points)."""
        return (self.support_min, self.support_max)

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        ...

    @abc.abstractmethod
    def to_dict(self) -> dict:
        ...


@dataclass(frozen=True)
class FixedSpeed(SpeedDistribution):
    """Every mobile node moves at the same speed ``v``."""

    v: float
    kind: str = field(default="fixed", init=False)

    def cdf(self, v: float) -> float:
        return 1.0 if v >= self.v else 0.0

    def pdf(self, v: float) -> float:
        raise TypeError("a fixed speed has no density; use the atom property")

    @property
    def support_min(self) -> float:
        return self.v

    @property
    def support_max(self) -> float:
        return self.v

    @property
    def atom(self) -> float | None:
        return self.v

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.v)

    def to_dict(self) -> dict:
        return {"kind": "fixed", "v": self.v}


@dataclass(frozen=True)
class UniformSpeed(SpeedDistribution):
    """Speed uniform on [v_min, v_max]."""

    v_min: float
    v_max: float
    kind: str = field(default="uniform", init=False)

    def cdf(self, v: float) -> float:
        if v <= self.v_min:
            return 0.0
        if v >= self.v_max:
            return 1.0
        return (v - self.v_min) / (self.v_max - self.v_min)

    def pdf(self, v: float) -> float:
        speeds = np.asarray(v)
        inside = (self.v_min <= speeds) & (speeds <= self.v_max)
        density = np.where(inside, 1.0 / (self.v_max - self.v_min), 0.0)
        return density if speeds.ndim else float(density)

    @property
    def support_min(self) -> float:
        return self.v_min

    @property
    def support_max(self) -> float:
        return self.v_max

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.v_min, self.v_max, size)

    def to_dict(self) -> dict:
        return {"kind": "uniform", "v_min": self.v_min, "v_max": self.v_max}


class TabulatedSpeed(SpeedDistribution):
    """Piecewise-linear density given as (speed, density) rows.

    The table is renormalized at load so the trapezoid mass is exactly 1;
    the cdf is the exact integral of the interpolated density, and sampling
    inverts it segment by segment.
    """

    kind = "tabulated"

    def __init__(self, table):
        rows = np.array(table, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != 2 or rows.shape[0] < 2:
            raise ConfigError(["speed.table must be a list of [v, pdf] rows (>= 2 rows)"])
        speeds = rows[:, 0]
        dens = rows[:, 1]
        problems = []
        if np.any(np.diff(speeds) <= 0):
            problems.append("speed.table speeds must be strictly increasing")
        if np.any(speeds < 0):
            problems.append("speed.table speeds must be >= 0")
        if np.any(dens < 0):
            problems.append("speed.table densities must be >= 0")
        if problems:
            raise ConfigError(problems)
        mass = float(np.sum(0.5 * (dens[1:] + dens[:-1]) * np.diff(speeds)))
        if not math.isfinite(mass) or mass <= 0:
            raise ConfigError(["speed.table must carry positive probability mass"])
        if abs(mass - 1.0) > 1e-8:
            log.warning("speed table mass %.6g renormalized to 1", mass)
        dens = dens / mass
        self._speeds = speeds
        self._dens = dens
        # cumulative trapezoid, exact for the piecewise-linear density
        seg = 0.5 * (dens[1:] + dens[:-1]) * np.diff(speeds)
        self._cum = np.concatenate([[0.0], np.cumsum(seg)])
        self._cum[-1] = 1.0

    def cdf(self, v: float) -> float:
        if v <= self._speeds[0]:
            return 0.0
        if v >= self._speeds[-1]:
            return 1.0
        i = int(np.searchsorted(self._speeds, v, side="right")) - 1
        dv = v - self._speeds[i]
        f0 = self._dens[i]
        slope = (self._dens[i + 1] - f0) / (self._speeds[i + 1] - self._speeds[i])
        return float(self._cum[i] + f0 * dv + 0.5 * slope * dv * dv)

    def pdf(self, v: float) -> float:
        density = np.interp(v, self._speeds, self._dens, left=0.0, right=0.0)
        return density if np.ndim(v) else float(density)

    @property
    def support_min(self) -> float:
        return float(self._speeds[0])

    @property
    def support_max(self) -> float:
        return float(self._speeds[-1])

    @property
    def pdf_breakpoints(self) -> tuple[float, ...]:
        return tuple(float(v) for v in self._speeds)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.random(size)
        i = np.clip(np.searchsorted(self._cum, u, side="right") - 1, 0, len(self._speeds) - 2)
        du = u - self._cum[i]
        f0 = self._dens[i]
        width = self._speeds[i + 1] - self._speeds[i]
        slope = (self._dens[i + 1] - f0) / width
        disc = np.maximum(f0 * f0 + 2.0 * slope * du, 0.0)
        denom = f0 + np.sqrt(disc)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = np.where(denom > 0, 2.0 * du / denom, 0.0)
        return self._speeds[i] + np.clip(x, 0.0, width)

    def to_dict(self) -> dict:
        return {"kind": "tabulated", "table": [[float(v), float(f)] for v, f in zip(self._speeds, self._dens)]}

    def __eq__(self, other):
        return (
            isinstance(other, TabulatedSpeed)
            and np.array_equal(self._speeds, other._speeds)
            and np.array_equal(self._dens, other._dens)
        )

    def __repr__(self):
        return f"TabulatedSpeed({len(self._speeds)} rows on [{self.support_min}, {self.support_max}])"


def speed_from_dict(d: dict) -> SpeedDistribution:
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError(["speed must be an object with a 'kind' field"])
    kind = d["kind"]
    if kind not in _SPEED_KEYS:
        raise ConfigError([f"speed.kind must be one of fixed|uniform|tabulated, got {kind!r}"])
    unknown = set(d) - _SPEED_KEYS[kind]
    if unknown:
        raise ConfigError([f"unknown speed keys: {sorted(unknown)}"])
    missing = _SPEED_KEYS[kind] - set(d)
    if missing:
        raise ConfigError([f"missing speed keys: {sorted(missing)}"])
    if kind == "fixed":
        v = float(d["v"])
        if v < 0:
            raise ConfigError(["speed.v must be >= 0"])
        return FixedSpeed(v)
    if kind == "uniform":
        lo, hi = float(d["v_min"]), float(d["v_max"])
        problems = []
        if lo < 0:
            problems.append("speed.v_min must be >= 0")
        if hi <= lo:
            problems.append("speed.v_max must exceed speed.v_min")
        if problems:
            raise ConfigError(problems)
        return UniformSpeed(lo, hi)
    return TabulatedSpeed(d["table"])


# ---------------------------------------------------------------------------
# Physical parameter blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FadingParams:
    k: int  # gamma shape, integer
    omega: float  # gamma scale

    @property
    def mean(self) -> float:
        return self.k * self.omega


@dataclass(frozen=True)
class AntennaPattern:
    """Two-level sectorized gain over ground distance.

    Main-lobe gain out to ``r_in``, side-lobe gain out to ``r_out``, zero
    beyond; the gain is therefore monotone non-increasing in distance.
    """

    g_main: float
    g_side: float
    r_in: float
    r_out: float

    def gain_at_sq(self, ground_distance_sq):
        d2 = np.asarray(ground_distance_sq, dtype=float)
        out = np.where(
            d2 <= self.r_in * self.r_in,
            self.g_main,
            np.where(d2 <= self.r_out * self.r_out, self.g_side, 0.0),
        )
        return float(out) if out.ndim == 0 else out

    def gain_at(self, ground_distance):
        """Antenna gain seen at a given ground distance from the serving node."""
        d = np.asarray(ground_distance, dtype=float)
        return self.gain_at_sq(d * d)


@dataclass(frozen=True)
class NetworkParams:
    lam: float  # node density per unit area
    p_mobile: float  # fraction of mobile nodes
    height: float  # common altitude
    alpha: float  # path-loss exponent, > 2
    noise: float  # noise power, >= 0
    fading: FadingParams
    antenna: AntennaPattern


@dataclass(frozen=True)
class ScenarioConfig:
    """Raw, unchecked config values exactly as parsed from JSON."""

    lam: Any = None
    p_mobile: Any = None
    height: Any = None
    alpha: Any = None
    noise: Any = None
    k: Any = None
    omega: Any = None
    g_main: Any = None
    g_side: Any = None
    r_in: Any = None
    r_out: Any = None
    theta_m_deg: Any = None
    theta_s_deg: Any = None
    speed: Any = None
    t_gap: Any = 1.0
    threshold_db: Any = -10.0
    m_initial: Any = None
    replications: Any = 100_000
    seed: Any = 0


@dataclass(frozen=True)
class ValidatedScenario:
    """Checked, normalized scenario; every field is in linear units."""

    params: NetworkParams
    speed: SpeedDistribution
    t_gap: float
    threshold: float  # linear SINR threshold
    m_initial: int | None
    replications: int
    seed: int


def config_from_dict(raw: dict) -> ScenarioConfig:
    """Build a raw config from a flat dict, rejecting unknown keys."""
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a JSON object"])
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError([f"unknown config keys: {sorted(unknown)}"])
    kwargs = {("lam" if k == "lambda" else k): v for k, v in raw.items()}
    return ScenarioConfig(**kwargs)


def load_config(path: str | Path) -> ScenarioConfig:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"config is not valid JSON: {exc}"]) from exc
    return config_from_dict(raw)


def _check_number(problems, name, value, *, positive=False, nonneg=False):
    if value is None:
        problems.append(f"{name} is required")
        return None
    try:
        x = float(value)
    except (TypeError, ValueError):
        problems.append(f"{name} must be a number")
        return None
    if not math.isfinite(x):
        problems.append(f"{name} must be finite")
        return None
    if positive and x <= 0:
        problems.append(f"{name} must be > 0")
        return None
    if nonneg and x < 0:
        problems.append(f"{name} must be >= 0")
        return None
    return x


def _check_int(problems, name, value, *, minimum=None, maximum=None):
    if value is None:
        problems.append(f"{name} is required")
        return None
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and float(value).is_integer())
    ):
        problems.append(f"{name} must be an integer")
        return None
    x = int(value)
    if minimum is not None and x < minimum:
        problems.append(f"{name} must be >= {minimum}")
        return None
    if maximum is not None and x > maximum:
        problems.append(f"{name} must be <= {maximum}")
        return None
    return x


def validate(config: ScenarioConfig | ValidatedScenario) -> ValidatedScenario:
    """Check every invariant and normalize; idempotent on validated input.

    Raises :class:`ConfigError` listing all violated constraints by field
    name, not just the first.
    """
    if isinstance(config, ValidatedScenario):
        return _revalidate(config)

    problems: list[str] = []

    lam = _check_number(problems, "lambda", config.lam, nonneg=True)
    p_mobile = _check_number(problems, "p_mobile", config.p_mobile)
    if p_mobile is not None and not (0.0 <= p_mobile <= 1.0):
        problems.append("p_mobile must lie in [0, 1]")
        p_mobile = None
    height = _check_number(problems, "height", config.height, positive=True)
    alpha = _check_number(problems, "alpha", config.alpha)
    if alpha is not None and alpha <= 2.0:
        problems.append("alpha must exceed 2")
        alpha = None
    noise = _check_number(problems, "noise", config.noise, nonneg=True)
    k = _check_int(problems, "k", config.k, minimum=1, maximum=8)
    omega = _check_number(problems, "omega", config.omega, positive=True)
    g_main = _check_number(problems, "g_main", config.g_main, positive=True)
    g_side = _check_number(problems, "g_side", config.g_side, nonneg=True)
    if g_main is not None and g_side is not None and g_side > g_main:
        problems.append("g_side must not exceed g_main")

    r_in, r_out = _resolve_radii(problems, config, height)

    speed = None
    if config.speed is None:
        problems.append("speed is required")
    else:
        try:
            speed = (
                config.speed
                if isinstance(config.speed, SpeedDistribution)
                else speed_from_dict(config.speed)
            )
        except ConfigError as exc:
            problems.extend(exc.violations)

    t_gap = _check_number(problems, "t_gap", config.t_gap, nonneg=True)
    threshold_db = _check_number(problems, "threshold_db", config.threshold_db)
    m_initial = None
    if config.m_initial is not None:
        m_initial = _check_int(problems, "m_initial", config.m_initial, minimum=0)
    replications = _check_int(problems, "replications", config.replications, minimum=1)
    seed = _check_int(problems, "seed", config.seed, minimum=0)
    if seed is not None and seed > 2**64 - 1:
        problems.append("seed must fit in 64 bits")
        seed = None

    if problems:
        raise ConfigError(problems)

    params = NetworkParams(
        lam=lam,
        p_mobile=p_mobile,
        height=height,
        alpha=alpha,
        noise=noise,
        fading=FadingParams(k=k, omega=omega),
        antenna=AntennaPattern(g_main=g_main, g_side=g_side, r_in=r_in, r_out=r_out),
    )
    return ValidatedScenario(
        params=params,
        speed=speed,
        t_gap=t_gap,
        threshold=db_to_linear(threshold_db),
        m_initial=m_initial,
        replications=replications,
        seed=seed,
    )


def _resolve_radii(problems, config: ScenarioConfig, height):
    """Footprint radii from r_in/r_out or tilt angles; both must agree."""
    r_in = r_out = None
    have_radii = config.r_in is not None or config.r_out is not None
    have_angles = config.theta_m_deg is not None or config.theta_s_deg is not None
    if not have_radii and not have_angles:
        problems.append("either (r_in, r_out) or (theta_m_deg, theta_s_deg) is required")
        return None, None
    if have_radii:
        r_in = _check_number(problems, "r_in", config.r_in, positive=True)
        r_out = _check_number(problems, "r_out", config.r_out, positive=True)
    if have_angles:
        th_m = _check_number(problems, "theta_m_deg", config.theta_m_deg, positive=True)
        th_s = _check_number(problems, "theta_s_deg", config.theta_s_deg, positive=True)
        ok_angles = th_m is not None and th_s is not None
        if ok_angles and not (th_m < th_s < 90.0):
            problems.append("angles must satisfy 0 < theta_m_deg < theta_s_deg < 90")
            ok_angles = False
        if ok_angles and height is not None:
            a_in = height * math.tan(math.radians(th_m))
            a_out = height * math.tan(math.radians(th_s))
            if have_radii:
                for name, r, a in (("r_in", r_in, a_in), ("r_out", r_out, a_out)):
                    if r is not None and abs(r - a) > 1e-9 * max(abs(r), abs(a)):
                        problems.append(
                            f"{name}={r!r} conflicts with the supplied angles (implies {a!r})"
                        )
            else:
                r_in, r_out = a_in, a_out
    if r_in is not None and r_out is not None and r_in >= r_out:
        problems.append("r_in must be < r_out")
    return r_in, r_out


def _revalidate(scenario: ValidatedScenario) -> ValidatedScenario:
    p, ant = scenario.params, scenario.params.antenna
    problems = [f"{name} must be finite" for name, x in scenario_to_dict(scenario).items()
                if isinstance(x, float) and not math.isfinite(x)]
    checks = [
        (p.lam >= 0, "lambda must be >= 0"),
        (0.0 <= p.p_mobile <= 1.0, "p_mobile must lie in [0, 1]"),
        (p.height > 0, "height must be > 0"),
        (p.alpha > 2, "alpha must exceed 2"),
        (p.noise >= 0, "noise must be >= 0"),
        (isinstance(p.fading.k, int) and 1 <= p.fading.k <= 8, "k must be an integer in [1, 8]"),
        (p.fading.omega > 0, "omega must be > 0"),
        (ant.g_main > 0, "g_main must be > 0"),
        (0 <= ant.g_side <= ant.g_main, "g_side must lie in [0, g_main]"),
        (0 < ant.r_in < ant.r_out, "r_in must be < r_out"),
        (scenario.t_gap >= 0, "t_gap must be >= 0"),
        (scenario.threshold > 0, "threshold must be > 0"),
        (scenario.replications >= 1, "replications must be >= 1"),
        (scenario.seed >= 0, "seed must be >= 0"),
    ]
    problems += [msg for ok, msg in checks if not ok]
    if scenario.m_initial is not None and scenario.m_initial < 0:
        problems.append("m_initial must be >= 0")
    if problems:
        raise ConfigError(problems)
    return scenario


# ---------------------------------------------------------------------------
# Normalized serialization (round-trips bit-for-bit)
# ---------------------------------------------------------------------------


def scenario_to_dict(scenario: ValidatedScenario) -> dict:
    p = scenario.params
    return {
        "lambda": p.lam,
        "p_mobile": p.p_mobile,
        "height": p.height,
        "alpha": p.alpha,
        "noise": p.noise,
        "k": p.fading.k,
        "omega": p.fading.omega,
        "g_main": p.antenna.g_main,
        "g_side": p.antenna.g_side,
        "r_in": p.antenna.r_in,
        "r_out": p.antenna.r_out,
        "speed": scenario.speed.to_dict(),
        "t_gap": scenario.t_gap,
        "threshold": scenario.threshold,
        "m_initial": scenario.m_initial,
        "replications": scenario.replications,
        "seed": scenario.seed,
    }


def scenario_from_dict(d: dict) -> ValidatedScenario:
    """Inverse of :func:`scenario_to_dict`; threshold is already linear."""
    expected = {
        "lambda", "p_mobile", "height", "alpha", "noise", "k", "omega",
        "g_main", "g_side", "r_in", "r_out", "speed", "t_gap", "threshold",
        "m_initial", "replications", "seed",
    }
    unknown = set(d) - expected
    if unknown:
        raise ConfigError([f"unknown scenario keys: {sorted(unknown)}"])
    missing = expected - set(d)
    if missing:
        raise ConfigError([f"missing scenario keys: {sorted(missing)}"])
    params = NetworkParams(
        lam=float(d["lambda"]),
        p_mobile=float(d["p_mobile"]),
        height=float(d["height"]),
        alpha=float(d["alpha"]),
        noise=float(d["noise"]),
        fading=FadingParams(k=int(d["k"]), omega=float(d["omega"])),
        antenna=AntennaPattern(
            g_main=float(d["g_main"]),
            g_side=float(d["g_side"]),
            r_in=float(d["r_in"]),
            r_out=float(d["r_out"]),
        ),
    )
    scenario = ValidatedScenario(
        params=params,
        speed=speed_from_dict(d["speed"]),
        t_gap=float(d["t_gap"]),
        threshold=float(d["threshold"]),
        m_initial=None if d["m_initial"] is None else int(d["m_initial"]),
        replications=int(d["replications"]),
        seed=int(d["seed"]),
    )
    return _revalidate(scenario)


def scenario_to_json(scenario: ValidatedScenario) -> str:
    return json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True)


def scenario_from_json(text: str) -> ValidatedScenario:
    return scenario_from_dict(json.loads(text))
