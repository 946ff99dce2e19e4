"""Scenario parameters, speed laws, the scenario and argument checks, and config I/O.

Every rule on a scenario's fields lives in one checker, ``_scenario``, which
collects all violations and builds the :class:`ValidatedScenario`.  Each
entry point goes through it: :func:`validate` of a raw config, the dict of
its JSON keys (after resolving the footprint radii from beam angles and
converting the threshold from dB), :func:`validate` of an already validated
scenario, and :func:`scenario_from_dict` / :func:`scenario_from_json`.
Speed laws check their own parameters when built, so a law that exists is
valid.  A speed density is piecewise linear, given by its knots:
:class:`UniformSpeed` is the two-knot :class:`TabulatedSpeed`, with its own
serialized form and sampler.  Downstream code only ever sees linear
quantities and the footprint radii (never antenna angles).
"""

from __future__ import annotations

import json
import logging
import math
import numbers
import operator
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

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
    """10^(dB/10); inf where that overflows a float."""
    try:
        return 10.0 ** (value_db / 10.0)
    except OverflowError:
        return math.inf


def linear_to_db(value: float) -> float:
    return 10.0 * math.log10(value)


# ---------------------------------------------------------------------------
# Field rules: every rule on a scenario field is written once, here
# ---------------------------------------------------------------------------

_AT_LEAST_0 = (lambda x: x >= 0, "must be >= 0")
_ABOVE_0 = (lambda x: x > 0, "must be > 0")

# the rule on each real field of a scenario, in linear units
_REAL_RULES = {
    "lambda": _AT_LEAST_0,
    "p_mobile": (lambda x: 0 <= x <= 1, "must lie in [0, 1]"),
    "height": _ABOVE_0,
    "alpha": (lambda x: x > 2, "must exceed 2"),
    "noise": _AT_LEAST_0,
    "omega": _ABOVE_0,
    "g_main": _ABOVE_0,
    "g_side": _AT_LEAST_0,
    "r_in": _ABOVE_0,
    "r_out": _ABOVE_0,
    "t_gap": _AT_LEAST_0,
    "threshold": _ABOVE_0,
}
# the inclusive range of each integer field (no upper end where None);
# m_initial may also be None
_INTEGER_RANGES = {
    "k": (1, 8), "m_initial": (0, None), "replications": (1, None), "seed": (0, 2**64 - 1),
}
_SCENARIO_KEYS = {*_REAL_RULES, *_INTEGER_RANGES, "speed"}


# the rules on the arguments of the library's functions, which the command line shares
def check_gap(t: float) -> None:
    if not 0 <= t < np.inf:
        raise ValueError(f"t must be finite and >= 0, got {t!r}")


def check_threshold(threshold: float) -> None:
    if not 0 <= threshold < np.inf:
        raise ValueError(f"threshold must be finite and >= 0, got {threshold!r}")


def check_count(m: int) -> int:
    """``m`` as an int, if it is a non-negative integer of any integer type."""
    try:
        count = operator.index(m)
    except TypeError:
        count = -1
    if count < 0:
        raise ValueError(f"m must be a non-negative integer, got {m!r}")
    return count


def check_n_max(n_max: int) -> int:
    """``n_max`` as an int, if it is a non-negative integer of any integer type."""
    try:
        limit = operator.index(n_max)
    except TypeError:
        raise ValueError(f"n_max must be an integer, got {n_max!r}") from None
    if limit < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max!r}")
    return limit


def _real(problems: list[str], name: str, value, rule=None) -> float | None:
    """``value`` as a float if it is a finite number keeping ``rule``, else None.

    The reason for a None is appended to ``problems``.
    """
    if value is None:
        problems.append(f"{name} is required")
    elif isinstance(value, bool) or not isinstance(value, numbers.Real):
        problems.append(f"{name} must be a number")
    elif not abs(value) <= sys.float_info.max:  # also NaN, and ints too large for a float
        problems.append(f"{name} must be finite")
    elif rule is not None and not rule[0](value):
        problems.append(f"{name} {rule[1]}")
    else:
        return float(value)
    return None


def _integer(problems: list[str], name: str, value, lo: int, hi: int | None) -> int | None:
    """``value`` as an int if it is a whole number in [lo, hi], else None.

    The reason for a None is appended to ``problems``.
    """
    if value is None:
        problems.append(f"{name} is required")
    elif isinstance(value, bool) or not (
        isinstance(value, numbers.Integral)
        or (isinstance(value, numbers.Real) and float(value).is_integer())
    ):
        problems.append(f"{name} must be an integer")
    elif value < lo:
        problems.append(f"{name} must be >= {lo}")
    elif hi is not None and value > hi:
        problems.append(f"{name} must be <= {hi}")
    else:
        return int(value)
    return None


# ---------------------------------------------------------------------------
# Speed distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixedSpeed:
    """Every mobile node moves at the same speed ``v``."""

    v: float
    kind: str = field(default="fixed", init=False)

    def __post_init__(self):
        problems: list[str] = []
        speed = _real(problems, "speed.v", self.v, _AT_LEAST_0)
        if problems:
            raise ConfigError(problems)
        object.__setattr__(self, "v", speed)

    def cdf(self, v: float) -> float:
        return 1.0 if v >= self.v else 0.0

    def pdf(self, v: float) -> float:
        raise TypeError("a fixed speed has no density; use the atom property")

    def density_knots(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        raise TypeError("a fixed speed has no density; use the atom property")

    @property
    def support_min(self) -> float:
        return self.v

    @property
    def support_max(self) -> float:
        return self.v

    @property
    def atom(self) -> float:
        return self.v

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.v)

    def to_dict(self) -> dict:
        return {"kind": "fixed", "v": self.v}


class TabulatedSpeed:
    """Piecewise-linear density given as (speed, density) rows.

    The densities are renormalized at load so the trapezoid mass is exactly
    1.  The table is kept as given and is what :meth:`to_dict` writes, so a
    law rebuilt from that form repeats the one renormalization and has the
    same knots bit for bit.  The cdf is the exact integral of the
    interpolated density.  Sampling inverts it within a piece in units of
    the piece's mass and width, where its density has mean 1, so no density
    is squared and one near the float limit keeps its draws.  Two
    laws are equal, and hash equal, when they have the same class and the
    same knots.
    """

    kind = "tabulated"
    atom = None  # no single point of support, unlike FixedSpeed

    def __init__(self, table):
        try:
            rows = np.array(table, dtype=float)
        except (TypeError, ValueError):
            rows = np.empty(0)  # not numbers: reported as not a table below
        if rows.ndim != 2 or rows.shape[1] != 2 or rows.shape[0] < 2:
            raise ConfigError(["speed.table must be a list of [v, pdf] rows (>= 2 rows)"])
        speeds = rows[:, 0]
        dens = rows[:, 1]
        problems = []
        if not np.all(np.isfinite(rows)):
            problems.append("speed.table entries must be finite")
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
        self._table = rows
        with np.errstate(over="ignore"):  # _set_knots rejects an infinite density
            self._set_knots(speeds, dens / mass)

    def _set_knots(self, speeds: np.ndarray, dens: np.ndarray) -> None:
        """Store the knots of a density of mass 1 and its cumulative masses.

        The scalar paths read the knots as floats, the vectorised ones as arrays.
        A subnormal width or table mass makes a density infinite.
        """
        if not np.all(np.isfinite(dens)):
            raise ConfigError(["speed density must be finite (subnormal speed range or mass)"])
        self._knots = tuple(speeds.tolist()), tuple(dens.tolist())
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
        """Density at v; an array of speeds gives an array of densities."""
        density = np.interp(v, self._speeds, self._dens, left=0.0, right=0.0)
        return density if np.ndim(v) else float(density)

    def density_knots(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """(speeds, densities) at the knots of the piecewise-linear density.

        The density interpolates linearly between consecutive knots and is 0
        outside the first and last.
        """
        return self._knots

    @property
    def pdf_breakpoints(self) -> tuple[float, ...]:
        """Speeds where the density is non-smooth (quadrature split points)."""
        return self._knots[0]

    @property
    def support_min(self) -> float:
        return self._knots[0][0]

    @property
    def support_max(self) -> float:
        return self._knots[0][-1]

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.random(size)
        i = np.clip(np.searchsorted(self._cum, u, side="right") - 1, 0, len(self._speeds) - 2)
        f0, f1 = self._dens[i], self._dens[i + 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            s = (u - self._cum[i]) / (self._cum[i + 1] - self._cum[i])
            mean = 0.5 * f0 + 0.5 * f1
            g0, g1 = f0 / mean, f1 / mean
            denom = g0 + np.sqrt(np.maximum(g0 * g0 + 2.0 * (g1 - g0) * s, 0.0))
            z = np.where(denom > 0, 2.0 * s / denom, 0.0)
        return self._speeds[i] + np.minimum(z, 1.0) * (self._speeds[i + 1] - self._speeds[i])

    def to_dict(self) -> dict:
        return {"kind": "tabulated", "table": self._table.tolist()}

    def __eq__(self, other):
        return type(other) is type(self) and self._knots == other._knots

    def __hash__(self):
        return hash((type(self), self._knots))

    def __repr__(self):
        return f"{type(self).__name__}({len(self._speeds)} rows on [{self.support_min}, {self.support_max}])"


class UniformSpeed(TabulatedSpeed):
    """Speed uniform on [v_min, v_max]: the two-knot table of density 1/(v_max - v_min).

    It keeps its own serialized form and samples with ``rng.uniform``,
    about ten times cheaper than inverting the table's cdf.
    """

    kind = "uniform"

    def __init__(self, v_min: float, v_max: float):
        problems: list[str] = []
        lo = _real(problems, "speed.v_min", v_min, _AT_LEAST_0)
        hi = _real(problems, "speed.v_max", v_max, _AT_LEAST_0)
        if problems:
            raise ConfigError(problems)
        if hi <= lo:
            raise ConfigError(["speed.v_max must exceed speed.v_min"])
        density = 1.0 / (hi - lo)
        self._set_knots(np.array([lo, hi]), np.array([density, density]))

    v_min = TabulatedSpeed.support_min
    v_max = TabulatedSpeed.support_max

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.v_min, self.v_max, size)

    def to_dict(self) -> dict:
        return {"kind": "uniform", "v_min": self.v_min, "v_max": self.v_max}


# the speed law of a mobile node, of bounded support
SpeedDistribution = FixedSpeed | TabulatedSpeed


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
    law = {"fixed": FixedSpeed, "uniform": UniformSpeed, "tabulated": TabulatedSpeed}[kind]
    return law(**{key: d[key] for key in _SPEED_KEYS[kind] - {"kind"}})


# ---------------------------------------------------------------------------
# Physical parameter blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FadingParams:
    k: int  # gamma shape, integer
    omega: float  # gamma scale


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
class ValidatedScenario:
    """Checked, normalized scenario; every field is in linear units."""

    params: NetworkParams
    speed: SpeedDistribution
    t_gap: float
    threshold: float  # linear SINR threshold
    m_initial: int | None
    replications: int
    seed: int


# a raw config's keys and defaults: a scenario's, with the threshold in dB and the beam angles
_CONFIG_DEFAULTS = {
    **{key: None for key in (*_REAL_RULES, *_INTEGER_RANGES) if key != "threshold"},
    "speed": None, "theta_m_deg": None, "theta_s_deg": None,
    "t_gap": 1.0, "threshold_db": -10.0, "replications": 100_000, "seed": 0,
}


def config_from_dict(raw: dict) -> dict:
    """The raw config under every config key, absent ones at their defaults; no unknown key."""
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a JSON object"])
    unknown = set(raw) - set(_CONFIG_DEFAULTS)
    if unknown:
        raise ConfigError([f"unknown config keys: {sorted(unknown)}"])
    return {**_CONFIG_DEFAULTS, **raw}


def load_config(path: str | Path) -> dict:
    with open(path) as fh:
        try:
            return config_from_dict(json.load(fh))
        except json.JSONDecodeError as exc:
            raise ConfigError([f"config is not valid JSON: {exc}"]) from exc


def validate(config: dict | ValidatedScenario) -> ValidatedScenario:
    """Check a scenario and return it in linear units; idempotent on validated input.

    Both kinds of input go through the one scenario checker, ``_scenario``.
    A raw config, a dict keyed as the JSON, goes through :func:`config_from_dict`
    and has its footprint radii resolved (as given, or from the beam angles)
    and its threshold converted from dB; nothing else is specific to it.
    Raises :class:`ConfigError` listing every violation by field name.
    """
    if isinstance(config, ValidatedScenario):
        return _scenario(_fields(config), [])
    config = config_from_dict(config)
    problems: list[str] = []
    # the radii enter only as _radii resolves them, so unresolved ones are reported once
    values = {key: value for key, value in config.items() if key not in ("r_in", "r_out")}
    values |= _radii(problems, config)
    threshold_db = _real(problems, "threshold_db", config["threshold_db"])
    if threshold_db is not None:
        values["threshold"] = db_to_linear(threshold_db)  # inf is reported as not finite
    return _scenario(values, problems)


def _radii(problems: list[str], config: dict) -> dict:
    """A raw config's footprint radii: as given, from the beam angles, or both if they agree.

    Radii that cannot be resolved are left out, with the reason in ``problems``.
    """
    given = {"r_in": config["r_in"], "r_out": config["r_out"]}
    have_radii = any(r is not None for r in given.values())
    if config["theta_m_deg"] is None and config["theta_s_deg"] is None:
        if not have_radii:
            problems.append("either (r_in, r_out) or (theta_m_deg, theta_s_deg) is required")
        return given if have_radii else {}
    th_m = _real(problems, "theta_m_deg", config["theta_m_deg"], _ABOVE_0)
    th_s = _real(problems, "theta_s_deg", config["theta_s_deg"], _ABOVE_0)
    height = _real([], "height", config["height"], _REAL_RULES["height"])  # the checker reports it
    implied = {}
    if th_m is not None and th_s is not None:
        if not th_m < th_s < 90.0:
            problems.append("angles must satisfy 0 < theta_m_deg < theta_s_deg < 90")
        elif height is not None:
            implied = {"r_in": height * math.tan(math.radians(th_m)),
                       "r_out": height * math.tan(math.radians(th_s))}
    if not have_radii:
        return implied
    for name, a in implied.items():
        r = _real([], name, given[name], _REAL_RULES[name])  # the checker reports it
        if r is not None and abs(r - a) > 1e-9 * max(abs(r), abs(a)):
            problems.append(f"{name}={r!r} conflicts with the supplied angles (implies {a!r})")
    return given


def _scenario(values: dict, problems: list[str]) -> ValidatedScenario:
    """Check a scenario's fields and build it: the one place each field rule is applied.

    ``values`` holds the fields in linear units under the keys
    :func:`scenario_to_dict` writes, ``speed`` as a law or its dict; other
    keys are ignored.  A real field left out was already reported in
    ``problems``, the violations found before.  Every violation is raised
    together in one :class:`ConfigError`.
    """
    got = {}
    for name, rule in _REAL_RULES.items():
        if name in values:
            got[name] = _real(problems, name, values[name], rule)
    for name, (lo, hi) in _INTEGER_RANGES.items():
        if values[name] is not None or name != "m_initial":
            got[name] = _integer(problems, name, values[name], lo, hi)
    g_main, g_side, r_in, r_out = (got.get(name) for name in ("g_main", "g_side", "r_in", "r_out"))
    if g_main is not None and g_side is not None and g_side > g_main:
        problems.append("g_side must not exceed g_main")
    if r_in is not None and r_out is not None and r_in >= r_out:
        problems.append("r_in must be < r_out")
    speed = values["speed"]
    if speed is None:
        problems.append("speed is required")
    elif not isinstance(speed, SpeedDistribution):
        try:
            speed = speed_from_dict(speed)
        except ConfigError as exc:
            problems.extend(exc.violations)
    if problems:
        raise ConfigError(problems)
    params = NetworkParams(
        lam=got["lambda"], p_mobile=got["p_mobile"], height=got["height"], alpha=got["alpha"],
        noise=got["noise"], fading=FadingParams(k=got["k"], omega=got["omega"]),
        antenna=AntennaPattern(g_main=g_main, g_side=g_side, r_in=r_in, r_out=r_out),
    )
    return ValidatedScenario(
        params=params, speed=speed, t_gap=got["t_gap"], threshold=got["threshold"],
        m_initial=got.get("m_initial"), replications=got["replications"], seed=got["seed"],
    )


# ---------------------------------------------------------------------------
# Normalized serialization (round-trips bit-for-bit)
# ---------------------------------------------------------------------------


def _fields(scenario: ValidatedScenario) -> dict:
    """A scenario's fields under its serialized keys, with ``speed`` the law itself."""
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
        "speed": scenario.speed,
        "t_gap": scenario.t_gap,
        "threshold": scenario.threshold,
        "m_initial": scenario.m_initial,
        "replications": scenario.replications,
        "seed": scenario.seed,
    }


def scenario_to_dict(scenario: ValidatedScenario) -> dict:
    return {**_fields(scenario), "speed": scenario.speed.to_dict()}


def scenario_from_dict(d: dict) -> ValidatedScenario:
    """Inverse of :func:`scenario_to_dict`; threshold is already linear."""
    if not isinstance(d, dict):
        raise ConfigError(["scenario must be a JSON object"])
    unknown = set(d) - _SCENARIO_KEYS
    if unknown:
        raise ConfigError([f"unknown scenario keys: {sorted(unknown)}"])
    missing = _SCENARIO_KEYS - set(d)
    if missing:
        raise ConfigError([f"missing scenario keys: {sorted(missing)}"])
    return _scenario(d, [])


def scenario_to_json(scenario: ValidatedScenario) -> str:
    return json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True)


def scenario_from_json(text: str) -> ValidatedScenario:
    return scenario_from_dict(json.loads(text))
