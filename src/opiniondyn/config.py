"""Run configuration: JSON schema, defaults, validation, and echo.

One config file fully determines a run. The fields of ``SimulationConfig``
and of its components ``ThreeWayThresholds``, ``RewiringParams`` and
``InitialNetworkSpec`` are the schema: each field is one row giving its JSON
path, type, default and bound. Parsing, the unknown-key check, the echo and
validation all read these rows, so a config is checked the same way whether
it comes from JSON, a constructor call or ``dataclasses.replace``. Defaults
follow the worked 20-agent scenario.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .linguistic import LinguisticTermSet, build_term_set
from .network import SocialNetwork, network_from_edges, random_network

MODELS = (
    "threeway",
    "degroot-uniform",
    "degroot-distance",
    "hk-homogeneous",
    "hk-heterogeneous",
)

# Bounds: (the rule in words, a test of the normalised value).
_AT_LEAST_ONE = ("must be >= 1", lambda v: v >= 1)
_POSITIVE = ("must be > 0", lambda v: v > 0.0)
_NORMAL = (f"must be >= {sys.float_info.min!r}", lambda v: v >= sys.float_info.min)
_NON_NEGATIVE = ("must be >= 0", lambda v: v >= 0.0)
_UNIT = ("must lie in [0, 1]", lambda v: 0.0 <= v <= 1.0)
_UINT64 = ("must be a 64-bit unsigned integer", lambda v: 0 <= v < 2**64)
_MODEL = (f"must be one of {', '.join(MODELS)}", lambda v: v in MODELS)


class ConfigError(ValueError):
    """A config schema or constraint violation, carrying the field path."""

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"config error at '{path}': {reason}")


def _require(cond: bool, path: str, reason: str):
    if not cond:
        raise ConfigError(path, reason)


def _setting(path: str, default=MISSING, kind: type | None = None, bound=None):
    """One schema row. ``kind`` defaults to the default's type; ``tuple``
    marks a sequence whose owner checks its shape element by element."""
    kind = kind or type(default)
    return field(default=default, metadata={"path": path, "kind": kind, "bound": bound})


def _check(path: str, kind: type, bound, value):
    """``value`` normalised to ``kind`` (a number to int or float) and
    checked against ``bound``; raises ConfigError(path, ...)."""
    # Messages are formatted only on failure: a sweep checks one seed per run.
    if kind is int or kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(path, f"expected a number, got {type(value).__name__}")
        if kind is int and not (isinstance(value, int) or value.is_integer()):
            raise ConfigError(path, f"expected an integer, got {value!r}")
        try:
            value = kind(value)
        except OverflowError as exc:
            raise ConfigError(path, "number too large for a float") from exc
    elif not isinstance(value, kind):
        raise ConfigError(path, f"expected {kind.__name__}, got {type(value).__name__}")
    if bound is not None and not bound[1](value):
        raise ConfigError(path, f"{bound[0]}, got {value!r}")
    return value


def _key(row) -> str:  # a row's JSON key: the last part of its path
    return row.metadata["path"].rpartition(".")[2]


def _check_row(row, value):
    return _check(row.metadata["path"], row.metadata["kind"], row.metadata["bound"], value)


def _normalise(obj) -> None:
    """Check every set, non-sequence field of ``obj`` and store it normalised."""
    for row in fields(obj):
        value = getattr(obj, row.name)
        if row.metadata["kind"] is tuple or (value is None and row.default is None):
            continue
        object.__setattr__(obj, row.name, _check_row(row, value))


def _per_agent(path: str, values, n_agents: int):
    _require(isinstance(values, (list, tuple)), path, "expected a list")
    _require(len(values) == n_agents, path,
             f"length {len(values)} does not match n_agents = {n_agents}")
    return values


@dataclass(frozen=True)
class ThreeWayThresholds:
    """Accept/reject distance bounds and the hesitation decay factor.

    Distances at or below ``alpha`` are accepted outright, at or above
    ``beta`` rejected outright; in between, acceptance is probabilistic with
    probability exp(-decay * (d - alpha)). alpha == beta is allowed and
    means no hesitation zone.
    """

    alpha: float = _setting("thresholds.alpha", kind=float, bound=_UNIT)
    beta: float = _setting("thresholds.beta", kind=float, bound=_UNIT)
    decay: float = _setting("thresholds.lambda", kind=float, bound=_NON_NEGATIVE)

    def __post_init__(self):
        _normalise(self)
        _require(self.alpha <= self.beta, "thresholds",
                 f"alpha ({self.alpha!r}) must not exceed beta ({self.beta!r})")


@dataclass(frozen=True)
class RewiringParams:
    """Thresholds and probabilities for opinion-similarity rewiring."""

    delta_add: float = _setting("rewiring.delta_add", kind=float, bound=_UNIT)
    delta_cut: float = _setting("rewiring.delta_cut", kind=float, bound=_UNIT)
    p_add: float = _setting("rewiring.p_add", kind=float, bound=_UNIT)
    p_cut: float = _setting("rewiring.p_cut", kind=float, bound=_UNIT)

    def __post_init__(self):
        _normalise(self)


@dataclass(frozen=True)
class InitialNetworkSpec:
    """Either an explicit edge list or random-generation parameters.

    When ``seed`` is omitted for a random network, edges are drawn from the
    run generator before the first step.
    """

    edges: tuple[tuple[int, int], ...] | None = _setting("initial_network.edges", None, tuple)
    edge_prob: float | None = _setting("initial_network.edge_prob", None, float, _UNIT)
    seed: int | None = _setting("initial_network.seed", None, int, _UINT64)

    def __post_init__(self):
        _require((self.edges is None) != (self.edge_prob is None), "initial_network",
                 "give exactly one of 'edges' or 'edge_prob'")
        _normalise(self)
        if self.edges is None:
            return
        _require(isinstance(self.edges, (list, tuple)), "initial_network.edges",
                 "expected a list of pairs")
        for k, e in enumerate(self.edges):
            path = f"initial_network.edges[{k}]"
            _require(isinstance(e, (list, tuple)) and len(e) == 2, path,
                     f"expected a pair [i, j], got {e!r}")
            _require(all(isinstance(i, int) and not isinstance(i, bool) for i in e),
                     path, "indices must be integers")
            _require(e[0] != e[1], path, "self-loops are not allowed")
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))


@dataclass(frozen=True)
class SimulationConfig:
    """A validated run configuration; each field is one row of the schema.

    Construction checks every field and normalises numbers (an int given
    for a float field becomes a float) and sequences (to tuples), raising
    ConfigError with the field's JSON path. The term table it builds to
    check ``phi`` and ``base`` is kept, outside the fields, for ``term_set()``.
    """

    n_agents: int = _setting("n_agents", kind=int, bound=_AT_LEAST_ONE)
    initial_opinions: tuple[int, ...] = _setting("initial_opinions", kind=tuple)
    phi: int = _setting("term_set.phi", 3)
    base: float = _setting("term_set.base", 2.0)
    thresholds: ThreeWayThresholds = _setting(
        "thresholds", ThreeWayThresholds(alpha=0.3, beta=0.6, decay=10.0))
    inertia: float = _setting("inertia", 0.0, bound=_UNIT)
    rewiring: RewiringParams = _setting(
        "rewiring", RewiringParams(delta_add=0.15, delta_cut=0.45, p_add=0.5, p_cut=0.5))
    t_max: int = _setting("t_max", 10, bound=_AT_LEAST_ONE)
    epsilon: float = _setting("epsilon", 1e-3, bound=_POSITIVE)
    seed: int = _setting("seed", 0, bound=_UINT64)
    # The fallback edge probability matches the reference scenario's measured
    # initial average degree of about 1.9 on 20 agents (1.9 / 19 = 0.1).
    initial_network: InitialNetworkSpec = _setting(
        "initial_network", InitialNetworkSpec(edge_prob=0.1))
    model: str = _setting("model", "threeway", bound=_MODEL)
    d_max: float = _setting("d_max", 0.5, bound=_NORMAL)
    cluster_tolerance: float | None = _setting("cluster_tolerance", None, float, _NON_NEGATIVE)
    hk_epsilon: float | None = _setting("hk.epsilon", None, float, _UNIT)
    hk_epsilons: tuple[float, ...] | None = _setting("hk.epsilons", None, tuple)
    degroot_freeze_weights: bool = _setting("degroot.freeze_weights", False)

    def __post_init__(self):
        _normalise(self)
        try:
            object.__setattr__(self, "_term_set", build_term_set(self.phi, self.base))
        except ValueError as exc:
            raise ConfigError("term_set", str(exc)) from exc

        opinions = _per_agent("initial_opinions", self.initial_opinions, self.n_agents)
        top = 2 * self.phi
        for k, v in enumerate(opinions):
            _require(isinstance(v, int) and not isinstance(v, bool),
                     f"initial_opinions[{k}]", f"expected an integer term index, got {v!r}")
            _require(0 <= v <= top, f"initial_opinions[{k}]", f"term index {v} outside [0, {top}]")
        object.__setattr__(self, "initial_opinions", tuple(opinions))

        for k, (i, j) in enumerate(self.initial_network.edges or ()):
            _require(0 <= i < self.n_agents and 0 <= j < self.n_agents,
                     f"initial_network.edges[{k}]",
                     f"indices out of range for {self.n_agents} agents")

        if self.hk_epsilons is not None:
            bounds = _per_agent("hk.epsilons", self.hk_epsilons, self.n_agents)
            object.__setattr__(self, "hk_epsilons", tuple(
                _check(f"hk.epsilons[{k}]", float, _UNIT, v) for k, v in enumerate(bounds)))
        if self.model == "hk-homogeneous":
            _require(self.hk_epsilon is not None, "hk.epsilon",
                     "required for model 'hk-homogeneous'")
        if self.model == "hk-heterogeneous":
            _require(self.hk_epsilons is not None, "hk.epsilons",
                     "required for model 'hk-heterogeneous'")

    def with_seed(self, seed: int) -> SimulationConfig:
        """This config with another seed. Only the seed is checked: no other
        field depends on it, and a sweep makes one such copy per seed. The
        copy shares this config's term table."""
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__, seed=check_setting("seed", seed))
        return clone

    def term_set(self) -> LinguisticTermSet:
        return self._term_set

    def initial_values(self) -> np.ndarray:
        return self._term_set.values[np.asarray(self.initial_opinions, dtype=int)]

    def build_initial_network(self, rng: np.random.Generator) -> SocialNetwork:
        spec = self.initial_network
        if spec.edges is not None:
            return network_from_edges(self.n_agents, spec.edges)
        gen = np.random.default_rng(spec.seed) if spec.seed is not None else rng
        return random_network(self.n_agents, spec.edge_prob, gen)

    def hk_bounds(self) -> np.ndarray:
        if self.model == "hk-homogeneous":
            return np.full(self.n_agents, self.hk_epsilon)
        return np.asarray(self.hk_epsilons, dtype=float)

    def to_dict(self) -> dict:
        """Fully resolved echo; re-loading it reproduces the run exactly.

        Unset options (None) and off flags (False) are left out.
        """
        out: dict = {}
        for row in fields(self):
            value = getattr(self, row.name)
            if value is None or value is False:
                continue
            group, _, key = row.metadata["path"].rpartition(".")
            (out.setdefault(group, {}) if group else out)[key] = _echo(value)
        return out


def _echo(value):
    """JSON form of a field value: tuples as lists, components as objects."""
    if isinstance(value, tuple):
        return [_echo(v) for v in value]
    if is_dataclass(value):
        return {_key(c): _echo(getattr(value, c.name))
                for c in fields(value) if getattr(value, c.name) is not None}
    return value


def check_setting(name: str, value):
    """``value`` checked and normalised as the SimulationConfig field ``name``."""
    return _check_row(SimulationConfig.__dataclass_fields__[name], value)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_PATHS = {row.metadata["path"] for row in fields(SimulationConfig)}
_TOP_LEVEL_KEYS = {path.partition(".")[0] for path in _PATHS}
# Every "object.key" a group or a component may hold.
_OBJECT_KEYS = {path for path in _PATHS if "." in path} | {
    c.metadata["path"] for row in fields(SimulationConfig) if is_dataclass(row.metadata["kind"])
    for c in fields(row.metadata["kind"])}
_OBJECTS = {path.rpartition(".")[0] for path in _OBJECT_KEYS}


def _from_json(row, value):
    """The field value for a JSON value; JSON objects become components."""
    kind = row.metadata["kind"]
    if not is_dataclass(kind):
        return value
    _require(isinstance(value, dict), row.metadata["path"], "expected an object")
    given = {c.name: value[_key(c)] for c in fields(kind) if _key(c) in value}
    # Thresholds and rewiring may set some keys; the rest keep the default's values.
    return kind(**given) if kind is InitialNetworkSpec else replace(row.default, **given)


def config_from_dict(raw: dict) -> SimulationConfig:
    """Parse and fully validate a config mapping, applying defaults."""
    _require(isinstance(raw, dict), "<root>", "config must be a JSON object")
    for key, value in raw.items():
        _require(key in _TOP_LEVEL_KEYS, key, "unknown field")
        if key in _OBJECTS and isinstance(value, dict):
            for inner in value:
                _require(f"{key}.{inner}" in _OBJECT_KEYS, f"{key}.{inner}", "unknown field")
    given = {}
    for row in fields(SimulationConfig):
        group, _, key = row.metadata["path"].rpartition(".")
        source = raw
        if group:
            source = raw.get(group, {})
            _require(isinstance(source, dict), group, "expected an object")
        if key in source:
            given[row.name] = _from_json(row, source[key])
        else:
            _require(row.default is not MISSING, row.metadata["path"], "required field is missing")
    return SimulationConfig(**given)


def load_config(path) -> SimulationConfig:
    """Load and validate a JSON config file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(str(p), f"cannot read config file: {exc}") from exc
    try:
        raw = json.loads(text)
    except ValueError as exc:  # also an integer literal too long to convert
        raise ConfigError(str(p), f"invalid JSON: {exc}") from exc
    return config_from_dict(raw)
