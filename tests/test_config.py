import json
import math
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from opiniondyn import (
    ConfigError,
    InitialNetworkSpec,
    RewiringParams,
    SimulationConfig,
    ThreeWayThresholds,
    config_from_dict,
    load_config,
)
from opiniondyn.config import MODELS
from conftest import REFERENCE_TERMS


def minimal() -> dict:
    return {"n_agents": 20, "initial_opinions": list(REFERENCE_TERMS)}


def test_minimal_config_gets_reference_defaults():
    cfg = config_from_dict(minimal())
    assert (cfg.phi, cfg.base) == (3, 2.0)
    assert (cfg.thresholds.alpha, cfg.thresholds.beta, cfg.thresholds.decay) == (0.3, 0.6, 10.0)
    assert cfg.inertia == 0.0
    assert (cfg.rewiring.delta_add, cfg.rewiring.delta_cut) == (0.15, 0.45)
    assert (cfg.rewiring.p_add, cfg.rewiring.p_cut) == (0.5, 0.5)
    assert (cfg.t_max, cfg.epsilon, cfg.seed) == (10, 1e-3, 0)
    assert cfg.model == "threeway"
    assert cfg.initial_network.edge_prob == 0.1


def test_alpha_above_beta_rejected():
    raw = minimal() | {"thresholds": {"alpha": 0.7, "beta": 0.6}}
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    assert "thresholds" in str(err.value)
    assert "alpha" in str(err.value)


def test_opinion_length_mismatch_rejected():
    raw = minimal()
    raw["initial_opinions"] = raw["initial_opinions"][:19]
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    assert "initial_opinions" in str(err.value)


def test_out_of_range_term_index_rejected():
    raw = minimal()
    raw["initial_opinions"][4] = 7
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    assert "initial_opinions[4]" in str(err.value)


def test_unknown_field_rejected():
    with pytest.raises(ConfigError) as err:
        config_from_dict(minimal() | {"alpha": 0.3})
    assert "alpha" in str(err.value)


@pytest.mark.parametrize("patch,path", [
    ({"n_agents": 0}, "n_agents"),
    ({"t_max": 0}, "t_max"),
    ({"epsilon": 0}, "epsilon"),
    ({"inertia": 1.5}, "inertia"),
    ({"seed": -1}, "seed"),
    ({"term_set": {"phi": 0}}, "term_set"),
    ({"term_set": {"base": 1.0}}, "term_set"),
    ({"rewiring": {"p_add": 1.5}}, "rewiring"),
    ({"model": "voter"}, "model"),
    ({"d_max": 0}, "d_max"),
    ({"initial_network": {"edges": [[0, 1]], "edge_prob": 0.1}}, "initial_network"),
    ({"initial_network": {"edges": [[0, 25]]}}, "initial_network.edges[0]"),
    ({"initial_network": {"edges": [[2, 2]]}}, "initial_network.edges[0]"),
    ({"initial_network": {"edge_prob": 1.5}}, "initial_network.edge_prob"),
    ({"d_max": 1e-320}, "d_max"),  # subnormal: overflows the consensus index
])
def test_constraint_violations_name_the_field(patch, path):
    with pytest.raises(ConfigError) as err:
        config_from_dict(minimal() | patch)
    assert path in str(err.value)


@pytest.mark.parametrize("phi,base", [(1100, 2.0), (60, 1e6)])
def test_term_set_overflow_rejected(phi, base):
    with pytest.raises(ConfigError) as err:
        config_from_dict(minimal() | {"term_set": {"phi": phi, "base": base}})
    assert err.value.path == "term_set"
    assert "overflow" in err.value.reason


def test_hk_models_require_bounds():
    with pytest.raises(ConfigError) as err:
        config_from_dict(minimal() | {"model": "hk-homogeneous"})
    assert "hk.epsilon" in str(err.value)
    with pytest.raises(ConfigError) as err:
        config_from_dict(minimal() | {"model": "hk-heterogeneous"})
    assert "hk.epsilons" in str(err.value)
    cfg = config_from_dict(minimal() | {"model": "hk-homogeneous", "hk": {"epsilon": 0.25}})
    assert list(cfg.hk_bounds()) == [0.25] * 20
    with pytest.raises(ConfigError):
        config_from_dict(minimal() | {"model": "hk-heterogeneous",
                                      "hk": {"epsilons": [0.2] * 19}})


def test_echo_round_trips():
    raw = minimal() | {
        "seed": 99,
        "thresholds": {"alpha": 0.2, "beta": 0.4, "lambda": 5},
        "initial_network": {"edges": [[0, 1], [2, 3]]},
        "model": "hk-homogeneous",
        "hk": {"epsilon": 0.3},
        "degroot": {"freeze_weights": True},
    }
    cfg = config_from_dict(raw)
    echoed = config_from_dict(cfg.to_dict())
    assert echoed == cfg
    # echo is JSON-serializable as-is
    json.dumps(cfg.to_dict())


@pytest.mark.parametrize("value", [True, "0.3"])
@pytest.mark.parametrize("build,path", [
    (lambda v: ThreeWayThresholds(v, 0.6, 10.0), "thresholds.alpha"),
    (lambda v: ThreeWayThresholds(0.3, 0.6, v), "thresholds.lambda"),
    (lambda v: RewiringParams(0.15, 0.45, v, 0.5), "rewiring.p_add"),
], ids=["alpha", "lambda", "p_add"])
def test_python_built_components_reject_what_json_rejects(build, path, value):
    with pytest.raises(ConfigError) as direct:
        build(value)
    group, _, key = path.partition(".")
    with pytest.raises(ConfigError) as parsed:
        config_from_dict(minimal() | {group: {key: value}})
    assert direct.value.path == parsed.value.path == path


def test_python_built_components_hold_floats_and_echo_as_json_does():
    thresholds, rewiring = ThreeWayThresholds(0, 1, 10), RewiringParams(0, 1, 0, 1)
    assert [type(v) for v in (*vars(thresholds).values(), *vars(rewiring).values())] == [float] * 7
    cfg = SimulationConfig(n_agents=20, initial_opinions=tuple(REFERENCE_TERMS),
                           thresholds=thresholds, rewiring=rewiring)
    loaded = config_from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert json.dumps(cfg.to_dict()) == json.dumps(loaded.to_dict())
    assert cfg.to_dict()["thresholds"] == {"alpha": 0.0, "beta": 1.0, "lambda": 10.0}
    assert config_from_dict(cfg.to_dict()) == cfg


def test_load_config_reports_file_problems(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError) as err:
        load_config(bad)
    assert "invalid JSON" in str(err.value)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(minimal()))
    assert load_config(good).n_agents == 20


@pytest.mark.parametrize("build,patch,path", [
    (lambda: SimulationConfig(n_agents=20, initial_opinions=tuple(REFERENCE_TERMS),
                              model="hk-homogeneous"),
     {"model": "hk-homogeneous"}, "hk.epsilon"),
    (lambda: SimulationConfig(n_agents=3, initial_opinions=(0, 1, 9), model="degroot-uniform"),
     {"n_agents": 3, "initial_opinions": [0, 1, 9], "model": "degroot-uniform"},
     "initial_opinions[2]"),
    (lambda: SimulationConfig(n_agents=20, initial_opinions=tuple(REFERENCE_TERMS),
                              model="hk-heterogeneous", hk_epsilons=(0.2,) * 19),
     {"model": "hk-heterogeneous", "hk": {"epsilons": [0.2] * 19}}, "hk.epsilons"),
    (lambda: replace(config_from_dict(minimal()), seed=-1), {"seed": -1}, "seed"),
    (lambda: replace(config_from_dict(minimal()),
                     thresholds=ThreeWayThresholds(0.3, 0.6, math.nan)),
     {"thresholds": {"lambda": math.nan}}, "thresholds.lambda"),
    (lambda: replace(config_from_dict(minimal()),
                     rewiring=RewiringParams(0.15, 0.45, 0.5, -0.5)),
     {"rewiring": {"p_cut": -0.5}}, "rewiring.p_cut"),
], ids=["hk-homogeneous-without-bound", "term-index-out-of-range", "hk-bounds-wrong-length",
        "replace-negative-seed", "nan-lambda", "negative-p-cut"])
def test_direct_construction_is_validated_like_json(build, patch, path):
    with pytest.raises(ConfigError) as direct:
        build()
    with pytest.raises(ConfigError) as parsed:
        config_from_dict(minimal() | patch)
    assert direct.value.path == parsed.value.path == path


unit = st.one_of(st.floats(0.0, 1.0), st.integers(0, 1))


@st.composite
def valid_configs(draw):
    n = draw(st.integers(1, 6))
    phi = draw(st.integers(1, 4))
    alpha = draw(st.floats(0.0, 1.0))
    if draw(st.booleans()):
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda e: e[0] != e[1])
        network = InitialNetworkSpec(edges=tuple(draw(st.lists(pairs, max_size=8)))
                                     if n > 1 else ())
    else:
        network = InitialNetworkSpec(edge_prob=draw(unit),
                                     seed=draw(st.none() | st.integers(0, 2**64 - 1)))
    model = draw(st.sampled_from(MODELS))
    hk_epsilon = draw(st.none() | unit)
    hk_epsilons = draw(st.none() | st.lists(unit, min_size=n, max_size=n).map(tuple))
    if model == "hk-homogeneous" and hk_epsilon is None:
        hk_epsilon = draw(unit)
    if model == "hk-heterogeneous" and hk_epsilons is None:
        hk_epsilons = tuple(draw(st.lists(unit, min_size=n, max_size=n)))
    return SimulationConfig(
        n_agents=n,
        initial_opinions=tuple(draw(st.lists(st.integers(0, 2 * phi), min_size=n, max_size=n))),
        phi=phi,
        base=draw(st.one_of(st.floats(1.5, 4.0), st.integers(2, 4))),
        thresholds=ThreeWayThresholds(alpha=alpha, beta=draw(st.floats(alpha, 1.0)),
                                      decay=draw(st.floats(0.0, 50.0))),
        inertia=draw(unit),
        rewiring=RewiringParams(*(draw(unit) for _ in range(4))),
        t_max=draw(st.integers(1, 50)),
        epsilon=draw(st.floats(0.0, 1.0, exclude_min=True)),
        seed=draw(st.integers(0, 2**64 - 1)),
        initial_network=network,
        model=model,
        d_max=draw(st.floats(sys.float_info.min, 1.0)),
        cluster_tolerance=draw(st.none() | st.floats(0.0, 1.0)),
        hk_epsilon=hk_epsilon,
        hk_epsilons=hk_epsilons,
        degroot_freeze_weights=draw(st.booleans()),
    )


@settings(deadline=None)
@given(cfg=valid_configs())
def test_echo_round_trips_any_valid_config(cfg):
    echo = cfg.to_dict()
    assert config_from_dict(echo) == cfg
    assert config_from_dict(json.loads(json.dumps(echo))) == cfg


def test_with_seed_matches_replace_and_checks_the_seed():
    cfg = config_from_dict(minimal() | {"hk": {"epsilons": [0.25] * 20}})
    assert cfg.with_seed(2**64 - 1) == replace(cfg, seed=2**64 - 1)
    assert cfg.with_seed(5.0).seed == 5 and cfg.seed == 0
    with pytest.raises(ConfigError) as err:
        cfg.with_seed(-1)
    assert err.value.path == "seed"


@pytest.mark.parametrize("group,inner", [
    ("thresholds", {"lamda": 5}),
    ("rewiring", {"p_ad": 0.5}),
    ("term_set", {"ph": 9}),
    ("hk", {"epsilonn": 0.2}),
    ("degroot", {"freeze": True}),
    ("initial_network", {"edge_prob": 0.1, "sed": 3}),
])
def test_unknown_nested_field_rejected(group, inner):
    typo = next(key for key in inner if key != "edge_prob")
    with pytest.raises(ConfigError) as err:
        config_from_dict(minimal() | {group: inner})
    assert (err.value.path, err.value.reason) == (f"{group}.{typo}", "unknown field")


def test_unknown_nested_fields_are_reported_in_file_order():
    raw = {"thresholds": {"lamda": 5}, "term_set": {"ph": 9}}
    for config in (raw, minimal() | raw):
        with pytest.raises(ConfigError) as err:
            config_from_dict(config)
        assert (err.value.path, err.value.reason) == ("thresholds.lamda", "unknown field")
    # a setting that is not an object is checked by type, not by its keys
    with pytest.raises(ConfigError) as err:
        config_from_dict(minimal() | {"n_agents": {"x": 1}})
    assert (err.value.path, err.value.reason) == ("n_agents", "expected a number, got dict")


def test_term_set_is_built_once_and_kept_out_of_the_schema():
    cfg = config_from_dict(minimal() | {"term_set": {"phi": 4, "base": 1.5}})
    assert cfg.term_set() is cfg.term_set()
    assert cfg.with_seed(5).term_set() is cfg.term_set()
    # a rebuilt config holds its own table and still compares equal
    rebuilt = replace(cfg)
    assert rebuilt.term_set() is not cfg.term_set() and rebuilt == cfg
    assert rebuilt.to_dict() == cfg.to_dict()
    assert cfg.to_dict()["term_set"] == {"phi": 4, "base": 1.5}
    assert "_term_set" not in repr(cfg)
    assert (cfg.term_set().phi, cfg.term_set().base) == (4, 1.5)
