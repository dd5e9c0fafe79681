"""Linguistic three-way-decision opinion dynamics over adaptive social networks.

A seed-reproducible simulator in which agents hold opinions on a linguistic
term scale, filter neighbors through an accept/hesitate/reject rule, average
what they accept, and probabilistically rewire their ties by opinion
similarity. DeGroot and Hegselmann-Krause baselines plus a consensus-metrics
suite ship alongside, all driven by JSON configs through a small CLI.

Each submodule is imported on first use of one of its names, so loading a
config does not import the engine, the baselines or the writers.
"""

import importlib

__version__ = "0.1.0"

# Submodule -> the names the package exports from it.
_EXPORTS = {
    "baselines": "degroot_run degroot_step degroot_weights hk_run hk_step",
    "config": "ConfigError InitialNetworkSpec RewiringParams SimulationConfig "
              "ThreeWayThresholds config_from_dict load_config",
    "dynamics": "StepCounters TrajectoryRecord rewire run step",
    "linguistic": "LinguisticTermSet build_term_set nearest_term nearest_terms "
                  "negate_term term_max term_min term_value",
    "metrics": "cluster_count consensus_index default_cluster_tolerance delta_max "
               "opinion_range variance",
    "network": "SocialNetwork complete_network network_from_edges random_network",
    "outputs": "save_edge_list",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:  # importing a submodule binds it in this namespace
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
