"""Linguistic three-way-decision opinion dynamics over adaptive social networks.

A seed-reproducible simulator in which agents hold opinions on a linguistic
term scale, filter neighbors through an accept/hesitate/reject rule, average
what they accept, and probabilistically rewire their ties by opinion
similarity. DeGroot and Hegselmann-Krause baselines plus a consensus-metrics
suite ship alongside, all driven by JSON configs through a small CLI.
"""

__version__ = "0.1.0"

from .baselines import (
    degroot_run,
    degroot_step,
    degroot_weights,
    hk_run,
    hk_step,
)
from .config import (
    ConfigError,
    InitialNetworkSpec,
    RewiringParams,
    SimulationConfig,
    ThreeWayThresholds,
    config_from_dict,
    load_config,
)
from .dynamics import (
    StepCounters,
    TrajectoryRecord,
    run,
    step,
    update_value,
)
from .linguistic import (
    LinguisticTermSet,
    build_term_set,
    nearest_term,
    nearest_terms,
    negate_term,
    term_max,
    term_min,
    term_value,
)
from .metrics import (
    cluster_count,
    consensus_index,
    default_cluster_tolerance,
    delta_max,
    opinion_range,
    variance,
)
from .network import (
    SocialNetwork,
    complete_network,
    network_from_edges,
    random_network,
    rewire,
)
from .outputs import save_edge_list
