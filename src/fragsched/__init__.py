"""Replicated fragment-storage schemes, work-conserving download schedulers,
and download-latency simulation."""

from .analytics import (
    asymptotic_compare,
    bound_envelope,
    duplicate_prob_lb,
    mds_aggregate_bounds,
    mds_useful_bounds,
    random_mds_expected,
    random_rep_expected,
    useful_lower_bound_early,
    useful_lower_bound_late,
    useful_upper_bound,
)
from .constructions import (
    MdsPlacement,
    ReplicationPlacement,
    affine_plane,
    cyclic_shift,
    large_storage_scheme,
    projective_plane,
    sample_random_mds,
    sample_random_replication,
)
from .engine import (
    SimulationConfig,
    ensemble_monte_carlo,
    mean_download_lower_bound,
    monte_carlo,
    run_stream,
    simulate_ensemble_profile,
    simulate_run,
    simulate_run_clocks,
)
from .errors import FragschedError
from .mdp import exact_mean_download, mdp_solve, policy_evaluate_exact
from .model import (
    Design,
    StorageScheme,
    SystemParams,
    build_scheme,
    conservation_check,
    conservation_laws,
    design_to_scheme,
    overlap_profile,
    scheme_to_design,
    verify_t_design,
)
from .scheduling import (
    MdpPolicy,
    NonadaptivePolicy,
    PlacementOrder,
    RandomWorkConserving,
    RankedPolicy,
    pushback,
    smallest_index_first,
    uniform_diversity,
)
from .schemefile import read_scheme, scheme_hash, write_scheme

__version__ = "0.1.0"
