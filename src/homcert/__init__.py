"""Exact-arithmetic toolkit for counting weighted graph homomorphisms from
bipartite sources, evaluating the matching closed forms and biclique optima,
and certifying the relating inequalities with zero floating point in any
verdict."""

from .certify import (
    CertReport,
    DEFAULT_SEED,
    PROPOSITION_IDS,
    campaign_exit_code,
    certify_bireg,
    certify_double_identity,
    certify_hom_ub,
    certify_lift_identity,
    certify_sandwich,
    certify_weighted_ub,
    iter_campaign,
    load_campaign,
    report_stream,
    run_campaign,
    sandwich_nonbipartite_demo,
    write_reports,
)
from .closedform import kab_partition, knn_restricted_count, surjection_count
from .constructions import BlowupMeta, blowup, double, scale_constant
from .errors import BudgetExceededError, GraphFormatError, HomcertError
from .eta import EtaWitness, eta_two_sided, validate_witness
from .graphs import (
    BipartiteGraph,
    Graph,
    build_instance,
    complete_graph,
    gen_complete_bipartite,
    gen_even_cycle,
    gen_hypercube,
    gen_random_regular_bipartite,
    gen_union,
    independence_target,
    parse_bipartite,
    parse_graph,
    parse_instance_spec,
    parse_two_sorted,
    serialize_bipartite,
    serialize_graph,
    serialize_two_sorted,
)
from .homcount import (
    ActivitySystem,
    DEFAULT_BUDGET,
    count_homs,
    count_homs_restricted,
    count_independent_sets,
    partition_fn,
    resolve_activities,
)

__version__ = "0.1.0"
