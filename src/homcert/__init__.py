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
    load_campaign,
    report_stream,
    run_campaign,
    sandwich_nonbipartite_demo,
)
from .closedform import (
    SubsetSummary,
    kab_partition,
    knn_partition,
    knn_partition_terms,
    knn_restricted_count,
    knn_restricted_terms,
    surjection_count,
    weighted_surjection_sum,
)
from .constructions import (
    BlowupMeta,
    TwoSortedTarget,
    blowup,
    double,
    parse_two_sorted,
    scale_constant,
    serialize_two_sorted,
    two_sorted,
)
from .errors import (
    BudgetExceededError,
    GenerationError,
    GraphFormatError,
    HomcertError,
    SubsetLimitError,
)
from .eta import EtaWitness, eta_one_sided, eta_two_sided, eta_unweighted, validate_witness
from .graphs import (
    BipartiteGraph,
    Graph,
    InstanceSpec,
    build_instance,
    check_bipartition,
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
    serialize_bipartite,
    serialize_graph,
)
from .homcount import (
    ActivitySystem,
    DEFAULT_BUDGET,
    count_homs,
    count_homs_restricted,
    count_independent_sets,
    parse_activities,
    partition_fn,
)

__version__ = "0.1.0"
