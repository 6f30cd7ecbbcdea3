"""Fairness-aware federated learning over overlapping graph partitions."""

from .graph import (
    GraphFormatError,
    ValidationError,
    GlobalGraph,
    ClientSubgraph,
    PartitionSpec,
    load_graph,
    generate_sbm,
    induced_subgraph,
    partition,
    true_overlap_matrices,
)
from .gcn import (
    NumericError,
    GcnModel,
    init_model,
    normalize_adjacency,
    propagate,
    Stack,
    stack_graphs,
    stack_forward,
    stack_loss_and_grad,
    stack_losses,
    forward,
    loss_and_grad,
    masked_loss,
    sgd_step,
)
from .ldp import (
    LdpParams,
    Encoder,
    PermanentCache,
    SanitizedBatch,
    train_encoder,
    node_grid_probs,
    perturb_node,
    perturb_links,
    expected_density,
    sparsify_correct,
    sanitize_batch,
)
from .overlap import (
    MatchResult,
    OverlapState,
    match_nodes,
    estimate_node_ratio,
    estimate_link_ratio,
    estimate_round,
    update_state,
    client_weights,
    calibrate_tau,
)
from .metrics import (
    RoundRecord,
    loss_variance,
    loss_entropy,
    evaluate_global,
    write_round_records,
    read_round_records,
)
from .federation import (
    ALGORITHMS,
    RoundError,
    FedConfig,
    ClientReport,
    ExperimentResult,
    sample_clients,
    train_clients,
    client_round,
    aggregate_fair,
    aggregate_qfedavg,
    split_nodes,
    run_experiment,
)

__version__ = "0.1.0"
