"""Gossip-network optimization under insider data injection: simulation,
score-based and neural detectors, collaborative training, and evaluation."""

from gossipwatch.topology import (
    Graph,
    manhattan_grid,
    small_world,
    expected_transition_matrix,
    second_largest_eigenvalue,
    remove_edge,
    induced_subgraph,
    attacker_mask,
)
from gossipwatch.protocol import (
    LeastSquaresProblem,
    Stepsize,
    ProtocolConfig,
    BatchStats,
    draw_problems,
    entropy_words,
    run_batch,
    seed_states,
    global_objective,
    optimal_value,
)
from gossipwatch.features import tailor_inputs
from gossipwatch.neural import (
    Mlp,
    TrainConfig,
    init_mlp,
    forward,
    loss_and_grad,
    sgd_epoch,
    train,
    save_model,
    load_model,
)
from gossipwatch.gossip_train import (
    LearnerState,
    RoundMetrics,
    merge_model,
    run_gossip_training,
)
from gossipwatch.datagen import (
    Scenario,
    ShardPolicy,
    Budget,
    LabeledDataset,
    DatasetPair,
    scenario_from_tag,
    build_dataset,
    build_datasets,
    shard_for_gossip,
    subset_rows,
    training_arrays,
)
from gossipwatch.evaluation import (
    GREATER_IS_H1,
    SMALLER_IS_H1,
    Detector,
    RocCurve,
    roc_curve,
    evaluate_detector,
    make_score_detector,
    make_nn_detector,
)
from gossipwatch.experiments import (
    ConfigError,
    FAMILIES,
    config_digest,
    resolve_config,
    run_family,
)

__version__ = "0.1.0"
