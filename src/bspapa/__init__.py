"""Block-sparse proportionate affine projection adaptive filters.

One family of per-sample update rules for sparse and block-sparse system
identification (APA, PAPA, PNLMS, MPAPA and their block-sparse versions),
plus the signal synthesis and benchmark harness used to compare their
convergence and tracking behavior.
"""

from .gains import BlockPartition, GainVector, StallGuards
from .filters import (
    VARIANTS,
    AdaptiveFilter,
    FilterConfig,
    FilterState,
    RegressorHistory,
    SingularSystemError,
    WeightedRegressor,
    build_weighted_regressor_direct,
    build_weighted_regressor_efficient,
    filter_step,
    solve_regularized,
    update_memory_regressor,
    variant_gains,
)
from .signals import (
    EchoScenario,
    ImpulseResponse,
    ar1_filter,
    gen_excitation,
    make_block_sparse_ir,
    misalignment_db,
    scale_noise_for_snr,
)
from .bench import (
    ConfigError,
    ExperimentConfig,
    MisalignmentTrace,
    RunSummary,
    SegmentSummary,
    experiment_from_dict,
    load_experiment_config,
    preset_config,
    run_experiment,
    synthesize_scenario,
    write_traces_csv,
)

__version__ = "0.1.0"
