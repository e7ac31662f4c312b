"""Analyses of simulation traces: the paper's observational claims as code."""

from repro.analysis.acceleration import (
    AccelerationCheck,
    check_acceleration_prediction,
    measured_acceleration,
    predicted_drops_per_epoch,
)
from repro.analysis.chronology import (
    SquareTransition,
    detect_square_cycles,
    transitions_are_complementary,
)
from repro.analysis.clustering import (
    ClusteringStats,
    ClusterRun,
    cluster_runs,
    clustering_stats,
)
from repro.analysis.compression import (
    CompressionStats,
    compressed_ack_bursts,
    compression_stats,
)
from repro.analysis.conjecture import (
    CheckResult,
    ConjecturePrediction,
    check_prediction,
    predict,
)
from repro.analysis.fairness import (
    connection_goodputs,
    delivered_in_window,
    jain_index,
)
from repro.analysis.epochs import (
    CongestionEpoch,
    detect_epochs,
    drops_per_epoch,
    epoch_period,
)
from repro.analysis.growth import (
    GrowthFit,
    growth_concavity,
    rebuild_segments,
    sqrt_growth_fit,
)
from repro.analysis.oscillation import (
    dominant_period,
    plateau_heights,
    rapid_fluctuation_amplitude,
)
from repro.analysis.stats import (
    BatchStats,
    batch_means,
    summarize,
    utilization_batches,
)
from repro.analysis.synchronization import (
    SyncMode,
    SyncVerdict,
    alternation_fraction,
    classify_sync,
    drop_coincidence,
    mean_correlation,
)

__all__ = [
    "CongestionEpoch",
    "detect_epochs",
    "drops_per_epoch",
    "epoch_period",
    "SyncMode",
    "SyncVerdict",
    "classify_sync",
    "mean_correlation",
    "drop_coincidence",
    "alternation_fraction",
    "ClusterRun",
    "ClusteringStats",
    "cluster_runs",
    "clustering_stats",
    "CompressionStats",
    "compression_stats",
    "compressed_ack_bursts",
    "predicted_drops_per_epoch",
    "measured_acceleration",
    "AccelerationCheck",
    "check_acceleration_prediction",
    "rapid_fluctuation_amplitude",
    "dominant_period",
    "plateau_heights",
    "ConjecturePrediction",
    "predict",
    "CheckResult",
    "check_prediction",
    "jain_index",
    "delivered_in_window",
    "connection_goodputs",
    "SquareTransition",
    "detect_square_cycles",
    "transitions_are_complementary",
    "BatchStats",
    "batch_means",
    "summarize",
    "utilization_batches",
    "GrowthFit",
    "sqrt_growth_fit",
    "rebuild_segments",
    "growth_concavity",
]
