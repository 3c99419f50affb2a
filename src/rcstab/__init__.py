"""Lyapunov stability regions and training-error maps for reservoir computers."""

import os

# One OpenBLAS thread unless the caller chose a count: the m = 100 BLAS calls
# are too small to gain from more, and their rounding must not depend on the
# core count.  Read once, when numpy first loads OpenBLAS, so this must come
# before the first import below.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .dynamics import (
    NodalDynamics,
    Polynomial,
    ScaledTanh,
    Sigmoid,
    with_param,
)
from .network import (
    ReservoirNetwork,
    SpectralSummary,
    alpha_max,
    construct_adjacency,
    critical_shifts,
    spectral_normalize,
)
from .reservoir import (
    DriveResult,
    RuntimeParams,
    TrainingResult,
    build_omega,
    drive_continuous,
    drive_discrete,
    fit_readout,
    spread,
    train,
)
from .signals import (
    SignalPair,
    SignalSpec,
    Trajectory,
    integrate_duffing,
    integrate_lorenz,
    make_signal_pair,
    normalize,
)
from .stability import (
    Regime,
    ShiftedDynamics,
    StabilityReport,
    analyze,
    basin_verify,
    cmax_continuous,
    cmax_discrete,
    fixed_point,
    kstar_continuous,
    kstar_discrete,
)
from .sweep import (
    BasinMap,
    GridSpec,
    SweepConfig,
    SweepRecord,
    basin_map,
    boundary_curve,
    run_sweep,
)

__all__ = [
    # dynamics
    "NodalDynamics",
    "Polynomial",
    "ScaledTanh",
    "Sigmoid",
    "with_param",
    # network
    "ReservoirNetwork",
    "SpectralSummary",
    "alpha_max",
    "construct_adjacency",
    "critical_shifts",
    "spectral_normalize",
    # reservoir
    "DriveResult",
    "RuntimeParams",
    "TrainingResult",
    "build_omega",
    "drive_continuous",
    "drive_discrete",
    "fit_readout",
    "spread",
    "train",
    # signals
    "SignalPair",
    "SignalSpec",
    "Trajectory",
    "integrate_duffing",
    "integrate_lorenz",
    "make_signal_pair",
    "normalize",
    # stability
    "Regime",
    "ShiftedDynamics",
    "StabilityReport",
    "analyze",
    "basin_verify",
    "cmax_continuous",
    "cmax_discrete",
    "fixed_point",
    "kstar_continuous",
    "kstar_discrete",
    # sweep
    "BasinMap",
    "GridSpec",
    "SweepConfig",
    "SweepRecord",
    "basin_map",
    "boundary_curve",
    "run_sweep",
]
