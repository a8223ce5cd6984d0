"""Sparse regressive reservoir computers for dynamic (financial) system identification.

Learns sparse polynomial regressive models from time-series data through a
truncated-SVD sparse least-squares solver and a Kronecker-monomial
compression matrix, then forecasts the identified dynamics and quantifies
remittance exposure of deposit-taking institutions.
"""

from .compression import (
    CompressionMatrix,
    compress,
    compression_matrix,
    compression_matrix_exact,
    decompress,
)
from .embedding import (
    DataMatrices,
    EmbeddingConfig,
    TimeSeries,
    build_data_matrices,
    delay_embed,
    eth_map,
    feature_dim,
    kron_power,
    monomial_features,
    suggest_lag,
)
from .errors import (
    DegenerateChannelError,
    DimensionMismatchError,
    FeatureBudgetError,
    GroupingDegenerateError,
    ModelFormatError,
    ModelVersionError,
    NumericBlowupError,
    OutOfRangeError,
    RankZeroError,
    RRCError,
    StepUnderflowError,
)
from .finance import (
    CHAOTIC,
    PERIODIC,
    FinancialParams,
    SimulationGrid,
    financial_rhs,
    integrate,
)
from .linalg import (
    SolverConfig,
    SparseSolution,
    heaviside_delta,
    rank_delta,
    sparse_lstsq,
)
from .model import (
    RRCModel,
    TrainingDiagnostics,
    forecast,
    load_model,
    save_model,
    selector_matrix,
    train_autoregressive,
    train_rrc,
    transform,
)
from .remittance import (
    ExposureReport,
    RemittanceModel,
    RemittancePanel,
    exposure,
    fit_lagged,
    fit_nonlagged,
    rank_exposures,
    synth_panel,
)

__version__ = "0.1.0"
