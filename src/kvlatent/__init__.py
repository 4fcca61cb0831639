"""Covariance-aware low-rank KV conversion toolkit.

Pipeline: accumulate activation covariance from calibration batches, whiten
the grouped key/value projections, allocate a global rank budget by greedy
water-filling over the whitened spectra, factorize each projection into
down/up latent factors, and verify the converted layer against the source
with toy attention forward passes and drift/loss metrics.
"""

__version__ = "0.1.0"

from .calibration import (
    CalibrationBatch,
    CovarianceAccumulator,
    ShrinkageParams,
    accumulate,
    finalize,
    whitening_operator,
)
from .factorizer import (
    FactorizationReport,
    FactorPair,
    GqaLayer,
    MlaFactors,
    care_factorize,
    convert_layer,
    replicate_groups,
)
from .scheduler import RankProfile, uniform_profile, waterfill

__all__ = [
    "CalibrationBatch",
    "CovarianceAccumulator",
    "FactorPair",
    "FactorizationReport",
    "GqaLayer",
    "MlaFactors",
    "RankProfile",
    "ShrinkageParams",
    "accumulate",
    "care_factorize",
    "convert_layer",
    "finalize",
    "replicate_groups",
    "uniform_profile",
    "waterfill",
    "whitening_operator",
]
